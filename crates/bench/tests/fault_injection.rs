//! Fault-injection suite: drives the [`Simulator`]'s retry ladder and
//! quarantine (alone and under an estimate's boundary search and later
//! stages), and per-point failure isolation, with
//! [`FaultyBench`] faults that are deterministic by sample hash.

use ecripse_bench::fault::{FaultConfig, FaultyBench};
use ecripse_core::bench::{LinearBench, Testbench};
use ecripse_core::cache::MemoCacheConfig;
use ecripse_core::ecripse::{Ecripse, EcripseConfig};
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::{InitialParticles, InitialSearchConfig};
use ecripse_core::observe::NullObserver;
use ecripse_core::oracle::OracleStats;
use ecripse_core::retry::RetryPolicy;
use ecripse_core::simulate::Simulator;
use ecripse_core::sweep::{DutySweep, SweepError, SweepOptions};

fn bench6() -> LinearBench {
    LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5)
}

fn simulator<B: Testbench>(bench: &B, max_attempts: usize) -> Simulator<'_, B> {
    Simulator::new(
        bench,
        &NullObserver,
        MemoCacheConfig::default(),
        RetryPolicy { max_attempts },
    )
}

/// `(retries, quarantined)` so far.
fn ladder<B: Testbench>(sim: &Simulator<'_, B>) -> (u64, u64) {
    let stats = sim.oracle_stats(&OracleStats::default());
    (stats.retries, stats.quarantined)
}

fn samples(n: usize) -> Vec<Vec<f64>> {
    // A deterministic spread straddling the z0 = 3.5 failure boundary.
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            vec![7.0 * t, 0.5 - t, t, -0.25, 2.0 * t - 1.0, 0.125]
        })
        .collect()
}

#[test]
fn retry_ladder_heals_transient_faults_to_ground_truth() {
    let truth = bench6();
    let faulty = FaultyBench::new(
        bench6(),
        FaultConfig {
            solver_failure_rate: 0.3,
            transient_attempts: 2,
            ..FaultConfig::default()
        },
    );
    let sim = simulator(&faulty, 3);
    let zs = samples(400);
    let healed = sim.fails_batch(&zs);
    let expected = truth.fails_batch(&zs);
    assert_eq!(healed, expected, "healed verdicts must equal ground truth");
    let (retries, quarantined) = ladder(&sim);
    assert!(retries > 0, "some samples must have needed retries");
    assert_eq!(quarantined, 0, "transient faults never quarantine");
    assert!(faulty.injected() > 0);
}

#[test]
fn permanent_faults_are_quarantined_not_guessed() {
    let faulty = FaultyBench::new(
        bench6(),
        FaultConfig {
            solver_failure_rate: 0.25,
            transient_attempts: usize::MAX,
            ..FaultConfig::default()
        },
    );
    let sim = simulator(&faulty, 3);
    let zs = samples(400);
    let verdicts = sim.fails_batch(&zs);
    assert!(ladder(&sim).1 > 0, "permanent faults must quarantine");
    for (z, verdict) in zs.iter().zip(&verdicts) {
        if faulty.try_fails(z).is_err() {
            assert!(
                !verdict,
                "quarantined samples report the conservative verdict"
            );
        } else {
            assert_eq!(*verdict, faulty.fails(z));
        }
    }
}

#[test]
fn recovery_counters_are_thread_count_independent() {
    let run = |threads: usize| {
        let faulty = FaultyBench::new(
            bench6(),
            FaultConfig {
                solver_failure_rate: 0.4,
                transient_attempts: 1,
                salt: 9,
                ..FaultConfig::default()
            },
        );
        let sim = simulator(&faulty, 2);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool");
        let verdicts = pool.install(|| sim.fails_batch(&samples(600)));
        (verdicts, ladder(&sim), sim.simulations())
    };
    assert_eq!(
        run(1),
        run(4),
        "verdicts and counters must not depend on threads"
    );
}

fn tiny_config(seed: u64) -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 12,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        },
        iterations: 3,
        importance: ImportanceConfig {
            n_samples: 250,
            m_rtn: 4,
            trace_every: 0,
        },
        m_rtn_stage1: 2,
        seed,
        ..EcripseConfig::default()
    }
}

#[test]
fn keep_going_sweep_isolates_a_poisoned_point() {
    let alphas = vec![0.0, 0.5, 1.0];
    let clean = DutySweep::new(tiny_config(11), bench6(), alphas.clone())
        .run()
        .expect("fault-free sweep");

    let poisoned_bench = FaultyBench::new(bench6(), FaultConfig::default()).poison_alpha(0.5);
    let sweep = DutySweep::new(tiny_config(11), poisoned_bench, alphas);

    // Default (fail-fast) semantics: the poisoned point aborts the sweep.
    let err = sweep
        .run_with(&SweepOptions::default())
        .expect_err("poisoned point must fail the strict sweep");
    assert!(matches!(err, SweepError::Point { index: 1, .. }));

    // --keep-going: the failure stays confined to its point, and the
    // surviving points are bit-identical to the fault-free sweep.
    let run = sweep
        .run_with(&SweepOptions {
            keep_going: true,
            ..SweepOptions::default()
        })
        .expect("keep-going sweep completes");
    assert_eq!(run.failed_points(), 1);
    assert!(run.outcomes[1].result.is_err());
    for k in [0, 2] {
        let point = run.outcomes[k].result.as_ref().expect("clean point");
        assert_eq!(
            *point, clean.points[k],
            "clean points must match fault-free run"
        );
    }
    assert_eq!(run.p_fail_rdf_only, clean.p_fail_rdf_only);
}

#[test]
fn boundary_search_climbs_the_retry_ladder() {
    // A third of the samples fault on attempt 0 and heal on attempt 1,
    // so every injected fault costs exactly one retry rung.
    let faulty = FaultyBench::new(
        bench6(),
        FaultConfig {
            solver_failure_rate: 0.3,
            transient_attempts: 1,
            salt: 3,
            ..FaultConfig::default()
        },
    );
    let clean = Ecripse::new(tiny_config(5), bench6());
    let healing = Ecripse::new(tiny_config(5), &faulty);
    let bits = |init: &InitialParticles| -> Vec<Vec<u64>> {
        init.particles
            .iter()
            .map(|p| p.iter().map(|v| v.to_bits()).collect())
            .collect()
    };

    // Step 1 finds the fault-free particles and bills the retries.
    let clean_init = clean.find_initial_particles().expect("clean boundary");
    let healed_init = healing.find_initial_particles().expect("healed boundary");
    let search_retries = faulty.injected();
    assert!(search_retries > 0, "some boundary probes must fault");
    assert_eq!(bits(&healed_init), bits(&clean_init));
    assert_eq!(
        healed_init.simulations,
        clean_init.simulations + search_retries
    );

    // The whole estimate agrees bit for bit and bills every retry.
    let clean_run = clean.estimate().expect("clean estimate");
    let healed_run = healing.estimate().expect("healed estimate");
    assert_eq!(healed_run.p_fail.to_bits(), clean_run.p_fail.to_bits());
    assert_eq!(
        healed_run.simulations,
        clean_run.simulations + faulty.injected() - search_retries
    );
    assert_eq!(healed_run.oracle_stats.quarantined, 0);
}
