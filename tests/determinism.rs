//! Reproducibility: identical seeds must give bit-identical results all
//! the way through the public API, and different seeds must actually
//! decorrelate.

use ecripse::prelude::*;
use ecripse_core::bench::TwoLobeBench;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;

fn config(seed: u64) -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 24,
            ..InitialSearchConfig::default()
        },
        iterations: 5,
        importance: ImportanceConfig {
            n_samples: 3000,
            m_rtn: 1,
            trace_every: 100,
        },
        m_rtn_stage1: 1,
        seed,
        ..EcripseConfig::default()
    }
}

fn bench() -> TwoLobeBench {
    TwoLobeBench::new(vec![1.0, -0.5, 0.25], 3.0)
}

#[test]
fn same_seed_bitwise_identical() {
    let a = Ecripse::new(config(7), bench()).estimate().expect("run a");
    let b = Ecripse::new(config(7), bench()).estimate().expect("run b");
    assert_eq!(a.p_fail, b.p_fail);
    assert_eq!(a.ci95_half_width, b.ci95_half_width);
    assert_eq!(a.simulations, b.simulations);
    assert_eq!(a.oracle_stats, b.oracle_stats);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let a = Ecripse::new(config(1), bench()).estimate().expect("run a");
    let b = Ecripse::new(config(2), bench()).estimate().expect("run b");
    assert_ne!(a.p_fail, b.p_fail, "distinct seeds should not collide");
    // …but both must estimate the same quantity.
    let exact = bench().exact_p_fail();
    for (name, r) in [("a", &a), ("b", &b)] {
        assert!(
            ((r.p_fail - exact) / exact).abs() < 0.3,
            "seed {name}: {:e} vs {exact:e}",
            r.p_fail
        );
    }
}

#[test]
fn thread_count_does_not_change_results() {
    // The whole parallel pipeline (per-filter RNG streams, batched
    // oracle, memo-cache dedup) is designed so the thread schedule can
    // never influence a draw or a counter: one worker and many workers
    // must produce bit-identical results, statistics included.
    let mut serial = config(7);
    serial.threads = 1;
    let mut parallel = config(7);
    parallel.threads = 4;
    let a = Ecripse::new(serial, bench())
        .estimate()
        .expect("serial run");
    let b = Ecripse::new(parallel, bench())
        .estimate()
        .expect("parallel run");
    assert_eq!(a, b, "results must not depend on the thread count");
}

#[test]
fn batched_sram_bench_is_thread_invariant() {
    use ecripse_core::bench::Testbench;
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let zs: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..6)
                .map(|d| ((i * 6 + d) as f64 * 0.7).sin() * 4.5)
                .collect()
        })
        .collect();
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| bench.fails_batch(&zs));
    let many = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .expect("pool")
        .install(|| bench.fails_batch(&zs));
    assert_eq!(one, many);
    let single: Vec<bool> = zs.iter().map(|z| bench.fails(z)).collect();
    assert_eq!(one, single);
}

#[test]
fn naive_mc_is_seed_deterministic() {
    let bench = bench();
    let cfg = NaiveConfig {
        n_samples: 10_000,
        trace_every: 1000,
        seed: 99,
    };
    let a = naive_monte_carlo(&bench, &NoRtn::new(3), &cfg);
    let b = naive_monte_carlo(&bench, &NoRtn::new(3), &cfg);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn rtn_sampling_is_seed_deterministic() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let model = RtnCellModel::paper_model(0.4);
    let mut r1 = StdRng::seed_from_u64(5);
    let mut r2 = StdRng::seed_from_u64(5);
    for _ in 0..100 {
        assert_eq!(model.sample(&mut r1), model.sample(&mut r2));
    }
}
