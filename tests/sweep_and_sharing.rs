//! Bias-condition sweeps and initial-particle sharing across the public
//! API (small budgets — the full Fig. 8 sweep lives in the bench crate).

use ecripse::prelude::*;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::{InitialParticles, InitialSearchConfig};

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
fn duty_sweep_shares_initialisation_and_reports_consistent_totals() {
    let sweep = DutySweep::new(
        tiny_config(3),
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
        vec![0.0, 0.5, 1.0],
    );
    let result = sweep.run().expect("sweep");
    assert_eq!(result.points.len(), 3);
    assert!(result.init_simulations > 0);
    // The per-point sims exclude the shared init; the total includes it
    // once plus the RDF-only reference run.
    let per_point: u64 = result.points.iter().map(|p| p.simulations).sum();
    assert!(result.total_simulations >= result.init_simulations + per_point);
    for p in &result.points {
        assert!(p.p_fail.is_finite() && p.p_fail >= 0.0);
    }
    assert!(result.p_fail_rdf_only > 0.0);
}

#[test]
fn shared_initial_particles_reproduce_across_calls() {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let run = Ecripse::new(tiny_config(9), bench);
    let init = run.find_initial_particles().expect("boundary");
    let shared = RunOptions {
        initial: Some(&init),
        ..RunOptions::default()
    };
    let a = run.estimate_with(&shared).expect("first");
    let b = run.estimate_with(&shared).expect("second");
    assert_eq!(a.p_fail, b.p_fail);
    assert_eq!(a.simulations, b.simulations);
}

#[test]
fn foreign_initial_particles_still_work_if_in_failure_region() {
    // A caller may supply hand-made seeds (e.g. from a previous session);
    // as long as they fail, the flow must accept them.
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    use ecripse_core::bench::Testbench;
    // A known failing direction: driver imbalance at 6σ.
    let seed = vec![0.0, -4.4, 0.0, 4.4, 0.0, 0.0];
    assert!(bench.fails(&seed));
    let init = InitialParticles {
        particles: vec![seed],
        simulations: 0,
    };
    let res = Ecripse::new(tiny_config(5), bench)
        .estimate_with(&RunOptions {
            initial: Some(&init),
            ..RunOptions::default()
        })
        .expect("runs from a foreign seed");
    assert!(res.p_fail > 0.0);
}
