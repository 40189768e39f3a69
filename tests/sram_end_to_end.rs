//! End-to-end runs on the real SRAM testbench with small budgets (these
//! drive the actual circuit simulator, so they are sized to stay fast in
//! debug builds; the bench binaries carry the full-size experiments).

use ecripse::prelude::*;
use ecripse_core::bench::Testbench;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;

fn tiny_config() -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 16,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        },
        iterations: 4,
        importance: ImportanceConfig {
            n_samples: 400,
            m_rtn: 5,
            trace_every: 0,
        },
        m_rtn_stage1: 3,
        ..EcripseConfig::default()
    }
}

#[test]
fn sram_rdf_only_is_in_the_papers_regime() {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let mut cfg = tiny_config();
    cfg.importance.m_rtn = 1;
    cfg.m_rtn_stage1 = 1;
    let res = Ecripse::new(cfg, bench).estimate().expect("sram run");
    // Tiny budget → loose bounds; the paper's value is 1.33e-4 and the
    // tuned full-budget reproduction lands at ~1.2e-4.
    assert!(
        res.p_fail > 1e-5 && res.p_fail < 2e-3,
        "RDF-only P_fail = {:e} out of regime",
        res.p_fail
    );
    assert!(res.simulations > 0);
}

#[test]
fn rtn_worsens_the_worst_case_duty() {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let mut cfg = tiny_config();
    cfg.importance.m_rtn = 1;
    cfg.m_rtn_stage1 = 1;
    let run = Ecripse::new(cfg, bench.clone());
    let init = run.find_initial_particles().expect("boundary");
    let shared = RunOptions {
        initial: Some(&init),
        ..RunOptions::default()
    };
    let rdf_only = run.estimate_with(&shared).expect("rdf run");

    // α = 0: the mostly-OFF devices (left load, right driver) suffer
    // maximal RTN.
    let rtn = SramRtn::paper_model(0.0, bench.sigmas());
    let res = Ecripse::with_rtn(tiny_config(), bench, rtn)
        .estimate_with(&shared)
        .expect("rtn run");
    assert!(
        res.p_fail > 1.5 * rdf_only.p_fail,
        "RTN at α=0 should clearly degrade: {:e} vs {:e}",
        res.p_fail,
        rdf_only.p_fail
    );
}

#[test]
fn whitened_and_physical_indicators_agree_through_the_stack() {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let circuit = bench.circuit();
    let sig = bench.sigmas();
    for z in [
        [0.0; 6],
        [2.0, -1.0, 0.5, 3.0, 0.0, -1.0],
        [-3.0, 4.0, 1.0, -2.0, 2.0, 0.0],
    ] {
        let dv: Vec<f64> = z.iter().zip(&sig).map(|(zi, s)| zi * s).collect();
        assert_eq!(
            bench.fails(&z),
            circuit.margin(Scenario::ReadSnm, &dv) < 0.0
        );
    }
}

#[test]
fn low_supply_raises_failure_probability() {
    let mut cfg = tiny_config();
    cfg.importance.m_rtn = 1;
    cfg.m_rtn_stage1 = 1;
    let hi = Ecripse::new(cfg, SramScenarioBench::paper_cell(Scenario::ReadSnm))
        .estimate()
        .expect("nominal run");
    let lo = Ecripse::new(cfg, SramScenarioBench::at_vdd(Scenario::ReadSnm, 0.5))
        .estimate()
        .expect("low-vdd run");
    assert!(
        lo.p_fail > 5.0 * hi.p_fail,
        "0.5 V ({:e}) should fail much more than 0.7 V ({:e})",
        lo.p_fail,
        hi.p_fail
    );
}

#[test]
fn rtn_copies_reuse_half_cell_curves_and_rdf_only_runs_do_not() {
    // RTN copies of one sample shift only loads and drivers, by whole
    // trap counts, so some leave a half-cell's devices as they were and
    // its curve is taken from the bench's store. A one-thread run is
    // schedule-free, so the count is pinned. RDF-only samples never
    // repeat a half.
    let mut cfg = tiny_config();
    cfg.seed = 1;
    cfg.threads = 1;
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let rtn = SramRtn::paper_model(0.5, bench.sigmas());
    Ecripse::with_rtn(cfg, bench.clone(), rtn)
        .estimate()
        .expect("rtn run");
    let reuse = bench.circuit().curve_reuse();
    assert_eq!(reuse.hits, 134, "{reuse:?}");
    assert!(reuse.misses > 10 * reuse.hits, "{reuse:?}");

    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    cfg.importance.m_rtn = 1;
    cfg.m_rtn_stage1 = 1;
    Ecripse::new(cfg, bench.clone())
        .estimate()
        .expect("rdf run");
    let reuse = bench.circuit().curve_reuse();
    assert_eq!(reuse.hits, 0, "{reuse:?}");
    assert!(reuse.misses > 0);
}
