//! Fig. 7 — proposed method vs naive Monte Carlo with RTN, at the
//! lowered 0.5 V supply (so naive converges), for duty ratios α = 0.3
//! (panel a) and α = 0.5 (panel b, sharing the initial particles of the
//! first run and therefore needing far fewer simulations).
//!
//! Outputs: `results/fig7_naive_a03.csv`, `results/fig7_proposed_a03.csv`,
//! `results/fig7_proposed_a05.csv`, `results/fig7.json` and
//! `results/fig7_reports.json` (structured observability reports, one
//! per α point).

use ecripse_bench::{fmt_count, paper_config, report_row, write_csv, write_json};
use ecripse_core::baseline::naive::{naive_monte_carlo, NaiveConfig};
use ecripse_core::ecripse::{Ecripse, RunOptions};
use ecripse_core::observe::RunRecorder;
use ecripse_core::rtn_source::SramRtn;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::trace::ConvergenceTrace;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Summary persisted for the headline binary.
#[derive(Debug, Serialize, Deserialize)]
pub struct Fig7Summary {
    /// Supply voltage of the experiment.
    pub vdd: f64,
    /// Naive estimate at α = 0.3 with its 95 % bounds.
    pub naive_p_fail: f64,
    /// Naive lower bound.
    pub naive_lo: f64,
    /// Naive upper bound.
    pub naive_hi: f64,
    /// Naive trials.
    pub naive_samples: u64,
    /// Proposed estimate at α = 0.3.
    pub proposed_a03: f64,
    /// Proposed estimate at α = 0.5.
    pub proposed_a05: f64,
    /// Relative-error target for the sims comparison.
    pub rel_err_target: f64,
    /// Simulations to target, α = 0.3 (includes initialisation).
    pub sims_a03: Option<u64>,
    /// Simulations to target, α = 0.5 (shared initialisation).
    pub sims_a05: Option<u64>,
    /// Naive-vs-proposed simulation ratio at matched accuracy.
    pub naive_speedup: Option<f64>,
}

fn trace_csv(trace: &ConvergenceTrace) -> String {
    let mut buf = Vec::new();
    trace.write_csv(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("csv utf8")
}

fn main() {
    let quick = ecripse_bench::quick_mode();
    let (n_naive, n_is, target) = if quick {
        (20_000, 3_000, 0.10)
    } else {
        (400_000, 30_000, 0.04)
    };
    const VDD: f64 = 0.5;
    println!("=== Fig. 7: proposed vs naive Monte Carlo with RTN (V_DD = {VDD} V) ===\n");
    let bench = SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD);
    let sigmas = bench.sigmas();

    // --- Panel (a): α = 0.3 ---
    let rtn03 = SramRtn::paper_model(0.3, sigmas);
    let t = Instant::now();
    let naive = naive_monte_carlo(
        &bench,
        &rtn03,
        &NaiveConfig {
            n_samples: n_naive,
            trace_every: (n_naive / 100).max(1),
            seed: 0xf167,
        },
    );
    println!(
        "naive (α=0.3):    P_fail = {:.3e} [{:.3e}, {:.3e}] from {} trials [{:.0} s]",
        naive.p_fail,
        naive.interval.lo,
        naive.interval.hi,
        fmt_count(naive.simulations),
        t.elapsed().as_secs_f64()
    );
    write_csv("fig7_naive_a03.csv", &trace_csv(&naive.trace));

    let mut cfg = paper_config(n_is, 20);
    cfg.importance.trace_every = (n_is / 100).max(1);
    let run03 = Ecripse::with_rtn(cfg, bench.clone(), rtn03);
    let init = run03.find_initial_particles().expect("boundary");
    let recorder03 = RunRecorder::new();
    let t = Instant::now();
    let proposed03 = run03
        .estimate_with(&RunOptions {
            observer: &recorder03,
            initial: Some(&init),
            ..RunOptions::default()
        })
        .expect("proposed α=0.3");
    println!(
        "proposed (α=0.3): P_fail = {:.3e} (rel {:.3}) with {} sims [{:.0} s]",
        proposed03.p_fail,
        proposed03.relative_error(),
        fmt_count(proposed03.simulations),
        t.elapsed().as_secs_f64()
    );
    write_csv("fig7_proposed_a03.csv", &trace_csv(&proposed03.trace));

    // --- Panel (b): α = 0.5, sharing the initial particles ---
    let rtn05 = SramRtn::paper_model(0.5, sigmas);
    let mut cfg = paper_config(n_is, 20);
    cfg.importance.trace_every = (n_is / 100).max(1);
    let run05 = Ecripse::with_rtn(cfg, bench, rtn05);
    let shared = ecripse_core::initial::InitialParticles {
        particles: init.particles.clone(),
        simulations: 0, // amortised: already paid by the α = 0.3 run
    };
    let recorder05 = RunRecorder::new();
    let t = Instant::now();
    let proposed05 = run05
        .estimate_with(&RunOptions {
            observer: &recorder05,
            initial: Some(&shared),
            ..RunOptions::default()
        })
        .expect("proposed α=0.5");
    println!(
        "proposed (α=0.5): P_fail = {:.3e} (rel {:.3}) with {} sims (shared init) [{:.0} s]",
        proposed05.p_fail,
        proposed05.relative_error(),
        fmt_count(proposed05.simulations),
        t.elapsed().as_secs_f64()
    );
    write_csv("fig7_proposed_a05.csv", &trace_csv(&proposed05.trace));
    write_json(
        "fig7_reports.json",
        &vec![recorder03.into_report(), recorder05.into_report()],
    );

    // --- Accounting ---
    let sims_a03 = proposed03
        .trace
        .first_below_relative_error(target)
        .map(|p| p.simulations);
    let sims_a05 = proposed05
        .trace
        .first_below_relative_error(target)
        .map(|p| p.simulations);
    // Naive trials needed for the same relative error:
    // rel ≈ 1.96·sqrt((1−p)/(n·p)) → n ≈ (1.96/rel)²·(1−p)/p.
    let p = naive.p_fail.max(1e-12);
    let naive_needed = (1.96 / target).powi(2) * (1.0 - p) / p;
    let naive_speedup = sims_a03.map(|s| naive_needed / s as f64);

    println!();
    report_row(
        "naive vs proposed estimates overlap",
        "yes",
        &format!(
            "naive [{:.2e},{:.2e}] ∋? {:.2e}",
            naive.interval.lo, naive.interval.hi, proposed03.p_fail
        ),
    );
    report_row(
        &format!("proposed sims to {:.0}% rel err (α=0.3)", target * 100.0),
        "~24k @4%-equiv",
        &sims_a03.map_or("not reached".into(), fmt_count),
    );
    report_row(
        &format!(
            "proposed sims to {:.0}% rel err (α=0.5, shared init)",
            target * 100.0
        ),
        "roughly half of α=0.3",
        &sims_a05.map_or("not reached".into(), fmt_count),
    );
    report_row(
        "speed-up vs naive at matched accuracy",
        "~40x",
        &naive_speedup.map_or("n/a".into(), |r| format!("{r:.0}x")),
    );

    write_json(
        "fig7.json",
        &Fig7Summary {
            vdd: VDD,
            naive_p_fail: naive.p_fail,
            naive_lo: naive.interval.lo,
            naive_hi: naive.interval.hi,
            naive_samples: naive.simulations,
            proposed_a03: proposed03.p_fail,
            proposed_a05: proposed05.p_fail,
            rel_err_target: target,
            sims_a03,
            sims_a05,
            naive_speedup,
        },
    );
}
