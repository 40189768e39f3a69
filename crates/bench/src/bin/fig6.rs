//! Fig. 6 — proposed vs conventional \[8\]: estimate and relative error
//! versus the number of transistor-level simulations (RDF only).
//!
//! Both methods run the identical particle-filter + importance-sampling
//! machinery; the conventional baseline simply has the classifier
//! disabled, so each of its Monte Carlo queries costs one simulation.
//! The paper's headline: the proposed method reaches 1 % relative error
//! with 36× fewer simulations, a 15.6× wall-clock speed-up.
//!
//! Outputs: `results/fig6_proposed.csv`, `results/fig6_conventional.csv`
//! (convergence traces), `results/fig6.json` (summary consumed by the
//! `headline` binary) and `results/fig6_proposed_report.json` (the
//! proposed run's structured observability report).

use ecripse_bench::{fmt_count, paper_config, report_row, write_csv, write_json};
use ecripse_core::baseline::sis::SequentialImportanceSampling;
use ecripse_core::ecripse::Ecripse;
use ecripse_core::observe::RunRecorder;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::trace::ConvergenceTrace;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Summary persisted for the headline binary.
#[derive(Debug, Serialize, Deserialize)]
pub struct Fig6Summary {
    /// Proposed method's final estimate.
    pub p_fail_proposed: f64,
    /// Conventional method's final estimate.
    pub p_fail_conventional: f64,
    /// Relative-error target used for the comparison.
    pub rel_err_target: f64,
    /// Simulations the proposed method needed to hit the target.
    pub sims_proposed: Option<u64>,
    /// Simulations the conventional method needed.
    pub sims_conventional: Option<u64>,
    /// Simulation-count ratio (conventional / proposed).
    pub sim_ratio: Option<f64>,
    /// Estimated wall-clock ratio at the target accuracy.
    pub time_ratio: Option<f64>,
    /// Total wall-clock of the two runs \[s\].
    pub wall_proposed_s: f64,
    /// Total wall-clock of the conventional run \[s\].
    pub wall_conventional_s: f64,
}

fn trace_csv(trace: &ConvergenceTrace) -> String {
    let mut buf = Vec::new();
    trace.write_csv(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("csv is utf8")
}

/// Wall-clock to reach a trace point, estimated by linear interpolation
/// over consumed Monte Carlo samples.
fn time_to_point(total: f64, trace: &ConvergenceTrace, target: f64) -> Option<f64> {
    let hit = trace.first_below_relative_error(target)?;
    let last = trace.last()?;
    Some(total * hit.samples as f64 / last.samples as f64)
}

fn main() {
    let quick = ecripse_bench::quick_mode();
    let (n_prop, n_conv, target) = if quick {
        (30_000, 20_000, 0.03)
    } else {
        (400_000, 260_000, 0.01)
    };
    println!("=== Fig. 6: proposed vs conventional [8] (RDF only) ===");
    println!(
        "budgets: proposed {} IS samples, conventional {} — target rel. err. {:.0}%\n",
        fmt_count(n_prop as u64),
        fmt_count(n_conv as u64),
        target * 100.0
    );
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);

    // Proposed.
    let mut cfg = paper_config(n_prop, 1);
    cfg.importance.trace_every = (n_prop / 200).max(1);
    let t = Instant::now();
    let recorder = RunRecorder::new();
    let proposed = Ecripse::new(cfg, bench.clone())
        .estimate_observed(&recorder)
        .expect("proposed run");
    let proposed_report = recorder.into_report();
    let wall_proposed = t.elapsed().as_secs_f64();
    write_json("fig6_proposed_report.json", &proposed_report);
    println!(
        "proposed:     P_fail = {:.3e} (rel {:.4}) with {} sims, {} classified [{:.1} s]",
        proposed.p_fail,
        proposed.relative_error(),
        fmt_count(proposed.simulations),
        fmt_count(proposed.oracle_stats.classified),
        wall_proposed
    );
    write_csv("fig6_proposed.csv", &trace_csv(&proposed.trace));

    // Conventional [8].
    let mut cfg = paper_config(n_conv, 1);
    cfg.importance.trace_every = (n_conv / 200).max(1);
    let t = Instant::now();
    let conventional = SequentialImportanceSampling::new(cfg, bench)
        .estimate()
        .expect("conventional run");
    let wall_conventional = t.elapsed().as_secs_f64();
    println!(
        "conventional: P_fail = {:.3e} (rel {:.4}) with {} sims [{:.1} s]",
        conventional.p_fail,
        conventional.relative_error(),
        fmt_count(conventional.simulations),
        wall_conventional
    );
    write_csv("fig6_conventional.csv", &trace_csv(&conventional.trace));

    // Crossover accounting.
    let sims_proposed = proposed
        .trace
        .first_below_relative_error(target)
        .map(|p| p.simulations);
    let sims_conventional = conventional
        .trace
        .first_below_relative_error(target)
        .map(|p| p.simulations);
    let sim_ratio = match (sims_proposed, sims_conventional) {
        (Some(a), Some(b)) if a > 0 => Some(b as f64 / a as f64),
        _ => None,
    };
    let time_ratio = match (
        time_to_point(wall_proposed, &proposed.trace, target),
        time_to_point(wall_conventional, &conventional.trace, target),
    ) {
        (Some(a), Some(b)) if a > 0.0 => Some(b / a),
        _ => None,
    };

    println!();
    report_row(
        &format!("simulations to {:.0}% rel. err. (proposed)", target * 100.0),
        "~27k @1%",
        &sims_proposed.map_or("not reached".into(), fmt_count),
    );
    report_row(
        &format!(
            "simulations to {:.0}% rel. err. (conventional)",
            target * 100.0
        ),
        "~1M @1%",
        &sims_conventional.map_or("not reached".into(), fmt_count),
    );
    report_row(
        "simulation-count ratio",
        "36x",
        &sim_ratio.map_or("n/a".into(), |r| format!("{r:.1}x")),
    );
    report_row(
        "wall-clock speed-up",
        "15.6x",
        &time_ratio.map_or("n/a".into(), |r| format!("{r:.1}x")),
    );
    report_row(
        "agreement of the two estimates",
        "overlapping CIs",
        &format!("{:.3e} vs {:.3e}", proposed.p_fail, conventional.p_fail),
    );

    write_json(
        "fig6.json",
        &Fig6Summary {
            p_fail_proposed: proposed.p_fail,
            p_fail_conventional: conventional.p_fail,
            rel_err_target: target,
            sims_proposed,
            sims_conventional,
            sim_ratio,
            time_ratio,
            wall_proposed_s: wall_proposed,
            wall_conventional_s: wall_conventional,
        },
    );
}
