//! Fig. 8 — failure probability versus duty ratio α, with shared initial
//! particles, plus the RDF-only reference (the paper's 1.33e-4) and the
//! RTN degradation factor (the paper's "six times").
//!
//! Outputs: `results/fig8.csv` (α, P_fail, CI), `results/fig8.json`, and
//! `results/fig8_reports.json` (structured observability reports — the
//! RDF-only reference plus one `RunReport` per α point).

use ecripse_bench::{fmt_count, paper_config, report_row, write_csv, write_json};
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::sweep::{DutySweep, ResumableSweep, SweepOptions, SweepResult};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Summary persisted for the headline binary.
#[derive(Debug, Serialize, Deserialize)]
pub struct Fig8Summary {
    /// Full sweep outcome.
    pub sweep: SweepResult,
    /// Worst-case RTN degradation factor vs RDF-only.
    pub degradation_factor: f64,
    /// α of the sweep minimum.
    pub alpha_at_minimum: f64,
    /// All α whose confidence interval overlaps the minimum's — the
    /// statistically indistinguishable bottom of the curve.
    pub minimum_plateau: Vec<f64>,
    /// Bilateral-symmetry metric: mean |P(α) − P(1−α)| / mean P.
    pub asymmetry: f64,
    /// Extrapolated naive-MC cost of the whole figure (trials).
    pub naive_equivalent_trials: f64,
    /// Speed-up of the sweep vs that extrapolated naive cost.
    pub sweep_speedup: f64,
}

fn main() {
    let quick = ecripse_bench::quick_mode();
    let n_is = if quick { 1_500 } else { 12_000 };
    println!("=== Fig. 8: failure probability vs duty ratio (V_DD nominal) ===\n");

    let cfg = paper_config(n_is, 20);
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let sweep = DutySweep::paper_grid(cfg, bench);

    let t = Instant::now();
    let (result, reports) = sweep
        .run_with(&SweepOptions::default())
        .and_then(ResumableSweep::into_parts)
        .expect("duty sweep");
    let wall = t.elapsed().as_secs_f64();

    println!("{:<8} {:>12} {:>12} {:>10}", "α", "P_fail", "±CI95", "sims");
    for p in &result.points {
        println!(
            "{:<8} {:>12.3e} {:>12.1e} {:>10}",
            p.alpha,
            p.p_fail,
            p.ci95_half_width,
            fmt_count(p.simulations)
        );
    }
    println!(
        "\nRDF-only reference: {:.3e} ± {:.1e}   (paper: 1.33e-4)",
        result.p_fail_rdf_only, result.rdf_only_ci95
    );

    // Shape metrics.
    let worst = result.worst().expect("non-empty sweep");
    let best = result.best().expect("non-empty sweep");
    let mean_p: f64 =
        result.points.iter().map(|p| p.p_fail).sum::<f64>() / result.points.len() as f64;
    let mut asym = 0.0;
    let mut pairs = 0;
    for p in &result.points {
        if let Some(q) = result
            .points
            .iter()
            .find(|q| (q.alpha - (1.0 - p.alpha)).abs() < 1e-9)
        {
            asym += (p.p_fail - q.p_fail).abs();
            pairs += 1;
        }
    }
    let asymmetry = asym / pairs as f64 / mean_p;

    // The bottom of the curve is flat; report every α statistically
    // indistinguishable from the argmin rather than a noise-picked point.
    let minimum_plateau: Vec<f64> = result
        .points
        .iter()
        .filter(|p| p.p_fail - p.ci95_half_width <= best.p_fail + best.ci95_half_width)
        .map(|p| p.alpha)
        .collect();

    // The paper's 5500× arithmetic, made precise: for each bias point,
    // the number of naive trials needed to match the *achieved* relative
    // error is n = (1.96/rel)²·(1−p)/p; the speed-up is the summed naive
    // cost over the measured simulation total.
    let naive_total: f64 = result
        .points
        .iter()
        .map(|p| {
            let rel = (p.ci95_half_width / p.p_fail).max(1e-6);
            (1.96 / rel).powi(2) * (1.0 - p.p_fail) / p.p_fail
        })
        .sum();
    let speedup = naive_total / result.total_simulations as f64;

    println!();
    report_row(
        "minimum of the sweep",
        "α = 0.5",
        &format!("α = {} (plateau: {minimum_plateau:?})", best.alpha),
    );
    report_row(
        "bilateral symmetry (relative)",
        "\"almost symmetric\"",
        &format!("{:.1}% mean |P(α)−P(1−α)|", asymmetry * 100.0),
    );
    report_row(
        "worst-case RTN degradation",
        "6x",
        &format!(
            "{:.1}x at α = {}",
            result.rtn_degradation_factor(),
            worst.alpha
        ),
    );
    report_row(
        "total simulations for the figure",
        "~2e5",
        &fmt_count(result.total_simulations),
    );
    report_row(
        "speed-up vs extrapolated naive sweep",
        ">5500x",
        &format!("{speedup:.0}x"),
    );
    println!("\nsweep wall-clock: {wall:.0} s");

    let mut csv = Vec::new();
    result.write_csv(&mut csv).expect("in-memory write");
    write_csv("fig8.csv", &String::from_utf8(csv).expect("utf8"));
    write_json("fig8_reports.json", &reports);
    write_json(
        "fig8.json",
        &Fig8Summary {
            degradation_factor: result.rtn_degradation_factor(),
            alpha_at_minimum: best.alpha,
            minimum_plateau,
            asymmetry,
            naive_equivalent_trials: naive_total,
            sweep_speedup: speedup,
            sweep: result,
        },
    );
}
