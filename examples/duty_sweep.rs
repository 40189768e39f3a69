//! Duty-ratio sweep: how the stored-data statistics modulate the
//! RTN-induced failure probability (the study Fig. 8 of the paper opens
//! up). Initial boundary particles are shared across all bias points.
//!
//! ```sh
//! cargo run --release --example duty_sweep
//! ```

use ecripse::prelude::*;

fn main() -> Result<(), SweepError> {
    let mut config = EcripseConfig::default();
    config.importance.n_samples = 2_000;
    config.importance.m_rtn = 20;

    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    // A coarse five-point sweep; `fig8` in the bench crate runs the
    // paper's full eleven-point grid.
    let sweep = DutySweep::new(config, bench, vec![0.0, 0.25, 0.5, 0.75, 1.0]);

    println!(
        "running {}-point duty sweep (shared initialisation)…",
        sweep.alphas().len()
    );
    // `into_parts` splits the outcome into the same SweepResult as `run`
    // and one structured RunReport per α point (and one for the RTN-free
    // reference run) — here used for the per-point cost column.
    let (result, reports) = sweep
        .run_with(&SweepOptions::default())
        .and_then(ResumableSweep::into_parts)?;

    println!(
        "\n{:<8} {:>12} {:>12} {:>10}",
        "α", "P_fail", "±CI95", "sims/spl"
    );
    for (p, report) in result.points.iter().zip(&reports.points) {
        let density = report
            .stage2_chunks
            .last()
            .map(|c| c.sims_per_sample())
            .unwrap_or(0.0);
        let bar = "#".repeat((p.p_fail / result.p_fail_rdf_only).round() as usize);
        println!(
            "{:<8} {:>12.3e} {:>12.1e} {:>10.3}  {bar}",
            p.alpha, p.p_fail, p.ci95_half_width, density
        );
    }
    println!(
        "\nwithout RTN: {:.3e}  (each # above = one RDF-only multiple)",
        result.p_fail_rdf_only
    );
    println!(
        "worst case is {:.1}x the RTN-free value; minimum at α = {}",
        result.rtn_degradation_factor(),
        result.best().expect("non-empty sweep").alpha
    );
    println!(
        "total simulations: {} (of which {} for the shared initialisation)",
        result.total_simulations, result.init_simulations
    );
    Ok(())
}
