//! Write-margin analysis — the failure mode the paper leaves for future
//! work, handled by the same estimator stack.
//!
//! Shows the signed write margin across a write-hostile skew, then
//! estimates the (far rarer) write-failure probability with the adaptive
//! tolerance API.
//!
//! ```sh
//! cargo run --release --example write_analysis
//! ```

use ecripse::prelude::*;

fn main() -> Result<(), EstimateError> {
    let circuit = ReadStabilityBench::paper_cell();

    println!("write margin vs write-hostile skew (stronger PL, weaker AL):");
    println!(
        "{:>10} {:>14} {:>14}",
        "skew [mV]", "write [mV]", "read [mV]"
    );
    for k in 0..7 {
        let s = 0.05 * k as f64;
        let dv = [-s, 0.0, 0.0, 0.0, s, 0.0];
        println!(
            "{:>10.0} {:>14.1} {:>14.1}",
            s * 1e3,
            circuit.margin(Scenario::WriteMargin, &dv) * 1e3,
            circuit.margin(Scenario::ReadSnm, &dv) * 1e3,
        );
    }

    println!("\nestimating the write-failure probability (adaptive, 15% target)…");
    let mut config = EcripseConfig::default();
    config.importance.n_samples = 50_000;
    // The write boundary sits much farther out than the read boundary.
    config.initial.r_max = 14.0;
    let bench = SramScenarioBench::paper_cell(Scenario::WriteMargin);
    let result = Ecripse::new(config, bench).estimate_with(&RunOptions {
        target_relative_error: Some(0.15),
        ..RunOptions::default()
    })?;
    println!(
        "  P(write failure) = {:.3e} ± {:.2e}  ({} simulations, {} IS samples)",
        result.p_fail, result.ci95_half_width, result.simulations, result.is_samples
    );
    println!(
        "  (read failure of the same cell is ~1.2e-4 — this cell is write-friendly\n\
         \x20  by design: the load is weak against the access transistor)"
    );
    Ok(())
}
