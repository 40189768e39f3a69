//! Quickstart: estimate the read-failure probability of the paper's 6T
//! SRAM cell, with and without RTN, in under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ecripse::prelude::*;

fn main() -> Result<(), EstimateError> {
    // The paper's Table I cell (PTM-16nm-like, V_DD = 0.7 V).
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);

    // Trim the default budgets so the example finishes quickly; see
    // EXPERIMENTS.md for publication-grade settings.
    let mut config = EcripseConfig::default();
    config.importance.n_samples = 5_000;

    println!("estimating RDF-only failure probability…");
    let rdf_only = Ecripse::new(config, bench.clone()).estimate()?;
    println!(
        "  P_fail = {:.3e} ± {:.2e}  ({} transistor-level simulations, {} classifier answers)",
        rdf_only.p_fail,
        rdf_only.ci95_half_width,
        rdf_only.simulations,
        rdf_only.oracle_stats.classified,
    );

    println!("estimating with RTN at duty ratio α = 0.3…");
    let mut rtn_config = config;
    rtn_config.importance.n_samples = 2_000;
    rtn_config.importance.m_rtn = 20;
    let rtn = SramRtn::paper_model(0.3, bench.sigmas());
    let with_rtn = Ecripse::with_rtn(rtn_config, bench, rtn).estimate()?;
    println!(
        "  P_fail = {:.3e} ± {:.2e}  ({} simulations)",
        with_rtn.p_fail, with_rtn.ci95_half_width, with_rtn.simulations,
    );

    println!(
        "RTN degrades the failure probability by {:.1}x at this bias",
        with_rtn.p_fail / rdf_only.p_fail
    );
    Ok(())
}
