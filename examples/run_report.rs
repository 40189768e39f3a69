//! Observability: watch a run live and collect its structured report.
//!
//! Attaches two observers to one estimation — a [`ProgressObserver`]
//! that narrates every pipeline event on stderr, and a [`RunRecorder`]
//! that aggregates the same events into a serialisable [`RunReport`] —
//! then prints a per-stage cost table and writes the report as JSON
//! (the same document `ecripse-cli --report` produces).
//!
//! ```sh
//! cargo run --release --example run_report
//! ```

use ecripse::prelude::*;

fn main() -> Result<(), EstimateError> {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let mut config = EcripseConfig::default();
    config.importance.n_samples = 3_000;

    // Fan one event stream out to both observers.
    let recorder = RunRecorder::new();
    let progress = ProgressObserver::new();
    let mut observers = MultiObserver::new();
    observers.push(&recorder);
    observers.push(&progress);

    let result = Ecripse::new(config, bench).estimate_observed(&observers)?;
    let report = recorder.into_report();

    println!(
        "\nP_fail = {:.3e} ± {:.2e}",
        result.p_fail, result.ci95_half_width
    );
    println!("\n{:<22} {:>10} {:>12}", "stage", "wall [s]", "simulations");
    for stage in &report.stages {
        println!(
            "{:<22} {:>10.2} {:>12}",
            stage.stage.name(),
            stage.wall_seconds,
            stage.simulations
        );
    }
    println!(
        "\nclassifier answered {} of {} indicator queries ({} retrains); \
         memo-cache served {} of {} simulator calls",
        report.oracle.classified,
        report.oracle.classified + report.oracle.simulated,
        report.oracle.retrains,
        report.oracle.cache_hits,
        report.oracle.cache_hits + report.oracle.cache_misses,
    );
    if let Some(last) = report.stage2_chunks.last() {
        println!(
            "stage-2 cost density: {:.3} simulations per importance sample",
            last.sims_per_sample()
        );
    }

    let path = std::env::temp_dir().join("ecripse_run_report.json");
    let file = std::fs::File::create(&path).expect("create report file");
    report
        .write_json(std::io::BufWriter::new(file))
        .expect("write report");
    println!("full JSON report written to {}", path.display());
    Ok(())
}
