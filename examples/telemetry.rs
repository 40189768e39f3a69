//! Telemetry: process-wide metrics and structured trace events.
//!
//! Bridges one estimation run into a [`MetricsRegistry`] through a
//! [`TelemetryObserver`] — counters for simulations/iterations/cache
//! traffic, a latency histogram for every raw simulator batch — while a
//! [`Tracer`] appends one JSON object per pipeline event to a
//! size-rotated JSONL file. Afterwards the example prints the latency
//! percentiles and the same Prometheus text exposition `ecripse-cli
//! serve` offers on `GET /metrics` with `Accept: text/plain`.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use ecripse::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), EstimateError> {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let mut config = EcripseConfig::default();
    config.importance.n_samples = 3_000;

    // A registry of this process's metrics. `MetricsRegistry::global()`
    // offers a shared singleton; a local one keeps the example hermetic.
    let registry = MetricsRegistry::new();

    // Structured trace events land in a JSONL file that rotates to
    // `<path>.1` when it outgrows the byte cap.
    let trace_path = std::env::temp_dir().join("ecripse_trace.jsonl");
    let sink = RotatingFileSink::create(&trace_path, 4 * 1024 * 1024).expect("create trace log");
    let tracer = Tracer::new(Arc::new(sink));

    // The bridge folds every pipeline event into registry metrics and
    // mirrors it into the tracer. It is purely observational: the
    // estimate below is bit-identical to an unobserved run.
    let bridge = TelemetryObserver::new(&registry).with_tracer(tracer);

    let result = Ecripse::new(config, bench).estimate_observed(&bridge)?;
    println!(
        "P_fail = {:.3e} ± {:.2e} using {} simulations\n",
        result.p_fail, result.ci95_half_width, result.simulations
    );

    // Latency histograms answer the question reports cannot: not "how
    // many simulations" but "how long does one batch take".
    let batches = registry.histogram(
        "ecripse_sim_batch_seconds",
        "Wall-clock latency of one raw simulator batch",
    );
    if let Some((p50, p90, p99)) = batches.percentiles() {
        println!(
            "simulator batches: {} recorded, p50 {:.3e} s, p90 {:.3e} s, p99 {:.3e} s",
            batches.count(),
            p50,
            p90,
            p99
        );
    }

    // The same registry renders straight to Prometheus text exposition.
    println!("\n--- Prometheus exposition (first 20 lines) ---");
    for line in registry.render_prometheus().lines().take(20) {
        println!("{line}");
    }

    println!("\ntrace events written to {}", trace_path.display());
    Ok(())
}
