//! Telemetry: process-wide metrics and a run's stage spans.
//!
//! Bridges one estimation run into a [`MetricsRegistry`] through a
//! [`TelemetryObserver`] — counters for simulations/iterations/cache
//! traffic, a latency histogram for every raw simulator batch — while a
//! [`SpanCollector`] folds the pipeline stages into [`SpanRecord`]s,
//! the records `ecripse-cli --trace-log` writes and
//! `GET /v1/jobs/{id}/trace` serves. Afterwards the example prints the
//! spans, the latency percentiles and the same Prometheus text
//! exposition `ecripse-cli serve` offers on `GET /metrics` with
//! `Accept: text/plain`.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use ecripse::prelude::*;

fn main() -> Result<(), EstimateError> {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let mut config = EcripseConfig::default();
    config.importance.n_samples = 3_000;

    // A registry of this process's metrics; a local one per process
    // keeps the example hermetic.
    let registry = MetricsRegistry::new();

    // The bridge folds every pipeline event into registry metrics and
    // the collector times each stage under one job root span. Both are
    // purely observational: the estimate below is bit-identical to an
    // unobserved run.
    let bridge = TelemetryObserver::new(&registry);
    let spans = SpanCollector::new(TraceContext::for_job(0, config.seed), "example");
    let mut observers = MultiObserver::new();
    observers.push(&bridge);
    observers.push(&spans);

    let result = Ecripse::new(config, bench).estimate_observed(&observers)?;
    println!(
        "P_fail = {:.3e} ± {:.2e} using {} simulations\n",
        result.p_fail, result.ci95_half_width, result.simulations
    );

    // The spans say where the wall-clock went, stage by stage.
    for span in spans.finish() {
        println!("{:<20} {:>9.3} s", span.name, span.duration_s);
    }

    // Latency histograms answer the question reports cannot: not "how
    // many simulations" but "how long does one batch take".
    let batches = registry.histogram(
        "ecripse_sim_batch_seconds",
        "Wall-clock latency of one raw simulator batch",
    );
    if let Some((p50, p90, p99)) = batches.percentiles() {
        println!(
            "\nsimulator batches: {} recorded, p50 {:.3e} s, p90 {:.3e} s, p99 {:.3e} s",
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
    Ok(())
}
