//! The observability layer's contract, end to end through the public
//! API: reports reflect the run's true accounting, survive JSON
//! round-trips, and — once timings are stripped — are bit-identical
//! across thread counts.

use ecripse::prelude::*;
use ecripse_core::bench::TwoLobeBench;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::observe::REPORT_SCHEMA_VERSION;
use ecripse_core::trace::TracePoint;

fn config(seed: u64, threads: usize) -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 24,
            ..InitialSearchConfig::default()
        },
        iterations: 5,
        importance: ImportanceConfig {
            n_samples: 3000,
            m_rtn: 1,
            trace_every: 0,
        },
        m_rtn_stage1: 1,
        seed,
        threads,
        ..EcripseConfig::default()
    }
}

/// Runs an estimate with a [`RunRecorder`] attached.
fn observed_run(cfg: EcripseConfig) -> (EcripseResult, RunReport) {
    let recorder = RunRecorder::new();
    let result = Ecripse::new(cfg, bench())
        .estimate_observed(&recorder)
        .expect("observed run");
    (result, recorder.into_report())
}

fn bench() -> TwoLobeBench {
    TwoLobeBench::new(vec![1.0, -0.5, 0.25], 3.0)
}

#[test]
fn report_matches_result_accounting() {
    let cfg = config(7, 0);
    let (result, report) = observed_run(cfg);

    assert_eq!(report.schema_version, REPORT_SCHEMA_VERSION);
    assert_eq!(report.seed, 7);

    // The summary block mirrors the EcripseResult exactly.
    assert_eq!(report.p_fail, result.p_fail);
    assert_eq!(report.ci95_half_width, result.ci95_half_width);
    assert_eq!(report.simulations, result.simulations);
    assert_eq!(report.is_samples, result.is_samples);
    assert_eq!(report.effective_sample_size, result.effective_sample_size);
    assert_eq!(report.oracle, result.oracle_stats);

    // Simulation accounting: per-stage costs sum to the total; every
    // post-boundary simulation went through the memo-cache, so boundary
    // sims plus cache misses is again the total; and the oracle's
    // simulated count splits exactly into hits and misses.
    assert_eq!(
        report.stages.iter().map(|s| s.simulations).sum::<u64>(),
        report.simulations
    );
    let boundary = report.boundary.expect("full run records the boundary");
    assert!(boundary.particles > 0 && boundary.simulations > 0);
    assert_eq!(
        boundary.simulations + report.oracle.cache_misses,
        report.simulations
    );
    assert_eq!(
        report.oracle.simulated,
        report.oracle.cache_hits + report.oracle.cache_misses
    );

    // One entry per pipeline stage, in order, with real wall-clock.
    let names: Vec<&str> = report.stages.iter().map(|s| s.stage.name()).collect();
    assert_eq!(
        names,
        ["boundary_search", "particle_filter", "importance_sampling"]
    );
    assert!(report.total_wall_seconds() > 0.0);

    // One IterationStats per configured iteration, indexed in order,
    // with per-filter ESS vectors of the ensemble's width.
    assert_eq!(report.iterations.len(), cfg.iterations);
    for (i, it) in report.iterations.iter().enumerate() {
        assert_eq!(it.iteration, i);
        assert_eq!(it.filters_total, cfg.ensemble.n_filters);
        assert_eq!(it.ess.len(), cfg.ensemble.n_filters);
        assert_eq!(
            it.candidates,
            cfg.ensemble.n_filters * cfg.ensemble.filter.n_particles
        );
        assert!(it.filters_resampled >= 1 && it.filters_resampled <= it.filters_total);
        assert!(it.spread > 0.0);
    }

    // Stage-2 chunks: cumulative counters are monotone and end exactly
    // at the run's totals.
    assert!(!report.stage2_chunks.is_empty());
    for w in report.stage2_chunks.windows(2) {
        assert!(w[1].samples > w[0].samples);
        assert!(w[1].simulations >= w[0].simulations);
    }
    assert_eq!(
        report
            .stage2_chunks
            .iter()
            .map(|c| c.chunk_samples)
            .sum::<u64>(),
        report.is_samples
    );
    let last = report.stage2_chunks.last().expect("non-empty");
    assert_eq!(last.samples, report.is_samples);
    assert_eq!(last.simulations, report.simulations);
    assert_eq!(last.estimate, report.p_fail);
    assert_eq!(last.ci95_half_width, report.ci95_half_width);

    // With the classifier enabled (the default config), margin stats
    // cover every classifier-answered query.
    assert_eq!(report.margins.classified, report.oracle.classified);
    assert!(report.oracle.classified > 0);
    assert!(report.margins.mean_abs() > 0.0);
}

#[test]
fn real_report_round_trips_through_json() {
    let (_, report) = observed_run(config(11, 0));
    let json = serde_json::to_string_pretty(&report).expect("serialise");
    let back: RunReport = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back, report);
}

#[test]
fn trace_points_round_trip_through_json() {
    let mut cfg = config(13, 0);
    cfg.importance.trace_every = 500;
    let result = Ecripse::new(cfg, bench()).estimate().expect("run");
    let points = result.trace.points();
    assert!(!points.is_empty());
    let json = serde_json::to_string(&points.to_vec()).expect("serialise");
    let back: Vec<TracePoint> = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back, points);
}

/// The reports of a three-point duty sweep over the SRAM cell, whose
/// solver effort counters are live, with timings stripped and the
/// worker count (the one intended difference) cleared.
fn stripped_sweep_reports(threads: usize) -> Vec<RunReport> {
    let cfg = EcripseConfig {
        initial: InitialSearchConfig {
            count: 12,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        },
        iterations: 3,
        importance: ImportanceConfig {
            n_samples: 250,
            m_rtn: 4,
            trace_every: 0,
        },
        m_rtn_stage1: 2,
        seed: 3,
        threads,
        ..EcripseConfig::default()
    };
    let sweep = DutySweep::new(
        cfg,
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
        vec![0.2, 0.5, 0.8],
    );
    let (_, reports) = sweep
        .run_with(&SweepOptions::default())
        .and_then(ResumableSweep::into_parts)
        .expect("sweep");
    let mut all: Vec<RunReport> = std::iter::once(reports.rdf_only)
        .chain(reports.points)
        .collect();
    for report in &mut all {
        assert_eq!(report.threads, threads);
        report.strip_timings();
        report.threads = 0;
    }
    all
}

#[test]
fn stripped_reports_are_bit_identical_across_thread_counts() {
    let (_, mut serial) = observed_run(config(7, 1));
    let (_, mut parallel) = observed_run(config(7, 4));
    serial.strip_timings();
    parallel.strip_timings();
    // The configured worker count is the one intended difference.
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    parallel.threads = serial.threads;
    assert_eq!(serial, parallel);
    // …including after serialisation (the form tooling diffs).
    assert_eq!(
        serde_json::to_string(&serial).expect("serialise"),
        serde_json::to_string(&parallel).expect("serialise")
    );

    // A sweep's points run concurrently at 2 threads; each point's
    // solver effort must still be its own.
    let serial = stripped_sweep_reports(1);
    let parallel = stripped_sweep_reports(2);
    for (serial, parallel) in serial.iter().zip(&parallel) {
        assert!(serial.oracle.newton_iters > 0 && serial.oracle.factorisations > 0);
        assert_eq!(
            (serial.oracle.newton_iters, serial.oracle.factorisations),
            (parallel.oracle.newton_iters, parallel.oracle.factorisations),
            "solver effort of the point at seed {}",
            serial.seed
        );
    }
    assert_eq!(serial, parallel);
}

/// Runs one estimate with the full telemetry stack attached — a
/// [`RunRecorder`] and a [`TelemetryObserver`] fanned out side by side —
/// and returns the recorded report.
fn telemetry_observed_report(threads: usize) -> RunReport {
    let registry = MetricsRegistry::new();
    let bridge = TelemetryObserver::new(&registry);
    let recorder = RunRecorder::new();
    let mut observers = MultiObserver::new();
    observers.push(&recorder);
    observers.push(&bridge);
    Ecripse::new(config(7, threads), bench())
        .estimate_observed(&observers)
        .expect("observed run");
    // The bridge really saw the run: raw simulator batches were timed.
    let batches = registry.histogram(
        "ecripse_sim_batch_seconds",
        "Wall-clock latency of one raw simulator batch",
    );
    assert!(batches.count() > 0, "telemetry bridge observed no batches");
    recorder.into_report()
}

#[test]
fn stripped_reports_stay_bit_identical_with_telemetry_enabled() {
    // Telemetry is observation-only: latency histograms and trace
    // events may differ run to run, but the estimation itself — and the
    // stripped report that records it — must not move at all.
    let mut serial = telemetry_observed_report(1);
    let mut parallel = telemetry_observed_report(4);
    serial.strip_timings();
    parallel.strip_timings();
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    parallel.threads = serial.threads;
    assert_eq!(serial, parallel);
    assert_eq!(
        serde_json::to_string(&serial).expect("serialise"),
        serde_json::to_string(&parallel).expect("serialise")
    );
}

/// Runs one estimate with a [`SpanCollector`] (carrying an explicit
/// [`TraceContext`]) attached beside the telemetry bridge, and returns
/// the recorded report plus the number of spans the collector returned.
fn traced_report() -> (RunReport, usize) {
    let registry = MetricsRegistry::new();
    let bridge = TelemetryObserver::new(&registry);
    let collector = SpanCollector::new(TraceContext::for_job(99, 7), "test");
    let recorder = RunRecorder::new();
    let mut observers = MultiObserver::new();
    observers.push(&recorder);
    observers.push(&bridge);
    observers.push(&collector);
    Ecripse::new(config(7, 1), bench())
        .estimate_observed(&observers)
        .expect("traced run");
    (recorder.into_report(), collector.finish().len())
}

#[test]
fn stripped_reports_stay_bit_identical_with_a_tracer_attached() {
    // Distributed tracing is observation-only, like the rest of the
    // telemetry stack: attaching a SpanCollector with a job
    // TraceContext must not move a single bit of the stripped report
    // relative to a run with no collector at all.
    let (mut traced, spans) = traced_report();
    assert!(spans > 1, "the collector recorded no stage spans");
    let mut untraced = telemetry_observed_report(1);
    traced.strip_timings();
    untraced.strip_timings();
    assert_eq!(traced, untraced);
    assert_eq!(
        serde_json::to_string(&traced).expect("serialise"),
        serde_json::to_string(&untraced).expect("serialise")
    );
}

#[test]
fn non_finite_report_values_survive_json() {
    // A zero estimate makes the derived relative error infinite — the
    // situation that forces non-finite floats into serialised output.
    let zero = TracePoint {
        simulations: 10,
        samples: 20,
        estimate: 0.0,
        ci95_half_width: 0.5,
    };
    assert!(zero.relative_error().is_infinite());
    let json = serde_json::to_string(&vec![zero]).expect("serialise trace");
    let back: Vec<TracePoint> = serde_json::from_str(&json).expect("deserialise trace");
    assert_eq!(back, vec![zero]);

    // A report carrying an infinite half-width (a run whose estimate
    // never left zero) survives `write_json` with the string sentinels
    // instead of producing invalid JSON.
    let (_, mut report) = observed_run(config(11, 0));
    report.ci95_half_width = f64::INFINITY;
    if let Some(chunk) = report.stage2_chunks.first_mut() {
        chunk.estimate = 0.0;
        assert!(chunk.relative_error().is_infinite());
    }
    let mut buf = Vec::new();
    report.write_json(&mut buf).expect("write_json");
    let json = String::from_utf8(buf).expect("utf-8");
    assert!(
        json.contains("\"Infinity\""),
        "non-finite values must serialise as string sentinels"
    );
    let back: RunReport = serde_json::from_str(&json).expect("sentinel JSON parses back");
    assert_eq!(back, report);
}

#[test]
fn sweep_reports_cover_every_point() {
    let cfg = EcripseConfig {
        initial: InitialSearchConfig {
            count: 12,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        },
        iterations: 3,
        importance: ImportanceConfig {
            n_samples: 250,
            m_rtn: 4,
            trace_every: 0,
        },
        m_rtn_stage1: 2,
        seed: 3,
        ..EcripseConfig::default()
    };
    let sweep = DutySweep::new(
        cfg,
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
        vec![0.2, 0.8],
    );
    let (result, reports) = sweep
        .run_with(&SweepOptions::default())
        .and_then(ResumableSweep::into_parts)
        .expect("sweep");

    assert_eq!(reports.points.len(), result.points.len());
    for (point, report) in result.points.iter().zip(&reports.points) {
        assert_eq!(report.p_fail, point.p_fail);
        assert_eq!(report.simulations, point.simulations);
        // Per-point runs reuse the shared boundary set.
        assert!(report.boundary.is_none());
        assert_eq!(report.iterations.len(), cfg.iterations);
    }
    // Per-point seeds are split from the base seed by index.
    assert_eq!(reports.points[0].seed, cfg.seed + 1);
    assert_eq!(reports.points[1].seed, cfg.seed + 2);

    // The reference report carries the shared initialisation.
    let boundary = reports.rdf_only.boundary.expect("shared init recorded");
    assert_eq!(boundary.simulations, result.init_simulations);
    assert_eq!(reports.rdf_only.p_fail, result.p_fail_rdf_only);
}
