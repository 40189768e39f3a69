//! Property tests: every wire type survives a JSON round-trip exactly.
//!
//! The vendored `serde_json` prints `f64`s in shortest-roundtrip form,
//! so finite floats compare **bit-exactly** after
//! serialise → parse → deserialise — the same guarantee the service
//! relies on for its bit-identity contract.

use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::observe::{RunReport, Stage, StageReport};
use ecripse_core::oracle::OracleStats;
use ecripse_core::scenario::Scenario;
use ecripse_core::sweep::{SweepPoint, SweepReports};
use ecripse_core::telemetry::{fmt_hex_id, SpanRecord, TraceContext};
use ecripse_serve::protocol::{
    ApiError, EstimateOutcome, Health, JobProgress, JobReport, JobSpec, JobState, JobStatus,
    JobTrace, Metrics, ScenarioJobCount, SubmitRequest, SweepOutcome,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serialise");
    serde_json::from_str(&json).expect("deserialise")
}

fn job_state(pick: u32) -> JobState {
    match pick % 6 {
        0 => JobState::Queued,
        1 => JobState::Running,
        2 => JobState::Completed,
        3 => JobState::Failed,
        4 => JobState::Cancelled,
        _ => JobState::Persisted,
    }
}

fn scenario(pick: u32) -> Scenario {
    Scenario::ALL[pick as usize % Scenario::ALL.len()]
}

fn oracle_stats(counts: &[u64]) -> OracleStats {
    OracleStats {
        classified: counts[0],
        simulated: counts[1],
        uncertain_simulated: counts[2],
        retrains: counts[3],
        cache_hits: counts[4],
        cache_misses: counts[5],
        retries: counts[6],
        quarantined: counts[7],
        // Stay under 2^53: wire numbers are f64-backed JSON.
        newton_iters: counts[0] / 2,
        factorisations: counts[1] / 3,
        warm_start_seeds: counts[2] / 2,
    }
}

fn run_report(seed: u64, p_fail: f64, wall: f64, sims: u64, counts: &[u64]) -> RunReport {
    RunReport {
        seed,
        threads: (seed % 9) as usize,
        stages: vec![
            StageReport {
                stage: Stage::BoundarySearch,
                wall_seconds: wall,
                simulations: sims,
            },
            StageReport {
                stage: Stage::ParticleFilter,
                wall_seconds: wall * 3.0,
                simulations: sims.saturating_mul(2),
            },
            StageReport {
                stage: Stage::ImportanceSampling,
                wall_seconds: wall / 7.0,
                simulations: sims / 2,
            },
        ],
        p_fail,
        ci95_half_width: p_fail / 10.0,
        simulations: sims,
        is_samples: sims.saturating_mul(3),
        effective_sample_size: p_fail * 100.0,
        oracle: oracle_stats(counts),
        ..RunReport::default()
    }
}

proptest! {
    #[test]
    fn prop_job_spec_roundtrips(
        is_sweep in proptest::bool::ANY,
        vdd in 0.1f64..2.0,
        has_alpha in proptest::bool::ANY,
        alpha in 0.0f64..1.0,
        alphas in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let spec = if is_sweep {
            JobSpec::sweep(vdd, alphas)
        } else if has_alpha {
            JobSpec::estimate(vdd, alpha)
        } else {
            JobSpec::rdf_only(vdd)
        };
        prop_assert_eq!(roundtrip(&spec), spec);
    }

    #[test]
    fn prop_submit_request_roundtrips(
        seed in 0u64..(1 << 53),
        n_samples in 1usize..100_000,
        iterations in 1usize..20,
        alpha in 0.0f64..1.0,
        scenario_pick in 0u32..4,
    ) {
        let mut config = EcripseConfig {
            seed,
            iterations,
            ..EcripseConfig::default()
        };
        config.importance.n_samples = n_samples;
        let request = SubmitRequest::with_scenario(
            scenario(scenario_pick),
            config,
            JobSpec::estimate(1.0, alpha),
        );
        prop_assert_eq!(request.scenario, scenario(scenario_pick));
        prop_assert_eq!(request.config.scenario, scenario(scenario_pick));
        prop_assert_eq!(roundtrip(&request), request);
    }

    #[test]
    fn prop_old_wire_submit_request_defaults_to_read_snm(
        seed in 0u64..(1 << 53),
        alpha in 0.0f64..1.0,
    ) {
        // A PR-6-era client sends a SubmitRequest with no `scenario`
        // field at all (and an EcripseConfig without one either). Both
        // must parse and land on the paper's read-snm indicator.
        let config = EcripseConfig { seed, ..EcripseConfig::default() };
        let modern = SubmitRequest::new(config, JobSpec::estimate(1.0, alpha));
        let mut json = serde_json::to_string(&modern).expect("serialise");
        // Strip both scenario fields to reconstruct the old wire shape.
        json = json.replace("\"scenario\":\"read-snm\",", "");
        prop_assert!(!json.contains("scenario"), "fixture must predate the field: {json}");
        let parsed: SubmitRequest = serde_json::from_str(&json).expect("old wire form parses");
        prop_assert_eq!(parsed.scenario, Scenario::ReadSnm);
        prop_assert_eq!(parsed.config.scenario, Scenario::ReadSnm);
        prop_assert_eq!(parsed, modern);
    }

    #[test]
    fn prop_job_status_roundtrips(
        id in 0u64..(1 << 53),
        pick in 0u32..6,
        has_position in proptest::bool::ANY,
        position in 0u64..10_000,
        has_error in proptest::bool::ANY,
        has_progress in proptest::bool::ANY,
        iterations in 0u64..(1 << 50),
        simulations in 0u64..(1 << 50),
        estimate in 1e-12f64..1.0,
        stage_pick in 0u32..4,
    ) {
        let status = JobStatus {
            id,
            scenario: scenario(pick),
            state: job_state(pick),
            queue_position: if has_position { Some(position) } else { None },
            error: if has_error { Some(format!("boom #{id}")) } else { None },
            progress: if has_progress {
                Some(JobProgress {
                    stage: match stage_pick {
                        0 => None,
                        1 => Some("boundary_search".to_string()),
                        2 => Some("particle_filter".to_string()),
                        _ => Some("importance_sampling".to_string()),
                    },
                    iterations,
                    simulations,
                    is_samples: simulations / 2,
                    estimate: if stage_pick > 1 { Some(estimate) } else { None },
                })
            } else {
                None
            },
            trace_id: if has_position { Some(fmt_hex_id(id | 1)) } else { None },
        };
        prop_assert_eq!(roundtrip(&status), status);
    }

    #[test]
    fn prop_old_wire_job_status_still_parses(
        id in 0u64..(1 << 53),
        pick in 0u32..6,
    ) {
        // A protocol-1 peer that predates the `progress` field sends
        // documents without it; `Option::from_missing` keeps them valid.
        let old = format!(
            "{{\"id\":{id},\"state\":\"{}\",\"queue_position\":null,\"error\":null}}",
            job_state(pick)
        );
        let parsed: JobStatus = serde_json::from_str(&old).expect("old wire form parses");
        prop_assert_eq!(parsed.id, id);
        prop_assert_eq!(parsed.progress, None);
        // Documents that predate the scenario field mean read-snm.
        prop_assert_eq!(parsed.scenario, Scenario::ReadSnm);
    }

    #[test]
    fn prop_estimate_job_report_roundtrips(
        id in 0u64..(1 << 53),
        seed in 0u64..(1 << 53),
        p_fail in 1e-12f64..1.0,
        wall in 0.0f64..100.0,
        sims in 0u64..(1 << 50),
        counts in proptest::collection::vec(0u64..(1 << 50), 8),
    ) {
        let report = run_report(seed, p_fail, wall, sims, &counts);
        let outcome = EstimateOutcome {
            p_fail,
            ci95_half_width: p_fail / 3.0,
            simulations: sims,
            is_samples: sims * 2,
            report,
        };
        let document = JobReport {
            id,
            scenario: scenario(id as u32),
            state: JobState::Completed,
            error: None,
            estimate: Some(outcome),
            sweep: None,
            trace_id: Some(fmt_hex_id(seed | 1)),
        };
        prop_assert_eq!(roundtrip(&document), document);
    }

    #[test]
    fn prop_sweep_report_roundtrips(
        id in 0u64..(1 << 53),
        seed in 0u64..(1 << 53),
        alphas in proptest::collection::vec(0.0f64..1.0, 3),
        p_fails in proptest::collection::vec(1e-12f64..1.0, 4),
        sims in 0u64..(1 << 50),
        counts in proptest::collection::vec(0u64..(1 << 50), 8),
    ) {
        let points: Vec<SweepPoint> = alphas
            .iter()
            .zip(&p_fails)
            .map(|(&alpha, &p_fail)| SweepPoint {
                alpha,
                p_fail,
                ci95_half_width: p_fail / 5.0,
                simulations: sims,
            })
            .collect();
        let outcome = SweepOutcome {
            p_fail_rdf_only: p_fails[3],
            rdf_only_ci95: p_fails[3] / 4.0,
            init_simulations: sims / 3,
            total_simulations: sims,
            points,
            reports: SweepReports {
                rdf_only: run_report(seed, p_fails[3], 0.5, sims, &counts),
                points: p_fails[..3]
                    .iter()
                    .map(|&p| run_report(seed ^ 1, p, 0.25, sims / 2, &counts))
                    .collect(),
            },
        };
        let document = JobReport {
            id,
            scenario: scenario(id as u32),
            state: JobState::Completed,
            error: None,
            estimate: None,
            sweep: Some(outcome),
            trace_id: Some(fmt_hex_id(seed | 1)),
        };
        prop_assert_eq!(roundtrip(&document), document);
    }

    #[test]
    fn prop_api_error_roundtrips(
        code_pick in 0u32..4,
        retry_pick in 0u32..3,
        retry in 1u64..600,
    ) {
        let code = ["queue_full", "unknown_job", "conflict", "not_ready"][code_pick as usize];
        let mut error = ApiError::new(code, format!("{code} happened"));
        if retry_pick == 1 {
            error.retry_after_seconds = Some(retry);
        }
        prop_assert_eq!(roundtrip(&error), error);
    }

    #[test]
    fn prop_health_and_metrics_roundtrip(
        protocol in 0u32..100,
        draining in proptest::bool::ANY,
        counts in proptest::collection::vec(0u64..(1 << 50), 8),
        depth in 0u64..1000,
        hits in 0u64..(1 << 50),
        misses in 0u64..(1 << 50),
    ) {
        let health = Health {
            status: if draining { "draining" } else { "ok" }.to_string(),
            protocol,
        };
        prop_assert_eq!(roundtrip(&health), health);

        let total = hits + misses;
        let metrics = Metrics {
            queue_depth: depth,
            queue_capacity: depth + 1,
            in_flight: depth / 2,
            workers: 4,
            submitted: counts[0],
            completed: counts[1],
            failed: counts[2],
            cancelled: counts[3],
            cancelled_queued: counts[3] / 2,
            cancelled_running: counts[3] - counts[3] / 2,
            deadline_exceeded: counts[5] / 3,
            recovered: counts[0] / 4,
            idempotent_hits: counts[7] / 5,
            persisted: counts[4],
            rejected: counts[5],
            cache_entries: counts[6],
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if total > 0 {
                Some(hits as f64 / total as f64)
            } else {
                None
            },
            cache_loaded_entries: counts[6] / 2,
            journal_compactions_total: counts[2] / 3,
            journal_frames_replayed_total: counts[4] / 2,
            journal_bytes: counts[7],
            journal_replay_duration_seconds: depth as f64 * 0.0625,
            uptime_seconds: depth as f64 * 0.125,
            jobs_in_terminal_state: counts[1] + counts[2] + counts[3] + counts[4],
            scenario_jobs: Scenario::ALL
                .iter()
                .enumerate()
                .map(|(index, s)| ScenarioJobCount {
                    scenario: s.id().to_string(),
                    completed: counts[index % counts.len()],
                })
                .collect(),
            oracle: oracle_stats(&counts),
        };
        prop_assert_eq!(roundtrip(&metrics), metrics);
    }

    #[test]
    fn prop_non_finite_floats_survive_the_wire(
        id in 0u64..(1 << 53),
        positive in proptest::bool::ANY,
    ) {
        // The vendored serde writes non-finite floats as string
        // sentinels instead of the `null` stock serde_json emits, so an
        // infinite relative error (zero estimate) survives a round trip.
        // NaN cannot be asserted with equality, so the proptest covers
        // the infinities and a unit test covers NaN field-by-field.
        let inf = if positive { f64::INFINITY } else { f64::NEG_INFINITY };
        let status = JobStatus {
            id,
            scenario: Scenario::ReadSnm,
            state: JobState::Running,
            queue_position: None,
            error: None,
            progress: Some(JobProgress {
                stage: Some("importance_sampling".to_string()),
                iterations: 1,
                simulations: 2,
                is_samples: 3,
                estimate: Some(inf),
            }),
            trace_id: None,
        };
        let json = serde_json::to_string(&status).expect("serialise");
        let sentinel = if positive { "\"estimate\":\"Infinity\"" } else { "\"estimate\":\"-Infinity\"" };
        prop_assert!(json.contains(sentinel), "expected the string sentinel in {json}");
        prop_assert_eq!(roundtrip(&status), status);
    }

    #[test]
    fn prop_trace_context_roundtrips(
        trace_id in 1u64..u64::MAX,
        parent in 0u64..u64::MAX,
    ) {
        // Ids cross the wire as 16-hex-digit strings, so the FULL u64
        // range must survive — no f64 precision cliff at 2^53.
        let context = TraceContext { trace_id, parent_span_id: parent };
        prop_assert_eq!(roundtrip(&context), context);
        // The same context drives the traceparent header, which must
        // parse back exactly.
        prop_assert_eq!(TraceContext::parse_traceparent(&context.traceparent()), Some(context));
    }

    #[test]
    fn prop_merged_trace_documents_roundtrip(
        job_id in 0u64..(1 << 53),
        ids in proptest::collection::vec(1u64..u64::MAX, 4),
        start in 1.0e9f64..2.0e9,
        durations in proptest::collection::vec(0.0f64..100.0, 3),
    ) {
        // A merged waterfall: a coordinator root span plus shard and
        // worker spans, as `GET /v1/jobs/{id}/trace` would return it.
        let spans: Vec<SpanRecord> = durations
            .iter()
            .enumerate()
            .map(|(k, &duration)| SpanRecord {
                trace_id: fmt_hex_id(ids[0]),
                span_id: fmt_hex_id(ids[k + 1]),
                parent_span_id: if k == 0 { fmt_hex_id(0) } else { fmt_hex_id(ids[1]) },
                name: if k == 0 { "job".to_string() } else { format!("shard-{k}") },
                node: if k == 2 { "worker-a".to_string() } else { "coordinator".to_string() },
                start_ts: start + k as f64 * 0.25,
                duration_s: duration,
            })
            .collect();
        let document = JobTrace {
            job_id,
            trace_id: fmt_hex_id(ids[0]),
            spans,
        };
        prop_assert_eq!(roundtrip(&document), document);
    }

    #[test]
    fn prop_pre_trace_wire_documents_still_parse(
        id in 0u64..(1 << 53),
        pick in 0u32..6,
    ) {
        // PR-9-era peers send JobStatus/JobReport documents without
        // `trace_id`; the serde default keeps them valid.
        let status = JobStatus {
            id,
            scenario: scenario(pick),
            state: job_state(pick),
            queue_position: None,
            error: None,
            progress: None,
            trace_id: Some(fmt_hex_id(id | 1)),
        };
        let stripped = {
            let json = serde_json::to_string(&status).expect("serialise");
            let mut value: serde::json::Value = serde_json::from_str(&json).expect("parse");
            if let serde::json::Value::Object(entries) = &mut value {
                entries.retain(|(key, _)| key != "trace_id");
            }
            serde_json::to_string(&value).expect("re-serialise")
        };
        let parsed: JobStatus = serde_json::from_str(&stripped).expect("old wire form parses");
        prop_assert_eq!(parsed.trace_id, None);
        prop_assert_eq!(parsed.id, status.id);

        let report = JobReport {
            id,
            scenario: scenario(pick),
            state: JobState::Completed,
            error: None,
            estimate: None,
            sweep: None,
            trace_id: Some(fmt_hex_id(id | 1)),
        };
        let stripped = {
            let json = serde_json::to_string(&report).expect("serialise");
            let mut value: serde::json::Value = serde_json::from_str(&json).expect("parse");
            if let serde::json::Value::Object(entries) = &mut value {
                entries.retain(|(key, _)| key != "trace_id");
            }
            serde_json::to_string(&value).expect("re-serialise")
        };
        let parsed: JobReport = serde_json::from_str(&stripped).expect("old wire form parses");
        prop_assert_eq!(parsed.trace_id, None);
        prop_assert_eq!(parsed.id, report.id);
    }
}
