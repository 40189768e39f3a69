//! End-to-end tests driving a real server on an ephemeral loopback
//! port: the bit-identity contract (a served job equals the direct
//! library call), backpressure (429 + `Retry-After`), the job
//! lifecycle, and graceful shutdown (drain + persisted sweep
//! checkpoints that resume bit-identically).

use ecripse_core::bench::{LinearBench, Testbench};
use ecripse_core::ecripse::{Ecripse, EcripseConfig};
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::observe::RunRecorder;
use ecripse_core::rtn_source::SramRtn;
use ecripse_core::scenario::Scenario;
use ecripse_core::sweep::{DutySweep, SweepBench, SweepOptions};
use ecripse_core::telemetry::{fmt_hex_id, TraceContext};
use ecripse_serve::protocol::{JobSpec, JobState, JobStatus, SubmitRequest, PROTOCOL_VERSION};
use ecripse_serve::{http, BackoffPolicy, Client, ClientError, ServeConfig, Server};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn tiny_config(seed: u64) -> EcripseConfig {
    EcripseConfig {
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
        seed,
        ..EcripseConfig::default()
    }
}

fn linear_bench() -> LinearBench {
    LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5)
}

/// A bench whose evaluations block until the gate opens — the handle
/// the backpressure and shutdown tests use to keep a job in flight.
#[derive(Clone)]
struct GateBench {
    inner: LinearBench,
    gate: Arc<AtomicBool>,
}

impl GateBench {
    fn new(gate: Arc<AtomicBool>) -> Self {
        Self {
            inner: linear_bench(),
            gate,
        }
    }
}

impl Testbench for GateBench {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        while !self.gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.fails(z)
    }
}

impl SweepBench for GateBench {
    fn sigmas(&self) -> [f64; 6] {
        SweepBench::sigmas(&self.inner)
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecripse-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wait_until_running(client: &Client, id: u64) {
    for _ in 0..2000 {
        let status = client.status(id).expect("status while waiting");
        if status.state == JobState::Running {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("job {id} never started running");
}

#[test]
fn served_jobs_are_bit_identical_to_direct_runs() {
    let server = Server::bind_with("127.0.0.1:0", ServeConfig::default(), |_scenario, _vdd| {
        linear_bench()
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());
    client.handshake().expect("protocol handshake");

    // RDF-only estimate, served twice: the second run hits the warm
    // process-wide cache yet must return the exact same report.
    let request = SubmitRequest::new(tiny_config(42), JobSpec::rdf_only(1.0));
    let recorder = RunRecorder::new();
    let direct_result = Ecripse::new(tiny_config(42), linear_bench())
        .estimate_observed(&recorder)
        .expect("direct estimate");
    let mut direct_report = recorder.into_report();
    direct_report.strip_timings();
    for round in 0..2 {
        let submitted = client.submit(&request).expect("submit");
        let report = client
            .wait_for_report(submitted.id, WAIT)
            .expect("served report");
        assert_eq!(report.state, JobState::Completed);
        let outcome = report.estimate.expect("estimate outcome");
        assert_eq!(outcome.p_fail, direct_result.p_fail, "round {round}");
        assert_eq!(outcome.ci95_half_width, direct_result.ci95_half_width);
        assert_eq!(outcome.simulations, direct_result.simulations);
        assert_eq!(outcome.is_samples, direct_result.is_samples);
        let mut served_report = outcome.report;
        served_report.strip_timings();
        assert_eq!(
            served_report, direct_report,
            "served run must be bit-identical to the direct library call (round {round})"
        );
    }
    assert!(
        server.cache().hits() > 0,
        "the second served run must hit the shared verdict cache"
    );

    // RTN-aware estimate at one duty ratio.
    let request = SubmitRequest::new(tiny_config(7), JobSpec::estimate(1.0, 0.3));
    let submitted = client.submit(&request).expect("submit rtn job");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("served rtn report");
    let outcome = report.estimate.expect("rtn outcome");
    let rtn = SramRtn::paper_model(0.3, SweepBench::sigmas(&linear_bench()));
    let direct = Ecripse::with_rtn(tiny_config(7), linear_bench(), rtn)
        .estimate()
        .expect("direct rtn estimate");
    assert_eq!(outcome.p_fail, direct.p_fail);
    assert_eq!(outcome.simulations, direct.simulations);

    // Sweep job against the direct sweep driver.
    let alphas = vec![0.0, 0.5, 1.0];
    let request = SubmitRequest::new(tiny_config(9), JobSpec::sweep(1.0, alphas.clone()));
    let submitted = client.submit(&request).expect("submit sweep");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("served sweep report");
    let outcome = report.sweep.expect("sweep outcome");
    let direct = DutySweep::new(tiny_config(9), linear_bench(), alphas)
        .run()
        .expect("direct sweep");
    assert_eq!(outcome.points, direct.points);
    assert_eq!(outcome.p_fail_rdf_only, direct.p_fail_rdf_only);
    assert_eq!(outcome.total_simulations, direct.total_simulations);

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.completed, 4);
    assert_eq!(metrics.failed, 0);
    assert!(metrics.cache_hits > 0);
    assert!(metrics.oracle.simulated > 0);
    server.shutdown();
}

#[test]
fn full_queue_yields_429_with_retry_after() {
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());

    let request = SubmitRequest::new(tiny_config(1), JobSpec::rdf_only(1.0));
    let first = client.submit(&request).expect("first job accepted");
    wait_until_running(&client, first.id);
    let second = client.submit(&request).expect("second job queued");
    assert_eq!(second.queue_position, Some(0));

    // Queue full: the typed client surfaces Busy with the server hint…
    match client.submit(&request) {
        Err(ClientError::Busy {
            retry_after_seconds,
        }) => assert!(retry_after_seconds >= 1),
        other => panic!("expected Busy, got {other:?}"),
    }
    // …and on the raw wire it is a 429 with a Retry-After header.
    let body = serde_json::to_string(&request).expect("serialise");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect for raw 429 check");
    http::write_request(&mut stream, "POST", "/v1/jobs", Some(&body)).expect("write");
    let (status, headers, _) = http::read_response(&mut stream).expect("read");
    assert_eq!(status, 429);
    let retry_after = headers
        .iter()
        .find(|(name, _)| name == "retry-after")
        .map(|(_, value)| value.parse::<u64>().expect("numeric Retry-After"))
        .expect("429 must carry a Retry-After header");
    assert!(retry_after >= 1);

    // Open the gate: the backlog drains and new submissions are
    // accepted again.
    gate.store(true, Ordering::SeqCst);
    client.wait(first.id, WAIT).expect("first job finishes");
    client.wait(second.id, WAIT).expect("second job finishes");
    let third = client.submit(&request).expect("queue has space again");
    client.wait(third.id, WAIT).expect("third job finishes");

    let metrics = client.metrics().expect("metrics");
    assert!(metrics.rejected >= 2);
    assert_eq!(metrics.completed, 3);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_and_persists_queued_sweeps() {
    let spool = scratch_dir("spool");
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        spool: Some(spool.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());

    // Job 1 runs (blocked on the gate), job 2 is a queued sweep, job 3
    // a queued estimate.
    let estimate = SubmitRequest::new(tiny_config(5), JobSpec::rdf_only(1.0));
    let alphas = vec![0.0, 0.5, 1.0];
    let sweep = SubmitRequest::new(tiny_config(6), JobSpec::sweep(1.0, alphas.clone()));
    let running = client.submit(&estimate).expect("submit running job");
    wait_until_running(&client, running.id);
    let queued_sweep = client.submit(&sweep).expect("submit queued sweep");
    let queued_estimate = client.submit(&estimate).expect("submit queued estimate");

    // Open the gate shortly after the drain starts, then shut down.
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            gate.store(true, Ordering::SeqCst);
        })
    };
    let summary = server.shutdown();
    opener.join().expect("gate opener");
    assert_eq!(summary.drained, 1, "the in-flight job must be drained");
    assert_eq!(summary.persisted, 1, "the queued sweep must be persisted");
    assert_eq!(summary.cancelled, 1, "the queued estimate is cancelled");
    let _ = queued_estimate;

    // The persisted checkpoint resumes bit-identically through the
    // ordinary core sweep driver (the served config, the same grid).
    let checkpoint = spool.join(format!("job-{}.json", queued_sweep.id));
    assert!(checkpoint.exists(), "persisted sweep checkpoint missing");
    let resumed = DutySweep::new(tiny_config(6), linear_bench(), alphas.clone())
        .run_with(&SweepOptions {
            checkpoint: Some(checkpoint),
            resume: true,
            ..SweepOptions::default()
        })
        .expect("resume persisted sweep");
    let (resumed_result, _) = resumed.into_parts().expect("resumed parts");
    let baseline = DutySweep::new(tiny_config(6), linear_bench(), alphas)
        .run()
        .expect("baseline sweep");
    assert_eq!(
        resumed_result, baseline,
        "resuming the persisted checkpoint must be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn job_lifecycle_cancel_and_errors() {
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());
    let request = SubmitRequest::new(tiny_config(3), JobSpec::rdf_only(1.0));

    let running = client.submit(&request).expect("running job");
    wait_until_running(&client, running.id);
    let queued = client.submit(&request).expect("queued job");

    // A queued job cancels cleanly; a second cancel conflicts.
    let cancelled = client.cancel(queued.id).expect("cancel queued job");
    assert_eq!(cancelled.state, JobState::Cancelled);
    // Cancelled is terminal: the report endpoint serves it (without a
    // payload) instead of claiming the job is still pending.
    let report = client.report(queued.id).expect("cancelled job's report");
    assert_eq!(report.state, JobState::Cancelled);
    assert!(report.estimate.is_none() && report.sweep.is_none());
    match client.cancel(queued.id) {
        Err(ClientError::Api {
            status: 409, code, ..
        }) => assert_eq!(code, "conflict"),
        other => panic!("expected conflict on double cancel, got {other:?}"),
    }
    // A running job's report is not ready yet.
    match client.report(running.id) {
        Err(ClientError::Api {
            status: 409, code, ..
        }) => assert_eq!(code, "not_ready"),
        other => panic!("expected 409 for a running job's report, got {other:?}"),
    }
    // Unknown ids are 404s.
    match client.status(999) {
        Err(ClientError::Api {
            status: 404, code, ..
        }) => assert_eq!(code, "unknown_job"),
        other => panic!("expected 404, got {other:?}"),
    }
    match client.report(999) {
        Err(ClientError::Api { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }

    // Cancelling a running job is cooperative: acknowledged while still
    // running, drained to `cancelled` once the pipeline hits its next
    // interruption point (the gate is holding it inside an evaluation).
    let acknowledged = client.cancel(running.id).expect("cancel running job");
    assert_eq!(acknowledged.state, JobState::Running);
    gate.store(true, Ordering::SeqCst);
    match client.wait(running.id, WAIT) {
        Err(ClientError::Cancelled { id }) => assert_eq!(id, running.id),
        other => panic!("expected the cancelled error, got {other:?}"),
    }
    let done = client.status(running.id).expect("drained status");
    assert_eq!(done.state, JobState::Cancelled);
    assert_eq!(done.error.as_deref(), Some("cancelled while running"));
    match client.cancel(running.id) {
        Err(ClientError::Api { status: 409, .. }) => {}
        other => panic!("expected conflict cancelling a drained job, got {other:?}"),
    }

    // A fresh job (gate now open) completes; cancelling it conflicts.
    let finished = client.submit(&request).expect("third job");
    let done = client.wait(finished.id, WAIT).expect("job finishes");
    assert_eq!(done.state, JobState::Completed);
    match client.cancel(finished.id) {
        Err(ClientError::Api { status: 409, .. }) => {}
        other => panic!("expected conflict cancelling a completed job, got {other:?}"),
    }
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.cancelled, 2);
    assert_eq!(metrics.cancelled_queued, 1);
    assert_eq!(metrics.cancelled_running, 1);
    assert_eq!(metrics.completed, 1);
    server.shutdown();
}

#[test]
fn restarted_server_serves_from_the_persistent_store() {
    let dir = scratch_dir("store");
    let store = dir.join("verdicts.json");
    let request = SubmitRequest::new(tiny_config(42), JobSpec::rdf_only(1.0));
    let config = || ServeConfig {
        cache_store: Some(store.clone()),
        ..ServeConfig::default()
    };

    // First process: run a job cold, persist the verdicts on shutdown.
    let first =
        Server::bind_with("127.0.0.1:0", config(), |_scenario, _vdd| linear_bench()).expect("bind");
    let client = Client::new(first.local_addr().to_string());
    assert_eq!(first.metrics().cache_loaded_entries, 0, "no store yet");
    let submitted = client.submit(&request).expect("submit cold job");
    let cold = client
        .wait_for_report(submitted.id, WAIT)
        .expect("cold report");
    let entries = first.cache().len();
    assert!(entries > 0, "the cold run must populate the cache");
    first.shutdown();
    assert!(store.exists(), "shutdown must write the verdict store");

    // Second process: starts warm from the store and serves the same
    // job bit-identically with every verdict answered from the cache.
    let second =
        Server::bind_with("127.0.0.1:0", config(), |_scenario, _vdd| linear_bench()).expect("bind");
    let client = Client::new(second.local_addr().to_string());
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.cache_loaded_entries, entries as u64);
    assert_eq!(metrics.cache_entries, entries as u64);
    let submitted = client.submit(&request).expect("submit warm job");
    let warm = client
        .wait_for_report(submitted.id, WAIT)
        .expect("warm report");
    let cold_outcome = cold.estimate.expect("cold outcome");
    let warm_outcome = warm.estimate.expect("warm outcome");
    assert_eq!(warm_outcome.p_fail, cold_outcome.p_fail);
    assert_eq!(warm_outcome.simulations, cold_outcome.simulations);
    assert_eq!(
        second.cache().misses(),
        0,
        "a restored store must answer every repeat verdict"
    );
    second.shutdown();

    // Third process: a corrupted store is ignored, the server starts
    // cold instead of serving garbage.
    std::fs::write(&store, b"{ not a snapshot").expect("corrupt the store");
    let third =
        Server::bind_with("127.0.0.1:0", config(), |_scenario, _vdd| linear_bench()).expect("bind");
    assert_eq!(third.metrics().cache_loaded_entries, 0);
    assert!(third.cache().is_empty());
    third.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenarios_never_share_verdicts_across_a_restart() {
    let dir = scratch_dir("scenario-store");
    let store = dir.join("verdicts.json");
    let config = || ServeConfig {
        cache_store: Some(store.clone()),
        ..ServeConfig::default()
    };
    // A scenario-aware factory: the hold-snm bench fails at a lower
    // threshold, so misapplied read-snm verdicts would visibly corrupt
    // the estimate.
    let factory = |scenario: Scenario, _vdd: f64| {
        let threshold = match scenario {
            Scenario::HoldSnm => 2.5,
            _ => 3.5,
        };
        LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], threshold)
    };
    let read_request = SubmitRequest::new(tiny_config(42), JobSpec::rdf_only(1.0));
    let hold_request =
        SubmitRequest::with_scenario(Scenario::HoldSnm, tiny_config(42), JobSpec::rdf_only(1.0));

    // First process: a read-snm job populates and persists the cache.
    let first = Server::bind_with("127.0.0.1:0", config(), factory).expect("bind");
    let client = Client::new(first.local_addr().to_string());
    let submitted = client.submit(&read_request).expect("submit read-snm");
    assert_eq!(submitted.scenario, Scenario::ReadSnm);
    let read_cold = client
        .wait_for_report(submitted.id, WAIT)
        .expect("read-snm report");
    assert_eq!(read_cold.scenario, Scenario::ReadSnm);
    let entries = first.cache().len();
    assert!(entries > 0, "the read-snm run must populate the cache");
    first.shutdown();

    // Second process: the restored read-snm verdicts must NOT answer a
    // hold-snm job — its keys carry a different scenario salt, so the
    // job runs cold and reaches its own (different) estimate.
    let second = Server::bind_with("127.0.0.1:0", config(), factory).expect("bind");
    let client = Client::new(second.local_addr().to_string());
    assert_eq!(
        client.metrics().expect("metrics").cache_loaded_entries,
        entries as u64
    );
    let submitted = client.submit(&hold_request).expect("submit hold-snm");
    assert_eq!(submitted.scenario, Scenario::HoldSnm);
    let hold = client
        .wait_for_report(submitted.id, WAIT)
        .expect("hold-snm report");
    assert_eq!(hold.scenario, Scenario::HoldSnm);
    assert!(
        second.cache().misses() > 0,
        "a hold-snm job must not be answered by restored read-snm verdicts"
    );
    let read_p = read_cold.estimate.as_ref().expect("read outcome").p_fail;
    let hold_p = hold.estimate.as_ref().expect("hold outcome").p_fail;
    assert_ne!(
        hold_p, read_p,
        "the lower hold-snm threshold must change the estimate"
    );

    // The same store still serves read-snm warm and bit-identically.
    let misses_before = second.cache().misses();
    let submitted = client.submit(&read_request).expect("resubmit read-snm");
    let read_warm = client
        .wait_for_report(submitted.id, WAIT)
        .expect("warm read-snm report");
    assert_eq!(
        read_warm.estimate.as_ref().expect("warm outcome").p_fail,
        read_p
    );
    assert_eq!(
        second.cache().misses(),
        misses_before,
        "the warm read-snm rerun must be answered entirely from the store"
    );
    let metrics = client.metrics().expect("metrics");
    for entry in &metrics.scenario_jobs {
        let expected = match entry.scenario.as_str() {
            "read-snm" | "hold-snm" => 1,
            _ => 0,
        };
        assert_eq!(
            entry.completed, expected,
            "scenario_jobs miscounts {}",
            entry.scenario
        );
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_and_routing_errors() {
    let server = Server::bind_with("127.0.0.1:0", ServeConfig::default(), |_scenario, _vdd| {
        linear_bench()
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());

    // Wrong protocol version.
    let mut request = SubmitRequest::new(tiny_config(1), JobSpec::rdf_only(1.0));
    request.protocol = PROTOCOL_VERSION + 1;
    match client.submit(&request) {
        Err(ClientError::Api {
            status: 400, code, ..
        }) => assert_eq!(code, "protocol_mismatch"),
        other => panic!("expected protocol_mismatch, got {other:?}"),
    }

    // Inconsistent job spec.
    let request = SubmitRequest::new(tiny_config(1), JobSpec::estimate(1.0, 2.0));
    match client.submit(&request) {
        Err(ClientError::Api {
            status: 400, code, ..
        }) => assert_eq!(code, "invalid_job"),
        other => panic!("expected invalid_job, got {other:?}"),
    }

    // Raw wire-level failures: garbage JSON, bad method, bad path.
    let addr = server.local_addr();
    let raw = |method: &str, path: &str, body: Option<&str>| -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        http::write_request(&mut stream, method, path, body).expect("write");
        let (status, _, body) = http::read_response(&mut stream).expect("read");
        (status, body)
    };
    let (status, body) = raw("POST", "/v1/jobs", Some("{ not json"));
    assert_eq!(status, 400);
    assert!(body.contains("bad_request"));
    let (status, _) = raw("PUT", "/v1/jobs", None);
    assert_eq!(status, 405);
    let (status, _) = raw("GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = raw("GET", "/v1/jobs/not-a-number", None);
    assert_eq!(status, 400);

    let health = client.health().expect("healthz");
    assert_eq!(health.status, "ok");
    assert_eq!(health.protocol, PROTOCOL_VERSION);
    server.shutdown();
}

#[test]
fn deadlines_expire_queued_and_running_jobs() {
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());

    // A zero deadline is rejected outright.
    let request = SubmitRequest::new(tiny_config(11), JobSpec::rdf_only(1.0));
    match client.submit(&request.clone().with_deadline_ms(0)) {
        Err(ClientError::Api {
            status: 400, code, ..
        }) => assert_eq!(code, "invalid_deadline"),
        other => panic!("expected invalid_deadline, got {other:?}"),
    }

    // The worker is held by a gated job with a deadline of its own; a
    // second job's tiny budget runs out while it is still queued.
    let running = client
        .submit(&request.clone().with_deadline_ms(60_000))
        .expect("running job");
    wait_until_running(&client, running.id);
    let queued = client
        .submit(&request.clone().with_deadline_ms(50))
        .expect("queued job");
    match client.wait(queued.id, WAIT) {
        Err(ClientError::DeadlineExceeded { id, error }) => {
            assert_eq!(id, queued.id);
            assert!(
                error.as_deref().unwrap_or("").contains("queued"),
                "expiry cause should say the job never started: {error:?}"
            );
        }
        other => panic!("expected the deadline-exceeded error, got {other:?}"),
    }
    // DeadlineExceeded is terminal: the report endpoint serves it.
    let report = client.report(queued.id).expect("expired job's report");
    assert_eq!(report.state, JobState::DeadlineExceeded);

    // Shrink the running job's remaining budget by resubmitting the
    // cheap way: cancel is already covered elsewhere, so instead submit
    // a fresh short-deadline job, let it start, and hold it at the gate
    // past its budget — the watchdog raises the stop flag and the
    // pipeline drains it to deadline-exceeded once the gate opens.
    gate.store(true, Ordering::SeqCst);
    client.wait(running.id, WAIT).expect("first job completes");
    gate.store(false, Ordering::SeqCst);
    // A fresh seed: resubmitting the finished job's request would answer
    // every verdict from the shared verdict store without reaching the
    // gate, so the job would complete inside its budget.
    let held_request = SubmitRequest::new(tiny_config(12), JobSpec::rdf_only(1.0));
    let held = client
        .submit(&held_request.with_deadline_ms(150))
        .expect("short-deadline job");
    wait_until_running(&client, held.id);
    std::thread::sleep(Duration::from_millis(250));
    gate.store(true, Ordering::SeqCst);
    match client.wait(held.id, WAIT) {
        Err(ClientError::DeadlineExceeded { id, error }) => {
            assert_eq!(id, held.id);
            assert!(
                error.as_deref().unwrap_or("").contains("running"),
                "expiry cause should say the job was running: {error:?}"
            );
        }
        other => panic!("expected the deadline-exceeded error, got {other:?}"),
    }

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.deadline_exceeded, 2);
    assert_eq!(metrics.completed, 1);
    server.shutdown();
}

#[test]
fn journal_recovery_resumes_persisted_sweeps_bit_identically() {
    let dir = scratch_dir("journal-recovery");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).expect("spool dir");
    let journal = dir.join("journal.jsonl");
    let config = || ServeConfig {
        workers: 1,
        queue_capacity: 8,
        spool: Some(spool.clone()),
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    };
    let alphas = vec![0.0, 0.5, 1.0];
    let estimate = SubmitRequest::new(tiny_config(5), JobSpec::rdf_only(1.0));
    let sweep = SubmitRequest::new(tiny_config(6), JobSpec::sweep(1.0, alphas.clone()));

    // First process: one estimate drains, one sweep is persisted.
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let first = Server::bind_with("127.0.0.1:0", config(), move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind first");
    let client = Client::new(first.local_addr().to_string());
    let running = client.submit(&estimate).expect("running job");
    wait_until_running(&client, running.id);
    let queued_sweep = client.submit(&sweep).expect("queued sweep");
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            gate.store(true, Ordering::SeqCst);
        })
    };
    let summary = first.shutdown();
    opener.join().expect("gate opener");
    assert_eq!(summary.persisted, 1, "the queued sweep must be persisted");

    // Second process, same journal + spool: the sweep comes back under
    // its original id, resumes from its checkpoint, and completes with
    // a result bit-identical to an uninterrupted direct run.
    let second = Server::bind_with("127.0.0.1:0", config(), |_scenario, _vdd| {
        GateBench::new(Arc::new(AtomicBool::new(true)))
    })
    .expect("bind second");
    let client = Client::new(second.local_addr().to_string());
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.recovered, 1, "exactly the sweep is re-enqueued");
    let report = client
        .wait_for_report(queued_sweep.id, WAIT)
        .expect("recovered sweep report");
    assert_eq!(report.id, queued_sweep.id, "original id survives recovery");
    assert_eq!(report.state, JobState::Completed);
    let outcome = report.sweep.expect("sweep outcome");
    let direct = DutySweep::new(tiny_config(6), linear_bench(), alphas)
        .run()
        .expect("direct sweep");
    assert_eq!(outcome.points, direct.points);
    assert_eq!(outcome.p_fail_rdf_only, direct.p_fail_rdf_only);
    assert_eq!(outcome.total_simulations, direct.total_simulations);

    // The drained estimate finished keyless in the first process, so
    // compaction dropped it: the second process never heard of it.
    match client.status(running.id) {
        Err(ClientError::Api { status: 404, .. }) => {}
        other => panic!("expected 404 for the compacted-away job, got {other:?}"),
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spool-only server forgets its jobs across a restart, so the next
/// process hands the id of a persisted sweep to a new job. A different
/// sweep under that id replaces the stale checkpoint instead of failing
/// on it.
#[test]
fn a_stale_spool_checkpoint_does_not_fail_a_new_sweep() {
    let spool = scratch_dir("stale-spool");
    let config = || ServeConfig {
        workers: 1,
        queue_capacity: 8,
        spool: Some(spool.clone()),
        ..ServeConfig::default()
    };
    let estimate = SubmitRequest::new(tiny_config(5), JobSpec::rdf_only(1.0));
    let persisted = SubmitRequest::new(tiny_config(6), JobSpec::sweep(1.0, vec![0.0, 0.5, 1.0]));

    // First process: job 1 drains, the queued sweep (job 2) is
    // persisted to the spool.
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let first = Server::bind_with("127.0.0.1:0", config(), move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind first");
    let client = Client::new(first.local_addr().to_string());
    let running = client.submit(&estimate).expect("running job");
    wait_until_running(&client, running.id);
    let queued = client.submit(&persisted).expect("queued sweep");
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            gate.store(true, Ordering::SeqCst);
        })
    };
    let summary = first.shutdown();
    opener.join().expect("gate opener");
    assert_eq!(summary.persisted, 1, "the queued sweep must be persisted");
    assert!(spool.join(format!("job-{}.json", queued.id)).exists());

    // Second process, same spool, no journal: ids start over, and a
    // different sweep lands on the persisted sweep's id.
    let second = Server::bind_with("127.0.0.1:0", config(), |_scenario, _vdd| linear_bench())
        .expect("bind second");
    let client = Client::new(second.local_addr().to_string());
    let first_job = client.submit(&estimate).expect("estimate");
    client
        .wait_for_report(first_job.id, WAIT)
        .expect("estimate report");
    let alphas = vec![0.25, 0.75];
    let sweep = SubmitRequest::new(tiny_config(8), JobSpec::sweep(1.0, alphas.clone()));
    let submitted = client.submit(&sweep).expect("new sweep");
    assert_eq!(submitted.id, queued.id, "the new sweep reuses the id");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("new sweep report");
    assert_eq!(report.state, JobState::Completed, "{:?}", report.error);
    let outcome = report.sweep.expect("sweep outcome");
    let direct = DutySweep::new(tiny_config(8), linear_bench(), alphas)
        .run()
        .expect("direct sweep");
    assert_eq!(outcome.points, direct.points);
    assert_eq!(outcome.total_simulations, direct.total_simulations);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn idempotency_keys_dedup_within_and_across_restarts() {
    let dir = scratch_dir("idempotency");
    let journal = dir.join("journal.jsonl");
    let config = || ServeConfig {
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    };
    let request = SubmitRequest::new(tiny_config(12), JobSpec::rdf_only(1.0))
        .with_idempotency_key("sweep-2026-08/row-17");

    let first =
        Server::bind_with("127.0.0.1:0", config(), |_scenario, _vdd| linear_bench()).expect("bind");
    let client = Client::new(first.local_addr().to_string());
    // An empty key is rejected, not silently deduplicated-by-nothing.
    match client.submit(&request.clone().with_idempotency_key("")) {
        Err(ClientError::Api {
            status: 400, code, ..
        }) => assert_eq!(code, "invalid_idempotency_key"),
        other => panic!("expected invalid_idempotency_key, got {other:?}"),
    }
    let original = client.submit(&request).expect("first submission");
    let retried = client.submit(&request).expect("retried submission");
    assert_eq!(retried.id, original.id, "same key, same job");
    client.wait(original.id, WAIT).expect("job completes");
    let after_completion = client.submit(&request).expect("post-completion retry");
    assert_eq!(after_completion.id, original.id);
    assert_eq!(after_completion.state, JobState::Completed);
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.submitted, 1, "retries never enqueue duplicates");
    assert_eq!(metrics.idempotent_hits, 2);
    first.shutdown();

    // The key rides in the journal: a retry against the restarted
    // process still answers with the original job id.
    let second =
        Server::bind_with("127.0.0.1:0", config(), |_scenario, _vdd| linear_bench()).expect("bind");
    let client = Client::new(second.local_addr().to_string());
    let across_restart = client.submit(&request).expect("retry after restart");
    assert_eq!(across_restart.id, original.id);
    assert_eq!(across_restart.state, JobState::Completed);
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.submitted, 0);
    assert_eq!(metrics.idempotent_hits, 1);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checks that the server at `addr` holds job `id` as it was admitted:
/// its status shows the wire scenario and the submitted trace id, and
/// a resubmission with the same idempotency key answers `200` with
/// the same id.
fn assert_admitted(addr: std::net::SocketAddr, id: u64, request: &SubmitRequest) -> JobState {
    let trace_id = request.trace.map(|trace| fmt_hex_id(trace.trace_id));
    let status = Client::new(addr.to_string()).status(id).expect("status");
    assert_eq!(status.scenario, request.scenario, "the wire scenario wins");
    assert_eq!(status.trace_id, trace_id);
    let body = serde_json::to_string(request).expect("serialise");
    let mut stream = TcpStream::connect(addr).expect("connect");
    http::write_request(&mut stream, "POST", "/v1/jobs", Some(&body)).expect("write");
    let (code, _, body) = http::read_response(&mut stream).expect("read");
    assert_eq!(code, 200, "a keyed resubmission is a duplicate: {body}");
    let duplicate: JobStatus = serde_json::from_str(&body).expect("status body");
    assert_eq!(duplicate.id, id);
    assert_eq!(duplicate.trace_id, trace_id);
    status.state
}

/// A queued job keeps what it was admitted with through a crash, the
/// boot compaction and a second restart, and through a compaction at
/// shutdown: the wire scenario (not the one inside `config`), the
/// trace, the idempotency key, and the report it runs to.
#[test]
fn replay_and_compaction_keep_a_jobs_admission() {
    let dir = scratch_dir("replay-compaction");
    let trace = TraceContext::for_job(4242, 8);
    let mut request = SubmitRequest::new(tiny_config(8), JobSpec::rdf_only(1.0))
        .with_deadline_ms(600_000)
        .with_idempotency_key("replay-compaction/job")
        .with_trace(trace);
    request.scenario = Scenario::HoldSnm;
    assert_ne!(request.config.scenario, request.scenario);
    let blocker = SubmitRequest::new(tiny_config(2), JobSpec::rdf_only(1.0));
    let mut stamped = tiny_config(8);
    stamped.scenario = Scenario::HoldSnm;
    let recorder = RunRecorder::new();
    let direct = Ecripse::new(stamped, linear_bench())
        .estimate_observed(&recorder)
        .expect("direct estimate");
    let mut direct_report = recorder.into_report();
    direct_report.strip_timings();

    // One worker, held by the blocker (the first job, so also the
    // first replayed) until the gate opens: the job stays queued.
    let bind = |journal: &PathBuf, gate: &Arc<AtomicBool>| {
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 8,
            journal: Some(journal.clone()),
            ..ServeConfig::default()
        };
        let gate = Arc::clone(gate);
        Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| {
            GateBench::new(Arc::clone(&gate))
        })
        .expect("bind")
    };
    // A crash leaves the journal as it is on disk: a copy taken while
    // the server runs is what the next process boots from.
    let crash_copy = |from: &PathBuf, name: &str| {
        let to = dir.join(name);
        std::fs::copy(from, &to).expect("copy journal");
        to
    };
    let run_to_report = |server: &Server<GateBench>, gate: &AtomicBool, id: u64| {
        gate.store(true, Ordering::SeqCst);
        let client = Client::new(server.local_addr().to_string());
        let report = client.wait_for_report(id, WAIT).expect("report");
        assert_eq!(report.state, JobState::Completed);
        assert_eq!(report.scenario, Scenario::HoldSnm);
        assert_eq!(report.trace_id, Some(fmt_hex_id(trace.trace_id)));
        let outcome = report.estimate.expect("estimate outcome");
        assert_eq!(outcome.p_fail, direct.p_fail);
        assert_eq!(outcome.simulations, direct.simulations);
        let mut served_report = outcome.report;
        served_report.strip_timings();
        assert_eq!(served_report, direct_report);
    };

    let journal = dir.join("first.journal");
    let gate = Arc::new(AtomicBool::new(false));
    let first = bind(&journal, &gate);
    let client = Client::new(first.local_addr().to_string());
    let held = client.submit(&blocker).expect("blocker");
    wait_until_running(&client, held.id);
    let id = client.submit(&request).expect("queued job").id;
    assert_eq!(
        assert_admitted(first.local_addr(), id, &request),
        JobState::Queued
    );
    let journal = crash_copy(&journal, "second.journal");
    gate.store(true, Ordering::SeqCst);
    first.shutdown();

    // After the crash: replayed under the same id, then compacted at
    // boot; a crash copy of the compacted journal feeds the third boot.
    let gate = Arc::new(AtomicBool::new(false));
    let second = bind(&journal, &gate);
    assert_eq!(
        assert_admitted(second.local_addr(), id, &request),
        JobState::Queued
    );
    let journal = crash_copy(&journal, "third.journal");
    run_to_report(&second, &gate, id);
    second.shutdown();

    let gate = Arc::new(AtomicBool::new(false));
    let third = bind(&journal, &gate);
    assert_eq!(
        assert_admitted(third.local_addr(), id, &request),
        JobState::Queued
    );
    run_to_report(&third, &gate, id);
    // Graceful shutdown compacts from the job table: the finished,
    // keyed job keeps its admission for the next boot.
    third.shutdown();
    let fourth = bind(&journal, &Arc::new(AtomicBool::new(true)));
    assert_eq!(
        assert_admitted(fourth.local_addr(), id, &request),
        JobState::Completed
    );
    fourth.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readyz_reflects_queue_saturation() {
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());

    let readiness = client.readiness().expect("initial readiness");
    assert!(readiness.ready);
    assert_eq!(readiness.status, "ready");
    assert_eq!(readiness.protocol, PROTOCOL_VERSION);

    // Fill the worker and the queue: liveness stays green (the process
    // is fine) while readiness flips to saturated.
    let request = SubmitRequest::new(tiny_config(13), JobSpec::rdf_only(1.0));
    let running = client.submit(&request).expect("running job");
    wait_until_running(&client, running.id);
    let queued = client.submit(&request).expect("queued job");
    let readiness = client.readiness().expect("saturated readiness");
    assert!(!readiness.ready);
    assert_eq!(readiness.status, "saturated");
    assert_eq!(client.health().expect("healthz").status, "ok");

    gate.store(true, Ordering::SeqCst);
    client.wait(running.id, WAIT).expect("first finishes");
    client.wait(queued.id, WAIT).expect("second finishes");
    let readiness = client.readiness().expect("readiness after drain");
    assert!(readiness.ready);
    server.shutdown();
}

#[test]
fn half_written_requests_are_bounded_by_the_connection_lifetime() {
    use std::io::{Read as _, Write as _};

    let config = ServeConfig {
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(200),
        connection_lifetime: Duration::from_millis(400),
        ..ServeConfig::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", config, |_scenario, _vdd| linear_bench()).expect("bind");
    let addr = server.local_addr();

    // A slow-loris client: declares a body it never sends. The read
    // timeout must cut it loose instead of pinning a handler thread.
    let started = std::time::Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4096\r\n\r\n{\"proto")
        .expect("half-write");
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink); // 400 or a plain close — either is fine
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "server held a half-written connection too long: {:?}",
        started.elapsed()
    );

    // The server is unharmed and still answering.
    let client = Client::new(addr.to_string());
    assert_eq!(client.health().expect("healthz").status, "ok");
    server.shutdown();
}

#[test]
fn retrying_client_rides_out_backpressure_and_reports_total_wait() {
    let gate = Arc::new(AtomicBool::new(false));
    let factory_gate = Arc::clone(&gate);
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| {
        GateBench::new(Arc::clone(&factory_gate))
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let plain = Client::new(addr.clone());
    let retrying = Client::new(addr.clone()).with_retry(BackoffPolicy {
        max_attempts: 60,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(100),
    });

    let request = SubmitRequest::new(tiny_config(14), JobSpec::rdf_only(1.0));
    let running = plain.submit(&request).expect("running job");
    wait_until_running(&plain, running.id);
    let queued = plain.submit(&request).expect("queued job");
    // Queue full: the plain client bounces immediately…
    match plain.submit(&request) {
        Err(ClientError::Busy { .. }) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    // …while the retrying client keeps knocking (429s honoured up to
    // its cap) until the backlog drains and the slot frees.
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            gate.store(true, Ordering::SeqCst);
        })
    };
    let third = retrying
        .submit(&request)
        .expect("retrying client lands the job");
    opener.join().expect("gate opener");
    plain.wait(running.id, WAIT).expect("first finishes");
    plain.wait(queued.id, WAIT).expect("second finishes");
    plain.wait(third.id, WAIT).expect("third finishes");

    // Timeout now reports how long the caller actually waited.
    match plain.wait(running.id, Duration::from_millis(0)) {
        Ok(status) => assert!(status.state.is_terminal()),
        Err(ClientError::Timeout { id, waited }) => {
            assert_eq!(id, running.id);
            let _ = waited;
        }
        other => panic!("unexpected wait outcome: {other:?}"),
    }

    // Connect errors are retryable too: a client pointed at a dead
    // port fails with Io only after its attempts are spent.
    let dead = Client::new("127.0.0.1:1".to_string()).with_retry(BackoffPolicy {
        max_attempts: 2,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(10),
    });
    match dead.health() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected Io from a dead port, got {other:?}"),
    }
    server.shutdown();
}

/// The accept thread blocks in `accept`, so stopping it takes a wake-up:
/// a server dropped without `shutdown` still frees its port, and an idle
/// server's `shutdown` returns at once.
#[test]
fn dropped_and_shut_down_servers_release_the_front_door() {
    let bind = || {
        Server::bind_with("127.0.0.1:0", ServeConfig::default(), |_scenario, _vdd| {
            linear_bench()
        })
        .expect("bind")
    };
    let server = bind();
    let addr = server.local_addr();
    // One answered request: the accept thread is past start-up and
    // back in `accept`.
    Client::new(addr.to_string()).health().expect("health");
    drop(server);
    let until = Instant::now() + Duration::from_secs(1);
    while TcpListener::bind(addr).is_err() {
        assert!(
            Instant::now() < until,
            "{addr} is still bound a second after the server was dropped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let server = bind();
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "idle shutdown took {took:?}");
}
