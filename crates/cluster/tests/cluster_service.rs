//! End-to-end cluster tests on loopback, all in one process: a real
//! coordinator fronting real `Server`s joined via the worker loop. The
//! load-bearing assertion is the determinism contract — a sweep
//! sharded across two workers merges to exactly the result one server
//! computes on its own.

use ecripse_cluster::{ClusterConfig, ClusterMetrics, Coordinator, JoinConfig};
use ecripse_core::bench::{LinearBench, Testbench};
use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::sweep::SweepBench;
use ecripse_core::telemetry::{fmt_hex_id, TraceContext};
use ecripse_serve::protocol::{JobSpec, JobState, SubmitRequest, SweepOutcome};
use ecripse_serve::{http, Client, ClientError, ServeConfig, Server};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "../../serve/tests/support/exposition.rs"]
mod exposition;
use exposition::{assert_metadata_matches, validate_exposition};

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

fn bind_worker() -> Server<LinearBench> {
    Server::bind_with("127.0.0.1:0", ServeConfig::default(), |_scenario, _vdd| {
        linear_bench()
    })
    .expect("bind worker")
}

/// A worker whose spans carry a stable node name (instead of the
/// `serve-{port}` default) so trace assertions can address it.
fn bind_named_worker(name: &str) -> Server<LinearBench> {
    let config = ServeConfig {
        node: Some(name.to_string()),
        ..ServeConfig::default()
    };
    Server::bind_with("127.0.0.1:0", config, |_scenario, _vdd| linear_bench())
        .expect("bind named worker")
}

/// A coordinator tuned for test time: fast heartbeats, fast reap, fast
/// polls, 2-point shards.
fn fast_cluster() -> ClusterConfig {
    ClusterConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
        shard_points: 2,
        poll_interval: Duration::from_millis(10),
        ..ClusterConfig::default()
    }
}

/// A bench whose evaluations block until its gate opens: it holds a
/// job running on one worker while a test reaps or cancels it there.
#[derive(Clone)]
struct GateBench {
    inner: LinearBench,
    gate: Arc<AtomicBool>,
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

/// A named worker whose benches wait on `gate`.
fn bind_gated_worker(name: &str, gate: &Arc<AtomicBool>) -> Server<GateBench> {
    let config = ServeConfig {
        node: Some(name.to_string()),
        ..ServeConfig::default()
    };
    let gate = Arc::clone(gate);
    Server::bind_with("127.0.0.1:0", config, move |_scenario, _vdd| GateBench {
        inner: linear_bench(),
        gate: Arc::clone(&gate),
    })
    .expect("bind gated worker")
}

/// Whether the worker at `addr` is running a job right now.
fn runs_a_job(addr: std::net::SocketAddr) -> bool {
    Client::new(addr.to_string())
        .metrics()
        .is_ok_and(|metrics| metrics.in_flight > 0)
}

fn join_worker<B: SweepBench + 'static>(
    coordinator: &Coordinator,
    name: &str,
    worker: &Server<B>,
) -> ecripse_cluster::JoinHandle {
    ecripse_cluster::join(JoinConfig::new(
        coordinator.local_addr().to_string(),
        name,
        worker.local_addr().to_string(),
    ))
}

fn strip_outcome_timings(outcome: &mut SweepOutcome) {
    outcome.reports.rdf_only.strip_timings();
    for report in &mut outcome.reports.points {
        report.strip_timings();
    }
}

fn sweep_request(seed: u64, points: usize) -> SubmitRequest {
    let alphas: Vec<f64> = (0..points)
        .map(|i| i as f64 / (points - 1) as f64)
        .collect();
    SubmitRequest::new(tiny_config(seed), JobSpec::sweep(0.7, alphas))
}

/// The tentpole contract: a sweep submitted to the coordinator — split
/// into shards, scattered over two workers, merged — is bit-identical
/// to the same request served by one standalone process.
#[test]
fn sharded_sweep_is_bit_identical_to_a_single_process_run() {
    // Baseline: one plain server, no cluster anywhere.
    let single = bind_worker();
    let single_client = Client::new(single.local_addr().to_string());
    let request = sweep_request(11, 7);
    let submitted = single_client.submit(&request).expect("submit baseline");
    let mut baseline = single_client
        .wait_for_report(submitted.id, WAIT)
        .expect("baseline completes")
        .sweep
        .expect("baseline sweep outcome");
    single.shutdown();

    // Cluster: coordinator + two joined workers.
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let w1 = bind_worker();
    let w2 = bind_worker();
    let m1 = join_worker(&coordinator, "w1", &w1);
    let m2 = join_worker(&coordinator, "w2", &w2);
    let client = Client::new(coordinator.local_addr().to_string());
    let ready = client.wait_ready(WAIT).expect("coordinator becomes ready");
    assert!(ready.ready, "coordinator not ready: {}", ready.status);

    let submitted = client.submit(&request).expect("submit to coordinator");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("cluster sweep completes");
    assert_eq!(report.state, JobState::Completed);
    let mut merged = report.sweep.expect("merged sweep outcome");

    strip_outcome_timings(&mut baseline);
    strip_outcome_timings(&mut merged);
    assert_eq!(
        merged, baseline,
        "a sharded sweep must merge bit-identically to a single-process run"
    );

    // Both workers actually took part: 7 points in 2-point shards is 4
    // shards, dealt round-robin over the two workers.
    let metrics = coordinator.metrics();
    assert!(
        metrics.shards_completed_total >= 4,
        "expected at least 4 shards, saw {}",
        metrics.shards_completed_total
    );
    assert_eq!(metrics.jobs_completed, 1);

    m1.leave();
    m2.leave();
    w1.shutdown();
    w2.shutdown();
    coordinator.shutdown();
}

/// Estimates have nothing to shard: they forward whole to one worker
/// and come back bit-identical too.
#[test]
fn estimates_forward_whole_and_match_a_direct_run() {
    let single = bind_worker();
    let single_client = Client::new(single.local_addr().to_string());
    let request = SubmitRequest::new(tiny_config(23), JobSpec::estimate(0.7, 0.5));
    let submitted = single_client.submit(&request).expect("submit baseline");
    let mut baseline = single_client
        .wait_for_report(submitted.id, WAIT)
        .expect("baseline completes")
        .estimate
        .expect("baseline estimate outcome");
    single.shutdown();

    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let worker = bind_worker();
    let membership = join_worker(&coordinator, "w1", &worker);
    let client = Client::new(coordinator.local_addr().to_string());
    client.wait_ready(WAIT).expect("ready");

    let submitted = client.submit(&request).expect("submit estimate");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("estimate completes");
    let mut forwarded = report.estimate.expect("forwarded estimate outcome");

    baseline.report.strip_timings();
    forwarded.report.strip_timings();
    assert_eq!(
        forwarded, baseline,
        "forwarded estimate must match a direct run"
    );
    assert!(coordinator.metrics().estimates_forwarded_total >= 1);

    membership.leave();
    worker.shutdown();
    coordinator.shutdown();
}

/// A forwarded estimate is a one-slot dispatch: when its worker is
/// reaped mid-job, the slot moves to the survivor under the same
/// idempotency key, and the result still equals a direct run.
#[test]
fn a_reaped_workers_estimate_finishes_on_the_survivor() {
    let request = SubmitRequest::new(tiny_config(37), JobSpec::estimate(0.7, 0.5));
    let single = bind_worker();
    let single_client = Client::new(single.local_addr().to_string());
    let submitted = single_client.submit(&request).expect("submit baseline");
    let mut baseline = single_client
        .wait_for_report(submitted.id, WAIT)
        .expect("baseline completes")
        .estimate
        .expect("baseline estimate outcome");
    single.shutdown();

    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let mut workers: Vec<_> = ["est-a", "est-b"]
        .into_iter()
        .map(|name| {
            let gate = Arc::new(AtomicBool::new(false));
            let worker = bind_gated_worker(name, &gate);
            let membership = join_worker(&coordinator, name, &worker);
            (gate, worker, membership)
        })
        .collect();
    let until = Instant::now() + WAIT;
    while coordinator.metrics().workers_alive < 2 {
        assert!(Instant::now() < until, "both workers never joined");
        std::thread::sleep(Duration::from_millis(10));
    }
    let client = Client::new(coordinator.local_addr().to_string());
    let submitted = client.submit(&request).expect("submit estimate");

    // The estimate's worker holds it at its closed gate; the other
    // worker's gate opens, and the first stops heartbeating.
    let victim = loop {
        assert!(Instant::now() < until, "the estimate never started");
        if let Some(k) = workers
            .iter()
            .position(|(_, w, _)| runs_a_job(w.local_addr()))
        {
            break k;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let (victim_gate, victim, victim_membership) = workers.remove(victim);
    let (survivor_gate, survivor, survivor_membership) = workers.remove(0);
    survivor_gate.store(true, Ordering::SeqCst);
    victim_membership.leave();

    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("the estimate survives its worker's death");
    assert_eq!(report.state, JobState::Completed);
    let mut forwarded = report.estimate.expect("forwarded estimate outcome");
    baseline.report.strip_timings();
    forwarded.report.strip_timings();
    assert_eq!(
        forwarded, baseline,
        "a reassigned estimate must match a direct run"
    );
    let metrics = coordinator.metrics();
    assert!(
        metrics.shards_reassigned_total >= 1,
        "the reaped worker's estimate was never reassigned"
    );
    assert!(
        metrics.estimates_forwarded_total >= 2,
        "expected the first dispatch and a re-dispatch, saw {}",
        metrics.estimates_forwarded_total
    );

    victim_gate.store(true, Ordering::SeqCst);
    victim.shutdown();
    survivor_membership.leave();
    survivor.shutdown();
    coordinator.shutdown();
}

/// A forwarded estimate cancelled while its worker runs it still
/// leaves its coordinator `estimate` span under the job root, and the
/// worker's job span parents to that span.
#[test]
fn a_cancelled_estimate_keeps_its_coordinator_span() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let gate = Arc::new(AtomicBool::new(false));
    let worker = bind_gated_worker("cancel-w", &gate);
    let membership = join_worker(&coordinator, "cancel-w", &worker);
    let client = Client::new(coordinator.local_addr().to_string());
    client.wait_ready(WAIT).expect("ready");

    let context = TraceContext::for_job(5151, 29);
    let request =
        SubmitRequest::new(tiny_config(29), JobSpec::estimate(0.7, 0.5)).with_trace(context);
    let submitted = client.submit(&request).expect("submit traced estimate");
    let until = Instant::now() + WAIT;
    while !runs_a_job(worker.local_addr()) {
        assert!(Instant::now() < until, "the estimate never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.cancel(submitted.id).expect("cancel accepted");
    match client.wait(submitted.id, WAIT) {
        Err(ClientError::Cancelled { id }) => assert_eq!(id, submitted.id),
        other => panic!("expected the estimate to drain to cancelled, got {other:?}"),
    }
    // With the gate open the worker reaches a boundary, sees the
    // coordinator's cancel and stores its job span.
    gate.store(true, Ordering::SeqCst);
    let trace = loop {
        let trace = client.trace(submitted.id).expect("merged trace document");
        if trace.spans.iter().any(|span| span.node == "cancel-w") {
            break trace;
        }
        assert!(Instant::now() < until, "no span from the worker");
        std::thread::sleep(Duration::from_millis(20));
    };
    let coordinator_span = |name: &str| {
        trace
            .spans
            .iter()
            .find(|span| span.node == "coordinator" && span.name == name)
            .unwrap_or_else(|| panic!("no coordinator {name} span"))
    };
    let root = coordinator_span("job");
    let estimate = coordinator_span("estimate");
    assert_eq!(
        estimate.parent_span_id, root.span_id,
        "the estimate span parents to the job root"
    );
    let worker_job = trace
        .spans
        .iter()
        .find(|span| span.node == "cancel-w" && span.name == "job")
        .expect("the worker's job span");
    assert_eq!(
        worker_job.parent_span_id, estimate.span_id,
        "the worker's job span parents to the coordinator estimate span"
    );

    membership.leave();
    worker.shutdown();
    coordinator.shutdown();
}

/// The `(status, code, message)` of an API error answer.
fn api_error<T: std::fmt::Debug>(result: Result<T, ClientError>) -> (u16, String, String) {
    match result {
        Err(ClientError::Api {
            status,
            code,
            message,
        }) => (status, code, message),
        other => panic!("expected an API error, got {other:?}"),
    }
}

/// The coordinator's job endpoints answer every error case with the
/// status, code and message a single server gives for the same case:
/// unknown ids, the report of a running job, and a cancel of a finished
/// one. The worker's first job carries the same id as the coordinator's
/// first job, so the two messages can be compared verbatim.
#[test]
fn job_endpoint_errors_match_a_single_server() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let gate = Arc::new(AtomicBool::new(false));
    let worker = bind_gated_worker("errors-w", &gate);
    let membership = join_worker(&coordinator, "errors-w", &worker);
    let cluster = Client::new(coordinator.local_addr().to_string());
    let serve = Client::new(worker.local_addr().to_string());
    cluster.wait_ready(WAIT).expect("ready");

    let unknown = 999;
    for client in [&cluster, &serve] {
        let answers = [
            api_error(client.status(unknown)),
            api_error(client.report(unknown)),
            api_error(client.trace(unknown)),
            api_error(client.cancel(unknown)),
        ];
        for answer in answers {
            assert_eq!(
                answer,
                (404, "unknown_job".to_string(), format!("no job {unknown}"))
            );
        }
    }

    let request = SubmitRequest::new(tiny_config(31), JobSpec::estimate(0.7, 0.5));
    let submitted = cluster.submit(&request).expect("submit estimate");
    let until = Instant::now() + WAIT;
    while !runs_a_job(worker.local_addr()) {
        assert!(Instant::now() < until, "the estimate never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let served = serve
        .status(submitted.id)
        .expect("the worker holds the same id");
    assert_eq!(served.state, JobState::Running);
    let not_ready = api_error(cluster.report(submitted.id));
    assert_eq!(not_ready.0, 409);
    assert_eq!(not_ready.1, "not_ready");
    assert_eq!(not_ready, api_error(serve.report(submitted.id)));

    gate.store(true, Ordering::SeqCst);
    let done = cluster
        .wait(submitted.id, WAIT)
        .expect("estimate completes");
    assert_eq!(done.state, JobState::Completed);
    let conflict = api_error(cluster.cancel(submitted.id));
    assert_eq!(conflict.0, 409);
    assert_eq!(conflict.1, "conflict");
    assert_eq!(conflict, api_error(serve.cancel(submitted.id)));

    membership.leave();
    worker.shutdown();
    coordinator.shutdown();
}

/// The coordinator speaks the serve protocol end to end: readiness
/// gates on live workers, idempotency keys dedup, cancel works, and a
/// worker that stops heartbeating shows up dead in the listing.
#[test]
fn cluster_management_surface_behaves() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let client = Client::new(coordinator.local_addr().to_string());

    // No workers yet: healthz answers, readyz refuses with a hint.
    client.handshake().expect("handshake");
    let readiness = client.readiness().expect("readiness document");
    assert!(!readiness.ready);
    assert_eq!(readiness.status, "no-workers");
    assert_eq!(readiness.retry_after_seconds, Some(1));

    // A submission against an empty cluster is accepted (the dispatcher
    // waits for capacity) — but we exercise cancel instead of waiting.
    let request = sweep_request(31, 5).with_idempotency_key("svc/sweep-31");
    let submitted = client.submit(&request).expect("submit");
    let dup = client.submit(&request).expect("dedup resubmit");
    assert_eq!(dup.id, submitted.id, "idempotency key must dedup");
    let cancelled = client.cancel(submitted.id).expect("cancel accepted");
    assert!(!cancelled.state.is_terminal() || cancelled.state == JobState::Cancelled);
    match client.wait(submitted.id, WAIT) {
        Err(ClientError::Cancelled { id }) => assert_eq!(id, submitted.id),
        other => panic!("expected the job to drain to cancelled, got {other:?}"),
    }
    assert!(coordinator.metrics().idempotent_hits >= 1);

    // Join one worker, then silence it: the reaper must mark it dead.
    let worker = bind_worker();
    let membership = join_worker(&coordinator, "w-reap", &worker);
    client.wait_ready(WAIT).expect("ready with one worker");
    membership.leave();
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        assert!(std::time::Instant::now() < deadline, "worker never reaped");
        if coordinator.metrics().workers_alive == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(coordinator.metrics().workers_dead_total >= 1);
    let readiness = client.readiness().expect("readiness after reap");
    assert!(!readiness.ready);

    // Prometheus exposition serves the cluster counters.
    let text = client.metrics_prometheus().expect("prometheus metrics");
    validate_exposition(&text);
    assert!(text.contains("ecripse_cluster_workers_dead_total"));
    assert!(text.contains("ecripse_cluster_jobs_submitted_total"));

    worker.shutdown();
    coordinator.shutdown();
}

/// The `# HELP`/`# TYPE` lines of a fresh coordinator with no workers:
/// every family its own `/metrics` declares, with help text and kind.
const COORDINATOR_METADATA: &str = "
# HELP ecripse_cluster_estimates_forwarded_total Estimate dispatches to a worker (re-dispatches included)
# TYPE ecripse_cluster_estimates_forwarded_total counter
# HELP ecripse_cluster_http_handler_panics_total HTTP connection handlers that panicked (the connection is dropped without a response)
# TYPE ecripse_cluster_http_handler_panics_total counter
# HELP ecripse_cluster_http_request_seconds Wall-clock latency of handling one HTTP request
# TYPE ecripse_cluster_http_request_seconds histogram
# HELP ecripse_cluster_idempotent_hits_total Submissions deduplicated by idempotency key
# TYPE ecripse_cluster_idempotent_hits_total counter
# HELP ecripse_cluster_jobs_cancelled_total Jobs cancelled
# TYPE ecripse_cluster_jobs_cancelled_total counter
# HELP ecripse_cluster_jobs_completed_total Jobs whose merged result completed
# TYPE ecripse_cluster_jobs_completed_total counter
# HELP ecripse_cluster_jobs_deadline_exceeded_total Jobs stopped by their wall-clock deadline
# TYPE ecripse_cluster_jobs_deadline_exceeded_total counter
# HELP ecripse_cluster_jobs_failed_total Jobs that ended in failure
# TYPE ecripse_cluster_jobs_failed_total counter
# HELP ecripse_cluster_jobs_submitted_total Jobs ever accepted
# TYPE ecripse_cluster_jobs_submitted_total counter
# HELP ecripse_cluster_shards_completed_total Shards whose results were merged
# TYPE ecripse_cluster_shards_completed_total counter
# HELP ecripse_cluster_shards_dispatched_total Sweep shards dispatched to workers (re-dispatches included)
# TYPE ecripse_cluster_shards_dispatched_total counter
# HELP ecripse_cluster_shards_reassigned_total Shards reassigned off a dead worker
# TYPE ecripse_cluster_shards_reassigned_total counter
# HELP ecripse_cluster_uptime_seconds Seconds since the coordinator bound its socket
# TYPE ecripse_cluster_uptime_seconds gauge
# HELP ecripse_cluster_workers_alive Workers currently alive
# TYPE ecripse_cluster_workers_alive gauge
# HELP ecripse_cluster_workers_dead_total Workers declared dead by the heartbeat reaper
# TYPE ecripse_cluster_workers_dead_total counter
";

#[test]
fn fresh_coordinator_declares_the_golden_metric_families() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let client = Client::new(coordinator.local_addr().to_string());
    let text = client.metrics_prometheus().expect("prometheus metrics");
    validate_exposition(&text);
    assert_metadata_matches(&text, COORDINATOR_METADATA);
    coordinator.shutdown();
}

/// Take a worker out mid-sweep while it holds its shards at a closed
/// gate: its heartbeats stop, the reaper declares it dead, and the
/// coordinator must reassign its unfinished shards to the survivor —
/// with the merged result still bit-identical to a single-process run.
#[test]
fn dead_workers_shards_are_reassigned_to_survivors() {
    let single = bind_worker();
    let single_client = Client::new(single.local_addr().to_string());
    let request = sweep_request(47, 8);
    let submitted = single_client.submit(&request).expect("submit baseline");
    let mut baseline = single_client
        .wait_for_report(submitted.id, WAIT)
        .expect("baseline completes")
        .sweep
        .expect("baseline sweep outcome");
    single.shutdown();

    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        ClusterConfig {
            shard_points: 1, // fine-grained: every point is its own shard
            ..fast_cluster()
        },
    )
    .expect("bind coordinator");
    let victim_gate = Arc::new(AtomicBool::new(false));
    let victim = bind_gated_worker("victim", &victim_gate);
    let survivor = bind_worker();
    let m_victim = join_worker(&coordinator, "victim", &victim);
    let m_survivor = join_worker(&coordinator, "survivor", &survivor);
    let until = Instant::now() + WAIT;
    while coordinator.metrics().workers_alive < 2 {
        assert!(Instant::now() < until, "both workers never joined");
        std::thread::sleep(Duration::from_millis(10));
    }
    let client = Client::new(coordinator.local_addr().to_string());

    let submitted = client.submit(&request).expect("submit to coordinator");
    // The victim holds its shards at its closed gate, so none of them
    // can finish before it stops heartbeating.
    while !runs_a_job(victim.local_addr()) {
        assert!(Instant::now() < until, "the victim never started a shard");
        std::thread::sleep(Duration::from_millis(5));
    }
    m_victim.leave();

    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("sweep survives the worker death");
    assert_eq!(report.state, JobState::Completed);
    let mut merged = report.sweep.expect("merged sweep outcome");

    strip_outcome_timings(&mut baseline);
    strip_outcome_timings(&mut merged);
    assert_eq!(
        merged, baseline,
        "reassigned shards must not change the merged result"
    );
    let metrics = coordinator.metrics();
    assert!(
        metrics.shards_reassigned_total >= 1,
        "the dead worker's shards were never reassigned"
    );

    victim_gate.store(true, Ordering::SeqCst);
    victim.shutdown();
    m_survivor.leave();
    survivor.shutdown();
    coordinator.shutdown();
}

/// The sweep each worker's jobs computed, as runs of global grid
/// indices: worker job ids count up from 1, and each point's α is
/// looked up in the full grid.
fn shard_runs(worker: std::net::SocketAddr, alphas: &[f64]) -> Vec<Vec<usize>> {
    let client = Client::new(worker.to_string());
    let jobs = client.metrics().expect("worker metrics").submitted;
    (1..=jobs)
        .map(|id| {
            let outcome = client
                .report(id)
                .expect("worker report")
                .sweep
                .expect("a shard's sweep outcome");
            outcome
                .points
                .iter()
                .map(|point| {
                    alphas
                        .iter()
                        .position(|&alpha| alpha == point.alpha)
                        .expect("a shard point lies on the grid")
                })
                .collect()
        })
        .collect()
}

/// A 10-point sweep in 2-point shards is five contiguous shards in
/// index order, dealt round-robin over the two live workers from the
/// job id onwards: one search-and-reference per shard, and both workers
/// busy.
#[test]
fn a_sweep_is_cut_into_contiguous_shards_dealt_round_robin() {
    let request = sweep_request(53, 10);
    let alphas = request.job.alphas.clone().expect("a sweep grid");
    let single = bind_worker();
    let single_client = Client::new(single.local_addr().to_string());
    let submitted = single_client.submit(&request).expect("submit baseline");
    let mut baseline = single_client
        .wait_for_report(submitted.id, WAIT)
        .expect("baseline completes")
        .sweep
        .expect("baseline sweep outcome");
    single.shutdown();

    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let survivor = bind_worker();
    let victim = bind_worker();
    let m_survivor = join_worker(&coordinator, "survivor", &survivor);
    let m_victim = join_worker(&coordinator, "victim", &victim);
    let until = Instant::now() + WAIT;
    while coordinator.metrics().workers_alive < 2 {
        assert!(Instant::now() < until, "both workers never joined");
        std::thread::sleep(Duration::from_millis(10));
    }
    let client = Client::new(coordinator.local_addr().to_string());
    let submitted = client.submit(&request).expect("submit to coordinator");
    assert_eq!(submitted.id, 1, "a fresh coordinator's first job");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("cluster sweep completes");
    assert_eq!(report.state, JobState::Completed);
    let mut merged = report.sweep.expect("merged sweep outcome");
    strip_outcome_timings(&mut baseline);
    strip_outcome_timings(&mut merged);
    assert_eq!(merged, baseline, "the merge must match a single process");

    let mut shard_spans: Vec<String> = client
        .trace(submitted.id)
        .expect("merged trace document")
        .spans
        .into_iter()
        .filter(|span| span.node == "coordinator" && span.name.starts_with("shard-"))
        .map(|span| span.name)
        .collect();
    shard_spans.sort_unstable();
    assert_eq!(
        shard_spans,
        ["shard-0", "shard-2", "shard-4", "shard-6", "shard-8"]
    );
    assert_eq!(coordinator.metrics().shards_dispatched_total, 5);

    let mut runs = Vec::new();
    for (name, worker) in [("survivor", &survivor), ("victim", &victim)] {
        let worker_runs = shard_runs(worker.local_addr(), &alphas);
        assert!(
            worker_runs.len() >= 2,
            "{name} completed {} shards: {worker_runs:?}",
            worker_runs.len()
        );
        runs.extend(worker_runs);
    }
    runs.sort_unstable();
    assert_eq!(
        runs,
        [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
        "shards must be contiguous runs of the grid"
    );

    m_survivor.leave();
    m_victim.leave();
    survivor.shutdown();
    victim.shutdown();
    coordinator.shutdown();
}

/// The tracing tentpole, in-process: one traced sweep through a
/// two-worker cluster merges into a single waterfall — every span
/// shares the job's trace id, shard spans parent to the coordinator
/// root, worker spans nest under shard spans, and shard wall-clock
/// sits inside the job's window.
#[test]
fn merged_trace_is_one_waterfall_across_coordinator_and_workers() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let wa = bind_named_worker("trace-a");
    let wb = bind_named_worker("trace-b");
    let ma = join_worker(&coordinator, "trace-a", &wa);
    let mb = join_worker(&coordinator, "trace-b", &wb);
    let client = Client::new(coordinator.local_addr().to_string());
    client.wait_ready(WAIT).expect("ready");

    let context = TraceContext::for_job(4242, 61);
    let trace_id = fmt_hex_id(context.trace_id);
    let request = sweep_request(61, 8).with_trace(context);
    let submitted = client.submit(&request).expect("submit traced sweep");
    assert_eq!(
        submitted.trace_id.as_deref(),
        Some(trace_id.as_str()),
        "the 202 echoes the caller's trace id"
    );
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("traced sweep completes");
    assert_eq!(report.state, JobState::Completed);
    assert_eq!(report.trace_id.as_deref(), Some(trace_id.as_str()));

    let trace = client.trace(submitted.id).expect("merged trace document");
    assert_eq!(trace.job_id, submitted.id);
    assert_eq!(trace.trace_id, trace_id);
    assert!(
        trace.spans.iter().all(|span| span.trace_id == trace_id),
        "every span in the waterfall shares the job trace id"
    );

    // The coordinator's root span heads the waterfall, at the id the
    // trace context derives deterministically…
    let root = trace
        .spans
        .iter()
        .find(|span| span.node == "coordinator" && span.name == "job")
        .expect("coordinator root span");
    assert_eq!(root.span_id, fmt_hex_id(context.span_id("coordinator/job")));
    assert_eq!(root.parent_span_id, fmt_hex_id(context.parent_span_id));

    // …its shard children parent to it and sit inside the job's
    // wall-clock window (± scheduling slack)…
    let shards: Vec<_> = trace
        .spans
        .iter()
        .filter(|span| span.node == "coordinator" && span.name.starts_with("shard-"))
        .collect();
    assert!(
        shards.len() >= 2,
        "8 points in 2-point shards means 4 shard spans, saw {}",
        shards.len()
    );
    const SLACK: f64 = 0.5;
    for shard in &shards {
        assert_eq!(
            shard.parent_span_id, root.span_id,
            "shard spans parent to the job root"
        );
        assert!(
            shard.start_ts >= root.start_ts - SLACK,
            "shard {} starts before the job root",
            shard.name
        );
        assert!(
            shard.end_ts() <= root.end_ts() + SLACK,
            "shard {} outlives the job root",
            shard.name
        );
    }

    // …and both workers contributed job spans that nest under
    // coordinator shard spans.
    for node in ["trace-a", "trace-b"] {
        let span = trace
            .spans
            .iter()
            .find(|span| span.node == node)
            .unwrap_or_else(|| panic!("no span from worker {node}"));
        assert!(
            shards
                .iter()
                .any(|shard| shard.span_id == span.parent_span_id),
            "worker {node}'s span must parent to a coordinator shard span"
        );
    }

    ma.leave();
    mb.leave();
    wa.shutdown();
    wb.shutdown();
    coordinator.shutdown();
}

/// A traced sweep with more shards than workers: each worker runs
/// several shards of one trace, yet every coordinator shard span holds
/// exactly one worker `job` span, and no two spans share an id.
#[test]
fn every_shard_span_holds_exactly_one_worker_job_span() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let wa = bind_named_worker("ids-a");
    let wb = bind_named_worker("ids-b");
    let ma = join_worker(&coordinator, "ids-a", &wa);
    let mb = join_worker(&coordinator, "ids-b", &wb);
    let until = Instant::now() + WAIT;
    while coordinator.metrics().workers_alive < 2 {
        assert!(Instant::now() < until, "both workers never joined");
        std::thread::sleep(Duration::from_millis(10));
    }
    let client = Client::new(coordinator.local_addr().to_string());
    let request = sweep_request(67, 10).with_trace(TraceContext::for_job(6767, 67));
    let submitted = client.submit(&request).expect("submit traced sweep");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("traced sweep completes");
    assert_eq!(report.state, JobState::Completed);

    let spans = client.trace(submitted.id).expect("merged trace").spans;
    let shards: Vec<_> = spans
        .iter()
        .filter(|span| span.node == "coordinator" && span.name.starts_with("shard-"))
        .collect();
    assert_eq!(shards.len(), 5, "10 points in 2-point shards");
    for shard in shards {
        let children: Vec<&str> = spans
            .iter()
            .filter(|span| span.name == "job" && span.parent_span_id == shard.span_id)
            .map(|span| span.node.as_str())
            .collect();
        assert!(
            matches!(children[..], ["ids-a" | "ids-b"]),
            "{} has worker job spans {children:?}, not exactly one",
            shard.name
        );
    }
    let mut ids: Vec<&str> = spans.iter().map(|span| span.span_id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "two spans share a span id");

    ma.leave();
    mb.leave();
    wa.shutdown();
    wb.shutdown();
    coordinator.shutdown();
}

/// Metrics federation: the coordinator's `/metrics` scrapes every live
/// worker on demand — worker-labelled serve series in the Prometheus
/// view (hostile names escaped), per-worker documents plus min/max/sum
/// rollups in the JSON view.
#[test]
fn federated_metrics_carry_per_worker_series_and_rollups() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let hostile = "fed\"b\\slash";
    let wa = bind_worker();
    let wb = bind_worker();
    let ma = join_worker(&coordinator, "fed-a", &wa);
    let mb = join_worker(&coordinator, hostile, &wb);
    let client = Client::new(coordinator.local_addr().to_string());
    client.wait_ready(WAIT).expect("ready");

    // Run one sweep through the cluster so worker counters move.
    let submitted = client.submit(&sweep_request(71, 6)).expect("submit");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("sweep completes");
    assert_eq!(report.state, JobState::Completed);

    // Prometheus view: cluster counters plus every worker's serve
    // series, each carrying its registry name as a label.
    let text = client.metrics_prometheus().expect("federated exposition");
    // Well formed, with each family's samples in one group across both
    // workers.
    validate_exposition(&text);
    assert!(text.contains("ecripse_cluster_jobs_submitted_total"));
    assert!(
        text.contains("ecripse_serve_submitted_total{worker=\"fed-a\"}"),
        "missing fed-a's relabelled serve series in:\n{text}"
    );
    assert!(
        text.contains("worker=\"fed\\\"b\\\\slash\""),
        "hostile worker names must be escaped in label values"
    );
    // HELP/TYPE headers for a federated series appear once, not per
    // worker.
    let type_lines = text
        .lines()
        .filter(|line| *line == "# TYPE ecripse_serve_submitted_total counter")
        .count();
    assert_eq!(type_lines, 1, "federated TYPE headers must be deduped");
    // Even with the hostile name present, every sample line keeps the
    // `name[{labels}] value` shape the CI scrape's parser enforces:
    // escaping confined the quotes/backslashes to the label value.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf",
            "bad sample value in {line:?}"
        );
        let name = series.split('{').next().expect("split never empty");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        let labels = &series[name.len()..];
        assert!(
            labels.is_empty() || (labels.starts_with('{') && labels.ends_with('}')),
            "malformed label block in {line:?}"
        );
    }

    // JSON view: per-worker snapshots plus scalar rollups.
    let mut stream = std::net::TcpStream::connect(coordinator.local_addr()).expect("connect");
    http::write_request(&mut stream, "GET", "/metrics", None).expect("write");
    let (status, _headers, body) = http::read_response(&mut stream).expect("read");
    assert_eq!(status, 200);
    let metrics: ClusterMetrics = serde_json::from_str(&body).expect("cluster metrics document");
    assert_eq!(metrics.workers.len(), 2, "one snapshot per live worker");
    for name in ["fed-a", hostile] {
        let view = metrics
            .workers
            .iter()
            .find(|view| view.worker == name)
            .unwrap_or_else(|| panic!("no metrics snapshot for worker {name}"));
        assert!(view.metrics.uptime_seconds > 0.0);
    }
    let shard_submissions: u64 = metrics
        .workers
        .iter()
        .map(|view| view.metrics.submitted)
        .sum();
    assert!(
        shard_submissions >= 2,
        "the sharded sweep must have reached the workers, saw {shard_submissions} submissions"
    );
    let rollup = metrics
        .rollups
        .iter()
        .find(|rollup| rollup.name == "submitted")
        .expect("submitted rollup");
    assert_eq!(rollup.sum, shard_submissions as f64);
    assert!(rollup.min <= rollup.max);
    assert!(rollup.max <= rollup.sum);

    ma.leave();
    mb.leave();
    wa.shutdown();
    wb.shutdown();
    coordinator.shutdown();
}

/// The coordinator's accept thread blocks in `accept`; dropping the
/// coordinator without `shutdown` must still wake it, so the port is
/// free again within a second.
#[test]
fn a_dropped_coordinator_releases_its_port() {
    let coordinator = Coordinator::bind("127.0.0.1:0", fast_cluster()).expect("bind coordinator");
    let addr = coordinator.local_addr();
    // One answered request: the accept thread is past start-up and
    // back in `accept`.
    Client::new(addr.to_string()).health().expect("health");
    drop(coordinator);
    let until = Instant::now() + Duration::from_secs(1);
    while TcpListener::bind(addr).is_err() {
        assert!(
            Instant::now() < until,
            "{addr} is still bound a second after the coordinator was dropped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
