//! The cluster coordinator: one front door, many `ecripse-serve`
//! workers.
//!
//! # Wire compatibility
//!
//! The coordinator accepts the *exact* job protocol a single server
//! speaks — `POST /v1/jobs` with a
//! [`SubmitRequest`], the same
//! status/report/cancel routes, the same error bodies. A client (or
//! the retrying [`Client`]) cannot tell the two
//! apart; pointing an existing deployment at a coordinator is a config
//! change, not a code change.
//!
//! # Job state
//!
//! Jobs live in serve's [`JobTable`], the one a single server keeps:
//! admission, idempotency keys, status, report and cancel answers are
//! the same code in both processes, and a job's spans sit on its record
//! in both. Each job's local part holds only what the coordinator adds:
//! the worker jobs the trace fan-out queries. The coordinator's own
//! policy stays here: it refuses pre-sharded sweeps, bounds the jobs in
//! flight, and runs one dispatcher thread per job.
//!
//! # Tracing
//!
//! Each dispatch runs one [`SpanCollector`] on node `coordinator`. Its
//! root `job` span covers the dispatch, and each dispatched slot is a
//! child span (`shard-{first}` or `estimate`) whose context the slot's
//! worker submission carries, so the worker's `job` span parents to it.
//! `GET /v1/jobs/{id}/trace` merges these spans with the ones fetched
//! from every worker that held a slot.
//!
//! # Sharding
//!
//! A sweep's duty grid is cut, in index order, into contiguous shards
//! of at most [`ClusterConfig::shard_points`] points, and each shard
//! ships as a normal serve submission whose [`JobSpec::sweep_shard`]
//! carries the points' *global grid indices*. The worker seeds every
//! point by global index — exactly the seed a single-process full-grid
//! run would use — so the merged report is bit-identical to the
//! unsharded run (see [`merge_sweep_shards`]). Estimates have nothing
//! to split and are forwarded whole as a job's only slot.
//!
//! # Placement
//!
//! One rule places every slot: slot `j` of job `id` goes to
//! `alive[(id + j) mod n]`, where `alive` is the registry's live
//! workers sorted by name, read once per dispatch round. A job's shards
//! are dealt round-robin over the workers, and consecutive jobs (and
//! so forwarded estimates, each a slot 0) start one worker further on.
//! A slot is placed when it is dispatched or re-dispatched; a running
//! slot never moves while its worker lives.
//!
//! # Failover
//!
//! Workers heartbeat (see [`mod@crate::join`]); the reaper marks a silent
//! worker dead after [`ClusterConfig::heartbeat_timeout`]. Every remote
//! job — each sweep shard, and a forwarded estimate as a one-slot
//! dispatch — runs through one supervisor loop with one policy. A job
//! whose worker was reaped, answers `404`, or reports it `cancelled` or
//! `persisted` is lost and re-dispatched to a survivor under its
//! *original* idempotency key (`cluster/job-{id}/shard-{s}` or
//! `cluster/job-{id}/estimate`), so a worker that merely restarted
//! answers the re-dispatch with its journaled job instead of
//! recomputing, and no shard can ever be counted twice. A transport
//! error is never a loss on its own. A worker-side failure or deadline,
//! an unreadable report, or a completed report without the outcome its
//! kind needs ends the job, and the still-running remote jobs are
//! cancelled. The merge is keyed by global point index, not arrival
//! order — reassignment cannot change the result, only the wall-clock.
//!
//! # Metrics
//!
//! The coordinator's counters and gauges are registered once in its
//! [`MetricsRegistry`], beside the front door's latency histogram. The
//! JSON [`ClusterMetrics`] document reads the same handles; the text
//! exposition is the registry's rendering followed by the live workers'
//! expositions, merged family by family and relabelled with
//! `worker="<name>"`.

use crate::protocol::{
    ClusterMetrics, ClusterWorkers, HeartbeatRequest, MetricRollup, RegisterRequest,
    RegisterResponse, WorkerMetricsView, WorkerView,
};
use crate::registry::WorkerRegistry;
use ecripse_core::sweep::{merge_sweep_shards, SweepResult, SweepShard};
use ecripse_core::telemetry::{escape_label_value, Counter, Gauge, MetricsRegistry, SpanCollector};
use ecripse_serve::http::{
    self, error_response, json_body, parse_body, with_job_id, FrontDoor, Limits, Request, Response,
};
use ecripse_serve::jobs::{JobLocal, JobOutput, JobTable};
use ecripse_serve::protocol::{
    ApiError, JobKind, JobSpec, JobState, Metrics, SubmitRequest, SweepOutcome, PROTOCOL_VERSION,
};
use ecripse_serve::{BackoffPolicy, Client, ClientError};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket timeout for the best-effort federation scrape and trace
/// fan-out — deliberately shorter than [`ClusterConfig::worker_timeout`]
/// so one hung worker cannot stall a `GET /metrics` or trace fetch.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Coordinator settings.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bound on concurrently tracked non-terminal jobs; submissions
    /// beyond it bounce with `429` (the workers' own queues are the
    /// real backpressure — this only stops unbounded dispatcher
    /// threads).
    pub max_inflight_jobs: usize,
    /// Cadence workers are told to heartbeat at.
    pub heartbeat_interval: Duration,
    /// Silence longer than this marks a worker dead.
    pub heartbeat_timeout: Duration,
    /// Largest number of duty points in one shard. Smaller shards
    /// spread wider and lose less work to a dead worker; larger shards
    /// amortise the per-shard initialisation a worker repeats.
    pub shard_points: usize,
    /// Socket timeout for coordinator → worker calls.
    pub worker_timeout: Duration,
    /// Dispatcher poll cadence while shards are in flight.
    pub poll_interval: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            max_inflight_jobs: 32,
            heartbeat_interval: Duration::from_millis(250),
            heartbeat_timeout: Duration::from_millis(1500),
            shard_points: 2,
            worker_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// What the coordinator keeps per job beside the shared record,
/// published when the dispatch ends.
#[derive(Default)]
struct TraceSources {
    /// `(worker addr, remote job id)` for every slot dispatch, kept so
    /// `GET /v1/jobs/{id}/trace` can fan out to the workers that held
    /// the slots.
    sources: Vec<(String, u64)>,
}

impl JobLocal for TraceSources {}

struct State {
    jobs: JobTable<TraceSources>,
    /// Dispatcher threads, one per accepted job: each submission joins
    /// those that have finished, and shutdown joins the rest.
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    /// Non-terminal jobs (bounds dispatcher concurrency).
    active: usize,
}

/// Every series the coordinator exports, each registered once in its
/// [`MetricsRegistry`] (next to the HTTP front door's latency histogram
/// and panic counter): counters, incremented where the event happens,
/// and the two gauges [`collect_metrics`] sets from its snapshot.
/// `GET /metrics` renders the registry, and the JSON document reads the
/// same handles.
struct ClusterTelemetry {
    registry: MetricsRegistry,
    workers_alive: Gauge,
    uptime_seconds: Gauge,
    workers_dead: Counter,
    jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    jobs_cancelled: Counter,
    jobs_deadline_exceeded: Counter,
    idempotent_hits: Counter,
    shards_dispatched: Counter,
    shards_reassigned: Counter,
    shards_completed: Counter,
    estimates_forwarded: Counter,
}

impl ClusterTelemetry {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str, help| registry.counter(&format!("ecripse_cluster_{name}"), help);
        let gauge = |name: &str, help| registry.gauge(&format!("ecripse_cluster_{name}"), help);
        Self {
            workers_alive: gauge("workers_alive", "Workers currently alive"),
            uptime_seconds: gauge(
                "uptime_seconds",
                "Seconds since the coordinator bound its socket",
            ),
            workers_dead: counter(
                "workers_dead_total",
                "Workers declared dead by the heartbeat reaper",
            ),
            jobs_submitted: counter("jobs_submitted_total", "Jobs ever accepted"),
            jobs_completed: counter("jobs_completed_total", "Jobs whose merged result completed"),
            jobs_failed: counter("jobs_failed_total", "Jobs that ended in failure"),
            jobs_cancelled: counter("jobs_cancelled_total", "Jobs cancelled"),
            jobs_deadline_exceeded: counter(
                "jobs_deadline_exceeded_total",
                "Jobs stopped by their wall-clock deadline",
            ),
            idempotent_hits: counter(
                "idempotent_hits_total",
                "Submissions deduplicated by idempotency key",
            ),
            shards_dispatched: counter(
                "shards_dispatched_total",
                "Sweep shards dispatched to workers (re-dispatches included)",
            ),
            shards_reassigned: counter(
                "shards_reassigned_total",
                "Shards reassigned off a dead worker",
            ),
            shards_completed: counter("shards_completed_total", "Shards whose results were merged"),
            estimates_forwarded: counter(
                "estimates_forwarded_total",
                "Estimate dispatches to a worker (re-dispatches included)",
            ),
            registry,
        }
    }
}

struct Shared {
    config: ClusterConfig,
    registry: WorkerRegistry,
    state: parking_lot::Mutex<State>,
    stop_accepting: AtomicBool,
    draining: AtomicBool,
    reaper_stop: AtomicBool,
    started: Instant,
    telemetry: ClusterTelemetry,
}

/// The coordinator service handle.
pub struct Coordinator {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<FrontDoor>,
    reaper: Option<std::thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the coordinator's HTTP front door.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ClusterConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            registry: WorkerRegistry::new(),
            state: parking_lot::Mutex::new(State {
                jobs: JobTable::default(),
                dispatchers: Vec::new(),
                active: 0,
            }),
            stop_accepting: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            reaper_stop: AtomicBool::new(false),
            started: Instant::now(),
            telemetry: ClusterTelemetry::new(),
        });
        let acceptor = http::serve(
            listener,
            Limits::default(),
            &shared.telemetry.registry,
            "cluster",
            Arc::clone(&shared),
            |shared| shared.stop_accepting.load(Ordering::SeqCst),
            route,
        )?;
        let reaper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reaper_loop(&shared))
        };
        Ok(Self {
            shared,
            addr,
            acceptor: Some(acceptor),
            reaper: Some(reaper),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current cluster metrics (the `GET /metrics` document).
    pub fn metrics(&self) -> ClusterMetrics {
        collect_metrics(&self.shared)
    }

    /// Graceful shutdown: stop accepting, let in-flight jobs drain
    /// against the remaining workers, join every thread. A job that
    /// cannot progress (no live workers) is failed rather than held
    /// forever.
    pub fn shutdown(mut self) {
        self.shared.stop_accepting.store(true, Ordering::SeqCst);
        if let Some(acceptor) = &self.acceptor {
            acceptor.wake();
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        let dispatchers = std::mem::take(&mut self.shared.state.lock().dispatchers);
        for dispatcher in dispatchers {
            let _ = dispatcher.join();
        }
        self.shared.reaper_stop.store(true, Ordering::SeqCst);
        if let Some(reaper) = self.reaper.take() {
            let _ = reaper.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        // `shutdown` consumed the handles; a plain drop still signals
        // the threads so they exit instead of spinning (they detach).
        // Without the wake the accept thread would block forever and
        // keep the port bound.
        if self.acceptor.is_some() || self.reaper.is_some() {
            self.shared.stop_accepting.store(true, Ordering::SeqCst);
            if let Some(acceptor) = &self.acceptor {
                acceptor.wake();
            }
            self.shared.draining.store(true, Ordering::SeqCst);
            self.shared.reaper_stop.store(true, Ordering::SeqCst);
        }
    }
}

fn reaper_loop(shared: &Arc<Shared>) {
    let pause = (shared.config.heartbeat_interval / 2).max(Duration::from_millis(10));
    while !shared.reaper_stop.load(Ordering::SeqCst) {
        std::thread::sleep(pause);
        let died = shared
            .registry
            .reap(Instant::now(), shared.config.heartbeat_timeout);
        if !died.is_empty() {
            shared.telemetry.workers_dead.add(died.len() as u64);
            for name in died {
                eprintln!("ecripse-cluster: worker {name} missed its heartbeat; marked dead");
            }
        }
    }
}

fn route(shared: &Arc<Shared>, request: &Request) -> Response {
    let path = request.path.trim_end_matches('/');
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(shared, request),
        ("GET", ["v1", "jobs", id]) => with_job_id(id, |id| {
            let status = shared.state.lock().jobs.get(id)?.status(None);
            Ok(Response::json(200, json_body(&status)))
        }),
        ("GET", ["v1", "jobs", id, "report"]) => {
            with_job_id(id, |id| shared.state.lock().jobs.report_response(id))
        }
        ("GET", ["v1", "jobs", id, "trace"]) => with_job_id(id, |id| trace_document(shared, id)),
        // Cooperative, like a running job on a single server: the
        // dispatcher observes the stop flag, cancels the worker-side
        // jobs and drains the job to `cancelled`.
        ("DELETE", ["v1", "jobs", id]) => {
            with_job_id(id, |id| shared.state.lock().jobs.cancel_response(id))
        }
        ("POST", ["v1", "cluster", "register"]) => register(shared, &request.body),
        ("POST", ["v1", "cluster", "heartbeat"]) => heartbeat(shared, &request.body),
        ("GET", ["v1", "cluster", "workers"]) => workers(shared),
        ("GET", ["healthz"]) => http::health_response(shared.stop_accepting.load(Ordering::SeqCst)),
        ("GET", ["readyz"]) => readyz(shared),
        ("GET", ["metrics"]) => metrics_response(shared, request),
        (_, ["v1", "jobs" | "cluster", ..] | ["healthz" | "readyz" | "metrics"]) => {
            error_response(405, "method_not_allowed", "method not allowed on this path")
        }
        _ => error_response(404, "not_found", format!("no such path: {}", request.path)),
    }
}

fn register(shared: &Arc<Shared>, body: &[u8]) -> Response {
    let request: RegisterRequest = match parse_body(body, "body") {
        Ok(request) => request,
        Err(response) => return response,
    };
    if request.protocol != PROTOCOL_VERSION {
        return error_response(
            400,
            "protocol_mismatch",
            format!(
                "worker speaks protocol {}, coordinator speaks {PROTOCOL_VERSION}",
                request.protocol
            ),
        );
    }
    if request.name.is_empty() || request.addr.is_empty() {
        return error_response(400, "bad_request", "worker name and addr must be non-empty");
    }
    let gained = shared
        .registry
        .register(&request.name, &request.addr, Instant::now());
    if gained {
        eprintln!(
            "ecripse-cluster: worker {} joined at {}",
            request.name, request.addr
        );
    }
    Response::json(
        200,
        json_body(&RegisterResponse {
            protocol: PROTOCOL_VERSION,
            heartbeat_interval_ms: shared.config.heartbeat_interval.as_millis() as u64,
            timeout_ms: shared.config.heartbeat_timeout.as_millis() as u64,
        }),
    )
}

fn heartbeat(shared: &Arc<Shared>, body: &[u8]) -> Response {
    let request: HeartbeatRequest = match parse_body(body, "body") {
        Ok(request) => request,
        Err(response) => return response,
    };
    if shared.registry.heartbeat(&request.name, Instant::now()) {
        Response::json(200, "{}".to_string())
    } else {
        error_response(
            404,
            "unknown_worker",
            format!(
                "worker {:?} is not registered; register first",
                request.name
            ),
        )
    }
}

fn workers(shared: &Arc<Shared>) -> Response {
    let now = Instant::now();
    let listing = ClusterWorkers {
        workers: shared
            .registry
            .snapshot(now)
            .into_iter()
            .map(|(name, entry, age)| WorkerView {
                name,
                addr: entry.addr,
                alive: entry.alive,
                last_seen_ms: age.as_millis() as u64,
            })
            .collect(),
    };
    Response::json(200, json_body(&listing))
}

/// `GET /readyz`: the coordinator can route jobs only when at least one
/// live worker is registered.
fn readyz(shared: &Arc<Shared>) -> Response {
    let status = if shared.stop_accepting.load(Ordering::SeqCst) {
        "draining"
    } else if shared.registry.alive().is_empty() {
        "no-workers"
    } else {
        "ready"
    };
    http::readiness_response(status)
}

/// One snapshot of the coordinator: the JSON document, read off the
/// registry's handles, with the two scrape-time gauges set from the
/// same values so the Prometheus exposition agrees with it.
fn collect_metrics(shared: &Arc<Shared>) -> ClusterMetrics {
    let t = &shared.telemetry;
    let metrics = ClusterMetrics {
        workers_alive: shared.registry.alive().len() as u64,
        workers_dead_total: t.workers_dead.get(),
        jobs_submitted: t.jobs_submitted.get(),
        jobs_completed: t.jobs_completed.get(),
        jobs_failed: t.jobs_failed.get(),
        jobs_cancelled: t.jobs_cancelled.get(),
        jobs_deadline_exceeded: t.jobs_deadline_exceeded.get(),
        idempotent_hits: t.idempotent_hits.get(),
        shards_dispatched_total: t.shards_dispatched.get(),
        shards_reassigned_total: t.shards_reassigned.get(),
        shards_completed_total: t.shards_completed.get(),
        estimates_forwarded_total: t.estimates_forwarded.get(),
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        workers: Vec::new(),
        rollups: Vec::new(),
    };
    t.workers_alive.set(metrics.workers_alive as f64);
    t.uptime_seconds.set(metrics.uptime_seconds);
    metrics
}

/// A short-fused single-attempt client for the federation scrape and
/// trace fan-out.
fn scrape_client(addr: &str) -> Client {
    Client::new(addr.to_string()).with_timeout(SCRAPE_TIMEOUT)
}

/// Min/max/sum over one scalar's per-worker values; `None` when no
/// worker answered.
fn rollup(name: &str, values: &[f64]) -> Option<MetricRollup> {
    let first = values.first()?;
    let (mut min, mut max, mut sum) = (*first, *first, 0.0);
    for &value in values {
        min = min.min(value);
        max = max.max(value);
        sum += value;
    }
    Some(MetricRollup {
        name: name.to_string(),
        min,
        max,
        sum,
    })
}

/// A named scalar read off a worker's metrics document.
type Scalar = (&'static str, fn(&Metrics) -> f64);

/// The federated rollup set: a few serve scalars an operator compares
/// across workers at a glance.
fn rollups_over(views: &[WorkerMetricsView]) -> Vec<MetricRollup> {
    let scalars: [Scalar; 6] = [
        ("queue_depth", |m| m.queue_depth as f64),
        ("in_flight", |m| m.in_flight as f64),
        ("submitted", |m| m.submitted as f64),
        ("completed", |m| m.completed as f64),
        ("cache_entries", |m| m.cache_entries as f64),
        ("cache_hits", |m| m.cache_hits as f64),
    ];
    scalars
        .iter()
        .filter_map(|(name, get)| {
            let values: Vec<f64> = views.iter().map(|view| get(&view.metrics)).collect();
            rollup(name, &values)
        })
        .collect()
}

/// Scrapes every live worker's JSON `/metrics` and folds the responses
/// into the coordinator's own document. Best-effort: a worker that does
/// not answer within [`SCRAPE_TIMEOUT`] is simply absent.
fn federated_metrics(shared: &Arc<Shared>) -> ClusterMetrics {
    let mut metrics = collect_metrics(shared);
    let mut views = Vec::new();
    for (name, addr) in shared.registry.alive() {
        if let Ok(worker_metrics) = scrape_client(&addr).metrics() {
            views.push(WorkerMetricsView {
                worker: name,
                metrics: worker_metrics,
            });
        }
    }
    metrics.rollups = rollups_over(&views);
    metrics.workers = views;
    metrics
}

/// Merges the live workers' Prometheus expositions family by family:
/// each family's `# HELP`/`# TYPE` lines once (the first worker to
/// declare the family wins), then every worker's samples of it, each
/// labelled `worker="<name>"`. The text format requires all lines of a
/// family to form one group, so the workers' expositions cannot just be
/// appended. A sample belongs to the family declared above it, as in the
/// registry's rendering. The label value goes through
/// [`escape_label_value`], so a hostile worker name cannot break the
/// exposition syntax.
fn federate_expositions(expositions: &[(String, String)]) -> String {
    // Family name → (the first worker to declare it, its lines so far).
    let mut order = Vec::new();
    let mut families: HashMap<&str, (usize, String)> = HashMap::new();
    for (w, (worker, text)) in expositions.iter().enumerate() {
        let label = format!("worker=\"{}\"", escape_label_value(worker));
        let mut declared = "";
        for line in text.lines().filter(|line| !line.is_empty()) {
            let meta = line
                .strip_prefix("# HELP ")
                .or_else(|| line.strip_prefix("# TYPE "));
            if let Some(rest) = meta {
                declared = rest.split_whitespace().next().unwrap_or_default();
            } else if line.starts_with('#') {
                continue;
            }
            let (owner, lines) = families.entry(declared).or_insert_with(|| {
                order.push(declared);
                (w, String::new())
            });
            match meta {
                None => lines.push_str(&relabel_sample(line, &label)),
                Some(_) if *owner == w => lines.push_str(line),
                Some(_) => continue,
            }
            lines.push('\n');
        }
    }
    order.iter().map(|name| families[name].1.as_str()).collect()
}

/// One sample line with `label` injected as its first label.
fn relabel_sample(line: &str, label: &str) -> String {
    if let Some(brace) = line.find('{') {
        format!("{}{label},{}", &line[..=brace], &line[brace + 1..])
    } else if let Some(space) = line.find(' ') {
        format!("{}{{{label}}}{}", &line[..space], &line[space..])
    } else {
        line.to_string()
    }
}

/// The cluster's own exposition (its registry, rendered after one
/// [`collect_metrics`] snapshot) followed by every live worker's,
/// merged per family and labelled per worker
/// (`ecripse_serve_*{worker="..."}`).
fn render_federated_prometheus(shared: &Arc<Shared>) -> String {
    collect_metrics(shared);
    let mut out = shared.telemetry.registry.render_prometheus();
    let scraped: Vec<(String, String)> = shared
        .registry
        .alive()
        .into_iter()
        .filter_map(|(name, addr)| Some((name, scrape_client(&addr).metrics_prometheus().ok()?)))
        .collect();
    out.push_str(&federate_expositions(&scraped));
    out
}

/// `GET /v1/jobs/{id}/trace`: the job record's trace document (the
/// coordinator's own spans) extended by a best-effort fan-out to every
/// worker that held one of the job's slots, sorted into one waterfall.
/// Workers that no longer remember the job (a restart without a
/// journal) are simply absent — the coordinator spans still frame the
/// job.
fn trace_document(shared: &Arc<Shared>, id: u64) -> Result<Response, Response> {
    let (mut document, sources) = {
        let state = shared.state.lock();
        let job = state.jobs.get(id)?;
        (job.trace_document(), job.local.sources.clone())
    };
    for (addr, remote_id) in sources {
        let Ok(remote) = scrape_client(&addr).trace(remote_id) else {
            continue;
        };
        if remote.trace_id != document.trace_id {
            continue;
        }
        // A slot that ran twice on one node (a restart without a
        // journal) records its spans under the same ids twice.
        for span in remote.spans {
            let duplicate = document
                .spans
                .iter()
                .any(|existing| existing.span_id == span.span_id && existing.node == span.node);
            if !duplicate {
                document.spans.push(span);
            }
        }
    }
    document.spans.sort_by(|a, b| {
        a.start_ts
            .partial_cmp(&b.start_ts)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.span_id.cmp(&b.span_id))
    });
    Ok(Response::json(200, json_body(&document)))
}

/// `GET /metrics` federates on demand: the scrape happens per HTTP
/// request, so the in-process [`Coordinator::metrics`] snapshot stays
/// cheap and lock-free of worker sockets.
fn metrics_response(shared: &Arc<Shared>, request: &Request) -> Response {
    if http::wants_prometheus(request) {
        Response::text(200, render_federated_prometheus(shared))
    } else {
        Response::json(200, json_body(&federated_metrics(shared)))
    }
}

fn submit(shared: &Arc<Shared>, http_request: &Request) -> Response {
    let request = match http::parse_submission(http_request, "coordinator") {
        Ok(request) => request,
        Err(response) => return response,
    };
    if request.job.alpha_indices.is_some() {
        // Shards are the coordinator's *output*, addressed to workers;
        // accepting one as input would double-offset the merge.
        return error_response(
            400,
            "invalid_job",
            "pre-sharded sweeps (`alpha_indices`) go to workers, not the coordinator",
        );
    }
    let mut state = shared.state.lock();
    if let Some(existing) = state.jobs.duplicate(&request) {
        shared.telemetry.idempotent_hits.inc();
        return Response::json(200, json_body(&existing.status(None)));
    }
    if shared.stop_accepting.load(Ordering::SeqCst) {
        return error_response(
            503,
            "shutting_down",
            "coordinator is draining; resubmit elsewhere",
        );
    }
    if state.active >= shared.config.max_inflight_jobs {
        let mut body = ApiError::new(
            "queue_full",
            "coordinator is at its in-flight job bound; retry later",
        );
        body.retry_after_seconds = Some(1);
        return Response::json(429, json_body(&body)).with_header("retry-after", "1".to_string());
    }
    let Ok(job) = state
        .jobs
        .admit(None, request, TraceSources::default(), |_, _| {
            Ok::<(), std::convert::Infallible>(())
        });
    let (id, status) = (job.id, job.status(None));
    state.active += 1;
    let dispatcher = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || dispatch_job(&shared, id))
    };
    // Join the dispatchers that have already finished, so a
    // long-running coordinator holds one handle per live job rather
    // than one per job it ever accepted.
    for finished in state
        .dispatchers
        .extract_if(.., |handle| handle.is_finished())
    {
        let _ = finished.join();
    }
    state.dispatchers.push(dispatcher);
    drop(state);
    shared.telemetry.jobs_submitted.inc();
    Response::json(202, json_body(&status))
}

/// How a dispatched job ended without a merged result.
enum DispatchEnd {
    /// The coordinator-side cancel flag was raised.
    Cancelled,
    /// The job's wall-clock budget elapsed (coordinator- or
    /// worker-side).
    DeadlineExceeded(Option<String>),
    /// Anything unrecoverable.
    Failed(String),
}

/// One remote job inside the dispatcher — a sweep shard or a whole
/// forwarded estimate. Both kinds run through the same supervisor.
struct Slot {
    /// The worker submission, built at plan time. Its idempotency key
    /// is stable across re-dispatches, and its trace parents the
    /// worker's job span to this slot's span.
    request: SubmitRequest,
    /// The coordinator span this slot records, a child of the job root:
    /// `shard-{first}` or `estimate`.
    span_name: String,
    /// The current assignment, `(worker name, addr, remote job id)`.
    assigned: Option<(String, String, u64)>,
    /// The outcome the worker's completed report carried.
    done: Option<JobOutput>,
    /// First successful dispatch; the slot span opens here.
    started_at: Option<Instant>,
    /// Completion observed by the poller; the slot span closes here.
    finished_at: Option<Instant>,
    /// Every `(worker addr, remote id)` the slot was dispatched to —
    /// kept across reassignment so the trace fan-out can query each.
    sources: Vec<(String, u64)>,
}

impl Slot {
    /// A slot of job `id` shipping `request`, traced as the child span
    /// `span_name` of `tracing`'s root. Its idempotency key is
    /// `cluster/job-{id}/{span_name}`, so a re-dispatch reuses it and a
    /// restarted worker answers with its journaled job.
    fn new(
        mut request: SubmitRequest,
        id: u64,
        span_name: String,
        tracing: &SpanCollector,
    ) -> Self {
        request.idempotency_key = Some(format!("cluster/job-{id}/{span_name}"));
        // The worker's job span parents to the slot span, chaining
        // client → coordinator → worker in one trace.
        request.trace = Some(tracing.child_context(&span_name));
        Self {
            request,
            span_name,
            assigned: None,
            done: None,
            started_at: None,
            finished_at: None,
            sources: Vec::new(),
        }
    }

    fn key(&self) -> &str {
        self.request.idempotency_key.as_deref().unwrap_or_default()
    }

    /// `shard {key}` or `estimate {key}`, for logs and error messages.
    fn label(&self) -> String {
        let kind = match self.request.job.kind {
            JobKind::Sweep => "shard",
            JobKind::Estimate => "estimate",
        };
        format!("{kind} {}", self.key())
    }

    /// Drops the assignment so the next round re-dispatches the slot.
    fn unassign(&mut self, shared: &Shared) {
        self.assigned = None;
        shared.telemetry.shards_reassigned.inc();
    }
}

/// Records every dispatched slot as a child span of the job root and
/// collects the `(addr, remote id)` pairs the trace fan-out needs.
fn record_slots(tracing: &SpanCollector, slots: &[Slot]) -> TraceSources {
    let mut recorded = TraceSources::default();
    for slot in slots {
        for source in &slot.sources {
            if !recorded.sources.contains(source) {
                recorded.sources.push(source.clone());
            }
        }
        if let Some(started) = slot.started_at {
            let finished = slot.finished_at.unwrap_or_else(Instant::now);
            tracing.record_child(&slot.span_name, started, finished);
        }
    }
    recorded
}

fn dispatch_job(shared: &Arc<Shared>, id: u64) {
    let (request, stop, deadline, trace) = {
        let mut state = shared.state.lock();
        let Ok(job) = state.jobs.get_mut(id) else {
            return;
        };
        job.state = JobState::Running;
        (
            job.request.clone(),
            Arc::clone(&job.stop),
            job.deadline,
            job.trace(),
        )
    };
    // The job root span covers the whole dispatch — slot spans nest
    // inside it, and the workers' own job spans nest inside those.
    let tracing = SpanCollector::new(trace, "coordinator");
    let (recorded, outcome) = run_job(shared, id, &request, &stop, deadline, &tracing);
    let spans = tracing.finish();
    let (state_out, error, output) = match outcome {
        Ok(output) => (JobState::Completed, None, Some(output)),
        Err(DispatchEnd::Cancelled) => (
            JobState::Cancelled,
            Some("cancelled while running".to_string()),
            None,
        ),
        Err(DispatchEnd::DeadlineExceeded(error)) => (
            JobState::DeadlineExceeded,
            Some(error.unwrap_or_else(|| {
                format!(
                    "deadline of {}ms exceeded",
                    request.deadline_ms.unwrap_or(0)
                )
            })),
            None,
        ),
        Err(DispatchEnd::Failed(message)) => (JobState::Failed, Some(message), None),
    };
    let counter = match state_out {
        JobState::Completed => &shared.telemetry.jobs_completed,
        JobState::Cancelled => &shared.telemetry.jobs_cancelled,
        JobState::DeadlineExceeded => &shared.telemetry.jobs_deadline_exceeded,
        _ => &shared.telemetry.jobs_failed,
    };
    counter.inc();
    let mut state = shared.state.lock();
    state.active = state.active.saturating_sub(1);
    if let Ok(job) = state.jobs.get_mut(id) {
        job.state = state_out;
        job.error = error;
        job.output = output;
        job.spans = spans;
        job.local = recorded;
    }
}

/// A short-fused retrying client for worker submissions (submit retries
/// are safe: every dispatch carries an idempotency key).
fn submit_client(shared: &Shared, addr: &str) -> Client {
    Client::new(addr.to_string())
        .with_timeout(shared.config.worker_timeout)
        .with_retry(BackoffPolicy {
            max_attempts: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(500),
        })
}

/// A single-attempt client for status polls — failures must surface
/// immediately so dead-worker detection can react.
fn poll_client(shared: &Shared, addr: &str) -> Client {
    Client::new(addr.to_string()).with_timeout(shared.config.worker_timeout)
}

/// Common per-round bookkeeping: honours cancel, coordinator deadline
/// and drain.
fn check_interrupts(
    shared: &Shared,
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> Result<(), DispatchEnd> {
    if stop.load(Ordering::SeqCst) {
        return Err(DispatchEnd::Cancelled);
    }
    if deadline.is_some_and(|deadline| deadline <= Instant::now()) {
        return Err(DispatchEnd::DeadlineExceeded(None));
    }
    if shared.draining.load(Ordering::SeqCst) && shared.registry.alive().is_empty() {
        return Err(DispatchEnd::Failed(
            "coordinator draining with no live workers".to_string(),
        ));
    }
    Ok(())
}

/// Best-effort cancel of every unfinished slot's remote job.
fn cancel_remotes(shared: &Shared, slots: &[Slot]) {
    for slot in slots.iter().filter(|slot| slot.done.is_none()) {
        if let Some((_, addr, remote_id)) = &slot.assigned {
            let _ = poll_client(shared, addr).cancel(*remote_id);
        }
    }
}

/// Plans the job's slots — a sweep's shards, or one slot for an
/// estimate — runs them through [`supervise`], records their spans
/// whatever the outcome, and returns their trace fan-out sources with
/// the merged sweep or the estimate.
fn run_job(
    shared: &Shared,
    id: u64,
    request: &SubmitRequest,
    stop: &AtomicBool,
    deadline: Option<Instant>,
    tracing: &SpanCollector,
) -> (TraceSources, Result<JobOutput, DispatchEnd>) {
    let mut slots = match request.job.kind {
        JobKind::Sweep => plan_shards(id, request, shared.config.shard_points, tracing),
        // An estimate has nothing to split: it ships whole.
        JobKind::Estimate => vec![Slot::new(
            request.clone(),
            id,
            "estimate".to_string(),
            tracing,
        )],
    };
    let supervised = supervise(shared, id, stop, deadline, &mut slots);
    // Win or lose, the dispatched slots become coordinator spans and
    // trace fan-out sources.
    let sources = record_slots(tracing, &slots);
    let outcome = supervised.and_then(|()| match request.job.kind {
        JobKind::Sweep => {
            let total = request.job.alphas.as_ref().map_or(0, Vec::len);
            merge_shards(total, slots).map(JobOutput::Sweep)
        }
        // `supervise` returned only once the one slot held its outcome.
        JobKind::Estimate => slots
            .pop()
            .and_then(|slot| slot.done)
            .ok_or_else(|| DispatchEnd::Failed("estimate slot ended without an outcome".into())),
    });
    (sources, outcome)
}

/// Merges the completed shard slots by global point index.
fn merge_shards(total: usize, slots: Vec<Slot>) -> Result<SweepOutcome, DispatchEnd> {
    let shards: Vec<SweepShard> = slots
        .into_iter()
        .filter_map(|slot| {
            let Some(JobOutput::Sweep(outcome)) = slot.done else {
                return None;
            };
            Some(SweepShard {
                indices: slot.request.job.alpha_indices.unwrap_or_default(),
                result: SweepResult {
                    points: outcome.points,
                    p_fail_rdf_only: outcome.p_fail_rdf_only,
                    rdf_only_ci95: outcome.rdf_only_ci95,
                    init_simulations: outcome.init_simulations,
                    total_simulations: outcome.total_simulations,
                },
                reports: outcome.reports,
            })
        })
        .collect();
    let (result, reports) = merge_sweep_shards(total, &shards)
        .map_err(|e| DispatchEnd::Failed(format!("shard merge failed: {e}")))?;
    Ok(SweepOutcome {
        p_fail_rdf_only: result.p_fail_rdf_only,
        rdf_only_ci95: result.rdf_only_ci95,
        init_simulations: result.init_simulations,
        total_simulations: result.total_simulations,
        points: result.points,
        reports,
    })
}

/// The one loop every remote job runs through. Each round honours
/// cancel, deadline and drain, reads the live workers once, re-dispatches
/// the slots whose worker was reaped or lost them (to their
/// [`placement`] among the live workers; none while no worker lives),
/// and polls the rest, until every slot holds its report. However the
/// loop ends short, the still-running remote jobs are cancelled.
fn supervise(
    shared: &Shared,
    id: u64,
    stop: &AtomicBool,
    deadline: Option<Instant>,
    slots: &mut [Slot],
) -> Result<(), DispatchEnd> {
    loop {
        let round = check_interrupts(shared, stop, deadline).and_then(|()| {
            let alive = shared.registry.alive();
            let mut all_done = true;
            let pending = slots.iter_mut().enumerate();
            for (j, slot) in pending.filter(|(_, slot)| slot.done.is_none()) {
                all_done = false;
                // A reaped owner invalidates the assignment even when
                // the socket still answers (a hung process can hold its
                // port).
                if let Some((name, _, _)) = &slot.assigned {
                    if !shared.registry.is_alive(name) {
                        slot.unassign(shared);
                    }
                }
                if slot.assigned.is_some() {
                    poll_slot(shared, id, slot)?;
                } else if let Some(worker) = placement(&alive, id, j) {
                    submit_slot(shared, worker, slot);
                }
            }
            Ok(all_done)
        });
        match round {
            Ok(true) => return Ok(()),
            Ok(false) => std::thread::sleep(shared.config.poll_interval),
            Err(end) => {
                cancel_remotes(shared, slots);
                return Err(end);
            }
        }
    }
}

/// The worker slot `j` of job `id` runs on: `alive[(id + j) mod n]`,
/// over the live `(name, addr)` pairs sorted by name. `None` when no
/// worker is alive.
fn placement(alive: &[(String, String)], id: u64, j: usize) -> Option<&(String, String)> {
    let n = alive.len() as u64;
    let k = (id.checked_rem(n)? + j as u64 % n) % n;
    alive.get(k as usize)
}

/// Submits an unassigned slot to `worker`, a live `(name, addr)`. A
/// failed submission (the worker may have just died or be saturated)
/// leaves the slot unassigned, and the next round places it again.
fn submit_slot(shared: &Shared, (name, addr): &(String, String), slot: &mut Slot) {
    let Ok(status) = submit_client(shared, addr).submit(&slot.request) else {
        return;
    };
    slot.assigned = Some((name.clone(), addr.clone(), status.id));
    slot.started_at.get_or_insert_with(Instant::now);
    let source = (addr.clone(), status.id);
    if !slot.sources.contains(&source) {
        slot.sources.push(source);
    }
    let dispatched = match slot.request.job.kind {
        JobKind::Sweep => &shared.telemetry.shards_dispatched,
        JobKind::Estimate => &shared.telemetry.estimates_forwarded,
    };
    dispatched.inc();
}

/// Polls an assigned slot once. A queued or running job, or a transport
/// error, leaves the slot pending. A job its worker no longer holds is
/// lost, and the slot is re-dispatched. A completed job whose report
/// carries the outcome the slot's kind needs finishes the slot; any
/// other end fails the whole job.
fn poll_slot(shared: &Shared, id: u64, slot: &mut Slot) -> Result<(), DispatchEnd> {
    let Some((name, addr, remote_id)) = slot.assigned.clone() else {
        return Ok(());
    };
    let client = poll_client(shared, &addr);
    let lost = match client.status(remote_id) {
        Ok(status) => match status.state {
            JobState::Queued | JobState::Running => false,
            JobState::Completed => return finish_slot(shared, &client, remote_id, slot),
            JobState::Failed => {
                return Err(DispatchEnd::Failed(format!(
                    "{} failed on its worker: {}",
                    slot.label(),
                    status.error.unwrap_or_else(|| "no error recorded".into())
                )))
            }
            JobState::DeadlineExceeded => return Err(DispatchEnd::DeadlineExceeded(status.error)),
            // Cancelled directly on the worker, behind the
            // coordinator's back (an operator DELETE, or a spool-less
            // worker draining its queue at shutdown), or persisted as a
            // checkpoint by a graceful drain. The coordinator itself
            // only cancels remotes after the loop has ended, so the work
            // is still wanted: a restart resumes it under the same
            // idempotency key, or a survivor recomputes it.
            JobState::Cancelled | JobState::Persisted => true,
        },
        // The worker answers but no longer knows the job: it restarted
        // without a journal (or with an empty one).
        Err(ClientError::Api { status: 404, .. }) => true,
        // A dead worker shows up as refused connections *and* a reaped
        // registry entry; the aliveness check at the top of the round
        // owns that transition. A transient error alone is not a loss.
        Err(_) => false,
    };
    if lost {
        eprintln!(
            "ecripse-cluster: job {id}: {} lost on worker {name}; reassigning",
            slot.label()
        );
        slot.unassign(shared);
    }
    Ok(())
}

/// Fetches a completed slot's report. A transport error leaves the slot
/// pending; an unreadable report, or one without the outcome the
/// slot's kind needs, fails the job.
fn finish_slot(
    shared: &Shared,
    client: &Client,
    remote_id: u64,
    slot: &mut Slot,
) -> Result<(), DispatchEnd> {
    let report = match client.report(remote_id) {
        Ok(report) => report,
        Err(ClientError::Io(_)) => return Ok(()),
        Err(e) => {
            return Err(DispatchEnd::Failed(format!(
                "{} completed but its report is unreadable: {e}",
                slot.label()
            )))
        }
    };
    let (output, outcome) = match slot.request.job.kind {
        JobKind::Sweep => (report.sweep.map(JobOutput::Sweep), "a sweep"),
        JobKind::Estimate => (report.estimate.map(JobOutput::Estimate), "an estimate"),
    };
    let Some(output) = output else {
        return Err(DispatchEnd::Failed(format!(
            "{} completed without {outcome} outcome",
            slot.label()
        )));
    };
    if slot.request.job.kind == JobKind::Sweep {
        shared.telemetry.shards_completed.inc();
    }
    slot.done = Some(output);
    slot.finished_at = Some(Instant::now());
    Ok(())
}

/// Builds the shard plan: the job's duty grid cut, in index order, into
/// contiguous runs of at most `shard_points` points, one slot each.
fn plan_shards(
    id: u64,
    request: &SubmitRequest,
    shard_points: usize,
    tracing: &SpanCollector,
) -> Vec<Slot> {
    let alphas = request.job.alphas.as_deref().unwrap_or_default();
    let chunk = shard_points.max(1);
    (0..alphas.len())
        .step_by(chunk)
        .map(|first| {
            let run = first..(first + chunk).min(alphas.len());
            let indices = run.clone().map(|k| k as u64).collect();
            // The span name (and so the key) derives from the shard's
            // first global index — stable across re-dispatches, unique
            // within the job.
            Slot::new(
                shard_submit_request(request, alphas[run].to_vec(), indices),
                id,
                format!("shard-{first}"),
                tracing,
            )
        })
        .collect()
}

/// The serve submission one shard ships as: the job's config and
/// scenario verbatim (bit-identity), the shard's alphas and global
/// indices, and the deadline passed through. [`Slot::new`] adds the
/// idempotency key and the trace.
fn shard_submit_request(
    request: &SubmitRequest,
    alphas: Vec<f64>,
    indices: Vec<u64>,
) -> SubmitRequest {
    let mut shard = SubmitRequest::with_scenario(
        request.scenario,
        request.config,
        JobSpec::sweep_shard(request.job.vdd, alphas, indices),
    );
    shard.deadline_ms = request.deadline_ms;
    shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_core::telemetry::{fmt_hex_id, TraceContext};

    #[test]
    fn federation_groups_each_family_and_labels_every_sample() {
        let text = "# HELP ecripse_serve_queue_depth Jobs waiting\n\
                    # TYPE ecripse_serve_queue_depth gauge\n\
                    ecripse_serve_queue_depth 3\n\
                    # HELP ecripse_serve_job_seconds Job latency\n\
                    # TYPE ecripse_serve_job_seconds histogram\n\
                    ecripse_serve_job_seconds_bucket{le=\"+Inf\"} 2\n\
                    ecripse_serve_job_seconds_sum 0.5\n\
                    ecripse_serve_job_seconds_count 2\n\
                    # TYPE ecripse_serve_scenario_jobs_total counter\n\
                    ecripse_serve_scenario_jobs_total{scenario=\"sram-6t\"} 2\n";
        let out = federate_expositions(&[
            ("w-a".to_string(), text.to_string()),
            ("w-b".to_string(), text.to_string()),
        ]);
        // Metadata once per family, then both workers' samples of it,
        // before the next family starts.
        let expected = "# HELP ecripse_serve_queue_depth Jobs waiting\n\
                        # TYPE ecripse_serve_queue_depth gauge\n\
                        ecripse_serve_queue_depth{worker=\"w-a\"} 3\n\
                        ecripse_serve_queue_depth{worker=\"w-b\"} 3\n\
                        # HELP ecripse_serve_job_seconds Job latency\n\
                        # TYPE ecripse_serve_job_seconds histogram\n\
                        ecripse_serve_job_seconds_bucket{worker=\"w-a\",le=\"+Inf\"} 2\n\
                        ecripse_serve_job_seconds_sum{worker=\"w-a\"} 0.5\n\
                        ecripse_serve_job_seconds_count{worker=\"w-a\"} 2\n\
                        ecripse_serve_job_seconds_bucket{worker=\"w-b\",le=\"+Inf\"} 2\n\
                        ecripse_serve_job_seconds_sum{worker=\"w-b\"} 0.5\n\
                        ecripse_serve_job_seconds_count{worker=\"w-b\"} 2\n\
                        # TYPE ecripse_serve_scenario_jobs_total counter\n\
                        ecripse_serve_scenario_jobs_total{worker=\"w-a\",scenario=\"sram-6t\"} 2\n\
                        ecripse_serve_scenario_jobs_total{worker=\"w-b\",scenario=\"sram-6t\"} 2\n";
        assert_eq!(out, expected);
    }

    #[test]
    fn federation_escapes_hostile_worker_names() {
        let text = "# TYPE m gauge\nm 1\n";
        let out =
            federate_expositions(&[("evil\"name\\with\nnewline".to_string(), text.to_string())]);
        assert!(out.contains("m{worker=\"evil\\\"name\\\\with\\nnewline\"} 1"));
        // No raw quote, backslash or newline survives inside the value:
        // each sample line still matches the exposition grammar.
        for line in out.lines().filter(|line| !line.starts_with('#')) {
            let inner = line
                .split_once('{')
                .and_then(|(_, rest)| rest.split_once("\"}"))
                .map(|(inner, _)| inner)
                .unwrap_or_default();
            assert!(!inner.contains('}'), "unescaped brace in {line:?}");
        }
    }

    #[test]
    fn rollup_computes_min_max_sum() {
        let r = rollup("queue_depth", &[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 3.0);
        assert_eq!(r.sum, 6.0);
        assert!(rollup("queue_depth", &[]).is_none());
    }

    /// A long-running coordinator must not keep every finished
    /// dispatcher joinable: after K sequential jobs one handle is left.
    #[test]
    fn finished_dispatchers_are_joined_as_new_jobs_arrive() {
        use ecripse_core::bench::LinearBench;
        use ecripse_core::ecripse::EcripseConfig;
        use ecripse_core::importance::ImportanceConfig;
        use ecripse_core::initial::InitialSearchConfig;
        use ecripse_serve::{ServeConfig, Server};

        const WAIT: Duration = Duration::from_secs(120);
        const JOBS: u64 = 4;
        let config = ClusterConfig {
            heartbeat_interval: Duration::from_millis(50),
            poll_interval: Duration::from_millis(10),
            ..ClusterConfig::default()
        };
        let coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator");
        let worker = Server::bind_with("127.0.0.1:0", ServeConfig::default(), |_, _| {
            LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5)
        })
        .expect("bind worker");
        let membership = crate::join(crate::JoinConfig::new(
            coordinator.local_addr().to_string(),
            "w",
            worker.local_addr().to_string(),
        ));
        let client = Client::new(coordinator.local_addr().to_string());
        client.wait_ready(WAIT).expect("ready");
        let dispatchers = || coordinator.shared.state.lock().dispatchers.len();
        for seed in 0..JOBS {
            let config = EcripseConfig {
                initial: InitialSearchConfig {
                    count: 12,
                    max_attempts: 2000,
                    ..InitialSearchConfig::default()
                },
                iterations: 3,
                importance: ImportanceConfig {
                    n_samples: 250,
                    m_rtn: 1,
                    trace_every: 0,
                },
                m_rtn_stage1: 1,
                seed,
                ..EcripseConfig::default()
            };
            let request = SubmitRequest::new(config, JobSpec::rdf_only(0.7));
            let submitted = client.submit(&request).expect("submit");
            client
                .wait_for_report(submitted.id, WAIT)
                .expect("job completes");
            // The dispatcher publishes the job's end just before its
            // thread exits; the next submission must find it exited.
            let until = Instant::now() + WAIT;
            while !coordinator
                .shared
                .state
                .lock()
                .dispatchers
                .iter()
                .all(std::thread::JoinHandle::is_finished)
            {
                assert!(Instant::now() < until, "a dispatcher never exited");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(
            dispatchers() <= 1,
            "{} dispatcher handles kept after {JOBS} sequential jobs",
            dispatchers()
        );

        membership.leave();
        worker.shutdown();
        coordinator.shutdown();
    }

    /// The plan cuts the grid into contiguous runs in index order, and
    /// the placement deals them round-robin from the job id onwards.
    #[test]
    fn shards_are_contiguous_runs_dealt_round_robin() {
        let alphas: Vec<f64> = (0..10).map(|k| f64::from(k) / 9.0).collect();
        let request = SubmitRequest::new(Default::default(), JobSpec::sweep(0.7, alphas.clone()));
        let tracing = SpanCollector::new(TraceContext::for_job(1, 0), "coordinator");
        let slots = plan_shards(1, &request, 2, &tracing);
        let runs: Vec<Vec<u64>> = slots
            .iter()
            .map(|slot| slot.request.job.alpha_indices.clone().unwrap_or_default())
            .collect();
        assert_eq!(runs, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]);
        for slot in &slots {
            let indices = slot
                .request
                .job
                .alpha_indices
                .as_deref()
                .unwrap_or_default();
            let shard_alphas: Vec<f64> = indices.iter().map(|&k| alphas[k as usize]).collect();
            assert_eq!(slot.request.job.alphas.as_deref(), Some(&shard_alphas[..]));
            assert_eq!(slot.span_name, format!("shard-{}", indices[0]));
            assert_eq!(slot.key(), format!("cluster/job-1/shard-{}", indices[0]));
        }
        // A ragged tail is its own shorter shard.
        let tail: Vec<usize> = plan_shards(1, &request, 4, &tracing)
            .iter()
            .map(|slot| slot.request.job.alphas.as_ref().map_or(0, Vec::len))
            .collect();
        assert_eq!(tail, [4, 4, 2]);

        let worker = |name: &str| (name.to_string(), format!("{name}:1"));
        let pair = [worker("a"), worker("b")];
        let names: Vec<&str> = (0..slots.len())
            .filter_map(|j| placement(&pair, 1, j))
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(names, ["b", "a", "b", "a", "b"]);
        let single = [worker("a")];
        assert!((0..5).all(|j| placement(&single, 1, j) == Some(&single[0])));
        assert_eq!(placement(&[], 1, 0), None);
        // A forwarded estimate is slot 0: estimates spread by job id.
        assert_eq!(placement(&pair, 2, 0), Some(&pair[0]));
        assert_eq!(placement(&pair, u64::MAX, usize::MAX), Some(&pair[0]));
    }

    #[test]
    fn shard_spans_derive_deterministically_from_the_job_trace() {
        let trace = TraceContext::for_job(7, 42);
        let a = SpanCollector::new(trace, "coordinator");
        let b = SpanCollector::new(trace, "coordinator");
        let shard = a.child_context("shard-0");
        assert_eq!(shard, b.child_context("shard-0"));
        assert_eq!(shard.trace_id, trace.trace_id);
        let now = Instant::now();
        a.record_child("shard-0", now, now);
        let spans = a.finish();
        assert_eq!(spans.len(), 2);
        let (root, span) = (&spans[0], &spans[1]);
        assert_eq!(root.span_id, b.finish()[0].span_id);
        assert_eq!(span.name, "shard-0");
        assert_eq!(span.parent_span_id, root.span_id);
        // The worker's job span parents to the recorded shard span.
        assert_eq!(span.span_id, fmt_hex_id(shard.parent_span_id));
        assert_ne!(span.span_id, root.span_id);
    }
}
