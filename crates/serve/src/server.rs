//! The estimation server: bounded queue, fixed worker pool,
//! backpressure and graceful drain.
//!
//! # Endpoints
//!
//! | Method & path              | Purpose                                      |
//! |----------------------------|----------------------------------------------|
//! | `POST /v1/jobs`            | Submit a [`SubmitRequest`]; `202` + status   |
//! | `GET /v1/jobs/{id}`        | Lifecycle snapshot ([`JobStatus`])           |
//! | `GET /v1/jobs/{id}/report` | Full [`JobReport`] once terminal             |
//! | `DELETE /v1/jobs/{id}`     | Cancel a queued *or running* job             |
//! | `GET /healthz`             | Liveness + protocol version                  |
//! | `GET /readyz`              | Readiness (`503` while replaying/saturated)  |
//! | `GET /metrics`             | Queue/worker/job/cache counters              |
//!
//! # Backpressure
//!
//! The queue is bounded ([`ServeConfig::queue_capacity`]). A submission
//! against a full queue is bounced with `429 Too Many Requests`, a
//! `Retry-After` header and the same hint in the JSON body; the hint is
//! an exponentially smoothed estimate of how long the backlog needs to
//! clear one slot. Nothing is ever silently dropped once accepted.
//!
//! # Durability
//!
//! With [`ServeConfig::journal`] set, every accepted submission is
//! appended to a checksummed, fsync'd write-ahead journal (see
//! [`crate::journal`]) *before* the `202` goes out, and every terminal
//! transition is journaled too. On boot the journal is replayed: jobs
//! that never reached a terminal state re-enter the queue under their
//! **original ids**, and sweeps resume bit-identically from their spool
//! checkpoints — so a `kill -9` loses at most work, never jobs.
//! Idempotency keys ride in the journal, which keeps client retries
//! duplicate-free across a crash.
//!
//! # Deadlines & cancellation
//!
//! [`SubmitRequest::deadline_ms`] bounds a job's wall-clock budget from
//! acceptance; a watchdog expires queued jobs and raises the per-job
//! stop flag of running ones, which the estimation pipeline honours at
//! iteration/batch boundaries (state
//! [`JobState::DeadlineExceeded`]). `DELETE /v1/jobs/{id}` cancels a
//! queued job immediately and a running one cooperatively (`202`, the
//! job drains to [`JobState::Cancelled`]).
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] stops accepting (new submissions get `503`),
//! lets in-flight jobs run to completion, persists still-queued sweep
//! jobs as resumable checkpoints in the spool directory (state
//! [`JobState::Persisted`]) via the existing core checkpoint machinery,
//! cancels still-queued estimates, and joins every thread.

use crate::http::{
    self, error_response, json_body, with_job_id, FrontDoor, Limits, Request, Response,
};
use crate::journal::{self, Journal, JournalRecord, RecoveredJob};
use crate::protocol::{
    ApiError, EstimateOutcome, JobKind, JobProgress, JobReport, JobSpec, JobState, JobStatus,
    JobTrace, Metrics, ScenarioJobCount, SubmitRequest, SweepOutcome,
};
use crate::shared::{load_snapshot, save_snapshot};
use ecripse_core::cache::{tag_for, MemoBench, MemoCacheConfig, VerdictStore};
use ecripse_core::ecripse::{Ecripse, EcripseConfig, EstimateError, RunOptions};
use ecripse_core::observe::{
    ChunkStats, MultiObserver, Observer, RunRecorder, RunSummary, SimBatchStats, Stage,
};
use ecripse_core::oracle::OracleStats;
use ecripse_core::rtn_source::SramRtn;
use ecripse_core::scenario::{registry_digest, Scenario, SramScenarioBench};
use ecripse_core::sweep::{DutySweep, ResumableSweep, SweepBench, SweepError, SweepOptions};
use ecripse_core::telemetry::{
    escape_label_value, fmt_hex_id, prom_scalar, Gauge, Histogram, MetricsRegistry, SpanCollector,
    SpanStore, TelemetryObserver, TraceContext,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bound of the pending-job queue (in-flight jobs excluded).
    pub queue_capacity: usize,
    /// Directory for sweep checkpoints: running sweeps checkpoint into
    /// it as they go, and graceful shutdown persists still-queued
    /// sweeps there. `None` disables both.
    pub spool: Option<PathBuf>,
    /// Process-wide verdict-cache settings (grid quantum, shards,
    /// enabled flag).
    pub cache: MemoCacheConfig,
    /// Persistent verdict store: loaded (if present and compatible) at
    /// bind time, saved atomically by graceful shutdown, so a restarted
    /// service resumes warm. `None` keeps the cache process-lifetime.
    pub cache_store: Option<PathBuf>,
    /// Write-ahead job journal (see [`crate::journal`]): every accepted
    /// submission is fsync'd here before its `202`, terminal states are
    /// journaled too, and boot replays unfinished jobs under their
    /// original ids. `None` keeps jobs process-lifetime (a crash loses
    /// them, as before PR 8).
    pub journal: Option<PathBuf>,
    /// [`Limits::read_timeout`] of accepted connections.
    pub read_timeout: Duration,
    /// [`Limits::write_timeout`] of accepted connections.
    pub write_timeout: Duration,
    /// [`Limits::connection_lifetime`] of accepted connections.
    pub connection_lifetime: Duration,
    /// Node name stamped into every span this server records (the
    /// `node` field of [`SpanRecord`](ecripse_core::telemetry::SpanRecord))
    /// and reported to the cluster coordinator. `None` derives
    /// `serve-{port}` from the bound address.
    pub node: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let limits = Limits::default();
        Self {
            workers: 2,
            queue_capacity: 16,
            spool: None,
            cache: MemoCacheConfig::default(),
            cache_store: None,
            journal: None,
            read_timeout: limits.read_timeout,
            write_timeout: limits.write_timeout,
            connection_lifetime: limits.connection_lifetime,
            node: None,
        }
    }
}

/// What [`Server::shutdown`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownSummary {
    /// Jobs that were in flight when the drain started and ran to
    /// completion.
    pub drained: u64,
    /// Queued sweep jobs persisted as resumable checkpoints.
    pub persisted: u64,
    /// Queued jobs cancelled (estimates, or sweeps without a spool).
    pub cancelled: u64,
}

/// A finished job's payload.
enum JobOutput {
    Estimate(EstimateOutcome),
    Sweep(SweepOutcome),
}

/// Everything the server remembers about one job.
struct JobRecord {
    spec: JobSpec,
    scenario: Scenario,
    config: EcripseConfig,
    state: JobState,
    error: Option<String>,
    output: Option<JobOutput>,
    /// When the job entered the queue (feeds the queue-wait histogram).
    queued_at: Instant,
    /// Live progress, fed by the worker's observer while the job runs.
    progress: Arc<ProgressTracker>,
    /// Wall-clock budget as submitted (journaled verbatim; the budget
    /// restarts from acceptance — or re-acceptance after recovery).
    deadline_ms: Option<u64>,
    /// The absolute instant the budget runs out, `None` for unbounded.
    deadline: Option<Instant>,
    /// Client-supplied retry-dedup key, if any.
    idempotency_key: Option<String>,
    /// The distributed trace context the job runs under: the resolved
    /// precedence of `traceparent` header → wire `trace` field →
    /// deterministic derivation from job id + RNG seed. Journaled with
    /// the submission, so recovery resumes the same trace.
    trace: TraceContext,
    /// Cooperative stop flag: raised by `DELETE` (cancel) or the
    /// deadline watchdog; the estimation pipeline polls it at
    /// iteration/batch boundaries without ever consuming RNG, so
    /// uninterrupted runs stay bit-identical.
    stop: Arc<AtomicBool>,
}

/// Lock-free live-progress accumulator: the worker registers it as an
/// [`Observer`] alongside the deterministic recorder, and the status
/// endpoint snapshots it into a [`JobProgress`].
///
/// Everything here is *accumulated* (never overwritten) except the
/// stage and estimate, which are latest-wins — sweep points run
/// concurrently and interleave their events on one tracker, so only
/// monotone counters and "most recent" scalars are meaningful.
#[derive(Default)]
struct ProgressTracker {
    /// 0 = no stage yet; 1..=3 = `Stage` in pipeline order.
    stage: AtomicU64,
    iterations: AtomicU64,
    simulations: AtomicU64,
    is_samples: AtomicU64,
    /// f64 bits of the latest running estimate.
    estimate_bits: AtomicU64,
    has_estimate: AtomicBool,
}

impl ProgressTracker {
    fn snapshot(&self) -> JobProgress {
        let stage = match self.stage.load(Ordering::Relaxed) {
            1 => Some(Stage::BoundarySearch),
            2 => Some(Stage::ParticleFilter),
            3 => Some(Stage::ImportanceSampling),
            _ => None,
        };
        JobProgress {
            stage: stage.map(|s| s.name().to_string()),
            iterations: self.iterations.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
            is_samples: self.is_samples.load(Ordering::Relaxed),
            estimate: self
                .has_estimate
                .load(Ordering::Relaxed)
                .then(|| f64::from_bits(self.estimate_bits.load(Ordering::Relaxed))),
        }
    }

    fn set_estimate(&self, value: f64) {
        self.estimate_bits.store(value.to_bits(), Ordering::Relaxed);
        self.has_estimate.store(true, Ordering::Relaxed);
    }
}

impl Observer for ProgressTracker {
    fn stage_started(&self, stage: Stage) {
        let index = match stage {
            Stage::BoundarySearch => 1,
            Stage::ParticleFilter => 2,
            Stage::ImportanceSampling => 3,
        };
        self.stage.store(index, Ordering::Relaxed);
    }

    fn iteration_finished(&self, _stats: &ecripse_core::observe::IterationStats) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
    }

    fn chunk_finished(&self, chunk: &ChunkStats) {
        self.is_samples
            .fetch_add(chunk.chunk_samples, Ordering::Relaxed);
        self.set_estimate(chunk.estimate);
    }

    fn sim_batch_finished(&self, stats: &SimBatchStats) {
        self.simulations.fetch_add(stats.batch, Ordering::Relaxed);
    }

    fn run_finished(&self, summary: &RunSummary) {
        self.set_estimate(summary.p_fail);
    }
}

/// The server's telemetry handles: a per-server [`MetricsRegistry`]
/// (kept off the process-global one so concurrently bound servers —
/// e.g. in tests — stay hermetic), the service histograms, and
/// the core observer bridge that folds every worker's pipeline events
/// into the same registry.
struct ServeTelemetry {
    registry: MetricsRegistry,
    queue_wait_seconds: Histogram,
    job_seconds: Histogram,
    /// Boot-time journal replay duration. A histogram (not a gauge)
    /// so federated scrapes can sum replay cost across restarts.
    journal_replay_seconds: Histogram,
    /// Live queue depth, refreshed on every metrics snapshot so the
    /// registry's exposition agrees with the JSON document.
    queue_depth: Gauge,
    bridge: TelemetryObserver,
}

impl ServeTelemetry {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let queue_wait_seconds = registry.histogram(
            "ecripse_serve_queue_wait_seconds",
            "Time a job spent queued before a worker picked it up",
        );
        let job_seconds = registry.histogram(
            "ecripse_serve_job_seconds",
            "Wall-clock duration of one job's execution",
        );
        let journal_replay_seconds = registry.histogram(
            "ecripse_serve_journal_replay_duration_seconds",
            "Wall-clock duration of boot-time write-ahead journal replay",
        );
        let queue_depth = registry.gauge("ecripse_serve_queue_depth", "Jobs waiting in the queue");
        let bridge = TelemetryObserver::new(&registry);
        Self {
            registry,
            queue_wait_seconds,
            job_seconds,
            journal_replay_seconds,
            queue_depth,
            bridge,
        }
    }
}

/// Queue and job-table state behind one lock.
struct QueueState {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    in_flight: u64,
    draining: bool,
    /// Idempotency key → job id for every job that carried one
    /// (rebuilt from the journal at boot, so retries dedup across
    /// restarts too).
    idempotency: HashMap<String, u64>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    cancelled_queued: AtomicU64,
    cancelled_running: AtomicU64,
    deadline_exceeded: AtomicU64,
    idempotent_hits: AtomicU64,
    persisted: AtomicU64,
    rejected: AtomicU64,
}

/// Locks the queue state, recovering from lock poisoning (a panicking
/// job is already downgraded to a failure before the lock is taken, so
/// a poisoned guard still holds consistent state).
fn lock_state<B>(shared: &Shared<B>) -> std::sync::MutexGuard<'_, QueueState> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Shared<B> {
    config: ServeConfig,
    factory: Box<dyn Fn(Scenario, f64) -> B + Send + Sync>,
    cache: Arc<VerdictStore>,
    /// Completed jobs per scenario, indexed by [`Scenario::ALL`]
    /// position (feeds the `scenario_jobs` metric and its labelled
    /// Prometheus series).
    scenario_completed: [AtomicU64; Scenario::ALL.len()],
    /// Verdicts restored from the persistent store at bind time.
    cache_loaded: u64,
    /// The write-ahead job journal, when durability is configured.
    journal: Option<Journal>,
    /// Unfinished jobs re-enqueued from the journal at boot.
    recovered: u64,
    /// Journal frames decoded during boot replay (submissions and
    /// terminals combined).
    frames_replayed: u64,
    state: std::sync::Mutex<QueueState>,
    work_ready: std::sync::Condvar,
    counters: Counters,
    oracle_totals: Mutex<OracleStats>,
    /// Smoothed seconds-per-job, feeding the `Retry-After` hint.
    ewma_job_seconds: Mutex<f64>,
    stop_accepting: AtomicBool,
    /// `false` while boot replay is still populating the queue (and
    /// again once draining starts); `/readyz` reads it.
    ready: AtomicBool,
    /// Tells the deadline watchdog to exit.
    monitor_stop: AtomicBool,
    /// When the server bound its socket (feeds `uptime_seconds`).
    started: Instant,
    telemetry: ServeTelemetry,
    /// Node name stamped into spans (config override or `serve-{port}`).
    node: String,
    /// Bounded ring of finished jobs' span timelines, served by
    /// `GET /v1/jobs/{id}/trace`.
    spans: SpanStore,
    /// Wall-clock seconds boot-time journal replay took (0 without a
    /// journal); surfaced in the `/metrics` JSON document.
    journal_replay_seconds: f64,
}

/// The estimation service. Generic over the bench the factory builds,
/// so the integration tests can serve synthetic benches; the default is
/// the paper's cell under the job's requested scenario and supply.
pub struct Server<B: SweepBench + 'static = SramScenarioBench> {
    shared: Arc<Shared<B>>,
    addr: SocketAddr,
    acceptor: Option<FrontDoor>,
    workers: Vec<std::thread::JoinHandle<()>>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Server<SramScenarioBench> {
    /// Binds the paper-cell service: each job's bench is
    /// [`SramScenarioBench::at_vdd`] of the job's scenario and supply
    /// voltage, so every registered scenario is servable out of the
    /// box.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        Self::bind_with(addr, config, SramScenarioBench::at_vdd)
    }
}

impl<B: SweepBench + 'static> Server<B> {
    /// Binds a service whose per-job bench comes from
    /// `factory(scenario, vdd)`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        factory: impl Fn(Scenario, f64) -> B + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        // The snapshot fingerprint is scoped by the scenario-registry
        // digest: a store written under a different registry (different
        // scenarios or versions) is rejected at load time instead of
        // silently misapplying verdicts across indicators.
        let cache = Arc::new(VerdictStore::new(config.cache));
        let cache_loaded = match &config.cache_store {
            // A missing store is the normal first boot; any other load
            // failure is worth a line on stderr, but never fatal — the
            // service just starts cold.
            Some(path) if path.exists() => match load_snapshot(&cache, &registry_digest(), path) {
                Ok(count) => count as u64,
                Err(error) => {
                    eprintln!(
                        "ecripse-serve: ignoring verdict store {}: {error}",
                        path.display()
                    );
                    0
                }
            },
            _ => 0,
        };
        // Durability paths are created up front: a missing spool or
        // journal directory must fail the bind, not the first sweep
        // checkpoint (or worse, silently skip journaling).
        if let Some(spool) = &config.spool {
            std::fs::create_dir_all(spool)?;
        }
        if let Some(parent) = config.journal.as_deref().and_then(Path::parent) {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // Open + replay the journal *before* anything can accept
        // traffic: the node is not ready until every surviving job is
        // back in the table.
        let replay_started = Instant::now();
        let (journal, recovered_jobs, frames_replayed) = match &config.journal {
            Some(path) => {
                let (journal, replay) = Journal::open(path)?;
                if replay.dropped_bytes > 0 {
                    eprintln!(
                        "ecripse-serve: journal {} had a torn tail; dropped {} byte(s)",
                        path.display(),
                        replay.dropped_bytes
                    );
                }
                let frames = replay.records.len() as u64;
                (Some(journal), journal::recover(&replay.records), frames)
            }
            None => (None, Vec::new(), 0),
        };
        let mut queue = VecDeque::new();
        let mut jobs = HashMap::new();
        let mut idempotency = HashMap::new();
        let mut next_id = 1u64;
        let mut recovered = 0u64;
        let boot = Instant::now();
        for job in &recovered_jobs {
            next_id = next_id.max(job.id + 1);
            if let Some(key) = &job.request.idempotency_key {
                idempotency.insert(key.clone(), job.id);
            }
            let mut job_config = job.request.config;
            job_config.scenario = job.request.scenario;
            let unfinished = job.state.is_none();
            let (state, error) = match &job.state {
                None => (JobState::Queued, None),
                Some((state, error)) => (*state, error.clone()),
            };
            jobs.insert(
                job.id,
                JobRecord {
                    spec: job.request.job.clone(),
                    scenario: job.request.scenario,
                    config: job_config,
                    state,
                    error,
                    output: None,
                    queued_at: boot,
                    progress: Arc::new(ProgressTracker::default()),
                    // Submissions journal their resolved context, so a
                    // recovered job resumes the same trace; the derive
                    // below only covers pre-PR-10 journal files.
                    trace: job
                        .request
                        .trace
                        .unwrap_or_else(|| TraceContext::for_job(job.id, job.request.config.seed)),
                    deadline_ms: job.request.deadline_ms,
                    // The journal has no wall-clock anchor: a recovered
                    // job's budget restarts from re-acceptance.
                    deadline: unfinished
                        .then(|| {
                            job.request
                                .deadline_ms
                                .map(|ms| boot + Duration::from_millis(ms))
                        })
                        .flatten(),
                    idempotency_key: job.request.idempotency_key.clone(),
                    stop: Arc::new(AtomicBool::new(false)),
                },
            );
            if unfinished {
                queue.push_back(job.id);
                recovered += 1;
            }
        }
        // Boot compaction: drop the terminal noise a long-lived journal
        // accumulates (best-effort; the old file stays valid on failure).
        if let Some(journal) = &journal {
            if let Err(error) = journal.compact(&journal::live_records(&recovered_jobs)) {
                eprintln!(
                    "ecripse-serve: journal boot compaction failed: {error} (keeping old file)"
                );
            }
        }
        let journal_replay_seconds = if config.journal.is_some() {
            replay_started.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let node = config
            .node
            .clone()
            .unwrap_or_else(|| format!("serve-{}", addr.port()));
        let telemetry = ServeTelemetry::new();
        if config.journal.is_some() {
            telemetry
                .journal_replay_seconds
                .record(journal_replay_seconds);
        }
        let shared = Arc::new(Shared {
            cache,
            cache_loaded,
            journal,
            recovered,
            frames_replayed,
            config,
            factory: Box::new(factory),
            scenario_completed: Default::default(),
            state: std::sync::Mutex::new(QueueState {
                queue,
                jobs,
                next_id,
                in_flight: 0,
                draining: false,
                idempotency,
            }),
            work_ready: std::sync::Condvar::new(),
            counters: Counters::default(),
            oracle_totals: Mutex::new(OracleStats::default()),
            ewma_job_seconds: Mutex::new(1.0),
            stop_accepting: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            monitor_stop: AtomicBool::new(false),
            started: Instant::now(),
            telemetry,
            node,
            spans: SpanStore::new(256),
            journal_replay_seconds,
        });
        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || deadline_monitor(&shared))
        };
        let limits = Limits {
            read_timeout: shared.config.read_timeout,
            write_timeout: shared.config.write_timeout,
            connection_lifetime: shared.config.connection_lifetime,
        };
        let mut server = Self {
            shared,
            addr,
            acceptor: None,
            workers: worker_handles,
            monitor: Some(monitor),
        };
        // Should the front door fail to open, dropping `server` stops
        // the workers and the monitor.
        server.acceptor = Some(http::serve(
            listener,
            limits,
            &server.shared.telemetry.registry,
            "serve",
            Arc::clone(&server.shared),
            |shared| shared.stop_accepting.load(Ordering::SeqCst),
            route::<B>,
        )?);
        // Replay is done and the table is populated: open for traffic.
        server.shared.ready.store(true, Ordering::SeqCst);
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process-wide verdict store.
    pub fn cache(&self) -> &Arc<VerdictStore> {
        &self.shared.cache
    }

    /// Current service metrics (the `GET /metrics` document).
    pub fn metrics(&self) -> Metrics {
        collect_metrics(&self.shared)
    }

    /// Graceful shutdown: stop accepting, drain in-flight jobs, persist
    /// queued sweeps as resumable checkpoints (when a spool directory is
    /// configured), cancel queued estimates, join every thread.
    pub fn shutdown(mut self) -> ShutdownSummary {
        self.shared.stop_accepting.store(true, Ordering::SeqCst);
        if let Some(acceptor) = &self.acceptor {
            acceptor.wake();
        }
        self.shared.ready.store(false, Ordering::SeqCst);
        let mut transitions: Vec<(u64, JobState)> = Vec::new();
        let (drained, persisted, cancelled) = {
            let mut state = lock_state(&self.shared);
            state.draining = true;
            let drained = state.in_flight;
            let mut persisted = 0u64;
            let mut cancelled = 0u64;
            while let Some(id) = state.queue.pop_front() {
                let Some(record) = state.jobs.get_mut(&id) else {
                    continue;
                };
                if persist_queued_sweep(&self.shared, id, record) {
                    record.state = JobState::Persisted;
                    self.shared
                        .counters
                        .persisted
                        .fetch_add(1, Ordering::Relaxed);
                    persisted += 1;
                    transitions.push((id, JobState::Persisted));
                } else {
                    record.state = JobState::Cancelled;
                    self.shared
                        .counters
                        .cancelled
                        .fetch_add(1, Ordering::Relaxed);
                    cancelled += 1;
                    transitions.push((id, JobState::Cancelled));
                }
            }
            (drained, persisted, cancelled)
        };
        // Journal the drain's terminal transitions outside the state
        // lock (appends fsync). A Persisted record tells the next boot
        // "resume me"; a Cancelled one closes the job for good.
        for (id, state) in transitions {
            journal_terminal(&self.shared, id, state, None);
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.monitor_stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Workers are quiet: shrink the journal to its live set so the
        // next boot replays only what matters.
        compact_journal(&self.shared);
        // Workers are quiet: persist the warm verdicts so the next
        // process starts where this one left off.
        if let Some(path) = &self.shared.config.cache_store {
            if let Err(error) = save_snapshot(&self.shared.cache, &registry_digest(), path) {
                eprintln!(
                    "ecripse-serve: could not save verdict store {}: {error}",
                    path.display()
                );
            }
        }
        ShutdownSummary {
            drained,
            persisted,
            cancelled,
        }
    }
}

impl<B: SweepBench + 'static> Drop for Server<B> {
    fn drop(&mut self) {
        // `shutdown` consumed the handles; if the server is dropped
        // without it, signal the threads so they exit instead of
        // parking forever (they detach, nothing joins them).
        if self.acceptor.is_some() || !self.workers.is_empty() || self.monitor.is_some() {
            self.shared.stop_accepting.store(true, Ordering::SeqCst);
            // Without the wake the accept thread would block forever
            // and keep the port bound.
            if let Some(acceptor) = &self.acceptor {
                acceptor.wake();
            }
            self.shared.ready.store(false, Ordering::SeqCst);
            self.shared.monitor_stop.store(true, Ordering::SeqCst);
            lock_state(&self.shared).draining = true;
            self.shared.work_ready.notify_all();
        }
    }
}

/// The checkpoint file a sweep job uses inside the spool directory.
fn spool_path<B>(shared: &Shared<B>, id: u64) -> Option<PathBuf> {
    shared
        .config
        .spool
        .as_ref()
        .map(|dir| dir.join(format!("job-{id}.json")))
}

/// Writes (or preserves) a resumable checkpoint for a queued sweep job
/// during shutdown. Returns `false` when the job is not a sweep, no
/// spool is configured, or the checkpoint could not be written.
fn persist_queued_sweep<B: SweepBench>(shared: &Shared<B>, id: u64, record: &JobRecord) -> bool {
    if record.spec.kind != JobKind::Sweep {
        return false;
    }
    let Some(path) = spool_path(shared, id) else {
        return false;
    };
    let Some(alphas) = record.spec.alphas.clone() else {
        return false;
    };
    let bench = job_bench(shared, record.scenario, &record.spec);
    let mut sweep = DutySweep::new(record.config, bench, alphas);
    if let Some(indices) = record.spec.alpha_indices.clone() {
        sweep = sweep.with_point_indices(indices);
    }
    sweep.ensure_checkpoint(&path).is_ok()
}

/// Rebuilds the wire-shape submission a job record was accepted from
/// (compaction rewrites the journal from live server state, so the
/// round trip must be lossless for everything replay consumes).
fn record_request(record: &JobRecord) -> SubmitRequest {
    let mut request = SubmitRequest::new(record.config, record.spec.clone());
    request.scenario = record.scenario;
    request.deadline_ms = record.deadline_ms;
    request.idempotency_key = record.idempotency_key.clone();
    request.trace = Some(record.trace);
    request
}

/// Projects the in-memory job table into the journal's recovered-job
/// shape (id order), feeding [`journal::live_records`] for compaction.
/// Queued/running/persisted jobs count as unfinished.
fn live_from_state(state: &QueueState) -> Vec<RecoveredJob> {
    let mut ids: Vec<u64> = state.jobs.keys().copied().collect();
    ids.sort_unstable();
    ids.into_iter()
        .filter_map(|id| {
            let record = state.jobs.get(&id)?;
            let terminal = match record.state {
                // Persisted means "resumable checkpoint on disk" — the
                // journal must re-enqueue it next boot.
                JobState::Queued | JobState::Running | JobState::Persisted => None,
                state => Some((state, record.error.clone())),
            };
            Some(RecoveredJob {
                id,
                request: record_request(record),
                state: terminal,
            })
        })
        .collect()
}

/// Rewrites the journal to the live set derived from current state.
/// Best-effort: a failed compaction leaves the (valid, just larger)
/// old journal in place.
///
/// The state lock is held across the rewrite: submissions append their
/// journal frame under the same lock, so a compaction can never
/// snapshot the table *before* a submission and rename *after* its
/// append — which would silently discard an acknowledged job.
fn compact_journal<B>(shared: &Shared<B>) {
    let Some(journal) = &shared.journal else {
        return;
    };
    let state = lock_state(shared);
    let live = journal::live_records(&live_from_state(&state));
    if let Err(error) = journal.compact(&live) {
        eprintln!("ecripse-serve: journal compaction failed: {error} (keeping old file)");
    }
}

/// Appends a terminal transition to the journal (fsync'd) and compacts
/// when enough terminals have accumulated. Callers must *not* hold the
/// state lock — appends block on the disk. An append failure is logged
/// and tolerated: the in-memory state is already terminal, and the
/// worst case after a crash is re-running a finished job.
fn journal_terminal<B>(shared: &Shared<B>, id: u64, state: JobState, error: Option<String>) {
    let Some(journal) = &shared.journal else {
        return;
    };
    if let Err(e) = journal.append(&JournalRecord::terminal(id, state, error)) {
        eprintln!("ecripse-serve: journal append failed for job {id}: {e}");
        return;
    }
    if journal.should_compact() {
        compact_journal(shared);
    }
}

/// The deadline watchdog: every 20ms it expires queued jobs whose
/// budget ran out (straight to [`JobState::DeadlineExceeded`]) and
/// raises the stop flag of running jobs past theirs — the worker then
/// observes the interruption at the next iteration/batch boundary and
/// terminalises the job itself.
fn deadline_monitor<B: SweepBench + 'static>(shared: &Arc<Shared<B>>) {
    while !shared.monitor_stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let now = Instant::now();
        let mut expired: Vec<(u64, Option<String>)> = Vec::new();
        {
            let mut state = lock_state(shared);
            let due: Vec<u64> = state
                .queue
                .iter()
                .copied()
                .filter(|id| {
                    state
                        .jobs
                        .get(id)
                        .and_then(|record| record.deadline)
                        .is_some_and(|deadline| deadline <= now)
                })
                .collect();
            for id in due {
                state.queue.retain(|&queued| queued != id);
                if let Some(record) = state.jobs.get_mut(&id) {
                    record.state = JobState::DeadlineExceeded;
                    record.error = Some(format!(
                        "deadline of {}ms exceeded while queued",
                        record.deadline_ms.unwrap_or(0)
                    ));
                    shared
                        .counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                    expired.push((id, record.error.clone()));
                }
            }
            for record in state.jobs.values_mut() {
                if record.state == JobState::Running
                    && record.deadline.is_some_and(|deadline| deadline <= now)
                {
                    record.stop.store(true, Ordering::SeqCst);
                }
            }
        }
        for (id, error) in expired {
            journal_terminal(shared, id, JobState::DeadlineExceeded, error);
        }
    }
}

/// The bench a job evaluates: the factory's bench for the job's
/// scenario and supply, wrapped in the process-wide verdict cache. The
/// tag namespaces verdicts by scenario (id + version salt) and supply
/// voltage; `at_alpha` (inside sweeps) further folds in the duty ratio.
///
/// Sweep *shards* opt out of the cache: the merge asserts every shard's
/// shared rdf-only reference bit-equal, and while the cache never
/// changes a verdict, a warm hit skips the circuit solver — so the
/// solver-effort counters (Newton iterations, curve solves) in the
/// shard's report would depend on what the worker computed before.
/// Shards therefore always evaluate cold, and the merged document stays
/// bit-identical to a single-process run no matter how shards were
/// placed or replayed.
fn job_bench<B: SweepBench>(
    shared: &Shared<B>,
    scenario: Scenario,
    spec: &JobSpec,
) -> MemoBench<B> {
    let enabled = shared.config.cache.enabled && spec.alpha_indices.is_none();
    MemoBench::shared(
        (shared.factory)(scenario, spec.vdd),
        tag_for(&[scenario.tag_salt(), spec.vdd.to_bits()]),
        Arc::clone(&shared.cache),
        enabled,
    )
}

fn route<B: SweepBench>(shared: &Arc<Shared<B>>, request: &Request) -> Response {
    let path = request.path.trim_end_matches('/');
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(shared, request),
        ("GET", ["v1", "jobs", id]) => with_job_id(id, |id| status(shared, id)),
        ("GET", ["v1", "jobs", id, "report"]) => with_job_id(id, |id| report(shared, id)),
        ("GET", ["v1", "jobs", id, "trace"]) => with_job_id(id, |id| trace_document(shared, id)),
        ("DELETE", ["v1", "jobs", id]) => with_job_id(id, |id| cancel(shared, id)),
        ("GET", ["healthz"]) => http::health_response(shared.stop_accepting.load(Ordering::SeqCst)),
        ("GET", ["readyz"]) => readyz(shared),
        ("GET", ["metrics"]) => metrics_response(shared, request),
        (_, ["v1", "jobs", ..] | ["healthz" | "readyz" | "metrics"]) => {
            error_response(405, "method_not_allowed", "method not allowed on this path")
        }
        _ => error_response(404, "not_found", format!("no such path: {}", request.path)),
    }
}

fn submit<B: SweepBench>(shared: &Shared<B>, http_request: &Request) -> Response {
    let mut request = match http::parse_submission(http_request, "server") {
        Ok(request) => request,
        Err(response) => return response,
    };

    let mut state = lock_state(shared);
    // Idempotency first: a retry of an already-accepted submission must
    // succeed even while draining or saturated — the work is already
    // accounted for. `200` (not `202`): nothing new was accepted.
    if let Some(key) = &request.idempotency_key {
        if let Some(&existing) = state.idempotency.get(key) {
            shared
                .counters
                .idempotent_hits
                .fetch_add(1, Ordering::Relaxed);
            let status = job_status(&state, existing);
            return Response::json(200, json_body(&status));
        }
    }
    if state.draining || shared.stop_accepting.load(Ordering::SeqCst) {
        return error_response(
            503,
            "shutting_down",
            "server is draining; resubmit elsewhere",
        );
    }
    if state.queue.len() >= shared.config.queue_capacity {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let hint = retry_after_seconds(shared, &state);
        let mut body = ApiError::new("queue_full", "job queue is full; retry later");
        body.retry_after_seconds = Some(hint);
        return Response::json(429, json_body(&body)).with_header("retry-after", hint.to_string());
    }
    let id = state.next_id;
    // Resolve the trace context now that the id exists, and stamp it
    // back into the request so the journal frame carries it — recovery
    // then resumes the identical trace.
    let trace = request
        .trace
        .unwrap_or_else(|| TraceContext::for_job(id, request.config.seed));
    request.trace = Some(trace);
    // Durability point: the submission reaches the fsync'd journal
    // *before* any acknowledgement leaves the server — and before the
    // job is visible anywhere else. Held under the state lock so a
    // concurrent compaction (which also takes it) can never discard
    // this frame without having seen the job in the table.
    if let Some(journal) = &shared.journal {
        if let Err(e) = journal.append(&JournalRecord::submitted(id, request.clone())) {
            return error_response(
                500,
                "journal_error",
                format!("could not journal submission: {e}"),
            );
        }
    }
    state.next_id += 1;
    // The wire field is authoritative: stamp it into the run config so
    // the recorded report and the served bench agree on the scenario.
    let mut config = request.config;
    config.scenario = request.scenario;
    let now = Instant::now();
    state.jobs.insert(
        id,
        JobRecord {
            spec: request.job,
            scenario: request.scenario,
            config,
            state: JobState::Queued,
            error: None,
            output: None,
            queued_at: now,
            progress: Arc::new(ProgressTracker::default()),
            trace,
            deadline_ms: request.deadline_ms,
            deadline: request
                .deadline_ms
                .map(|ms| now + Duration::from_millis(ms)),
            idempotency_key: request.idempotency_key.clone(),
            stop: Arc::new(AtomicBool::new(false)),
        },
    );
    if let Some(key) = request.idempotency_key {
        state.idempotency.insert(key, id);
    }
    state.queue.push_back(id);
    let position = (state.queue.len() - 1) as u64;
    drop(state);
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    shared.work_ready.notify_one();
    Response::json(
        202,
        json_body(&JobStatus {
            id,
            scenario: request.scenario,
            state: JobState::Queued,
            queue_position: Some(position),
            error: None,
            progress: None,
            trace_id: Some(fmt_hex_id(trace.trace_id)),
        }),
    )
}

/// Backpressure hint: smoothed seconds-per-job × backlog ÷ workers,
/// clamped to `[1, 600]` seconds.
fn retry_after_seconds<B>(shared: &Shared<B>, state: &QueueState) -> u64 {
    let per_job = *shared.ewma_job_seconds.lock();
    let backlog = (state.queue.len() as u64 + state.in_flight).max(1);
    let workers = shared.config.workers.max(1) as f64;
    let estimate = (per_job * backlog as f64 / workers).ceil();
    (estimate as u64).clamp(1, 600)
}

fn job_status(state: &QueueState, id: u64) -> Option<JobStatus> {
    let record = state.jobs.get(&id)?;
    let queue_position = state
        .queue
        .iter()
        .position(|&queued| queued == id)
        .map(|p| p as u64);
    Some(JobStatus {
        id,
        scenario: record.scenario,
        state: record.state,
        queue_position,
        error: record.error.clone(),
        progress: (record.state == JobState::Running).then(|| record.progress.snapshot()),
        trace_id: Some(fmt_hex_id(record.trace.trace_id)),
    })
}

fn status<B>(shared: &Shared<B>, id: u64) -> Response {
    match job_status(&lock_state(shared), id) {
        Some(status) => Response::json(200, json_body(&status)),
        None => error_response(404, "unknown_job", format!("no job {id}")),
    }
}

fn report<B>(shared: &Shared<B>, id: u64) -> Response {
    let state = lock_state(shared);
    let Some(record) = state.jobs.get(&id) else {
        return error_response(404, "unknown_job", format!("no job {id}"));
    };
    if record.state.is_terminal() {
        let mut report = JobReport {
            id,
            scenario: record.scenario,
            state: record.state,
            error: record.error.clone(),
            estimate: None,
            sweep: None,
            trace_id: Some(fmt_hex_id(record.trace.trace_id)),
        };
        match &record.output {
            Some(JobOutput::Estimate(outcome)) => report.estimate = Some(outcome.clone()),
            Some(JobOutput::Sweep(outcome)) => report.sweep = Some(outcome.clone()),
            None => {}
        }
        Response::json(200, json_body(&report))
    } else {
        let state = record.state;
        error_response(
            409,
            "not_ready",
            format!("job {id} is {state}; no report yet"),
        )
    }
}

/// `GET /v1/jobs/{id}/trace`: the span timeline this node recorded for
/// one job. Empty until the worker finishes (the collector folds stage
/// events into spans only at job end); `404` for unknown ids.
fn trace_document<B>(shared: &Shared<B>, id: u64) -> Response {
    let Some(trace_id) = lock_state(shared).jobs.get(&id).map(|r| r.trace.trace_id) else {
        return error_response(404, "unknown_job", format!("no job {id}"));
    };
    let spans = shared.spans.get(id).unwrap_or_default();
    Response::json(
        200,
        json_body(&JobTrace {
            job_id: id,
            trace_id: fmt_hex_id(trace_id),
            spans,
        }),
    )
}

fn cancel<B>(shared: &Shared<B>, id: u64) -> Response {
    let mut state = lock_state(shared);
    let Some(record) = state.jobs.get(&id) else {
        return error_response(404, "unknown_job", format!("no job {id}"));
    };
    match record.state {
        JobState::Queued => {
            state.queue.retain(|&queued| queued != id);
            if let Some(record) = state.jobs.get_mut(&id) {
                record.state = JobState::Cancelled;
                record.error = Some("cancelled while queued".to_string());
            }
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .cancelled_queued
                .fetch_add(1, Ordering::Relaxed);
            let status = job_status(&state, id);
            drop(state);
            journal_terminal(
                shared,
                id,
                JobState::Cancelled,
                Some("cancelled while queued".to_string()),
            );
            Response::json(200, json_body(&status))
        }
        JobState::Running => {
            // Cooperative: raise the stop flag and acknowledge with
            // `202`. The worker observes it at the next iteration/batch
            // boundary and drains the job to `cancelled`; the caller
            // polls the status to watch it land.
            record.stop.store(true, Ordering::SeqCst);
            let status = job_status(&state, id);
            Response::json(202, json_body(&status))
        }
        state => error_response(409, "conflict", format!("job {id} is already {state}")),
    }
}

/// `GET /readyz`: `ready` only when boot replay is done, the server is
/// accepting and the queue has room. A one-second `Retry-After` suits
/// every other state: replay is quick (the journal is compacted at
/// boot), a draining process is soon replaced, and saturation clears
/// at job-completion cadence. (Both shutdown paths raise
/// `stop_accepting` before `draining`, so the first test covers both.)
fn readyz<B>(shared: &Shared<B>) -> Response {
    let status = if shared.stop_accepting.load(Ordering::SeqCst) {
        "draining"
    } else if !shared.ready.load(Ordering::SeqCst) {
        "replaying"
    } else if lock_state(shared).queue.len() >= shared.config.queue_capacity {
        "saturated"
    } else {
        "ready"
    };
    http::readiness_response(status)
}

fn collect_metrics<B>(shared: &Shared<B>) -> Metrics {
    let (queue_depth, in_flight) = {
        let state = lock_state(shared);
        (state.queue.len() as u64, state.in_flight)
    };
    // Refresh the registry's gauge from the same snapshot, so the
    // Prometheus exposition (rendered from the registry) and the JSON
    // document always agree on the depth.
    shared.telemetry.queue_depth.set(queue_depth as f64);
    let c = &shared.counters;
    let completed = c.completed.load(Ordering::Relaxed);
    let failed = c.failed.load(Ordering::Relaxed);
    let cancelled = c.cancelled.load(Ordering::Relaxed);
    let deadline_exceeded = c.deadline_exceeded.load(Ordering::Relaxed);
    let persisted = c.persisted.load(Ordering::Relaxed);
    Metrics {
        queue_depth,
        queue_capacity: shared.config.queue_capacity as u64,
        in_flight,
        workers: shared.config.workers.max(1) as u64,
        submitted: c.submitted.load(Ordering::Relaxed),
        completed,
        failed,
        cancelled,
        cancelled_queued: c.cancelled_queued.load(Ordering::Relaxed),
        cancelled_running: c.cancelled_running.load(Ordering::Relaxed),
        deadline_exceeded,
        recovered: shared.recovered,
        idempotent_hits: c.idempotent_hits.load(Ordering::Relaxed),
        persisted,
        rejected: c.rejected.load(Ordering::Relaxed),
        cache_entries: shared.cache.len() as u64,
        cache_hits: shared.cache.hits(),
        cache_misses: shared.cache.misses(),
        cache_hit_rate: shared.cache.hit_rate(),
        cache_loaded_entries: shared.cache_loaded,
        journal_compactions_total: shared.journal.as_ref().map_or(0, |j| j.compactions()),
        journal_frames_replayed_total: shared.frames_replayed,
        journal_bytes: shared.journal.as_ref().map_or(0, |j| j.bytes()),
        journal_replay_duration_seconds: shared.journal_replay_seconds,
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        jobs_in_terminal_state: completed + failed + cancelled + deadline_exceeded + persisted,
        scenario_jobs: Scenario::ALL
            .iter()
            .enumerate()
            .map(|(index, scenario)| ScenarioJobCount {
                scenario: scenario.id().to_string(),
                completed: shared.scenario_completed[index].load(Ordering::Relaxed),
            })
            .collect(),
        oracle: *shared.oracle_totals.lock(),
    }
}

/// Serves `GET /metrics`: Prometheus text exposition when the client's
/// `Accept` header asks for `text/plain`, the JSON document otherwise.
fn metrics_response<B>(shared: &Shared<B>, request: &Request) -> Response {
    let metrics = collect_metrics(shared);
    let wants_prometheus = request
        .header("accept")
        .is_some_and(|accept| accept.contains("text/plain"));
    if wants_prometheus {
        Response::text(200, render_prometheus_document(shared, &metrics))
    } else {
        Response::json(200, json_body(&metrics))
    }
}

/// Builds the full Prometheus document: scalar series synthesised from
/// the *same* [`Metrics`] snapshot the JSON endpoint serves (so the two
/// representations always agree), followed by the registry's rendered
/// histograms (HTTP latency, queue wait, job duration, and the core
/// observer bridge's pipeline metrics).
fn render_prometheus_document<B>(shared: &Shared<B>, m: &Metrics) -> String {
    let mut out = String::new();
    // `queue_depth` is absent here on purpose: it lives in the
    // registry as a real gauge (refreshed by `collect_metrics`), so it
    // renders with the registry histograms at the end of the document.
    let gauges: [(&str, &str, f64); 9] = [
        (
            "queue_capacity",
            "Bound of the job queue",
            m.queue_capacity as f64,
        ),
        ("in_flight", "Jobs currently executing", m.in_flight as f64),
        ("workers", "Size of the worker pool", m.workers as f64),
        (
            "cache_entries",
            "Entries in the process-wide verdict cache",
            m.cache_entries as f64,
        ),
        (
            "cache_hit_rate",
            "Verdict-cache hit fraction (NaN before any traffic)",
            m.cache_hit_rate.unwrap_or(f64::NAN),
        ),
        (
            "cache_loaded_entries",
            "Verdicts restored from the persistent store at startup",
            m.cache_loaded_entries as f64,
        ),
        (
            "uptime_seconds",
            "Seconds since the server bound its socket",
            m.uptime_seconds,
        ),
        (
            "jobs_in_terminal_state",
            "Jobs completed, failed, cancelled or persisted",
            m.jobs_in_terminal_state as f64,
        ),
        (
            "journal_bytes",
            "Current on-disk size of the write-ahead job journal",
            m.journal_bytes as f64,
        ),
    ];
    for (name, help, value) in gauges {
        let name = format!("ecripse_serve_{name}");
        prom_scalar(&mut out, &name, "gauge", help, value);
    }
    let counters: [(&str, &str, u64); 24] = [
        ("submitted_total", "Jobs ever accepted", m.submitted),
        ("completed_total", "Jobs finished successfully", m.completed),
        (
            "failed_total",
            "Jobs finished with an estimation error",
            m.failed,
        ),
        (
            "cancelled_total",
            "Jobs cancelled (queued or running)",
            m.cancelled,
        ),
        (
            "cancelled_queued_total",
            "Cancellations that caught the job still queued",
            m.cancelled_queued,
        ),
        (
            "cancelled_running_total",
            "Cancellations that interrupted a running job",
            m.cancelled_running,
        ),
        (
            "deadline_exceeded_total",
            "Jobs stopped by their wall-clock deadline",
            m.deadline_exceeded,
        ),
        (
            "recovered_total",
            "Unfinished jobs re-enqueued from the journal at boot",
            m.recovered,
        ),
        (
            "journal_compactions_total",
            "Write-ahead journal compactions since startup",
            m.journal_compactions_total,
        ),
        (
            "journal_frames_replayed_total",
            "Journal frames decoded during boot replay",
            m.journal_frames_replayed_total,
        ),
        (
            "idempotent_hits_total",
            "Submissions deduplicated by idempotency key",
            m.idempotent_hits,
        ),
        (
            "persisted_total",
            "Queued sweeps persisted during shutdown",
            m.persisted,
        ),
        ("rejected_total", "Submissions bounced with 429", m.rejected),
        ("cache_hits_total", "Verdict-cache hits", m.cache_hits),
        ("cache_misses_total", "Verdict-cache misses", m.cache_misses),
        (
            "oracle_classified_total",
            "Queries answered by the classifier",
            m.oracle.classified,
        ),
        (
            "oracle_simulated_total",
            "Queries answered by simulation",
            m.oracle.simulated,
        ),
        (
            "oracle_retrains_total",
            "Classifier retraining rounds",
            m.oracle.retrains,
        ),
        (
            "oracle_retries_total",
            "Retry-ladder attempts",
            m.oracle.retries,
        ),
        (
            "oracle_quarantined_total",
            "Samples quarantined",
            m.oracle.quarantined,
        ),
        (
            "oracle_uncertain_simulated_total",
            "Stage-2 simulations triggered by the uncertainty band",
            m.oracle.uncertain_simulated,
        ),
        (
            "newton_iters_total",
            "Newton iterations (node-current evaluations) spent in the circuit solver",
            m.oracle.newton_iters,
        ),
        (
            "factorisations_total",
            "Transfer-curve point solves in the circuit solver (no matrix is factorised)",
            m.oracle.factorisations,
        ),
        (
            "warm_start_seeds_total",
            "Always 0: no evaluation seeds its curve solves; kept for compatibility",
            m.oracle.warm_start_seeds,
        ),
    ];
    for (name, help, value) in counters {
        let name = format!("ecripse_serve_{name}");
        prom_scalar(&mut out, &name, "counter", help, value as f64);
    }
    {
        use std::fmt::Write as _;
        let name = "ecripse_serve_scenario_jobs_total";
        let _ = writeln!(
            out,
            "# HELP {name} Jobs completed successfully, by scenario"
        );
        let _ = writeln!(out, "# TYPE {name} counter");
        for entry in &m.scenario_jobs {
            let _ = writeln!(
                out,
                "{name}{{scenario=\"{}\"}} {}",
                escape_label_value(&entry.scenario),
                entry.completed
            );
        }
    }
    out.push_str(&shared.telemetry.registry.render_prometheus());
    out
}

/// Why a job stopped short of a result.
enum JobFailure {
    /// The stop flag interrupted the pipeline at a clean boundary —
    /// cancellation or a deadline; the caller decides which from the
    /// job's deadline.
    Interrupted,
    /// An estimation error or a caught panic.
    Error(String),
}

fn worker_loop<B: SweepBench + 'static>(shared: &Arc<Shared<B>>) {
    loop {
        let (id, spec, scenario, config, progress, deadline, stop, trace) = {
            let mut state = lock_state(shared);
            loop {
                if let Some(id) = state.queue.pop_front() {
                    let Some(record) = state.jobs.get_mut(&id) else {
                        continue;
                    };
                    // The watchdog polls every 20ms; a budget that ran
                    // out in between is caught here instead of wasting
                    // a worker on a job that's already dead.
                    if record
                        .deadline
                        .is_some_and(|deadline| deadline <= Instant::now())
                    {
                        record.state = JobState::DeadlineExceeded;
                        record.error = Some(format!(
                            "deadline of {}ms exceeded while queued",
                            record.deadline_ms.unwrap_or(0)
                        ));
                        let error = record.error.clone();
                        shared
                            .counters
                            .deadline_exceeded
                            .fetch_add(1, Ordering::Relaxed);
                        drop(state);
                        journal_terminal(shared, id, JobState::DeadlineExceeded, error);
                        state = lock_state(shared);
                        continue;
                    }
                    record.state = JobState::Running;
                    shared
                        .telemetry
                        .queue_wait_seconds
                        .record(record.queued_at.elapsed().as_secs_f64());
                    let job = (
                        id,
                        record.spec.clone(),
                        record.scenario,
                        record.config,
                        Arc::clone(&record.progress),
                        record.deadline,
                        Arc::clone(&record.stop),
                        record.trace,
                    );
                    state.in_flight += 1;
                    break job;
                }
                if state.draining {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let started = Instant::now();
        // The collector is observational only (it never feeds back into
        // the pipeline), so the job's numbers stay bit-identical with
        // or without tracing; its spans are stored win or lose, so a
        // failed job still shows where its time went.
        let collector = SpanCollector::new(trace, shared.node.clone());
        let outcome = execute(
            shared, id, &spec, scenario, config, &progress, &stop, &collector,
        );
        shared.spans.insert(id, collector.finish());
        let elapsed = started.elapsed().as_secs_f64();
        shared.telemetry.job_seconds.record(elapsed);
        {
            let mut per_job = shared.ewma_job_seconds.lock();
            *per_job = 0.7 * *per_job + 0.3 * elapsed;
        }
        let mut terminal: Option<(JobState, Option<String>)> = None;
        let mut state = lock_state(shared);
        state.in_flight -= 1;
        if let Some(record) = state.jobs.get_mut(&id) {
            match outcome {
                Ok((output, oracle)) => {
                    record.state = JobState::Completed;
                    record.output = Some(output);
                    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                    if let Some(index) = Scenario::ALL.iter().position(|&s| s == scenario) {
                        shared.scenario_completed[index].fetch_add(1, Ordering::Relaxed);
                    }
                    add_oracle(&mut shared.oracle_totals.lock(), &oracle);
                    terminal = Some((JobState::Completed, None));
                }
                Err(JobFailure::Interrupted) => {
                    // One stop flag, two causes: a budget that ran out
                    // (watchdog) or an explicit DELETE. The deadline
                    // disambiguates.
                    let expired = deadline.is_some_and(|deadline| deadline <= Instant::now());
                    if expired {
                        record.state = JobState::DeadlineExceeded;
                        record.error = Some(format!(
                            "deadline of {}ms exceeded while running",
                            record.deadline_ms.unwrap_or(0)
                        ));
                        shared
                            .counters
                            .deadline_exceeded
                            .fetch_add(1, Ordering::Relaxed);
                    } else {
                        record.state = JobState::Cancelled;
                        record.error = Some("cancelled while running".to_string());
                        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        shared
                            .counters
                            .cancelled_running
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    terminal = Some((record.state, record.error.clone()));
                }
                Err(JobFailure::Error(message)) => {
                    record.state = JobState::Failed;
                    record.error = Some(message);
                    shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                    terminal = Some((JobState::Failed, record.error.clone()));
                }
            }
        }
        drop(state);
        if let Some((state, error)) = terminal {
            journal_terminal(shared, id, state, error);
        }
    }
}

fn add_oracle(total: &mut OracleStats, delta: &OracleStats) {
    total.classified += delta.classified;
    total.simulated += delta.simulated;
    total.uncertain_simulated += delta.uncertain_simulated;
    total.retrains += delta.retrains;
    total.cache_hits += delta.cache_hits;
    total.cache_misses += delta.cache_misses;
    total.retries += delta.retries;
    total.quarantined += delta.quarantined;
    total.newton_iters += delta.newton_iters;
    total.factorisations += delta.factorisations;
    total.warm_start_seeds += delta.warm_start_seeds;
}

/// Runs one job through the exact pipeline of a direct library call.
/// Panics inside the estimation stack (dimension mismatches from exotic
/// bench factories, …) are caught and reported as job failures so a bad
/// job can never take a worker down.
#[allow(clippy::too_many_arguments)]
fn execute<B: SweepBench + 'static>(
    shared: &Arc<Shared<B>>,
    id: u64,
    spec: &JobSpec,
    scenario: Scenario,
    config: EcripseConfig,
    progress: &Arc<ProgressTracker>,
    stop: &Arc<AtomicBool>,
    collector: &SpanCollector,
) -> Result<(JobOutput, OracleStats), JobFailure> {
    let shared = Arc::clone(shared);
    let spec = spec.clone();
    let progress = Arc::clone(progress);
    let stop = Arc::clone(stop);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        execute_inner(
            &shared, id, &spec, scenario, config, &progress, &stop, collector,
        )
    }))
    .unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_string());
        Err(JobFailure::Error(format!("job panicked: {message}")))
    })
}

#[allow(clippy::too_many_arguments)]
fn execute_inner<B: SweepBench + 'static>(
    shared: &Shared<B>,
    id: u64,
    spec: &JobSpec,
    scenario: Scenario,
    config: EcripseConfig,
    progress: &ProgressTracker,
    stop: &AtomicBool,
    collector: &SpanCollector,
) -> Result<(JobOutput, OracleStats), JobFailure> {
    let bench = job_bench(shared, scenario, spec);
    // Everything beyond the deterministic recorder is observational:
    // the live-progress tracker, the registry bridge and the span
    // collector see the same event stream but never feed back into the
    // estimation, so served reports stay bit-identical to direct
    // library calls.
    let mut side = MultiObserver::new();
    side.push(progress);
    side.push(&shared.telemetry.bridge);
    side.push(collector);
    match spec.kind {
        JobKind::Estimate => {
            let recorder = RunRecorder::new();
            let mut fanout = MultiObserver::new();
            fanout.push(&recorder);
            fanout.push(&side);
            let map_estimate = |e: EstimateError| match e {
                EstimateError::Interrupted => JobFailure::Interrupted,
                other => JobFailure::Error(other.to_string()),
            };
            let options = RunOptions {
                observer: &fanout,
                stop: Some(stop),
                ..RunOptions::default()
            };
            let result = match spec.alpha {
                None => Ecripse::new(config, bench).estimate_with(&options),
                Some(alpha) => {
                    let rtn = SramRtn::paper_model(alpha, bench.sigmas());
                    Ecripse::with_rtn(config, bench, rtn).estimate_with(&options)
                }
            }
            .map_err(map_estimate)?;
            let oracle = result.oracle_stats;
            Ok((
                JobOutput::Estimate(EstimateOutcome {
                    p_fail: result.p_fail,
                    ci95_half_width: result.ci95_half_width,
                    simulations: result.simulations,
                    is_samples: result.is_samples,
                    report: recorder.into_report(),
                }),
                oracle,
            ))
        }
        JobKind::Sweep => {
            let alphas = spec.alphas.clone().unwrap_or_default();
            // A shard seeds its points by global index (the spec was
            // validated at submit time, so the panics cannot fire).
            let mut sweep = DutySweep::new(config, bench, alphas);
            if let Some(indices) = spec.alpha_indices.clone() {
                sweep = sweep.with_point_indices(indices);
            }
            let options = SweepOptions {
                checkpoint: spool_path(shared, id),
                resume: true,
                keep_going: false,
                observer: &side,
                stop: Some(stop),
            };
            // An interrupted sweep keeps its spool checkpoint: a later
            // durable boot re-enqueues the job (if it was a deadline,
            // the budget restarts) and the finished points resume
            // bit-identically instead of recomputing.
            let map_sweep = |e: SweepError| match e {
                SweepError::Interrupted { .. } => JobFailure::Interrupted,
                other => JobFailure::Error(other.to_string()),
            };
            let (result, reports) = sweep
                .run_with(&options)
                .and_then(ResumableSweep::into_parts)
                .map_err(map_sweep)?;
            // The job is done; its spool checkpoint has served its
            // purpose.
            if let Some(path) = spool_path(shared, id) {
                let _ = std::fs::remove_file(path);
            }
            let mut oracle = OracleStats::default();
            add_oracle(&mut oracle, &reports.rdf_only.oracle);
            for point in &reports.points {
                add_oracle(&mut oracle, &point.oracle);
            }
            Ok((
                JobOutput::Sweep(SweepOutcome {
                    p_fail_rdf_only: result.p_fail_rdf_only,
                    rdf_only_ci95: result.rdf_only_ci95,
                    init_simulations: result.init_simulations,
                    total_simulations: result.total_simulations,
                    points: result.points,
                    reports,
                }),
                oracle,
            ))
        }
    }
}
