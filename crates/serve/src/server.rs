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
//! | `GET /v1/jobs/{id}/trace`  | The job's spans ([`JobTrace`])               |
//! | `DELETE /v1/jobs/{id}`     | Cancel a queued *or running* job             |
//! | `GET /healthz`             | Liveness + protocol version                  |
//! | `GET /readyz`              | Readiness (`503` while replaying/saturated)  |
//! | `GET /metrics`             | Queue/worker/job/cache counters              |
//!
//! # Job table
//!
//! Jobs live in the [`JobTable`] the cluster coordinator uses too: one
//! admission (submission and journal replay alike) and one status,
//! report, trace and cancel read. A worker runs each job under a
//! [`SpanCollector`] and keeps its spans on the job record when the job
//! ends, so the trace lives exactly as long as the job's record. What
//! this module adds is the server's own policy: the bounded queue and
//! its `429` hint, the worker pool, the journal, the cancel of a
//! still-queued job and the deadline watchdog.
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
//!
//! # Metrics
//!
//! Every series `GET /metrics` exports is registered once in the
//! server's own [`MetricsRegistry`]: job counters are incremented where
//! a job changes state, scrape-time values are gauges set from one
//! snapshot, and the text exposition is the registry's own rendering.
//! The JSON [`Metrics`] document reads the same handles, so the two
//! forms agree.
//!
//! [`JobStatus`]: crate::protocol::JobStatus
//! [`JobReport`]: crate::protocol::JobReport
//! [`JobTrace`]: crate::protocol::JobTrace

use crate::http::{
    self, error_response, json_body, with_job_id, FrontDoor, Limits, Request, Response,
};
use crate::jobs::{Job, JobLocal, JobOutput, JobTable};
use crate::journal::{self, Journal, JournalRecord, RecoveredJob};
use crate::protocol::{
    ApiError, EstimateOutcome, JobKind, JobProgress, JobSpec, JobState, Metrics, ScenarioJobCount,
    SubmitRequest, SweepOutcome,
};
use crate::shared::{load_snapshot, save_snapshot};
use ecripse_core::cache::{tag_for, MemoBench, MemoCacheConfig, VerdictStore};
use ecripse_core::ecripse::{Ecripse, EstimateError, RunOptions};
use ecripse_core::observe::{
    ChunkStats, MultiObserver, Observer, RunRecorder, RunReport, RunSummary, SimBatchStats, Stage,
};
use ecripse_core::oracle::OracleStats;
use ecripse_core::rtn_source::SramRtn;
use ecripse_core::scenario::{registry_digest, Scenario, SramScenarioBench};
use ecripse_core::sweep::{DutySweep, ResumableSweep, SweepBench, SweepError, SweepOptions};
use ecripse_core::telemetry::{
    escape_label_value, Counter, Gauge, Histogram, MetricsRegistry, SpanCollector,
    TelemetryObserver,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
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

/// A job on this server; its local part is the live progress the
/// worker's observer feeds while the job runs.
type ServeJob = Job<Arc<ProgressTracker>>;

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

impl JobLocal for Arc<ProgressTracker> {
    fn progress(&self) -> Option<JobProgress> {
        Some(self.snapshot())
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

/// Reads or writes one [`OracleStats`] field.
type OracleField = fn(&mut OracleStats) -> &mut u64;

/// The oracle totals of `/metrics`, summed over completed jobs: one
/// counter per [`OracleStats`] field, registered under its series name
/// and help when it has them. The memo hits and misses and the
/// warm-start seeds reach only the JSON document.
const ORACLE_TOTALS: [(Option<(&str, &str)>, OracleField); 11] = [
    (
        Some((
            "oracle_classified_total",
            "Queries answered by the classifier",
        )),
        |o| &mut o.classified,
    ),
    (
        Some(("oracle_simulated_total", "Queries answered by simulation")),
        |o| &mut o.simulated,
    ),
    (
        Some((
            "oracle_uncertain_simulated_total",
            "Stage-2 simulations triggered by the uncertainty band",
        )),
        |o| &mut o.uncertain_simulated,
    ),
    (
        Some(("oracle_retrains_total", "Classifier retraining rounds")),
        |o| &mut o.retrains,
    ),
    (None, |o| &mut o.cache_hits),
    (None, |o| &mut o.cache_misses),
    (
        Some(("oracle_retries_total", "Retry-ladder attempts")),
        |o| &mut o.retries,
    ),
    (
        Some(("oracle_quarantined_total", "Samples quarantined")),
        |o| &mut o.quarantined,
    ),
    (
        Some((
            "newton_iters_total",
            "Newton iterations (node-current evaluations) spent in the circuit solver",
        )),
        |o| &mut o.newton_iters,
    ),
    (
        Some((
            "factorisations_total",
            "Transfer-curve point solves in the circuit solver (no matrix is factorised)",
        )),
        |o| &mut o.factorisations,
    ),
    (None, |o| &mut o.warm_start_seeds),
];

/// Every series the server exports, each registered once in a
/// per-server [`MetricsRegistry`] (kept off the process-global one so
/// concurrently bound servers — e.g. in tests — stay hermetic): job
/// counters, incremented where a job changes state; gauges, set at bind
/// or by [`collect_metrics`] from its snapshot; histograms; and the core
/// observer bridge that folds every worker's pipeline events into the
/// same registry. `GET /metrics` renders the registry, and the JSON
/// document reads the same handles.
struct ServeTelemetry {
    registry: MetricsRegistry,
    queue_wait_seconds: Histogram,
    job_seconds: Histogram,
    /// Boot-time journal replay duration. A histogram (not a gauge)
    /// so federated scrapes can sum replay cost across restarts.
    journal_replay_seconds: Histogram,
    queue_depth: Gauge,
    queue_capacity: Gauge,
    in_flight: Gauge,
    workers: Gauge,
    cache_entries: Gauge,
    cache_hit_rate: Gauge,
    cache_loaded_entries: Gauge,
    uptime_seconds: Gauge,
    jobs_in_terminal_state: Gauge,
    journal_bytes: Gauge,
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    cancelled_queued: Counter,
    cancelled_running: Counter,
    deadline_exceeded: Counter,
    recovered: Counter,
    journal_compactions: Counter,
    journal_frames_replayed: Counter,
    idempotent_hits: Counter,
    persisted: Counter,
    rejected: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    /// Completed jobs per scenario, in [`Scenario::ALL`] order.
    scenario_jobs: Vec<Counter>,
    /// One counter per [`ORACLE_TOTALS`] row.
    oracle: Vec<Counter>,
    bridge: TelemetryObserver,
}

impl ServeTelemetry {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str, help| registry.counter(&format!("ecripse_serve_{name}"), help);
        let gauge = |name: &str, help| registry.gauge(&format!("ecripse_serve_{name}"), help);
        Self {
            queue_wait_seconds: registry.histogram(
                "ecripse_serve_queue_wait_seconds",
                "Time a job spent queued before a worker picked it up",
            ),
            job_seconds: registry.histogram(
                "ecripse_serve_job_seconds",
                "Wall-clock duration of one job's execution",
            ),
            journal_replay_seconds: registry.histogram(
                "ecripse_serve_journal_replay_duration_seconds",
                "Wall-clock duration of boot-time write-ahead journal replay",
            ),
            queue_depth: gauge("queue_depth", "Jobs waiting in the queue"),
            queue_capacity: gauge("queue_capacity", "Bound of the job queue"),
            in_flight: gauge("in_flight", "Jobs currently executing"),
            workers: gauge("workers", "Size of the worker pool"),
            cache_entries: gauge("cache_entries", "Entries in the process-wide verdict cache"),
            cache_hit_rate: gauge(
                "cache_hit_rate",
                "Verdict-cache hit fraction (NaN before any traffic)",
            ),
            cache_loaded_entries: gauge(
                "cache_loaded_entries",
                "Verdicts restored from the persistent store at startup",
            ),
            uptime_seconds: gauge(
                "uptime_seconds",
                "Seconds since the server bound its socket",
            ),
            jobs_in_terminal_state: gauge(
                "jobs_in_terminal_state",
                "Jobs completed, failed, cancelled or persisted",
            ),
            journal_bytes: gauge(
                "journal_bytes",
                "Current on-disk size of the write-ahead job journal",
            ),
            submitted: counter("submitted_total", "Jobs ever accepted"),
            completed: counter("completed_total", "Jobs finished successfully"),
            failed: counter("failed_total", "Jobs finished with an estimation error"),
            cancelled: counter("cancelled_total", "Jobs cancelled (queued or running)"),
            cancelled_queued: counter(
                "cancelled_queued_total",
                "Cancellations that caught the job still queued",
            ),
            cancelled_running: counter(
                "cancelled_running_total",
                "Cancellations that interrupted a running job",
            ),
            deadline_exceeded: counter(
                "deadline_exceeded_total",
                "Jobs stopped by their wall-clock deadline",
            ),
            recovered: counter(
                "recovered_total",
                "Unfinished jobs re-enqueued from the journal at boot",
            ),
            journal_compactions: counter(
                "journal_compactions_total",
                "Write-ahead journal compactions since startup",
            ),
            journal_frames_replayed: counter(
                "journal_frames_replayed_total",
                "Journal frames decoded during boot replay",
            ),
            idempotent_hits: counter(
                "idempotent_hits_total",
                "Submissions deduplicated by idempotency key",
            ),
            persisted: counter("persisted_total", "Queued sweeps persisted during shutdown"),
            rejected: counter("rejected_total", "Submissions bounced with 429"),
            cache_hits: counter("cache_hits_total", "Verdict-cache hits"),
            cache_misses: counter("cache_misses_total", "Verdict-cache misses"),
            scenario_jobs: Scenario::ALL
                .iter()
                .map(|scenario| {
                    let label = escape_label_value(scenario.id());
                    counter(
                        &format!("scenario_jobs_total{{scenario=\"{label}\"}}"),
                        "Jobs completed successfully, by scenario",
                    )
                })
                .collect(),
            oracle: ORACLE_TOTALS
                .iter()
                .map(|(series, _)| {
                    series.map_or_else(Counter::new, |(name, help)| counter(name, help))
                })
                .collect(),
            bridge: TelemetryObserver::new(&registry),
            registry,
        }
    }

    /// Adds a completed job's oracle counters to the totals: an
    /// estimate's run, or a sweep's reference run and every point.
    fn count_oracle(&self, output: &JobOutput) {
        let runs: Vec<&RunReport> = match output {
            JobOutput::Estimate(estimate) => vec![&estimate.report],
            JobOutput::Sweep(sweep) => std::iter::once(&sweep.reports.rdf_only)
                .chain(&sweep.reports.points)
                .collect(),
        };
        for run in runs {
            let mut stats = run.oracle;
            for ((_, field), counter) in ORACLE_TOTALS.iter().zip(&self.oracle) {
                counter.add(*field(&mut stats));
            }
        }
    }
}

/// Queue and job-table state behind one lock.
struct QueueState {
    queue: VecDeque<u64>,
    /// Every job, rebuilt from the journal at boot (so retries dedup
    /// across restarts too).
    jobs: JobTable<Arc<ProgressTracker>>,
    in_flight: u64,
    draining: bool,
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
    /// The write-ahead job journal, when durability is configured.
    journal: Option<Journal>,
    state: std::sync::Mutex<QueueState>,
    work_ready: std::sync::Condvar,
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
        let mut jobs = JobTable::default();
        for recovered in &recovered_jobs {
            let Ok(job) = jobs.admit(
                Some(recovered.id),
                recovered.request.clone(),
                Arc::default(),
                |_, _| Ok::<(), std::convert::Infallible>(()),
            );
            match &recovered.state {
                // The journal has no wall-clock anchor: an unfinished
                // job's budget restarts from re-acceptance.
                None => queue.push_back(recovered.id),
                Some((state, error)) => {
                    job.state = *state;
                    job.error = error.clone();
                    job.deadline = None;
                }
            }
        }
        // Boot compaction: drop the terminal noise a long-lived journal
        // accumulates (best-effort; the old file stays valid on failure).
        if let Some(journal) = &journal {
            compact(journal, &jobs);
        }
        let telemetry = ServeTelemetry::new();
        if config.journal.is_some() {
            let replay_seconds = replay_started.elapsed().as_secs_f64();
            telemetry.journal_replay_seconds.record(replay_seconds);
        }
        telemetry.recovered.add(queue.len() as u64);
        telemetry.journal_frames_replayed.add(frames_replayed);
        telemetry.cache_loaded_entries.set(cache_loaded as f64);
        telemetry.queue_capacity.set(config.queue_capacity as f64);
        telemetry.workers.set(workers as f64);
        let node = config
            .node
            .clone()
            .unwrap_or_else(|| format!("serve-{}", addr.port()));
        let shared = Arc::new(Shared {
            cache,
            journal,
            config,
            factory: Box::new(factory),
            state: std::sync::Mutex::new(QueueState {
                queue,
                jobs,
                in_flight: 0,
                draining: false,
            }),
            work_ready: std::sync::Condvar::new(),
            ewma_job_seconds: Mutex::new(1.0),
            stop_accepting: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            monitor_stop: AtomicBool::new(false),
            started: Instant::now(),
            telemetry,
            node,
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
                let Ok(job) = state.jobs.get_mut(id) else {
                    continue;
                };
                if persist_queued_sweep(&self.shared, job) {
                    job.state = JobState::Persisted;
                    self.shared.telemetry.persisted.inc();
                    persisted += 1;
                    transitions.push((id, JobState::Persisted));
                } else {
                    job.state = JobState::Cancelled;
                    self.shared.telemetry.cancelled.inc();
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
fn persist_queued_sweep<B: SweepBench>(shared: &Shared<B>, job: &ServeJob) -> bool {
    let request = &job.request;
    if request.job.kind != JobKind::Sweep {
        return false;
    }
    let Some(path) = spool_path(shared, job.id) else {
        return false;
    };
    let Some(alphas) = request.job.alphas.clone() else {
        return false;
    };
    let bench = job_bench(shared, request.scenario, &request.job);
    let mut sweep = DutySweep::new(request.config, bench, alphas);
    if let Some(indices) = request.job.alpha_indices.clone() {
        sweep = sweep.with_point_indices(indices);
    }
    sweep.ensure_checkpoint(&path).is_ok()
}

/// Rewrites `journal` to the live set of `jobs`, in id order:
/// queued, running and persisted jobs as unfinished submissions,
/// finished keyed jobs with their terminal state (see
/// [`journal::live_records`]). Best-effort: a failed compaction leaves
/// the (valid, just larger) old journal in place.
fn compact<T>(journal: &Journal, jobs: &JobTable<T>) {
    let mut live: Vec<RecoveredJob> = jobs
        .iter()
        .map(|job| RecoveredJob {
            id: job.id,
            request: job.request.clone(),
            state: match job.state {
                // Persisted means "resumable checkpoint on disk" — the
                // journal must re-enqueue it next boot.
                JobState::Queued | JobState::Running | JobState::Persisted => None,
                state => Some((state, job.error.clone())),
            },
        })
        .collect();
    live.sort_unstable_by_key(|job| job.id);
    if let Err(error) = journal.compact(&journal::live_records(&live)) {
        eprintln!("ecripse-serve: journal compaction failed: {error} (keeping old file)");
    }
}

/// Compacts the journal from the current job table.
///
/// The state lock is held across the rewrite: submissions append their
/// journal frame under the same lock, so a compaction can never
/// snapshot the table *before* a submission and rename *after* its
/// append — which would silently discard an acknowledged job.
fn compact_journal<B>(shared: &Shared<B>) {
    if let Some(journal) = &shared.journal {
        compact(journal, &lock_state(shared).jobs);
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

/// Ends a queued job whose deadline passed before a worker took it:
/// the terminal state, its message and the counter. The caller
/// journals the returned error with [`journal_terminal`] once the state
/// lock is released.
fn expire_queued<B>(shared: &Shared<B>, job: &mut ServeJob) -> Option<String> {
    job.state = JobState::DeadlineExceeded;
    job.error = Some(format!(
        "deadline of {}ms exceeded while queued",
        job.request.deadline_ms.unwrap_or(0)
    ));
    shared.telemetry.deadline_exceeded.inc();
    job.error.clone()
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
                .filter(|&id| {
                    state
                        .jobs
                        .get(id)
                        .is_ok_and(|job| job.deadline.is_some_and(|deadline| deadline <= now))
                })
                .collect();
            for id in due {
                state.queue.retain(|&queued| queued != id);
                if let Ok(job) = state.jobs.get_mut(id) {
                    expired.push((id, expire_queued(shared, job)));
                }
            }
            for job in state.jobs.iter_mut() {
                if job.state == JobState::Running
                    && job.deadline.is_some_and(|deadline| deadline <= now)
                {
                    job.stop.store(true, Ordering::SeqCst);
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
        ("GET", ["v1", "jobs", id]) => with_job_id(id, |id| {
            let state = lock_state(shared);
            let status = state.jobs.get(id)?.status(queue_position(&state, id));
            Ok(Response::json(200, json_body(&status)))
        }),
        ("GET", ["v1", "jobs", id, "report"]) => {
            with_job_id(id, |id| lock_state(shared).jobs.report_response(id))
        }
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
    let request = match http::parse_submission(http_request, "server") {
        Ok(request) => request,
        Err(response) => return response,
    };

    let mut guard = lock_state(shared);
    let state = &mut *guard;
    // Idempotency first: a retry of an already-accepted submission must
    // succeed even while draining or saturated — the work is already
    // accounted for. `200` (not `202`): nothing new was accepted.
    if let Some(existing) = state.jobs.duplicate(&request) {
        shared.telemetry.idempotent_hits.inc();
        let status = existing.status(queue_position(state, existing.id));
        return Response::json(200, json_body(&status));
    }
    if state.draining || shared.stop_accepting.load(Ordering::SeqCst) {
        return error_response(
            503,
            "shutting_down",
            "server is draining; resubmit elsewhere",
        );
    }
    if state.queue.len() >= shared.config.queue_capacity {
        shared.telemetry.rejected.inc();
        let hint = retry_after_seconds(shared, state);
        let mut body = ApiError::new("queue_full", "job queue is full; retry later");
        body.retry_after_seconds = Some(hint);
        return Response::json(429, json_body(&body)).with_header("retry-after", hint.to_string());
    }
    // Durability point: the submission, with its resolved trace (so
    // recovery resumes the identical trace), reaches the fsync'd
    // journal *before* any acknowledgement leaves the server — and
    // before the job is visible anywhere else. Held under the state
    // lock so a concurrent compaction (which also takes it) can never
    // discard this frame without having seen the job in the table.
    let admitted = state
        .jobs
        .admit(None, request, Arc::default(), |id, request| {
            match &shared.journal {
                Some(journal) => journal.append(&JournalRecord::submitted(id, request.clone())),
                None => Ok(()),
            }
        });
    let job = match admitted {
        Ok(job) => job,
        Err(e) => {
            let message = format!("could not journal submission: {e}");
            return error_response(500, "journal_error", message);
        }
    };
    state.queue.push_back(job.id);
    let status = job.status(Some(state.queue.len() as u64 - 1));
    drop(guard);
    shared.telemetry.submitted.inc();
    shared.work_ready.notify_one();
    Response::json(202, json_body(&status))
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

/// Where job `id` waits in the queue, if it does.
fn queue_position(state: &QueueState, id: u64) -> Option<u64> {
    let position = state.queue.iter().position(|&queued| queued == id)?;
    Some(position as u64)
}

/// `GET /v1/jobs/{id}/trace`: the span timeline this node recorded for
/// one job. Empty until the worker finishes (the collector folds stage
/// events into spans only at job end); `404` for unknown ids.
fn trace_document<B>(shared: &Shared<B>, id: u64) -> Result<Response, Response> {
    let document = lock_state(shared).jobs.get(id)?.trace_document();
    Ok(Response::json(200, json_body(&document)))
}

/// `DELETE /v1/jobs/{id}`: a queued job leaves the queue at once
/// (`200`, journaled); any other goes to [`JobTable::cancel_response`]
/// (a running job is cancelled cooperatively with `202`).
fn cancel<B>(shared: &Shared<B>, id: u64) -> Result<Response, Response> {
    let mut state = lock_state(shared);
    let job = state.jobs.get_mut(id)?;
    if job.state != JobState::Queued {
        return state.jobs.cancel_response(id);
    }
    let error = "cancelled while queued".to_string();
    job.state = JobState::Cancelled;
    job.error = Some(error.clone());
    let status = job.status(None);
    state.queue.retain(|&queued| queued != id);
    drop(state);
    shared.telemetry.cancelled.inc();
    shared.telemetry.cancelled_queued.inc();
    journal_terminal(shared, id, JobState::Cancelled, Some(error));
    Ok(Response::json(200, json_body(&status)))
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

/// One snapshot of the server: the JSON document, read off the
/// registry's handles and the live state, with the scrape-time gauges
/// (and the counters mirrored from the verdict store and the journal)
/// set from the same values, so the Prometheus exposition and the
/// document agree.
fn collect_metrics<B>(shared: &Shared<B>) -> Metrics {
    let t = &shared.telemetry;
    let (queue_depth, in_flight) = {
        let state = lock_state(shared);
        (state.queue.len() as u64, state.in_flight)
    };
    let completed = t.completed.get();
    let failed = t.failed.get();
    let cancelled = t.cancelled.get();
    let deadline_exceeded = t.deadline_exceeded.get();
    let persisted = t.persisted.get();
    let mut oracle = OracleStats::default();
    for ((_, field), counter) in ORACLE_TOTALS.iter().zip(&t.oracle) {
        *field(&mut oracle) = counter.get();
    }
    let metrics = Metrics {
        queue_depth,
        queue_capacity: shared.config.queue_capacity as u64,
        in_flight,
        workers: shared.config.workers.max(1) as u64,
        submitted: t.submitted.get(),
        completed,
        failed,
        cancelled,
        cancelled_queued: t.cancelled_queued.get(),
        cancelled_running: t.cancelled_running.get(),
        deadline_exceeded,
        recovered: t.recovered.get(),
        idempotent_hits: t.idempotent_hits.get(),
        persisted,
        rejected: t.rejected.get(),
        cache_entries: shared.cache.len() as u64,
        cache_hits: shared.cache.hits(),
        cache_misses: shared.cache.misses(),
        cache_hit_rate: shared.cache.hit_rate(),
        cache_loaded_entries: t.cache_loaded_entries.get() as u64,
        journal_compactions_total: shared.journal.as_ref().map_or(0, Journal::compactions),
        journal_frames_replayed_total: t.journal_frames_replayed.get(),
        journal_bytes: shared.journal.as_ref().map_or(0, Journal::bytes),
        journal_replay_duration_seconds: t.journal_replay_seconds.sum(),
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        jobs_in_terminal_state: completed + failed + cancelled + deadline_exceeded + persisted,
        scenario_jobs: Scenario::ALL
            .iter()
            .zip(&t.scenario_jobs)
            .map(|(scenario, counter)| ScenarioJobCount {
                scenario: scenario.id().to_string(),
                completed: counter.get(),
            })
            .collect(),
        oracle,
    };
    t.queue_depth.set(queue_depth as f64);
    t.in_flight.set(in_flight as f64);
    t.cache_entries.set(metrics.cache_entries as f64);
    t.cache_hit_rate
        .set(metrics.cache_hit_rate.unwrap_or(f64::NAN));
    t.uptime_seconds.set(metrics.uptime_seconds);
    t.jobs_in_terminal_state
        .set(metrics.jobs_in_terminal_state as f64);
    t.journal_bytes.set(metrics.journal_bytes as f64);
    t.cache_hits.advance_to(metrics.cache_hits);
    t.cache_misses.advance_to(metrics.cache_misses);
    t.journal_compactions
        .advance_to(metrics.journal_compactions_total);
    metrics
}

/// Serves `GET /metrics`: the registry's Prometheus text exposition
/// when the client's `Accept` header asks for `text/plain`, the JSON
/// document otherwise. Both follow one [`collect_metrics`] snapshot.
fn metrics_response<B>(shared: &Shared<B>, request: &Request) -> Response {
    let metrics = collect_metrics(shared);
    if http::wants_prometheus(request) {
        Response::text(200, shared.telemetry.registry.render_prometheus())
    } else {
        Response::json(200, json_body(&metrics))
    }
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
        let (id, request, progress, deadline, stop, trace) = {
            let mut state = lock_state(shared);
            loop {
                if let Some(id) = state.queue.pop_front() {
                    let Ok(job) = state.jobs.get_mut(id) else {
                        continue;
                    };
                    // The watchdog polls every 20ms; a budget that ran
                    // out in between is caught here instead of wasting
                    // a worker on a job that's already dead.
                    if job
                        .deadline
                        .is_some_and(|deadline| deadline <= Instant::now())
                    {
                        let error = expire_queued(shared, job);
                        drop(state);
                        journal_terminal(shared, id, JobState::DeadlineExceeded, error);
                        state = lock_state(shared);
                        continue;
                    }
                    job.state = JobState::Running;
                    shared
                        .telemetry
                        .queue_wait_seconds
                        .record(job.accepted_at.elapsed().as_secs_f64());
                    let taken = (
                        id,
                        job.request.clone(),
                        Arc::clone(&job.local),
                        job.deadline,
                        Arc::clone(&job.stop),
                        job.trace(),
                    );
                    state.in_flight += 1;
                    break taken;
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
        // or without tracing; its spans are kept on the job record win
        // or lose, so a failed job still shows where its time went.
        let collector = SpanCollector::new(trace, shared.node.clone());
        let outcome = execute(shared, id, &request, &progress, &stop, &collector);
        let spans = collector.finish();
        let elapsed = started.elapsed().as_secs_f64();
        shared.telemetry.job_seconds.record(elapsed);
        {
            let mut per_job = shared.ewma_job_seconds.lock();
            *per_job = 0.7 * *per_job + 0.3 * elapsed;
        }
        let mut terminal: Option<(JobState, Option<String>)> = None;
        let mut state = lock_state(shared);
        state.in_flight -= 1;
        if let Ok(job) = state.jobs.get_mut(id) {
            job.spans = spans;
            match outcome {
                Ok(output) => {
                    let t = &shared.telemetry;
                    t.completed.inc();
                    if let Some(index) = Scenario::ALL.iter().position(|&s| s == request.scenario) {
                        t.scenario_jobs[index].inc();
                    }
                    t.count_oracle(&output);
                    job.state = JobState::Completed;
                    job.output = Some(output);
                    terminal = Some((JobState::Completed, None));
                }
                Err(JobFailure::Interrupted) => {
                    // One stop flag, two causes: a budget that ran out
                    // (watchdog) or an explicit DELETE. The deadline
                    // disambiguates.
                    let expired = deadline.is_some_and(|deadline| deadline <= Instant::now());
                    if expired {
                        job.state = JobState::DeadlineExceeded;
                        job.error = Some(format!(
                            "deadline of {}ms exceeded while running",
                            request.deadline_ms.unwrap_or(0)
                        ));
                        shared.telemetry.deadline_exceeded.inc();
                    } else {
                        job.state = JobState::Cancelled;
                        job.error = Some("cancelled while running".to_string());
                        shared.telemetry.cancelled.inc();
                        shared.telemetry.cancelled_running.inc();
                    }
                    terminal = Some((job.state, job.error.clone()));
                }
                Err(JobFailure::Error(message)) => {
                    job.state = JobState::Failed;
                    job.error = Some(message);
                    shared.telemetry.failed.inc();
                    terminal = Some((JobState::Failed, job.error.clone()));
                }
            }
        }
        drop(state);
        if let Some((state, error)) = terminal {
            journal_terminal(shared, id, state, error);
        }
    }
}

/// Runs one job through the exact pipeline of a direct library call.
/// Panics inside the estimation stack (dimension mismatches from exotic
/// bench factories, …) are caught and reported as job failures so a bad
/// job can never take a worker down.
fn execute<B: SweepBench + 'static>(
    shared: &Shared<B>,
    id: u64,
    request: &SubmitRequest,
    progress: &ProgressTracker,
    stop: &AtomicBool,
    collector: &SpanCollector,
) -> Result<JobOutput, JobFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_inner(shared, id, request, progress, stop, collector)
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

fn execute_inner<B: SweepBench + 'static>(
    shared: &Shared<B>,
    id: u64,
    request: &SubmitRequest,
    progress: &ProgressTracker,
    stop: &AtomicBool,
    collector: &SpanCollector,
) -> Result<JobOutput, JobFailure> {
    let (spec, config) = (&request.job, request.config);
    let bench = job_bench(shared, request.scenario, spec);
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
            Ok(JobOutput::Estimate(EstimateOutcome {
                p_fail: result.p_fail,
                ci95_half_width: result.ci95_half_width,
                simulations: result.simulations,
                is_samples: result.is_samples,
                report: recorder.into_report(),
            }))
        }
        JobKind::Sweep => {
            let alphas = spec.alphas.clone().unwrap_or_default();
            // A shard seeds its points by global index (the spec was
            // validated at submit time, so the panics cannot fire).
            let mut sweep = DutySweep::new(config, bench, alphas);
            if let Some(indices) = spec.alpha_indices.clone() {
                sweep = sweep.with_point_indices(indices);
            }
            // An interrupted sweep keeps its spool checkpoint: a later
            // durable boot re-enqueues the job (if it was a deadline,
            // the budget restarts) and the finished points resume
            // bit-identically instead of recomputing.
            let map_sweep = |e: SweepError| match e {
                SweepError::Interrupted { .. } => JobFailure::Interrupted,
                other => JobFailure::Error(other.to_string()),
            };
            let checkpoint = spool_path(shared, id);
            if let Some(path) = &checkpoint {
                // The file under this id may be another sweep's: one a
                // journal-less process persisted at shutdown, or one
                // whose compacted-away record freed the id. Only a
                // checkpoint of this sweep is resumed.
                sweep.ensure_checkpoint(path).map_err(map_sweep)?;
            }
            let options = SweepOptions {
                checkpoint,
                resume: true,
                keep_going: false,
                observer: &side,
                stop: Some(stop),
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
            Ok(JobOutput::Sweep(SweepOutcome {
                p_fail_rdf_only: result.p_fail_rdf_only,
                rdf_only_ci95: result.rdf_only_ci95,
                init_simulations: result.init_simulations,
                total_simulations: result.total_simulations,
                points: result.points,
                reports,
            }))
        }
    }
}
