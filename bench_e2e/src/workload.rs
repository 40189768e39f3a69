//! The three workloads and the closed loops that run them.
//!
//! Every workload calls only the program's public entry points:
//! `Ecripse::with_rtn` for library jobs, and `Server::bind_with` plus
//! `Client` for served jobs. Servers run in this process on loopback.
//! Job `k` of a run with seed `S` uses RNG seed `S + k`, so a seed fixes
//! every input.

use crate::timed::{unix_now, Probe, Timed};
use ecripse_core::ecripse::{Ecripse, EcripseConfig};
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::observe::{MultiObserver, RunRecorder, RunReport};
use ecripse_core::rtn_source::SramRtn;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::sweep::SweepBench;
use ecripse_core::telemetry::{SpanCollector, SpanRecord, TraceContext};
use ecripse_serve::protocol::{JobReport, JobSpec, JobState, SubmitRequest};
use ecripse_serve::{Client, ClientError, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential RTN-aware library estimates.
    EstimateRtn,
    /// RDF-only jobs with unique seeds through a journaled server.
    ServeCold,
    /// Resubmissions of a four-job pool against a warmed verdict store.
    ServeWarm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::EstimateRtn,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EstimateRtn => "estimate-rtn",
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs in a run meant to last about `seconds`. The count comes from
    /// `seconds` and a per-job time measured once on a 2-core x86-64
    /// box, never from the clock, so a faster commit runs the same jobs
    /// as a slower one. It is at least one rotation, so every duty ratio
    /// or scenario runs.
    pub fn jobs(self, seconds: f64) -> u64 {
        let job_s = match self {
            Workload::EstimateRtn => JOB_S_ESTIMATE,
            Workload::ServeCold => JOB_S_SERVE_COLD,
            Workload::ServeWarm => JOB_S_SERVE_WARM,
        };
        ((seconds / job_s).round() as u64).max(ROTATION)
    }
}

/// Wall seconds each workload's job adds to its timed loop (two clients
/// share the served loops), as measured with [`Sizes::sram`].
const JOB_S_ESTIMATE: f64 = 6.2;
const JOB_S_SERVE_COLD: f64 = 2.0;
const JOB_S_SERVE_WARM: f64 = 0.09;

/// Library jobs rotate over four duty ratios, served jobs over the four
/// registered scenarios.
const ROTATION: u64 = 4;
/// Duty ratios the library jobs rotate over.
const ESTIMATE_ALPHAS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];
/// Supply voltage of every timed job.
const VDD: f64 = 0.7;
/// Supply of the warm-up jobs: its own verdict-store tag, so no warm-up
/// verdict ever answers a timed job.
const WARMUP_VDD: f64 = 0.75;
/// Served jobs are polled this often. `Client::wait` backs off to
/// 500 ms, which would round a fast job up by as much as half a second.
const POLL: Duration = Duration::from_millis(5);
/// A job still running after this long is cancelled and counted failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(90);

/// Estimator settings of each workload's jobs; the workloads fill in the
/// seed, and the scenario and its search radius for served jobs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// An `estimate-rtn` job.
    pub estimate: EcripseConfig,
    /// A `serve-cold` or `serve-warm` job (RDF-only).
    pub served: EcripseConfig,
    /// The small job each set-up runs once through its entry point.
    pub warmup: EcripseConfig,
}

impl Sizes {
    /// The sizes the benchmark runs on the paper's cell: the CLI
    /// `estimate` and `submit --no-rtn` defaults.
    pub fn sram() -> Self {
        let defaults = EcripseConfig::default();
        Self {
            estimate: defaults,
            served: served(defaults),
            warmup: small_config(),
        }
    }

    /// Toy sizes for the smoke test: every stage runs, in milliseconds.
    #[cfg(test)]
    pub fn toy() -> Self {
        Self {
            estimate: small_config(),
            served: served(small_config()),
            warmup: small_config(),
        }
    }
}

/// A served job: the CLI's `--no-rtn` settings (one RTN draw per
/// particle and sample), run on one thread. A library call has the
/// machine to itself and uses every core; the server runs two jobs at
/// once on two workers, and one thread each keeps the busy threads at
/// the core count. Results are bit-identical at any thread count.
fn served(mut config: EcripseConfig) -> EcripseConfig {
    config.importance.m_rtn = 1;
    config.m_rtn_stage1 = 1;
    config.threads = 1;
    config
}

/// A small but complete estimator configuration (every stage runs).
fn small_config() -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 12,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        },
        iterations: 3,
        importance: ImportanceConfig {
            n_samples: 200,
            m_rtn: 4,
            trace_every: 0,
        },
        m_rtn_stage1: 2,
        ..EcripseConfig::default()
    }
}

/// Builds the bench a job evaluates, for the node that runs it.
pub trait Benches: Clone + Send + Sync + 'static {
    /// The bench type.
    type Bench: SweepBench + 'static;
    /// Whether jobs built from these benches are traced.
    const TRACED: bool = false;
    /// The bench for `scenario` at supply `vdd`, evaluated on `node`.
    fn build(&self, node: &str, scenario: Scenario, vdd: f64) -> Self::Bench;
}

/// The paper's cell: what `Server::bind` builds.
#[derive(Debug, Clone, Copy)]
pub struct Sram;

impl Benches for Sram {
    type Bench = SramScenarioBench;
    fn build(&self, _node: &str, scenario: Scenario, vdd: f64) -> SramScenarioBench {
        SramScenarioBench::at_vdd(scenario, vdd)
    }
}

/// Wraps every bench in [`Timed`], logging into one probe.
#[derive(Debug, Clone)]
pub struct Traced<K> {
    /// The benches being traced.
    pub inner: K,
    /// Where the call logs go.
    pub probe: Probe,
}

impl<K: Benches> Benches for Traced<K> {
    type Bench = Timed<K::Bench>;
    const TRACED: bool = true;
    fn build(&self, node: &str, scenario: Scenario, vdd: f64) -> Self::Bench {
        self.probe.wrap(self.inner.build(node, scenario, vdd), node)
    }
}

/// What a completed job returned.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The `P_fail` estimate.
    pub p_fail: f64,
    /// Its 95 % CI half-width.
    pub ci95: f64,
    /// Transistor-level simulations, as the paper counts them.
    pub simulations: u64,
    /// The run report the program returned (none for untraced library
    /// calls, which return no report).
    pub report: Option<RunReport>,
    /// Size of the report document on the wire (0 for library calls).
    pub report_bytes: usize,
}

impl Outcome {
    /// The bits two runs of the same job must agree on.
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        (self.p_fail.to_bits(), self.ci95.to_bits(), self.simulations)
    }

    /// CI half-width / `P_fail`.
    pub fn rel_err(&self) -> f64 {
        self.ci95 / self.p_fail
    }

    fn check(&self) -> Result<(), String> {
        if self.p_fail.is_finite() && (0.0..=1.0).contains(&self.p_fail) && self.simulations > 0 {
            Ok(())
        } else {
            Err(format!(
                "implausible result: P_fail {}, {} simulations",
                self.p_fail, self.simulations
            ))
        }
    }
}

/// Client-side timings of a served job.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeTimes {
    /// Duration of the submit call.
    pub submit_s: f64,
    /// Unix seconds when the submit call returned.
    pub submitted_at: f64,
    /// Duration of the report fetch once the job was terminal.
    pub report_s: f64,
    /// Whether the server bounced the submission with 429.
    pub rejected: bool,
}

/// One timed job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job index within the run.
    pub k: u64,
    /// From call to return, or submit to report in hand.
    pub time: Timing,
    /// The result, or why the job failed.
    pub result: Result<Outcome, String>,
    /// Client-side timings of served jobs.
    pub serve: Option<ServeTimes>,
    /// The program's spans for the job (traced passes only).
    pub spans: Vec<SpanRecord>,
}

/// Verdict-store counters over a timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Verdict-store hits.
    pub store_hits: u64,
    /// Verdict-store misses.
    pub store_misses: u64,
    /// Verdict-store entries at the end.
    pub store_entries: u64,
}

/// One set-up plus one closed loop of jobs.
#[derive(Debug)]
pub struct Pass {
    /// Each set-up.
    pub setups: Vec<Timing>,
    /// The timed jobs, by index.
    pub jobs: Vec<Job>,
    /// From the first job's start to the last job's return.
    pub window: Timing,
    /// Process CPU seconds (user + system) over the window.
    pub cpu_s: f64,
    /// Layer counters over the window.
    pub counters: Counters,
    /// Broken output contracts (each counts as a failed job).
    pub violations: Vec<String>,
}

impl Pass {
    /// Jobs that completed with a plausible result.
    pub fn completed(&self) -> impl Iterator<Item = (&Job, &Outcome)> {
        self.jobs
            .iter()
            .filter_map(|job| job.result.as_ref().ok().map(|o| (job, o)))
    }

    /// Failed jobs plus contract violations.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_err()).count() + self.violations.len()
    }
}

/// Sets up `workload`, runs a closed loop of jobs `0..jobs`, and times
/// `setups` set-ups in all. `scratch` holds the journal and the verdict
/// store.
///
/// # Errors
///
/// A set-up that fails (bind, warm-up or pool job) ends the pass.
pub fn run<K: Benches>(
    workload: Workload,
    sizes: &Sizes,
    benches: &K,
    seed: u64,
    jobs: u64,
    setups: usize,
    scratch: &Path,
) -> Result<Pass, String> {
    match workload {
        Workload::EstimateRtn => run_library(sizes, benches, seed, jobs, setups),
        Workload::ServeCold | Workload::ServeWarm => {
            run_served(workload, sizes, benches, seed, jobs, setups, scratch)
        }
    }
}

/// Sets a rig up, runs `jobs` on it and tears it down, then times
/// `setups - 1` more set-ups, each torn down at once. Set-ups on both
/// sides of the jobs keep `setup_s` from resting on one moment of a
/// machine whose speed drifts.
fn with_setups<R>(
    setups: usize,
    mut set_up: impl FnMut(usize) -> Result<R, String>,
    tear_down: impl Fn(R),
    jobs: impl FnOnce(&R) -> Result<Pass, String>,
) -> Result<Pass, String> {
    let mut timed_set_up = |rep| {
        let watch = Stopwatch::start();
        set_up(rep).map(|rig| (watch.stop(), rig))
    };
    let (first, rig) = timed_set_up(0)?;
    let pass = jobs(&rig);
    tear_down(rig);
    let pass = pass?;
    let mut times = vec![first];
    for rep in 1..setups {
        let (time, rig) = timed_set_up(rep)?;
        tear_down(rig);
        times.push(time);
    }
    Ok(Pass {
        setups: times,
        ..pass
    })
}

/// Runs jobs `0..jobs` on `clients` threads. Each client takes the next
/// index only when its previous job has returned (a closed loop). The
/// pass has no set-up times, counters or violations yet.
fn closed_loop(clients: usize, jobs: u64, job: impl Fn(u64) -> Job + Sync) -> Pass {
    let next = AtomicU64::new(0);
    let done = Mutex::new(Vec::new());
    let cpu_start = process_cpu_seconds();
    let watch = Stopwatch::start();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= jobs {
                    return;
                }
                let finished = job(k);
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(finished);
            });
        }
    });
    let window = watch.stop();
    let cpu_s = process_cpu_seconds() - cpu_start;
    let mut finished = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    finished.sort_by_key(|j| j.k);
    Pass {
        setups: Vec::new(),
        jobs: finished,
        window,
        cpu_s,
        counters: Counters::default(),
        violations: Vec::new(),
    }
}

/// Client threads for served workloads: one per core, at most two.
fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

// ---------------------------------------------------------------- library

/// The configuration and duty ratio of `estimate-rtn` job `k`.
fn estimate_job(sizes: &Sizes, seed: u64, k: u64) -> (EcripseConfig, f64) {
    let mut config = sizes.estimate;
    config.seed = seed.wrapping_add(k);
    (config, ESTIMATE_ALPHAS[(k % 4) as usize])
}

fn run_library<K: Benches>(
    sizes: &Sizes,
    benches: &K,
    seed: u64,
    jobs: u64,
    setups: usize,
) -> Result<Pass, String> {
    // Set-up for a library caller: build the bench and pay the first
    // call (code paging, allocator growth) on a small job.
    with_setups(
        setups,
        |_| {
            let mut config = sizes.warmup;
            config.seed = seed;
            let bench = benches.build("library", Scenario::ReadSnm, WARMUP_VDD);
            let rtn = SramRtn::paper_model(0.5, bench.sigmas());
            Ecripse::with_rtn(config, bench, rtn)
                .estimate()
                .map(|_| ())
                .map_err(|e| format!("warm-up estimate: {e}"))
        },
        drop,
        |()| {
            Ok(closed_loop(1, jobs, |k| {
                let (config, alpha) = estimate_job(sizes, seed, k);
                library_job(benches, config, alpha, k)
            }))
        },
    )
}

fn library_job<K: Benches>(benches: &K, config: EcripseConfig, alpha: f64, k: u64) -> Job {
    let watch = Stopwatch::start();
    // The program's own span recorder, used as a served job uses it: it
    // opens the job span just before the bench is built.
    let collector =
        K::TRACED.then(|| SpanCollector::new(TraceContext::for_job(k, config.seed), "library"));
    let bench = benches.build("library", config.scenario, VDD);
    let rtn = SramRtn::paper_model(alpha, bench.sigmas());
    let run = Ecripse::with_rtn(config, bench, rtn);
    let mut report = None;
    let mut spans = Vec::new();
    let result = match collector {
        Some(collector) => {
            let recorder = RunRecorder::new();
            let result = {
                let mut observers = MultiObserver::new();
                observers.push(&recorder);
                observers.push(&collector);
                run.estimate_observed(&observers)
            };
            report = Some(recorder.into_report());
            spans = collector.finish();
            result
        }
        None => run.estimate(),
    };
    let time = watch.stop();
    let result = result
        .map_err(|e| format!("estimate: {e}"))
        .map(|r| Outcome {
            p_fail: r.p_fail,
            ci95: r.ci95_half_width,
            simulations: r.simulations,
            report,
            report_bytes: 0,
        })
        .and_then(|o| o.check().map(|()| o));
    Job {
        k,
        time,
        result,
        serve: None,
        spans,
    }
}

// ----------------------------------------------------------------- served

/// `serve-cold` job `k`, which is also `serve-warm` pool job `k`: an
/// RDF-only estimate with the CLI `submit` defaults, rotating over the
/// registered scenarios.
fn served_request(sizes: &Sizes, seed: u64, k: u64) -> SubmitRequest {
    let scenario = Scenario::ALL[(k % 4) as usize];
    let mut config = sizes.served;
    config.initial.r_max = config.initial.r_max.max(scenario.recommended_r_max());
    config.seed = seed.wrapping_add(k);
    SubmitRequest::with_scenario(scenario, config, JobSpec::rdf_only(VDD))
}

/// Pool size of `serve-warm`: one job per scenario.
const POOL: u64 = 4;

struct ServeRig<B: SweepBench + 'static> {
    server: Server<B>,
    journal: Option<PathBuf>,
}

fn tear_down_server<B: SweepBench + 'static>(rig: ServeRig<B>) {
    rig.server.shutdown();
    if let Some(path) = rig.journal {
        let _ = std::fs::remove_file(path);
    }
}

fn run_served<K: Benches>(
    workload: Workload,
    sizes: &Sizes,
    benches: &K,
    seed: u64,
    jobs: u64,
    setups: usize,
    scratch: &Path,
) -> Result<Pass, String> {
    let warm = workload == Workload::ServeWarm;
    let clients = client_threads();
    with_setups(
        setups,
        |rep| {
            let journal = (!warm).then(|| scratch.join(format!("journal-{rep}.wal")));
            let config = ServeConfig {
                workers: 2,
                journal: journal.clone(),
                node: Some("serve".to_string()),
                ..ServeConfig::default()
            };
            let factory = benches.clone();
            let server = Server::bind_with("127.0.0.1:0", config, move |scenario, vdd| {
                factory.build("serve", scenario, vdd)
            })
            .map_err(|e| format!("bind server: {e}"))?;
            let client = Client::new(server.local_addr().to_string());
            let mut request = SubmitRequest::new(sizes.warmup, JobSpec::rdf_only(WARMUP_VDD));
            request.config.seed = seed;
            if let Err(e) = served_job(&client, &request, 0, false).result {
                tear_down_server(ServeRig { server, journal });
                return Err(format!("warm-up job: {e}"));
            }
            Ok(ServeRig { server, journal })
        },
        tear_down_server,
        |rig| {
            let client = Client::new(rig.server.local_addr().to_string());
            // serve-warm: fill the store, untimed, by running the pool
            // cold, the clients splitting it between them. It is left out
            // of set-up because it is serve-cold's work, and three cold
            // pool runs a run would cost more than the timed jobs.
            let mut pool = Vec::new();
            if warm {
                let filled = closed_loop(clients, POOL, |k| {
                    served_job(&client, &served_request(sizes, seed, k), k, false)
                });
                for job in filled.jobs {
                    pool.push(job.result.map_err(|e| format!("pool job {}: {e}", job.k))?);
                }
            }
            let before = rig.server.metrics();
            let pass = closed_loop(clients, jobs, |k| {
                let request = if warm {
                    served_request(sizes, seed, k % POOL)
                } else {
                    served_request(sizes, seed, k)
                };
                served_job(&client, &request, k, K::TRACED)
            });
            let after = rig.server.metrics();
            let counters = Counters {
                store_hits: after.cache_hits - before.cache_hits,
                store_misses: after.cache_misses - before.cache_misses,
                store_entries: after.cache_entries,
            };
            // Contract: a warm resubmission is bit-equal to its cold
            // first run.
            let violations = pass
                .jobs
                .iter()
                .filter(|job| {
                    job.result.as_ref().is_ok_and(|outcome| {
                        warm && outcome.fingerprint() != pool[(job.k % POOL) as usize].fingerprint()
                    })
                })
                .map(|job| format!("serve-warm job {} differs from its cold first run", job.k))
                .collect();
            Ok(Pass {
                counters,
                violations,
                ..pass
            })
        },
    )
}

/// Submits `request`, polls its status every [`POLL`], and fetches the
/// report once the job is terminal (and its trace when `traced`).
fn served_job(client: &Client, request: &SubmitRequest, k: u64, traced: bool) -> Job {
    let watch = Stopwatch::start();
    let mut times = ServeTimes::default();
    let mut spans = Vec::new();
    let result = submit_and_wait(client, request, watch.started, &mut times);
    let time = watch.stop();
    let result = result.and_then(|(id, report)| {
        if traced {
            spans = client.trace(id).map_err(|e| format!("trace: {e}"))?.spans;
        }
        outcome_of(report)
    });
    Job {
        k,
        time,
        result,
        serve: Some(times),
        spans,
    }
}

fn submit_and_wait(
    client: &Client,
    request: &SubmitRequest,
    started: Instant,
    times: &mut ServeTimes,
) -> Result<(u64, JobReport), String> {
    let submitted = client.submit(request).map_err(|e| {
        times.rejected = matches!(e, ClientError::Busy { .. });
        format!("submit: {e}")
    })?;
    times.submit_s = started.elapsed().as_secs_f64();
    times.submitted_at = unix_now();
    loop {
        let status = client
            .status(submitted.id)
            .map_err(|e| format!("status: {e}"))?;
        if status.state.is_terminal() {
            break;
        }
        if started.elapsed() > JOB_TIMEOUT {
            let _ = client.cancel(submitted.id);
            return Err(format!("timed out after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
    }
    let fetch = Instant::now();
    let report = client
        .report(submitted.id)
        .map_err(|e| format!("report: {e}"))?;
    times.report_s = fetch.elapsed().as_secs_f64();
    Ok((submitted.id, report))
}

fn outcome_of(report: JobReport) -> Result<Outcome, String> {
    if report.state != JobState::Completed {
        return Err(format!(
            "job ended {}: {}",
            report.state,
            report.error.as_deref().unwrap_or("no error recorded")
        ));
    }
    let report_bytes = serde_json::to_string(&report).map_or(0, |s| s.len());
    let estimate = report.estimate.ok_or("completed job carried no estimate")?;
    let outcome = Outcome {
        p_fail: estimate.p_fail,
        ci95: estimate.ci95_half_width,
        simulations: estimate.simulations,
        report: Some(estimate.report),
        report_bytes,
    };
    outcome.check()?;
    Ok(outcome)
}

// ------------------------------------------------------------------ clock

/// A stretch of wall time and the steal time inside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall seconds.
    pub wall_s: f64,
    /// Seconds per CPU that the hypervisor ran another guest while this
    /// machine's CPU had work (steal time).
    pub steal_s: f64,
}

impl Timing {
    /// Wall seconds less steal time: how long the stretch took on the
    /// CPU time this machine was given. Nothing else runs in the
    /// benchmark's machine, so a CPU with work has the benchmark's work.
    pub fn adjusted_s(self) -> f64 {
        (self.wall_s - self.steal_s).max(0.0)
    }
}

/// Starts a [`Timing`].
#[derive(Debug, Clone, Copy)]
struct Stopwatch {
    started: Instant,
    steal_s: f64,
}

impl Stopwatch {
    fn start() -> Self {
        Self {
            started: Instant::now(),
            steal_s: steal_seconds_per_cpu(),
        }
    }

    fn stop(&self) -> Timing {
        Timing {
            wall_s: self.started.elapsed().as_secs_f64(),
            steal_s: steal_seconds_per_cpu() - self.steal_s,
        }
    }
}

/// Steal time so far in seconds per CPU, from `/proc/stat`: the `cpu`
/// line's steal field (USER_HZ, 100 per second) over the number of
/// `cpuN` lines. 0 where the kernel reports none.
fn steal_seconds_per_cpu() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut lines = stat.lines();
    let steal = lines
        .next()
        .and_then(|total| total.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    let cpus = lines.take_while(|l| l.starts_with("cpu")).count().max(1);
    steal / 100.0 / cpus as f64
}

// ------------------------------------------------------------- /proc/self

/// User + system CPU seconds of this process so far (all threads, live
/// and exited), from `/proc/self/stat` in USER_HZ (100 per second).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    // Fields 14 and 15 of stat(5); `fields[0]` is field 3.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
