//! Command-line front end for the ECRIPSE library.
//!
//! ```text
//! ecripse-cli estimate [--vdd V] [--scenario NAME] [--alpha A] [--no-rtn] [--samples N]
//!                      [--tolerance R] [--seed S] [--threads T]
//!                      [--report PATH] [--progress] [--trace-log PATH]
//! ecripse-cli sweep    [--vdd V] [--scenario NAME] [--points K] [--samples N] [--m-rtn M]
//!                      [--seed S] [--threads T] [--report PATH] [--checkpoint PATH]
//!                      [--resume] [--keep-going] [--trace-log PATH]
//! ecripse-cli margin   [--vdd V] [--dvth v0,v1,v2,v3,v4,v5]
//! ecripse-cli naive    [--vdd V] [--alpha A] [--no-rtn] [--samples N] [--seed S]
//! ecripse-cli serve    [--addr HOST:PORT] [--workers W] [--queue Q] [--spool DIR]
//!                      [--cache-store PATH] [--journal PATH]
//!                      [--join COORD_ADDR] [--worker-name NAME]
//! ecripse-cli cluster  [--addr HOST:PORT] [--heartbeat-ms MS] [--timeout-ms MS]
//!                      [--shard-points K] [--max-jobs N]
//! ecripse-cli submit   --addr HOST:PORT [--vdd V] [--scenario NAME] [--alpha A] [--no-rtn]
//!                      [--samples N] [--seed S] [--threads T] [--timeout SECS]
//!                      [--deadline MS] [--idempotency-key KEY] [--retry N]
//!                      [--points K] [--m-rtn M]
//! ecripse-cli trace    JOB_ID --addr HOST:PORT [--json]
//! ```
//!
//! Each subcommand accepts only the flags listed for it: any other
//! `--key` is an error that names it, and `--help` prints the usage.
//!
//! `--scenario NAME` picks the indicator function the run estimates —
//! any id from the scenario registry (`read-snm` by default, plus
//! `hold-snm`, `write-margin` and `powerup-puf`). See `SCENARIOS.md`
//! for what each scenario measures and how to add one.
//!
//! `--threads 0` (the default) uses one worker per core; any other value
//! pins the worker count. Results are bit-identical for every setting.
//!
//! `--report PATH` writes the structured JSON run report (per-stage
//! wall-clock timings, oracle/cache counters, particle-filter health and
//! stage-2 convergence points — see `DESIGN.md` § "Observability
//! layer"); for `sweep` the file holds the RDF-only reference report
//! plus one report per duty point. `--progress` prints one
//! human-readable line per pipeline event to stderr as the run advances.
//! `--trace-log PATH` writes the run's spans — the root `job` span plus
//! one span per pipeline stage, the same [`SpanRecord`] form `GET
//! /v1/jobs/{id}/trace` serves — to PATH as JSONL, one record per line,
//! when the run ends (also when it fails), and prints simulator-batch
//! latency percentiles (p50/p90/p99) to stderr.
//!
//! Long sweeps are fault-tolerant: `--checkpoint PATH` saves a versioned
//! JSON snapshot after the shared initialisation and after every
//! completed duty point, `--resume` reloads whatever that file already
//! holds (a resumed sweep is bit-identical to an uninterrupted one), and
//! `--keep-going` reports a failing point instead of aborting the sweep.
//! A checkpointed sweep also installs a Ctrl-C (SIGINT) handler: in-flight
//! points drain, pending points are skipped, the checkpoint is flushed and
//! the process exits non-zero — rerunning with `--resume` continues
//! bit-identically.
//!
//! `serve` runs the [`ecripse::serve`] job-queue service until Ctrl-C,
//! then shuts down gracefully (drains in-flight jobs, persists queued
//! sweeps into `--spool DIR` as resumable checkpoints). With
//! `--cache-store PATH` the process-wide verdict cache is restored from
//! that file at startup (ignored if missing, corrupt, or written for a
//! different grid) and saved atomically at shutdown, so a restarted
//! service resumes warm. With `--journal PATH` every accepted job is
//! fsync'd to a write-ahead journal *before* it is acknowledged, and a
//! restarted server (same `--journal`/`--spool`) re-enqueues every job
//! that never finished — a `kill -9` loses at most work, never jobs.
//! With `--join COORD_ADDR` the server additionally enrols as a
//! *cluster worker*: it registers with the coordinator at that address
//! and heartbeats until shutdown (re-registering automatically if the
//! coordinator restarts or reaps it). `--worker-name NAME` fixes the
//! worker's stable name (default `worker-<port>`); keep it stable
//! across restarts so a restarted worker revives its registration and
//! resumes its journaled shards instead of recomputing them.
//!
//! `cluster` runs the [`ecripse::cluster`] coordinator until Ctrl-C: it
//! speaks the *same* job protocol as `serve` (point `submit` at it and
//! nothing changes), deals contiguous sweep shards round-robin over the
//! registered workers, reassigns shards off workers that miss their
//! heartbeats, and merges shard reports into a result bit-identical to
//! a single-process run.
//!
//! `submit` sends one job to a running server (or coordinator — same
//! protocol) and waits for the result; `--points K` submits a K-point
//! duty-ratio sweep instead of a single estimate (a coordinator shards
//! it across workers). `--deadline MS` bounds its server-side
//! wall-clock budget, `--retry N` turns on client-side retries (connect
//! errors, `5xx`, `429`) and `--idempotency-key KEY` makes those
//! retries safe — a resubmission with the same key returns the original
//! job instead of enqueuing a duplicate.
//!
//! `trace` fetches a finished (or running) job's distributed trace —
//! `GET /v1/jobs/{id}/trace` — and renders it as an ASCII waterfall:
//! one line per span, indented by parent, bars on a shared timeline.
//! Against a coordinator the waterfall spans the whole cluster (the
//! coordinator's job/shard spans plus every worker's stage spans, all
//! under one trace id); `--json` prints the raw merged span document
//! instead.
//!
//! Threshold shifts for `margin` are in volts, canonical device order
//! `PL, NL, PR, NR, AL, AR`.

use ecripse::prelude::*;
use ecripse::spice::butterfly::Butterfly;
use ecripse::spice::snm::read_noise_margin;
use std::collections::HashMap;
use std::process::ExitCode;

/// SIGINT (Ctrl-C) latch shared by `serve` and checkpointed sweeps.
///
/// Hand-rolled `signal(2)` FFI instead of a crate dependency: the
/// handler only stores into an `AtomicBool`, which is async-signal-safe.
mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    #[allow(unsafe_code)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the latch as the process SIGINT handler.
    pub fn install() {
        const SIGINT: i32 = 2;
        #[allow(unsafe_code)]
        unsafe {
            signal(SIGINT, on_signal);
        }
    }

    /// The latch itself, for APIs that poll a stop flag.
    pub fn flag() -> &'static AtomicBool {
        &REQUESTED
    }

    /// Whether Ctrl-C has been pressed since [`install`].
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Minimal `--key value` / `--flag` parser.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), it.next().expect("peeked").clone());
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Self { values, flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// The `--key`s each subcommand reads, values and switches alike,
/// separated by spaces; `None` for a name that is not a subcommand.
fn known_keys(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "estimate" => {
            "vdd scenario alpha no-rtn samples tolerance seed threads report progress trace-log"
        }
        "sweep" => {
            "vdd scenario points samples m-rtn seed threads report checkpoint resume keep-going \
             trace-log"
        }
        "margin" => "vdd dvth",
        "naive" => "vdd alpha no-rtn samples seed",
        "serve" => "addr workers queue spool cache-store journal join worker-name",
        "cluster" => "addr heartbeat-ms timeout-ms shard-points max-jobs",
        "submit" => {
            "addr vdd scenario alpha no-rtn samples seed threads timeout deadline \
             idempotency-key retry points m-rtn"
        }
        "trace" => "addr job timeout json",
        _ => return None,
    })
}

/// Writes any serialisable report as pretty-printed JSON at `path`.
fn write_report_json<T: serde::Serialize>(path: &str, report: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| format!("--report {path}: {e}"))?;
    std::fs::write(path, json + "\n").map_err(|e| format!("--report {path}: {e}"))?;
    eprintln!("report written to {path}");
    Ok(())
}

/// The `--trace-log` observers: a span collector for the log and a
/// metrics bridge for the latency summary.
struct TraceLog {
    path: String,
    file: std::fs::File,
    registry: MetricsRegistry,
    bridge: TelemetryObserver,
    spans: SpanCollector,
}

impl TraceLog {
    /// Creates the log file up front, so a bad path fails before any
    /// work; the spans share the deterministic trace id of job 0.
    fn create(path: String, seed: u64) -> Result<Self, String> {
        let file = std::fs::File::create(&path).map_err(|e| format!("--trace-log {path}: {e}"))?;
        let registry = MetricsRegistry::new();
        let bridge = TelemetryObserver::new(&registry);
        Ok(Self {
            path,
            file,
            registry,
            bridge,
            spans: SpanCollector::new(TraceContext::for_job(0, seed), "cli"),
        })
    }

    fn attach<'a>(&'a self, observers: &mut MultiObserver<'a>) {
        observers.push(&self.bridge);
        observers.push(&self.spans);
    }

    /// Writes every span as one JSON line and prints the simulator-batch
    /// latency percentiles (stderr, like the other progress output).
    fn finish(self) -> Result<(), String> {
        use std::io::Write as _;
        let path = self.path;
        let io_error = |e: std::io::Error| format!("--trace-log {path}: {e}");
        let mut out = std::io::BufWriter::new(self.file);
        for span in self.spans.finish() {
            let line = serde_json::to_string(&span).map_err(|e| format!("--trace-log: {e}"))?;
            writeln!(out, "{line}").map_err(io_error)?;
        }
        out.flush().map_err(io_error)?;
        let batches = self.registry.histogram(
            "ecripse_sim_batch_seconds",
            "Wall-clock latency of one raw simulator batch",
        );
        if let Some((p50, p90, p99)) = batches.percentiles() {
            eprintln!(
                "sim-batch latency over {} batches: p50 {:.3e} s, p90 {:.3e} s, p99 {:.3e} s",
                batches.count(),
                p50,
                p90,
                p99
            );
        }
        eprintln!("trace log written to {path}");
        Ok(())
    }
}

/// Bar width of the `trace` waterfall timeline.
const WATERFALL_COLS: usize = 48;

/// Renders a merged trace as an ASCII waterfall: one line per span,
/// indented under its parent, bars on a shared timeline spanning the
/// earliest start to the latest end.
fn render_waterfall(trace: &JobTrace) -> String {
    use std::fmt::Write as _;
    let spans = &trace.spans;
    let start = spans
        .iter()
        .map(|s| s.start_ts)
        .fold(f64::INFINITY, f64::min);
    let end = spans.iter().map(|s| s.end_ts()).fold(0.0f64, f64::max);
    let window = (end - start).max(1e-9);
    let scale = WATERFALL_COLS as f64 / window;
    let parents: HashMap<&str, &str> = spans
        .iter()
        .map(|s| (s.span_id.as_str(), s.parent_span_id.as_str()))
        .collect();
    let node_width = spans.iter().map(|s| s.node.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {} — job {}, {} span(s), {:.3}s end to end",
        trace.trace_id,
        trace.job_id,
        spans.len(),
        window
    );
    for span in spans {
        // Indent by ancestry depth; unknown parents (client-side or
        // truncated traces) count as roots. Cycle-proof via the cap.
        let mut depth = 0usize;
        let mut cursor = span.parent_span_id.as_str();
        while depth < 8 {
            match parents.get(cursor) {
                Some(next) => {
                    depth += 1;
                    cursor = next;
                }
                None => break,
            }
        }
        let lead = (((span.start_ts - start) * scale) as usize).min(WATERFALL_COLS - 1);
        let len = ((span.duration_s * scale).ceil() as usize)
            .max(1)
            .min(WATERFALL_COLS - lead);
        let mut bar = String::new();
        bar.push_str(&" ".repeat(lead));
        bar.push_str(&"#".repeat(len));
        let _ = writeln!(
            out,
            "  [{:<node_width$}] {:<WATERFALL_COLS$} {}{} {:+.3}s ({:.3}s)",
            span.node,
            bar,
            "  ".repeat(depth),
            span.name,
            span.start_ts - start,
            span.duration_s
        );
    }
    out
}

fn usage() -> String {
    let scenario_ids: Vec<&str> = registry().iter().map(|info| info.id).collect();
    format!(
        "usage: ecripse-cli <estimate|sweep|margin|naive|serve|cluster|submit|trace> [options]\n\
         \n\
         scenarios: {} (default read-snm; see SCENARIOS.md)\n\
         \n\
         estimate  failure probability of the paper's 6T cell\n\
         \x20          --vdd V (0.7)  --scenario NAME (read-snm)  --alpha A (0.5)  --no-rtn\n\
         \x20          --samples N (4000)  --tolerance R  --seed S  --threads T (0=all cores)\n\
         \x20          --report PATH (JSON run report)  --progress (live stderr lines)\n\
         \x20          --trace-log PATH (JSONL stage spans + latency percentiles)\n\
         sweep     duty-ratio sweep with shared initialisation\n\
         \x20          --vdd V (0.7)  --scenario NAME  --points K (11)  --samples N (2000)\n\
         \x20          --m-rtn M (20)\n\
         \x20          --seed S  --threads T  --report PATH (JSON reports, one per duty point)\n\
         \x20          --checkpoint PATH (save progress per point; Ctrl-C flushes + exits)\n\
         \x20          --resume (reload checkpoint)\n\
         \x20          --keep-going (report failed points instead of aborting)\n\
         \x20          --trace-log PATH (JSONL stage spans + latency percentiles)\n\
         margin    read/hold/write margins of one cell instance\n\
         \x20          --vdd V (0.7)  --dvth v0,v1,v2,v3,v4,v5 (volts)\n\
         naive     naive Monte Carlo reference\n\
         \x20          --vdd V (0.7)  --alpha A  --no-rtn  --samples N (100000)  --seed S\n\
         serve     job-queue estimation service (runs until Ctrl-C)\n\
         \x20          --addr HOST:PORT (127.0.0.1:7878)  --workers W (2)  --queue Q (16)\n\
         \x20          --spool DIR (persist queued sweeps on shutdown)\n\
         \x20          --cache-store PATH (persist the verdict cache across restarts)\n\
         \x20          --journal PATH (write-ahead job journal: accepted jobs survive kill -9)\n\
         \x20          --join COORD_ADDR (enrol as a cluster worker)  --worker-name NAME\n\
         cluster   coordinator: same job protocol, sharded over joined workers\n\
         \x20          --addr HOST:PORT (127.0.0.1:7979)  --heartbeat-ms MS (250)\n\
         \x20          --timeout-ms MS (1500; silence past this reaps a worker)\n\
         \x20          --shard-points K (2; max duty points per shard)  --max-jobs N (32)\n\
         submit    send one job to a running server/coordinator and wait\n\
         \x20          --addr HOST:PORT (required)  --vdd V (0.7)  --scenario NAME\n\
         \x20          --alpha A (0.5)  --no-rtn\n\
         \x20          --points K (submit a K-point duty sweep instead)  --m-rtn M\n\
         \x20          --samples N (4000)  --seed S  --threads T  --timeout SECS (600)\n\
         \x20          --deadline MS (server-side wall-clock budget)\n\
         \x20          --idempotency-key KEY (retry-safe submission dedup)\n\
         \x20          --retry N (0; retries on connect errors, 5xx and 429)\n\
         trace     fetch a job's distributed trace and render a waterfall\n\
         \x20          trace JOB_ID --addr HOST:PORT (required)  --json (raw span document)",
        scenario_ids.join(", ")
    )
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return Err("missing subcommand".into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") || rest.iter().any(|a| a == "--help") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(known) = known_keys(cmd) else {
        eprintln!("{}", usage());
        return Err(format!("unknown subcommand '{cmd}'"));
    };
    // Each subcommand reads only its own keys, so any other one would be
    // silently ignored: refuse it before doing any work.
    if let Some(key) = rest
        .iter()
        .filter_map(|a| a.strip_prefix("--"))
        .find(|key| !known.split_whitespace().any(|k| k == *key))
    {
        return Err(format!(
            "{cmd}: unknown flag --{key} (ecripse-cli {cmd} --help lists the flags)"
        ));
    }
    // `trace` takes its job id as a leading positional (`trace 3 --addr
    // …`); peel it off before the `--key value` parser, which rejects
    // bare arguments everywhere else.
    let mut rest: Vec<String> = rest.to_vec();
    let mut leading_job: Option<String> = None;
    if cmd == "trace" {
        if let Some(first) = rest.first() {
            if !first.starts_with("--") {
                leading_job = Some(rest.remove(0));
            }
        }
    }
    let args = Args::parse(&rest)?;
    let vdd: f64 = args.get("vdd", 0.7)?;
    if !(0.2..=1.2).contains(&vdd) {
        return Err(format!("--vdd {vdd} outside the sane range [0.2, 1.2]"));
    }
    // Numbers the library asserts on are rejected here, before any work.
    let alpha: Option<f64> = args.opt("alpha")?;
    if let Some(a) = alpha.filter(|a| !(0.0..=1.0).contains(a)) {
        return Err(format!("--alpha {a} outside the duty-ratio range [0, 1]"));
    }
    if args.opt::<usize>("samples")? == Some(0) {
        return Err("--samples must be at least 1".into());
    }
    let tolerance: Option<f64> = args.opt("tolerance")?;
    if let Some(t) = tolerance.filter(|t| !(t.is_finite() && *t > 0.0)) {
        return Err(format!("--tolerance {t} must be a finite positive number"));
    }

    match cmd.as_str() {
        "estimate" => {
            let scenario: Scenario = args.get("scenario", Scenario::default())?;
            let bench = SramScenarioBench::at_vdd(scenario, vdd);
            let alpha = alpha.unwrap_or(0.5);
            let samples: usize = args.get("samples", 4000)?;
            let seed: u64 = args.get("seed", 0xec4155e)?;
            let report_path: Option<String> = args.opt("report")?;
            let mut cfg = EcripseConfig {
                scenario,
                ..EcripseConfig::default()
            };
            // Retention/write failures live further out than read
            // failures; widen the boundary search to bracket them.
            cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
            cfg.importance.n_samples = samples;
            cfg.seed = seed;
            cfg.threads = args.get("threads", 0)?;
            let recorder = RunRecorder::new();
            let progress = ProgressObserver::new();
            let trace_log = args
                .opt("trace-log")?
                .map(|path| TraceLog::create(path, seed))
                .transpose()?;
            let mut observers = MultiObserver::new();
            if report_path.is_some() {
                observers.push(&recorder);
            }
            if args.flag("progress") {
                observers.push(&progress);
            }
            if let Some(log) = &trace_log {
                log.attach(&mut observers);
            }
            let options = RunOptions {
                observer: &observers,
                target_relative_error: tolerance,
                ..RunOptions::default()
            };
            let result = if args.flag("no-rtn") {
                cfg.importance.m_rtn = 1;
                cfg.m_rtn_stage1 = 1;
                Ecripse::new(cfg, bench).estimate_with(&options)
            } else {
                let rtn = SramRtn::paper_model(alpha, bench.sigmas());
                Ecripse::with_rtn(cfg, bench, rtn).estimate_with(&options)
            };
            let logged = trace_log.map(TraceLog::finish).transpose();
            let result = result.map_err(|e| e.to_string())?;
            logged?;
            if let Some(path) = report_path {
                write_report_json(&path, &recorder.report())?;
            }
            println!(
                "P_fail = {:.4e} ± {:.2e} (rel. err. {:.3})",
                result.p_fail,
                result.ci95_half_width,
                result.relative_error()
            );
            println!(
                "cost: {} transistor-level simulations, {} importance samples, {} classifier answers",
                result.simulations, result.is_samples, result.oracle_stats.classified
            );
            let stats = &result.oracle_stats;
            if stats.cache_hits + stats.cache_misses > 0 {
                println!(
                    "memo-cache: {} hits / {} misses ({:.1}% hit rate)",
                    stats.cache_hits,
                    stats.cache_misses,
                    100.0 * stats.cache_hit_rate()
                );
            }
        }
        "sweep" => {
            let scenario: Scenario = args.get("scenario", Scenario::default())?;
            let points: usize = args.get("points", 11)?;
            if points < 2 {
                return Err("--points must be at least 2".into());
            }
            let samples: usize = args.get("samples", 2000)?;
            let seed: u64 = args.get("seed", 0xec4155e)?;
            let mut cfg = EcripseConfig {
                scenario,
                ..EcripseConfig::default()
            };
            cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
            cfg.importance.n_samples = samples;
            cfg.importance.m_rtn = args.get("m-rtn", 20)?;
            cfg.seed = seed;
            cfg.threads = args.get("threads", 0)?;
            let alphas: Vec<f64> = (0..points)
                .map(|i| i as f64 / (points - 1) as f64)
                .collect();
            let report_path: Option<String> = args.opt("report")?;
            let checkpoint = args
                .opt::<String>("checkpoint")?
                .map(std::path::PathBuf::from);
            let trace_log = args
                .opt("trace-log")?
                .map(|path| TraceLog::create(path, seed))
                .transpose()?;
            let mut observers = MultiObserver::new();
            if let Some(log) = &trace_log {
                log.attach(&mut observers);
            }
            // With a checkpoint configured, Ctrl-C drains in-flight
            // points, flushes the checkpoint and exits non-zero.
            let stop = checkpoint.is_some().then(|| {
                interrupt::install();
                interrupt::flag()
            });
            let options = SweepOptions {
                checkpoint,
                resume: args.flag("resume"),
                keep_going: args.flag("keep-going"),
                observer: &observers,
                stop,
            };
            let sweep = DutySweep::new(cfg, SramScenarioBench::at_vdd(scenario, vdd), alphas);
            let run = sweep.run_with(&options);
            let logged = trace_log.map(TraceLog::finish).transpose();
            let run = run.map_err(|e| e.to_string())?;
            logged?;
            if run.points_from_checkpoint > 0 {
                eprintln!(
                    "resumed {} of {} points from checkpoint",
                    run.points_from_checkpoint,
                    run.outcomes.len()
                );
            }
            let failed = run.failed_points();
            println!("{:<8} {:>12} {:>12}", "alpha", "P_fail", "ci95");
            for outcome in &run.outcomes {
                match &outcome.result {
                    Ok(p) => println!(
                        "{:<8} {:>12.4e} {:>12.2e}",
                        p.alpha, p.p_fail, p.ci95_half_width
                    ),
                    Err(e) => println!("{:<8} {:>12} {:>12}   {e}", outcome.alpha, "FAILED", "-"),
                }
            }
            if failed == 0 {
                let (result, reports) = run.into_parts().map_err(|e| e.to_string())?;
                if let Some(path) = report_path {
                    write_report_json(&path, &reports)?;
                }
                println!(
                    "rdf-only: {:.4e}   worst-case RTN degradation: {:.2}x   total sims: {}",
                    result.p_fail_rdf_only,
                    result.rtn_degradation_factor(),
                    result.total_simulations
                );
            } else {
                println!(
                    "rdf-only: {:.4e}   {failed} point(s) FAILED   total sims: {}",
                    run.p_fail_rdf_only, run.total_simulations
                );
                return Err(format!("{failed} sweep point(s) failed"));
            }
        }
        "margin" => {
            let dvth_str: String = args.get("dvth", "0,0,0,0,0,0".to_string())?;
            let dvth: Vec<f64> = dvth_str
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("bad --dvth entry '{s}'"))
                })
                .collect::<Result<_, _>>()?;
            if dvth.len() != 6 {
                return Err("--dvth needs exactly 6 comma-separated volts".into());
            }
            let bench = ReadStabilityBench::at_vdd(vdd);
            let cell = bench.cell().with_delta_vth(&dvth);
            let read = bench.margin(Scenario::ReadSnm, &dvth);
            let hold = bench.margin(Scenario::HoldSnm, &dvth);
            let write = bench.margin(Scenario::WriteMargin, &dvth);
            let powerup = bench.margin(Scenario::PowerupPuf, &dvth);
            let b = Butterfly::sample(&cell, &cell.read_bias(), 121);
            let lobes = read_noise_margin(&b);
            println!("device order: PL, NL, PR, NR, AL, AR   V_DD = {vdd} V");
            println!(
                "read  margin: {:+8.2} mV (lobes {:+.2} / {:+.2})",
                read * 1e3,
                lobes.snm_low * 1e3,
                lobes.snm_high * 1e3
            );
            println!("hold  margin: {:+8.2} mV", hold * 1e3);
            println!("write margin: {:+8.2} mV", write * 1e3);
            println!(
                "power-up preference: {:+8.2} mV ({})",
                powerup * 1e3,
                if powerup > 0.0 {
                    "bit settles to the designed state"
                } else {
                    "PUF BIT ERROR: mismatch flips the power-up state"
                }
            );
            println!(
                "verdict: {}",
                match (read > 0.0, write > 0.0) {
                    (true, true) => "functional (read-stable, writeable)",
                    (false, _) => "READ FAILURE",
                    (_, false) => "WRITE FAILURE",
                }
            );
        }
        "naive" => {
            let bench = SramScenarioBench::at_vdd(Scenario::ReadSnm, vdd);
            let samples: usize = args.get("samples", 100_000)?;
            let seed: u64 = args.get("seed", 0xa1fe)?;
            let cfg = NaiveConfig {
                n_samples: samples,
                trace_every: 0,
                seed,
            };
            let result = if args.flag("no-rtn") {
                naive_monte_carlo(&bench, &NoRtn::new(6), &cfg)
            } else {
                let alpha = alpha.unwrap_or(0.5);
                let rtn = SramRtn::paper_model(alpha, bench.sigmas());
                naive_monte_carlo(&bench, &rtn, &cfg)
            };
            println!(
                "P_fail = {:.4e}  (95% CI [{:.4e}, {:.4e}], {} failures / {} trials)",
                result.p_fail,
                result.interval.lo,
                result.interval.hi,
                result.failures,
                result.simulations
            );
        }
        "serve" => {
            let addr: String = args.get("addr", "127.0.0.1:7878".to_string())?;
            let config = ServeConfig {
                workers: args.get("workers", 2)?,
                queue_capacity: args.get("queue", 16)?,
                spool: args.opt::<String>("spool")?.map(Into::into),
                cache_store: args.opt::<String>("cache-store")?.map(Into::into),
                journal: args.opt::<String>("journal")?.map(Into::into),
                // Trace spans carry the worker name as their node, so a
                // cluster waterfall names the worker, not just a port.
                node: args.opt::<String>("worker-name")?,
                ..ServeConfig::default()
            };
            let workers = config.workers.max(1);
            let server = Server::bind(&addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
            // The test harness parses this line to discover the port
            // (stdout is line-buffered even when piped).
            println!("listening on http://{}", server.local_addr());
            println!("{workers} worker(s); press Ctrl-C to drain and shut down");
            // --join enrols this server as a cluster worker: register
            // with the coordinator and heartbeat until shutdown.
            let membership = match args.opt::<String>("join")? {
                Some(coordinator) => {
                    let name: String = args.get(
                        "worker-name",
                        format!("worker-{}", server.local_addr().port()),
                    )?;
                    println!("joining cluster at {coordinator} as {name}");
                    Some(ecripse::cluster::join(JoinConfig::new(
                        coordinator,
                        name,
                        server.local_addr().to_string(),
                    )))
                }
                None => None,
            };
            interrupt::install();
            while !interrupt::requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            eprintln!("shutting down: draining in-flight jobs...");
            // Stop heartbeating first so the coordinator reaps us and
            // stops routing new shards here while we drain.
            if let Some(membership) = membership {
                membership.leave();
            }
            let summary = server.shutdown();
            println!(
                "shutdown complete: {} drained, {} persisted, {} cancelled",
                summary.drained, summary.persisted, summary.cancelled
            );
        }
        "cluster" => {
            let addr: String = args.get("addr", "127.0.0.1:7979".to_string())?;
            let config = ClusterConfig {
                heartbeat_interval: std::time::Duration::from_millis(
                    args.get("heartbeat-ms", 250u64)?.max(10),
                ),
                heartbeat_timeout: std::time::Duration::from_millis(
                    args.get("timeout-ms", 1500u64)?.max(100),
                ),
                shard_points: args.get("shard-points", 2usize)?.max(1),
                max_inflight_jobs: args.get("max-jobs", 32usize)?.max(1),
                ..ClusterConfig::default()
            };
            let coordinator =
                Coordinator::bind(&addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
            // Same parseable first line as `serve` — harnesses reuse it.
            println!("listening on http://{}", coordinator.local_addr());
            println!("coordinator up; workers join with: serve --join {addr}");
            interrupt::install();
            while !interrupt::requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            let metrics = coordinator.metrics();
            eprintln!("shutting down: draining in-flight cluster jobs...");
            coordinator.shutdown();
            println!(
                "shutdown complete: {} job(s) completed, {} shard(s) dispatched, {} reassigned",
                metrics.jobs_completed,
                metrics.shards_dispatched_total,
                metrics.shards_reassigned_total
            );
        }
        "submit" => {
            let Some(addr) = args.opt::<String>("addr")? else {
                return Err("submit requires --addr HOST:PORT".into());
            };
            let scenario: Scenario = args.get("scenario", Scenario::default())?;
            let mut cfg = EcripseConfig::default();
            cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
            cfg.importance.n_samples = args.get("samples", 4000)?;
            cfg.seed = args.get("seed", 0xec4155e)?;
            cfg.threads = args.get("threads", 0)?;
            let job = if let Some(points) = args.opt::<usize>("points")? {
                if points < 2 {
                    return Err("--points must be at least 2".into());
                }
                if let Some(m_rtn) = args.opt::<usize>("m-rtn")? {
                    cfg.importance.m_rtn = m_rtn;
                }
                let alphas: Vec<f64> = (0..points)
                    .map(|i| i as f64 / (points - 1) as f64)
                    .collect();
                JobSpec::sweep(vdd, alphas)
            } else if args.flag("no-rtn") {
                cfg.importance.m_rtn = 1;
                cfg.m_rtn_stage1 = 1;
                JobSpec::rdf_only(vdd)
            } else {
                JobSpec::estimate(vdd, alpha.unwrap_or(0.5))
            };
            let timeout = std::time::Duration::from_secs(args.get("timeout", 600)?);
            let mut client = Client::new(addr.clone())
                .with_timeout(timeout.min(std::time::Duration::from_secs(30)));
            let retries: u32 = args.get("retry", 0)?;
            if retries > 0 {
                client = client.with_retry(BackoffPolicy {
                    max_attempts: retries.saturating_add(1),
                    ..BackoffPolicy::default()
                });
            }
            client.handshake().map_err(|e| format!("{addr}: {e}"))?;
            let mut request = SubmitRequest::with_scenario(scenario, cfg, job);
            if let Some(deadline_ms) = args.opt::<u64>("deadline")? {
                request = request.with_deadline_ms(deadline_ms);
            }
            if let Some(key) = args.opt::<String>("idempotency-key")? {
                request = request.with_idempotency_key(key);
            }
            let submitted = client.submit(&request).map_err(|e| e.to_string())?;
            println!(
                "job {} accepted (scenario: {}, state: {})",
                submitted.id, submitted.scenario, submitted.state
            );
            let report = client
                .wait_for_report(submitted.id, timeout)
                .map_err(|e| e.to_string())?;
            if report.state != JobState::Completed {
                return Err(format!(
                    "job {} finished as {}: {}",
                    report.id,
                    report.state,
                    report.error.unwrap_or_else(|| "no error recorded".into())
                ));
            }
            if let Some(trace_id) = &report.trace_id {
                println!(
                    "trace {trace_id} (inspect: ecripse-cli trace {} --addr {addr})",
                    report.id
                );
            }
            if let Some(sweep) = report.sweep {
                println!("{:<8} {:>12} {:>12}", "alpha", "P_fail", "ci95");
                for point in &sweep.points {
                    println!(
                        "{:<8} {:>12.4e} {:>12.2e}",
                        point.alpha, point.p_fail, point.ci95_half_width
                    );
                }
                println!(
                    "rdf-only: {:.4e}   total sims: {}",
                    sweep.p_fail_rdf_only, sweep.total_simulations
                );
            } else {
                let outcome = report
                    .estimate
                    .ok_or_else(|| "completed job carried no estimate outcome".to_string())?;
                println!(
                    "P_fail = {:.4e} ± {:.2e}",
                    outcome.p_fail, outcome.ci95_half_width
                );
                println!(
                    "cost: {} transistor-level simulations, {} importance samples",
                    outcome.simulations, outcome.is_samples
                );
            }
        }
        "trace" => {
            let Some(addr) = args.opt::<String>("addr")? else {
                return Err("trace requires --addr HOST:PORT".into());
            };
            let job_id: u64 = match leading_job.or_else(|| args.values.get("job").cloned()) {
                Some(raw) => raw
                    .parse()
                    .map_err(|_| format!("trace: job id must be numeric, got '{raw}'"))?,
                None => return Err("trace requires a JOB_ID (or --job ID)".into()),
            };
            let timeout = std::time::Duration::from_secs(args.get("timeout", 30)?);
            let client = Client::new(addr.clone()).with_timeout(timeout);
            let trace = client.trace(job_id).map_err(|e| format!("{addr}: {e}"))?;
            if args.flag("json") {
                let json = serde_json::to_string_pretty(&trace)
                    .map_err(|e| format!("render trace: {e}"))?;
                println!("{json}");
            } else if trace.spans.is_empty() {
                println!(
                    "trace {} — job {}: no spans recorded yet (job still running?)",
                    trace.trace_id, trace.job_id
                );
            } else {
                print!("{}", render_waterfall(&trace));
            }
        }
        other => unreachable!("subcommand '{other}' has keys but no arm"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
