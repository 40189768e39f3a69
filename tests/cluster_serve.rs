//! Cluster acceptance against real processes: a coordinator and two
//! worker `serve` processes spawned from the CLI binary. For every
//! registered scenario, a sweep submitted to the coordinator must
//! merge bit-identically to the same request served by a standalone
//! single process — sharding is a placement decision, never a numeric
//! one. The workers run with write-ahead journals, so the suite also
//! smoke-checks the journal metrics the `/metrics` document exposes.

use ecripse::cluster::ClusterWorkers;
use ecripse::core::telemetry::fmt_hex_id;
use ecripse::prelude::*;
use ecripse::serve::http;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(600);

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecripse-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A spawned process whose first stdout line announces its address
/// (both `serve` and `cluster` print `listening on http://…`).
struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Proc {
    fn launch(mut command: Command) -> Self {
        let mut child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("process spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        Self {
            child,
            stdout,
            addr,
        }
    }

    fn serve(dir: &Path, extra: &[&str]) -> Self {
        let mut command = cli();
        command
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "8"])
            .arg("--journal")
            .arg(dir.join("journal.jsonl"))
            .arg("--spool")
            .arg(dir.join("spool"))
            .args(extra);
        Self::launch(command)
    }

    fn coordinator() -> Self {
        let mut command = cli();
        command.arg("cluster").args([
            "--addr",
            "127.0.0.1:0",
            "--heartbeat-ms",
            "100",
            "--timeout-ms",
            "800",
            "--shard-points",
            "2",
        ]);
        Self::launch(command)
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// Waits until every worker in `names` is registered and alive with
    /// this coordinator. `/readyz` turns ready with the first worker, and
    /// a shard dispatched before the second has joined goes to the first.
    fn wait_for_workers(&self, names: &[&str]) {
        let deadline = std::time::Instant::now() + WAIT;
        loop {
            let mut stream = std::net::TcpStream::connect(&self.addr).expect("connect");
            http::write_request(&mut stream, "GET", "/v1/cluster/workers", None)
                .expect("request workers");
            let (_, _, body) = http::read_response(&mut stream).expect("workers response");
            let listing: ClusterWorkers = serde_json::from_str(&body).expect("workers listing");
            let alive = |name: &&str| {
                listing
                    .workers
                    .iter()
                    .any(|worker| worker.name == *name && worker.alive)
            };
            if names.iter().all(alive) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "workers {names:?} did not all join: {body}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGINT + zero-exit assertion.
    fn shutdown(mut self) {
        let status = Command::new("kill")
            .args(["-INT", &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -INT failed");
        let status = self.child.wait().expect("process exits");
        assert!(status.success(), "process must exit zero after SIGINT");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("drain stdout");
    }
}

/// Kills and reaps a child the test did not shut down itself (a failed
/// assertion unwinds through here), so no server outlives its test.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A small sweep for `scenario`, sized for CI wall-clock.
fn sweep_request(scenario: Scenario, seed: u64) -> SubmitRequest {
    let mut cfg = EcripseConfig::default();
    cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
    cfg.importance.n_samples = 200;
    cfg.importance.m_rtn = 2;
    cfg.seed = seed;
    cfg.threads = 1;
    let alphas: Vec<f64> = (0..5).map(|i| i as f64 / 4.0).collect();
    SubmitRequest::with_scenario(scenario, cfg, JobSpec::sweep(0.8, alphas))
}

fn strip_outcome_timings(outcome: &mut ecripse::serve::SweepOutcome) {
    outcome.reports.rdf_only.strip_timings();
    for report in &mut outcome.reports.points {
        report.strip_timings();
    }
}

/// One sweep per registered scenario through the cluster, each checked
/// bit-for-bit against a standalone single-process run of the same
/// request, plus the journal-metrics smoke check on the workers.
#[test]
fn every_scenario_merges_bit_identically_and_journals_its_shards() {
    let coordinator = Proc::coordinator();
    let dir_a = scratch_dir("worker-a");
    let dir_b = scratch_dir("worker-b");
    let worker_a = Proc::serve(
        &dir_a,
        &["--join", &coordinator.addr, "--worker-name", "ci-a"],
    );
    let worker_b = Proc::serve(
        &dir_b,
        &["--join", &coordinator.addr, "--worker-name", "ci-b"],
    );
    let client = coordinator.client();
    let ready = client.wait_ready(WAIT).expect("coordinator becomes ready");
    assert!(ready.ready, "coordinator not ready: {}", ready.status);
    coordinator.wait_for_workers(&["ci-a", "ci-b"]);

    // Debug builds keep the suite affordable (`cargo test -q` runs this
    // unoptimised): one scenario proves the plumbing. The CI `cluster`
    // job runs release, where all four scenarios go through.
    let scenarios: &[Scenario] = if cfg!(debug_assertions) {
        &Scenario::ALL[..1]
    } else {
        &Scenario::ALL[..]
    };
    let baseline_dir = scratch_dir("baseline");
    for (index, &scenario) in scenarios.iter().enumerate() {
        let request = sweep_request(scenario, 100 + index as u64);

        // Standalone baseline: a fresh single server per scenario so no
        // cross-scenario warm state can mask a determinism break.
        let single = Proc::serve(&baseline_dir.join(scenario.id()), &[]);
        let submitted = single.client().submit(&request).expect("submit baseline");
        let mut baseline = single
            .client()
            .wait_for_report(submitted.id, WAIT)
            .expect("baseline completes")
            .sweep
            .expect("baseline sweep outcome");
        single.shutdown();

        let submitted = client.submit(&request).expect("submit to coordinator");
        let report = client
            .wait_for_report(submitted.id, WAIT)
            .expect("cluster sweep completes");
        assert_eq!(
            report.state,
            JobState::Completed,
            "scenario {scenario}: {:?}",
            report.error
        );
        assert_eq!(report.scenario, scenario);
        let mut merged = report.sweep.expect("merged sweep outcome");

        strip_outcome_timings(&mut baseline);
        strip_outcome_timings(&mut merged);
        assert_eq!(
            merged, baseline,
            "scenario {scenario}: sharded merge must equal the single-process run"
        );
    }

    // The journal metrics surface on every worker: shards were accepted
    // through the write-ahead journal, and the byte gauge reflects it.
    for (name, worker) in [("ci-a", &worker_a), ("ci-b", &worker_b)] {
        let metrics = worker.client().metrics().expect("worker metrics");
        assert!(
            metrics.journal_bytes > 0,
            "worker {name} journalled nothing (journal_bytes = 0)"
        );
        assert_eq!(
            metrics.journal_frames_replayed_total, 0,
            "worker {name} never restarted, so nothing should have replayed"
        );
        let prometheus = worker
            .client()
            .metrics_prometheus()
            .expect("worker prometheus metrics");
        for required in [
            "ecripse_serve_journal_bytes",
            "ecripse_serve_journal_compactions_total",
            "ecripse_serve_journal_frames_replayed_total",
        ] {
            assert!(
                prometheus.contains(required),
                "worker {name} exposition is missing {required}"
            );
        }
    }

    let totals = client.metrics_prometheus().expect("coordinator metrics");
    assert!(totals.contains("ecripse_cluster_shards_completed_total"));

    worker_a.shutdown();
    worker_b.shutdown();
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

/// The observability surface at process level: a traced sweep through
/// the spawned cluster yields one waterfall spanning the coordinator
/// and both named workers (fetched with `ecripse-cli trace --json`),
/// and the coordinator's federated exposition labels each worker's
/// serve series with its name.
#[test]
fn traced_sweep_federates_spans_and_metrics_across_processes() {
    let coordinator = Proc::coordinator();
    let dir_a = scratch_dir("trace-worker-a");
    let dir_b = scratch_dir("trace-worker-b");
    let worker_a = Proc::serve(
        &dir_a,
        &["--join", &coordinator.addr, "--worker-name", "tr-a"],
    );
    let worker_b = Proc::serve(
        &dir_b,
        &["--join", &coordinator.addr, "--worker-name", "tr-b"],
    );
    let client = coordinator.client();
    client.wait_ready(WAIT).expect("coordinator becomes ready");
    coordinator.wait_for_workers(&["tr-a", "tr-b"]);

    let context = TraceContext::for_job(7, 300);
    let trace_id = fmt_hex_id(context.trace_id);
    let request = sweep_request(Scenario::ALL[0], 300).with_trace(context);
    let submitted = client.submit(&request).expect("submit traced sweep");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("traced sweep completes");
    assert_eq!(report.state, JobState::Completed, "{:?}", report.error);
    assert_eq!(report.trace_id.as_deref(), Some(trace_id.as_str()));

    // The CLI's trace subcommand fetches the merged waterfall as JSON.
    let output = cli()
        .args([
            "trace",
            &submitted.id.to_string(),
            "--addr",
            &coordinator.addr,
            "--json",
        ])
        .output()
        .expect("cli trace runs");
    assert!(
        output.status.success(),
        "trace command failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let trace: JobTrace = serde_json::from_str(&String::from_utf8_lossy(&output.stdout))
        .expect("trace document parses");
    assert_eq!(trace.job_id, submitted.id);
    assert_eq!(trace.trace_id, trace_id);
    assert!(
        trace.spans.iter().all(|span| span.trace_id == trace_id),
        "every span shares the job trace id"
    );
    for node in ["coordinator", "tr-a", "tr-b"] {
        assert!(
            trace.spans.iter().any(|span| span.node == node),
            "no span from {node} in the merged waterfall"
        );
    }

    // The human rendering is an ASCII waterfall headed by the trace id.
    let output = cli()
        .args([
            "trace",
            &submitted.id.to_string(),
            "--addr",
            &coordinator.addr,
        ])
        .output()
        .expect("cli trace runs");
    assert!(output.status.success());
    let rendered = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(rendered.contains(&trace_id), "waterfall names the trace id");
    assert!(
        rendered.contains("[coordinator"),
        "waterfall names the coordinator node:\n{rendered}"
    );

    // Federated exposition: each worker's serve series is labelled.
    let text = client.metrics_prometheus().expect("federated exposition");
    for worker in ["tr-a", "tr-b"] {
        assert!(
            text.contains(&format!(
                "ecripse_serve_submitted_total{{worker=\"{worker}\"}}"
            )),
            "missing {worker}'s relabelled series in the federated exposition"
        );
    }

    worker_a.shutdown();
    worker_b.shutdown();
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
