//! Kill-level chaos against the real serving binary: SIGKILL a server
//! mid-sweep and prove the restarted process recovers the journaled job
//! under its original id with a report bit-identical to an
//! uninterrupted run; corrupt the journal tail on disk and prove the
//! next boot contains the damage to the torn frame; half-write a
//! request body and prove the server keeps serving.

use ecripse::prelude::*;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(600);

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecripse-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A served process plus the address parsed from its first stdout line.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    /// Spawns `ecripse-cli serve` with one worker against `dir`'s
    /// journal, spool and cache store, and waits for the listen line.
    fn spawn(dir: &Path) -> Self {
        Self::spawn_with(dir, &[])
    }

    /// Like [`spawn`](Self::spawn), with extra CLI arguments appended
    /// (the cluster tests pass `--join`/`--worker-name` here).
    fn spawn_with(dir: &Path, extra: &[&str]) -> Self {
        let mut command = cli();
        command
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "8"])
            .arg("--journal")
            .arg(dir.join("journal.jsonl"))
            .arg("--spool")
            .arg(dir.join("spool"))
            .arg("--cache-store")
            .arg(dir.join("cache.json"))
            .args(extra);
        Self::launch(command)
    }

    /// Spawns `ecripse-cli cluster` — the coordinator shares the
    /// `listening on http://…` first-line contract with `serve`, so
    /// the same process handle drives both.
    fn spawn_coordinator(extra: &[&str]) -> Self {
        let mut command = cli();
        command
            .arg("cluster")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra);
        Self::launch(command)
    }

    /// Spawns any command whose first stdout line announces its address.
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

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// SIGKILL: no drain, no journal compaction, no cache flush — the
    /// crash the journal exists for.
    fn kill9(mut self) {
        let status = Command::new("kill")
            .args(["-KILL", &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -KILL failed");
        self.child.wait().expect("killed server reaped");
    }

    /// SIGINT: the graceful path; asserts a zero exit.
    fn shutdown(mut self) {
        let status = Command::new("kill")
            .args(["-INT", &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -INT failed");
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "serve must exit zero after SIGINT");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("drain stdout");
    }
}

/// Kills and reaps a child the test did not shut down itself (a failed
/// assertion unwinds through here), so no server outlives its test.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A sweep sized like the CLI's own interruption tests: slow enough to
/// catch mid-run through checkpoint polling, fast enough to finish.
fn sweep_request(seed: u64) -> SubmitRequest {
    let mut cfg = EcripseConfig::default();
    cfg.initial.r_max = cfg
        .initial
        .r_max
        .max(Scenario::default().recommended_r_max());
    cfg.importance.n_samples = 200;
    cfg.importance.m_rtn = 2;
    cfg.seed = seed;
    cfg.threads = 1;
    let alphas: Vec<f64> = (0..5).map(|i| i as f64 / 4.0).collect();
    SubmitRequest::new(cfg, JobSpec::sweep(0.8, alphas))
}

/// A small RDF-only estimate (the CLI's `--no-rtn` shape).
fn estimate_request(seed: u64) -> SubmitRequest {
    let mut cfg = EcripseConfig::default();
    cfg.initial.r_max = cfg
        .initial
        .r_max
        .max(Scenario::default().recommended_r_max());
    cfg.importance.n_samples = 200;
    cfg.importance.m_rtn = 1;
    cfg.m_rtn_stage1 = 1;
    cfg.seed = seed;
    cfg.threads = 1;
    SubmitRequest::new(cfg, JobSpec::rdf_only(0.8))
}

/// Zeroes the wall-clock noise in a sweep outcome so two runs of the
/// same configuration compare structurally.
fn strip_outcome_timings(outcome: &mut ecripse::serve::SweepOutcome) {
    outcome.reports.rdf_only.strip_timings();
    for report in &mut outcome.reports.points {
        report.strip_timings();
    }
}

/// The acceptance scenario: SIGKILL mid-sweep, restart on the same
/// journal + spool + cache store, and the recovered job completes under
/// its original id with a report bit-identical to an uninterrupted run.
/// A client retry with the original idempotency key maps to that id
/// even across the crash.
#[test]
fn sigkill_mid_sweep_recovers_bit_identically_under_the_original_id() {
    let dir = scratch_dir("sigkill");
    let request = sweep_request(5).with_idempotency_key("chaos/sweep-5");

    let first = ServerProc::spawn(&dir);
    let submitted = first.client().submit(&request).expect("submit sweep");
    let checkpoint = dir.join("spool").join(format!("job-{}.json", submitted.id));

    // Wait until at least one duty point is checkpointed (the sweep is
    // then provably mid-flight: points remain), then pull the plug.
    let deadline = Instant::now() + WAIT;
    loop {
        assert!(Instant::now() < deadline, "no duty point ever checkpointed");
        let status = first.client().status(submitted.id).expect("status");
        assert!(
            !status.state.is_terminal(),
            "sweep reached {:?} before the kill ({:?})",
            status.state,
            status.error
        );
        if let Ok(json) = std::fs::read_to_string(&checkpoint) {
            let parsed: ecripse::core::sweep::SweepCheckpoint =
                serde_json::from_str(&json).expect("checkpoint parses");
            let done = parsed.points.iter().filter(|p| p.is_some()).count();
            if done >= 1 && done < parsed.points.len() {
                break;
            }
            assert!(done < parsed.points.len(), "sweep finished before the kill");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    first.kill9();

    // Restart on the same state. The journaled-but-unfinished sweep is
    // re-enqueued under its original id; the idempotency key answers
    // retries with that id instead of enqueueing a duplicate.
    let second = ServerProc::spawn(&dir);
    let client = second.client();
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.recovered, 1, "the killed sweep must be re-enqueued");
    let retried = client.submit(&request).expect("retried submit");
    assert_eq!(
        retried.id, submitted.id,
        "same key, same job, across a crash"
    );
    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        metrics.submitted, 0,
        "the retry must not enqueue a duplicate"
    );
    assert_eq!(metrics.idempotent_hits, 1);

    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("recovered sweep completes");
    assert_eq!(report.id, submitted.id);
    assert_eq!(report.state, JobState::Completed);
    let mut recovered = report.sweep.expect("sweep outcome");
    second.shutdown();

    // The baseline: the same request served uninterrupted from scratch.
    let baseline_dir = scratch_dir("sigkill-baseline");
    let baseline = ServerProc::spawn(&baseline_dir);
    let client = baseline.client();
    let submitted = client.submit(&sweep_request(5)).expect("baseline submit");
    let mut uninterrupted = client
        .wait_for_report(submitted.id, WAIT)
        .expect("baseline completes")
        .sweep
        .expect("baseline outcome");
    baseline.shutdown();

    strip_outcome_timings(&mut recovered);
    strip_outcome_timings(&mut uninterrupted);
    assert_eq!(
        recovered, uninterrupted,
        "a crash-recovered sweep must be bit-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

/// Bit-flip the journal's tail frame on disk between runs: the next
/// boot must come up cleanly, keep every intact frame (the first job's
/// key still answers with its original id) and treat the job whose
/// terminal frame was destroyed as unfinished — it simply runs again.
#[test]
fn journal_tail_corruption_is_contained_to_the_torn_frame() {
    let dir = scratch_dir("corrupt");
    let journal = dir.join("journal.jsonl");

    let first = ServerProc::spawn(&dir);
    let client = first.client();
    let keyed_one = estimate_request(1).with_idempotency_key("chaos/estimate-1");
    let keyed_two = estimate_request(2).with_idempotency_key("chaos/estimate-2");
    let one = client.submit(&keyed_one).expect("submit one");
    client.wait(one.id, WAIT).expect("one completes");
    let two = client.submit(&keyed_two).expect("submit two");
    client.wait(two.id, WAIT).expect("two completes");
    first.kill9();

    // Flip one byte in the last frame (job two's terminal record). The
    // checksum rejects the frame; everything before it must survive.
    let mut bytes = std::fs::read(&journal).expect("read journal");
    assert_eq!(
        bytes.last(),
        Some(&b'\n'),
        "journal ends on a frame boundary"
    );
    let tail_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .expect("more than one frame");
    let target = tail_start + (bytes.len() - tail_start) / 2;
    bytes[target] ^= 0x10;
    std::fs::write(&journal, &bytes).expect("corrupt journal");

    let second = ServerProc::spawn(&dir);
    let client = second.client();
    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        metrics.recovered, 1,
        "losing job two's terminal frame re-enqueues exactly job two"
    );
    // Job one's frames were intact: its key still answers with its id.
    let retried = client.submit(&keyed_one).expect("retry one");
    assert_eq!(retried.id, one.id);
    assert_eq!(retried.state, JobState::Completed);
    // Job two reruns to completion under its original id.
    let report = client.wait_for_report(two.id, WAIT).expect("two reruns");
    assert_eq!(report.state, JobState::Completed);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Half-written request bodies — a client that dies mid-upload — must
/// neither crash the server nor wedge its accept loop.
#[test]
fn half_written_request_bodies_leave_the_server_serving() {
    let dir = scratch_dir("half-write");
    let server = ServerProc::spawn(&dir);

    // Open a connection, send headers promising a body, deliver only a
    // fragment, then vanish.
    for fragment in ["{\"proto", ""] {
        let mut stream = std::net::TcpStream::connect(&server.addr).expect("connect");
        let head = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{fragment}"
        );
        stream.write_all(head.as_bytes()).expect("half-write");
        drop(stream);
    }

    // The server keeps answering: a real job sails through.
    let client = server.client();
    let submitted = client.submit(&estimate_request(3)).expect("submit");
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("job completes");
    assert_eq!(report.state, JobState::Completed);
    let health = client.health().expect("health");
    assert_eq!(health.status, "ok");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cluster chaos: SIGKILL one worker process mid-sweep. The
/// coordinator must notice the missed heartbeats, reassign the dead
/// worker's shards to the survivor, and still merge a report
/// bit-identical to an uninterrupted single-process run.
#[test]
fn sigkill_one_worker_mid_sweep_reassigns_and_merges_bit_identically() {
    // Baseline: the same request against one standalone server.
    let baseline_dir = scratch_dir("cluster-baseline");
    let request = sweep_request(17);
    let single = ServerProc::spawn(&baseline_dir);
    let submitted = single.client().submit(&request).expect("submit baseline");
    let mut baseline = single
        .client()
        .wait_for_report(submitted.id, WAIT)
        .expect("baseline completes")
        .sweep
        .expect("baseline sweep outcome");
    single.shutdown();

    // Coordinator + two real worker processes. One-point shards keep
    // the reassignment granular; fast heartbeats keep the test fast.
    let coordinator = ServerProc::spawn_coordinator(&[
        "--heartbeat-ms",
        "100",
        "--timeout-ms",
        "600",
        "--shard-points",
        "1",
    ]);
    let dir_a = scratch_dir("cluster-worker-a");
    let dir_b = scratch_dir("cluster-worker-b");
    let join = ["--join", coordinator.addr.as_str()];
    let worker_a = ServerProc::spawn_with(&dir_a, &[join[0], join[1], "--worker-name", "chaos-a"]);
    let worker_b = ServerProc::spawn_with(&dir_b, &[join[0], join[1], "--worker-name", "chaos-b"]);

    let client = coordinator.client();
    let ready = client.wait_ready(WAIT).expect("coordinator becomes ready");
    assert!(ready.ready, "coordinator not ready: {}", ready.status);
    let submitted = client.submit(&request).expect("submit to coordinator");

    // Wait until a worker provably holds an in-flight shard, then
    // SIGKILL that worker — its shard dies with it.
    let deadline = Instant::now() + WAIT;
    let victim_is_a = loop {
        assert!(Instant::now() < deadline, "no shard ever went in flight");
        let status = client.status(submitted.id).expect("status");
        assert!(
            !status.state.is_terminal(),
            "sweep reached {:?} before the kill ({:?})",
            status.state,
            status.error
        );
        let busy_a = worker_a
            .client()
            .metrics()
            .map(|m| m.in_flight > 0)
            .unwrap_or(false);
        let busy_b = worker_b
            .client()
            .metrics()
            .map(|m| m.in_flight > 0)
            .unwrap_or(false);
        if busy_a {
            break true;
        }
        if busy_b {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (victim, survivor) = if victim_is_a {
        (worker_a, worker_b)
    } else {
        (worker_b, worker_a)
    };
    victim.kill9();

    // The survivor absorbs the dead worker's shards and the job
    // completes with the single-process numbers.
    let report = client
        .wait_for_report(submitted.id, WAIT)
        .expect("sweep survives the worker kill");
    assert_eq!(report.state, JobState::Completed);
    let mut merged = report.sweep.expect("merged sweep outcome");
    strip_outcome_timings(&mut baseline);
    strip_outcome_timings(&mut merged);
    assert_eq!(
        merged, baseline,
        "a worker kill must not change the merged sweep"
    );

    // The failover actually happened: one death, at least one shard
    // moved. (Prometheus exposition doubles as the smoke check here.)
    let prometheus = client.metrics_prometheus().expect("prometheus metrics");
    let counter = |name: &str| -> f64 {
        prometheus
            .lines()
            .find(|l| l.starts_with(name) && l.contains(' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{prometheus}"))
    };
    assert!(counter("ecripse_cluster_workers_dead_total") >= 1.0);
    assert!(counter("ecripse_cluster_shards_reassigned_total") >= 1.0);
    assert!(counter("ecripse_cluster_jobs_completed_total") >= 1.0);

    survivor.shutdown();
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
