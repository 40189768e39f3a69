//! Telemetry over the wire: Prometheus exposition on `GET /metrics`
//! (content negotiation, format validity, agreement with the JSON
//! document) and live job progress while a sweep is running.

use ecripse_core::bench::{LinearBench, Testbench};
use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::sweep::SweepBench;
use ecripse_serve::protocol::{JobSpec, JobState, SubmitRequest};
use ecripse_serve::{http, Client, ServeConfig, Server};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

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

/// A bench that sleeps on every evaluation, keeping a job running long
/// enough for the status endpoint to be polled mid-flight.
#[derive(Clone)]
struct SlowBench {
    inner: LinearBench,
}

impl Testbench for SlowBench {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        std::thread::sleep(Duration::from_micros(300));
        self.inner.fails(z)
    }
}

impl SweepBench for SlowBench {
    fn sigmas(&self) -> [f64; 6] {
        SweepBench::sigmas(&self.inner)
    }
}

/// Parses Prometheus text exposition, panicking on any malformed line.
/// Returns the value of every *unlabelled* sample plus the set of
/// sample names seen (labelled `_bucket` series included).
fn validate_exposition(text: &str) -> (HashMap<String, f64>, Vec<String>) {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut scalars = HashMap::new();
    let mut names = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a metric name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown metric kind {kind:?} in {line:?}"
            );
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "unexpected comment form in exposition: {line:?}"
        );
        // Sample line: `name[{labels}] value`.
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line:?}"));
        let parsed: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .unwrap_or_else(|_| panic!("bad sample value in {line:?}")),
        };
        let name = series.split('{').next().expect("split never empty");
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(
            types.contains_key(base),
            "sample {name:?} has no preceding # TYPE header"
        );
        names.push(name.to_string());
        if !series.contains('{') {
            scalars.insert(name.to_string(), parsed);
        }
    }
    (scalars, names)
}

#[test]
fn prometheus_exposition_parses_and_agrees_with_json() {
    // A journal (on an empty scratch directory) so boot performs a
    // replay and the replay-duration histogram gains its sample.
    let dir = std::env::temp_dir().join(format!(
        "ecripse-serve-telemetry-http-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let config = ServeConfig {
        journal: Some(dir.join("journal.jsonl")),
        ..ServeConfig::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", config, |_scenario, _vdd| linear_bench()).expect("bind");
    let client = Client::new(server.local_addr().to_string());

    // Complete one job so the job-duration histogram has a sample.
    let request = SubmitRequest::new(tiny_config(42), JobSpec::rdf_only(1.0));
    let submitted = client.submit(&request).expect("submit");
    let report = client.wait_for_report(submitted.id, WAIT).expect("report");
    assert_eq!(report.state, JobState::Completed);

    // Content negotiation on the raw wire: text/plain selects the
    // exposition, the default stays JSON.
    let raw = |accept: Option<&str>| -> (Vec<(String, String)>, String) {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        match accept {
            Some(a) => http::write_request_accepting(&mut stream, "GET", "/metrics", None, a)
                .expect("write"),
            None => http::write_request(&mut stream, "GET", "/metrics", None).expect("write"),
        }
        let (status, headers, body) = http::read_response(&mut stream).expect("read");
        assert_eq!(status, 200);
        (headers, body)
    };
    let (headers, json_body) = raw(None);
    let content_type = |headers: &[(String, String)]| {
        headers
            .iter()
            .find(|(n, _)| n == "content-type")
            .map(|(_, v)| v.clone())
            .expect("content-type header")
    };
    assert!(content_type(&headers).contains("application/json"));
    assert!(json_body.trim_start().starts_with('{'));
    let (headers, text_body) = raw(Some("text/plain"));
    assert!(content_type(&headers).contains("text/plain"));
    // The raw scrape is itself a valid exposition (a later scrape will
    // differ in uptime and HTTP-latency samples, so no byte equality).
    validate_exposition(&text_body);

    let metrics = client.metrics().expect("json metrics");
    let exposition = client.metrics_prometheus().expect("prometheus metrics");
    let (scalars, names) = validate_exposition(&exposition);

    // The scalar series agree with the JSON document they were
    // synthesised from.
    assert_eq!(
        scalars["ecripse_serve_submitted_total"],
        metrics.submitted as f64
    );
    assert_eq!(
        scalars["ecripse_serve_completed_total"],
        metrics.completed as f64
    );
    assert_eq!(scalars["ecripse_serve_workers"], metrics.workers as f64);
    assert_eq!(
        scalars["ecripse_serve_jobs_in_terminal_state"],
        metrics.jobs_in_terminal_state as f64
    );
    assert_eq!(metrics.jobs_in_terminal_state, 1);
    assert!(scalars["ecripse_serve_uptime_seconds"] > 0.0);
    assert!(metrics.uptime_seconds > 0.0);
    assert_eq!(
        scalars["ecripse_serve_oracle_simulated_total"],
        metrics.oracle.simulated as f64
    );
    // The observer bridge's oracle counters count whole runs, stage 2
    // included, so they agree with the document's oracle totals.
    assert!(metrics.oracle.classified > 0);
    for (name, total) in [
        ("ecripse_classified_total", metrics.oracle.classified),
        ("ecripse_cache_hits_total", metrics.oracle.cache_hits),
        ("ecripse_cache_misses_total", metrics.oracle.cache_misses),
    ] {
        assert_eq!(scalars[name], total as f64, "{name}");
    }

    // The job-duration histogram is present with the full triple, its
    // +Inf bucket equals its count, and one job was recorded.
    for suffix in ["_bucket", "_sum", "_count"] {
        assert!(
            names
                .iter()
                .any(|n| n == &format!("ecripse_serve_job_seconds{suffix}")),
            "missing ecripse_serve_job_seconds{suffix} in exposition"
        );
    }
    assert_eq!(scalars["ecripse_serve_job_seconds_count"], 1.0);
    assert!(scalars["ecripse_serve_job_seconds_sum"] > 0.0);
    let inf_bucket = exposition
        .lines()
        .find(|l| l.starts_with("ecripse_serve_job_seconds_bucket{le=\"+Inf\"}"))
        .expect("+Inf bucket line");
    assert!(inf_bucket.ends_with(" 1"));

    // Bucket counts are cumulative (non-decreasing in le order).
    let mut last = 0.0;
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("ecripse_serve_http_request_seconds_bucket"))
    {
        let value: f64 = line
            .rsplit(' ')
            .next()
            .expect("value")
            .parse()
            .expect("count");
        assert!(value >= last, "bucket counts must be cumulative: {line}");
        last = value;
    }
    assert!(
        last > 0.0,
        "http requests were made, histogram must be non-empty"
    );

    // The core observer bridge surfaced pipeline metrics too.
    assert!(scalars["ecripse_simulations_total"] > 0.0);

    // The queue-depth gauge is registered and idle (the one job has
    // already drained), and it agrees with the JSON document.
    assert_eq!(scalars["ecripse_serve_queue_depth"], 0.0);
    assert_eq!(
        scalars["ecripse_serve_queue_depth"],
        metrics.queue_depth as f64
    );

    // The journal-replay histogram is present with the full triple.
    // This server started from an empty directory, so exactly one
    // (near-instant) replay was observed at bind time.
    for suffix in ["_bucket", "_sum", "_count"] {
        assert!(
            names
                .iter()
                .any(|n| n == &format!("ecripse_serve_journal_replay_duration_seconds{suffix}")),
            "missing ecripse_serve_journal_replay_duration_seconds{suffix} in exposition"
        );
    }
    assert_eq!(
        scalars["ecripse_serve_journal_replay_duration_seconds_count"],
        1.0
    );
    assert!(scalars["ecripse_serve_journal_replay_duration_seconds_sum"] >= 0.0);
    assert_eq!(
        scalars["ecripse_serve_journal_replay_duration_seconds_sum"],
        metrics.journal_replay_duration_seconds
    );
    server.shutdown();
}

#[test]
fn running_sweep_status_shows_advancing_progress() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, |_scenario, _vdd| SlowBench {
        inner: linear_bench(),
    })
    .expect("bind");
    let client = Client::new(server.local_addr().to_string());

    let request = SubmitRequest::new(tiny_config(11), JobSpec::sweep(1.0, vec![0.2, 0.8]));
    let submitted = client.submit(&request).expect("submit sweep");
    assert!(
        submitted.progress.is_none(),
        "a queued job reports no progress"
    );

    // Poll while the job runs, collecting progress snapshots.
    let mut snapshots = Vec::new();
    for _ in 0..20_000 {
        let status = client.status(submitted.id).expect("status");
        if status.state.is_terminal() {
            break;
        }
        if status.state == JobState::Running {
            let progress = status.progress.expect("running job reports progress");
            snapshots.push(progress);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let final_status = client.wait(submitted.id, WAIT).expect("terminal state");
    assert_eq!(final_status.state, JobState::Completed);
    assert!(
        final_status.progress.is_none(),
        "a terminal job reports no progress"
    );

    assert!(
        snapshots.len() >= 2,
        "expected to observe the sweep mid-flight at least twice, saw {}",
        snapshots.len()
    );
    // Counters are monotone snapshot-to-snapshot, and simulations
    // actually advanced while we watched.
    for pair in snapshots.windows(2) {
        assert!(pair[1].simulations >= pair[0].simulations);
        assert!(pair[1].iterations >= pair[0].iterations);
        assert!(pair[1].is_samples >= pair[0].is_samples);
    }
    let first = snapshots.first().expect("non-empty");
    let last = snapshots.last().expect("non-empty");
    assert!(
        last.simulations > first.simulations,
        "simulations must advance while the sweep runs ({} -> {})",
        first.simulations,
        last.simulations
    );
    assert!(
        snapshots.iter().any(|p| p.stage.is_some()),
        "at least one snapshot names the running stage"
    );
    server.shutdown();
}
