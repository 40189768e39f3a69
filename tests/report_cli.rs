//! `ecripse-cli --report` end to end: the binary must write a parseable
//! `RunReport` whose simulation accounting matches both its own oracle
//! counters and the numbers printed on stdout — and the observability
//! flags (`--progress`, `--trace-log`) must route diagnostics to stderr
//! and a JSONL span file without disturbing the stdout contract. Bad
//! numeric flags must fail fast with an error, not a panic.

use ecripse::prelude::*;
use std::process::Command;

#[test]
fn cli_estimate_writes_a_consistent_report() {
    let dir = std::env::temp_dir().join(format!("ecripse-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("report.json");

    let out = Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
        .args([
            "estimate",
            "--no-rtn",
            "--samples",
            "1000",
            "--seed",
            "7",
            "--threads",
            "2",
            "--report",
        ])
        .arg(&path)
        .output()
        .expect("ecripse-cli runs");
    assert!(
        out.status.success(),
        "cli failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("report file exists");
    let report: RunReport = serde_json::from_str(&text).expect("report parses");
    std::fs::remove_dir_all(&dir).ok();

    // The report reflects the CLI invocation.
    assert_eq!(report.seed, 7);
    assert_eq!(report.threads, 2);
    assert_eq!(report.is_samples, 1000);

    // Simulation counts must be consistent with the oracle counters:
    // every post-boundary simulation passed through the memo-cache, and
    // the oracle's simulated queries split exactly into hits and misses.
    let boundary = report
        .boundary
        .expect("estimate records the boundary search");
    assert_eq!(
        boundary.simulations + report.oracle.cache_misses,
        report.simulations
    );
    assert_eq!(
        report.oracle.simulated,
        report.oracle.cache_hits + report.oracle.cache_misses
    );
    assert_eq!(
        report.stages.iter().map(|s| s.simulations).sum::<u64>(),
        report.simulations
    );
    assert_eq!(report.margins.classified, report.oracle.classified);

    // Stage-2 convergence points end at the final figures.
    let last = report.stage2_chunks.last().expect("chunks recorded");
    assert_eq!(last.samples, report.is_samples);
    assert_eq!(last.estimate, report.p_fail);

    // The stdout cost line quotes the same totals the report carries.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cost = stdout
        .lines()
        .find(|l| l.starts_with("cost:"))
        .expect("cost line printed");
    assert!(
        cost.contains(&format!(
            "{} transistor-level simulations",
            report.simulations
        )),
        "stdout '{cost}' disagrees with report total {}",
        report.simulations
    );
    assert!(
        cost.contains(&format!("{} classifier answers", report.oracle.classified)),
        "stdout '{cost}' disagrees with report classified {}",
        report.oracle.classified
    );

    // Out-of-range numbers are rejected before any work: an `error:`
    // line and exit status 1, never a library panic.
    for bad in [
        &["estimate", "--tolerance", "0"][..],
        &["estimate", "--tolerance", "nan"],
        &["estimate", "--alpha", "1.5"],
        &["estimate", "--alpha", "-1"],
        &["estimate", "--samples", "0"],
        &["sweep", "--samples", "0", "--points", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
            .args(bad)
            .output()
            .expect("ecripse-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
    }
}

#[test]
fn cli_rejects_unknown_flags_and_prints_usage_for_help() {
    let cli = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
            .args(args)
            .output()
            .expect("ecripse-cli runs")
    };
    // `--help` prints the usage and runs nothing.
    for cmd in ["estimate", "sweep", "margin"] {
        let out = cli(&[cmd, "--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{cmd} --help failed");
        assert!(stdout.starts_with("usage: ecripse-cli"), "{cmd}: {stdout}");
        assert!(!stdout.contains("P_fail ="), "{cmd} --help ran: {stdout}");
    }
    // A flag the subcommand does not read is an error that names it,
    // before any work: nothing on stdout.
    for (bad, flag) in [
        (&["estimate", "--smaples", "10"][..], "--smaples"),
        (&["estimate", "--no-rtn", "--points", "3"], "--points"),
        (&["sweep", "--point", "3"], "--point"),
        (&["margin", "--seed", "1"], "--seed"),
    ] {
        let out = cli(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bad:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} ")),
            "{bad:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} ran anyway");
    }
}

#[test]
fn cli_progress_goes_to_stderr_and_trace_log_is_jsonl() {
    let dir = std::env::temp_dir().join(format!("ecripse-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
        .args([
            "estimate",
            "--no-rtn",
            "--samples",
            "1000",
            "--seed",
            "7",
            "--progress",
            "--trace-log",
        ])
        .arg(&trace)
        .output()
        .expect("ecripse-cli runs");
    assert!(
        out.status.success(),
        "cli failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Progress narration and the latency summary live on stderr only;
    // stdout stays the machine-consumable result block.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stderr.contains("[ecripse] run started"),
        "progress lines must go to stderr, got: {stderr}"
    );
    assert!(
        !stdout.contains("[ecripse]"),
        "stdout must stay free of progress narration, got: {stdout}"
    );
    assert!(
        stderr.contains("sim-batch latency over"),
        "latency summary missing from stderr: {stderr}"
    );
    assert!(
        stderr.contains("trace log written to"),
        "trace-log pointer missing from stderr: {stderr}"
    );

    // The trace log is JSONL, one span record per line, all under one
    // trace: the root `job` span first, then every pipeline stage
    // parented to it.
    let text = std::fs::read_to_string(&trace).expect("trace log exists");
    std::fs::remove_dir_all(&dir).ok();
    let spans: Vec<SpanRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("trace line is a span record"))
        .collect();
    let root = spans.first().expect("trace log is non-empty");
    assert_eq!(root.name, "job", "the root span comes first: {spans:?}");
    assert!(
        spans.iter().all(|span| span.trace_id == root.trace_id),
        "every span shares one trace id: {spans:?}"
    );
    for stage in ["boundary_search", "particle_filter", "importance_sampling"] {
        let span = spans
            .iter()
            .find(|span| span.name == stage)
            .unwrap_or_else(|| panic!("trace log lacks a {stage} span: {spans:?}"));
        assert_eq!(
            span.parent_span_id, root.span_id,
            "{stage} parents to the root"
        );
        assert!(span.duration_s >= 0.0, "{stage}: {span:?}");
    }
}

#[test]
fn cli_trace_log_is_written_when_the_run_fails() {
    // A sweep asked to resume from a corrupt checkpoint fails before
    // any stage runs; its trace log still holds the job's root span.
    let dir = std::env::temp_dir().join(format!("ecripse-trace-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let checkpoint = dir.join("checkpoint.json");
    std::fs::write(&checkpoint, "{\"garbage\": 1}").expect("write checkpoint");
    let trace = dir.join("trace.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
        .args(["sweep", "--points", "2", "--samples", "200", "--resume"])
        .arg("--checkpoint")
        .arg(&checkpoint)
        .arg("--trace-log")
        .arg(&trace)
        .output()
        .expect("ecripse-cli runs");
    assert_eq!(out.status.code(), Some(1), "the sweep must fail");

    let text = std::fs::read_to_string(&trace).expect("trace log exists");
    std::fs::remove_dir_all(&dir).ok();
    let spans: Vec<SpanRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("trace line is a span record"))
        .collect();
    assert_eq!(spans.len(), 1, "{spans:?}");
    assert_eq!(spans[0].name, "job");
    assert_eq!(spans[0].node, "cli");
}
