//! `ecripse-cli --report` end to end: the binary must write a parseable
//! `RunReport` whose simulation accounting matches both its own oracle
//! counters and the numbers printed on stdout — and the observability
//! flags (`--progress`, `--trace-log`) must route diagnostics to stderr
//! and a JSONL trace file without disturbing the stdout contract. Bad
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

    // The trace log is non-empty JSONL: one JSON object per line, each
    // naming its event, bracketed by run_started … run_finished.
    let text = std::fs::read_to_string(&trace).expect("trace log exists");
    std::fs::remove_dir_all(&dir).ok();
    let mut names = Vec::new();
    for line in text.lines() {
        let value: serde_json::Value = serde_json::from_str(line).expect("trace line parses");
        assert!(
            value.as_object().is_some(),
            "trace line is not an object: {line}"
        );
        let name = value
            .get("name")
            .and_then(serde_json::Value::as_str)
            .expect("trace line names its event")
            .to_string();
        let t_s = value
            .get("t_s")
            .and_then(serde_json::Value::as_f64)
            .expect("trace line carries a timestamp");
        assert!(t_s.is_finite() && t_s >= 0.0);
        if name == "run_finished" {
            let p_fail = value
                .get("p_fail")
                .and_then(serde_json::Value::as_f64)
                .expect("run_finished carries p_fail");
            assert!(p_fail.is_finite());
        }
        names.push(name);
    }
    assert_eq!(names.first().map(String::as_str), Some("run_started"));
    assert_eq!(names.last().map(String::as_str), Some("run_finished"));
    for expected in ["stage_finished", "iteration_finished", "chunk_finished"] {
        assert!(
            names.iter().any(|n| n == expected),
            "trace log lacks {expected} events: {names:?}"
        );
    }
}
