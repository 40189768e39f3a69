//! `compare PARENT CHANGE`: one verdict per metric and workload between
//! two sets of runs recorded with `--json`.

use crate::spec::Spec;
use crate::stats::{median, quartiles, verdict, Verdict};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// One recorded run: its workload, every metric it measured, and whether
/// all its jobs completed and met their contracts.
struct Run {
    workload: String,
    metrics: Vec<(String, Value)>,
    correct: bool,
}

/// Reads the runs in `path`: a JSONL file, or a directory of them.
fn load(path: &Path) -> Result<Vec<Run>, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json" || x == "jsonl"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record =
                serde_json::from_str_value(line).map_err(|e| format!("{}: {e}", file.display()))?;
            let workload = record.get("workload").and_then(Value::as_str);
            let metrics = record.get("all_metrics").and_then(Value::as_object);
            let correct = record
                .get("result")
                .and_then(|r| r.get("correct"))
                .and_then(Value::as_bool);
            if let (Some(workload), Some(metrics)) = (workload, metrics) {
                runs.push(Run {
                    workload: workload.to_string(),
                    metrics: metrics.clone(),
                    correct: correct == Some(true),
                });
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no recorded runs", path.display()));
    }
    Ok(runs)
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric))
        .filter_map(|(_, v)| v.as_f64())
        .collect()
}

fn summary(xs: &[f64]) -> String {
    let [q1, _, q3] = quartiles(xs);
    format!("{:.4e} [{:.4e}, {:.4e}]", median(xs), q1, q3)
}

/// Prints, for every workload and metric both sides measured, each
/// side's median and quartiles and a verdict. Exits 1 when any metric
/// regressed or any run on either side was not correct (a job failed,
/// was rejected or timed out, or broke an output contract): timings
/// that leave out failed jobs cannot be compared.
///
/// # Errors
///
/// Unreadable run files.
pub fn compare(parent: &Path, change: &Path, spec: &Spec) -> Result<ExitCode, String> {
    let a = load(parent)?;
    let b = load(change)?;
    let mut workloads: Vec<String> = spec.workloads.clone();
    for run in a.iter().chain(&b) {
        if !workloads.contains(&run.workload) {
            workloads.push(run.workload.clone());
        }
    }
    println!(
        "{:<14} {:<32} {:>5} {:<38} {:<38} verdict",
        "workload", "metric", "runs", "parent median [q1, q3]", "change median [q1, q3]"
    );
    let mut blocking = 0;
    for workload in &workloads {
        for (side, runs) in [("parent", &a), ("change", &b)] {
            let incorrect = runs
                .iter()
                .filter(|r| &r.workload == workload && !r.correct)
                .count();
            if incorrect > 0 {
                blocking += 1;
                println!("{workload:<14} {incorrect} {side} run(s) not correct");
            }
        }
        // Named metrics first, in declaration order, then the extras.
        let mut names: Vec<String> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.clone())
            .collect();
        let mut extras: Vec<String> = a
            .iter()
            .chain(&b)
            .filter(|r| &r.workload == workload)
            .flat_map(|r| r.metrics.iter().map(|(n, _)| n.clone()))
            .filter(|n| !names.contains(n))
            .collect();
        extras.sort();
        extras.dedup();
        names.extend(extras);
        for name in names {
            let (pa, pb) = (values(&a, workload, &name), values(&b, workload, &name));
            if pa.is_empty() || pb.is_empty() {
                continue;
            }
            let word = match spec.find(&name) {
                Some(m) => {
                    let v = verdict(&pa, &pb, m.higher_is_better, m.bound);
                    if v == Verdict::Regressed {
                        blocking += 1;
                    }
                    v.word()
                }
                None => "-",
            };
            println!(
                "{:<14} {:<32} {:>2}/{:<2} {:<38} {:<38} {word}",
                workload,
                name,
                pa.len(),
                pb.len(),
                summary(&pa),
                summary(&pb)
            );
        }
    }
    Ok(if blocking == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
