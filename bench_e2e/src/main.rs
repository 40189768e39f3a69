//! `bench_e2e`: end-to-end benchmark of the library and serve paths,
//! with per-layer attribution. See `README.md` next to this
//! package for workloads, metrics and how to read the output.
//!
//! ```text
//! bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--json OUT]
//! bench_e2e --check [--bless]
//! bench_e2e compare PARENT CHANGE
//! ```
//!
//! `--seconds` fixes how many jobs a run times (`Workload::jobs`); the
//! run never stops on the clock.

mod check;
mod compare;
mod layers;
mod spec;
mod stats;
mod timed;
mod workload;

use layers::Metric;
use serde_json::Value;
use spec::Spec;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use timed::Probe;
use workload::{Benches, Pass, Sizes, Sram, Traced, Workload};

const USAGE: &str = "usage:
  bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--json OUT]
  bench_e2e --check [--bless]
  bench_e2e compare PARENT CHANGE
workloads: estimate-rtn, serve-cold, serve-warm";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The repository root: this package's parent directory.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."))
}

/// Where runs keep their journals and write their spans.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load(&root().join("BENCHMARK.json"))?;
    if args.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = args else {
            return Err(USAGE.to_string());
        };
        return compare::compare(Path::new(parent), Path::new(change), &spec);
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut json = None;
    let mut check = false;
    let mut bless = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            "--check" => check = true,
            "--bless" => bless = true,
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let scratch = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = if check {
        check::check(bless, &scratch)
    } else {
        let workload = workload.ok_or(USAGE)?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        run(
            &spec,
            workload,
            seed,
            seconds,
            trace,
            json.as_deref(),
            &scratch,
        )
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// What one run of a workload measured.
pub struct Measured {
    /// Every metric computed, named ones and extras.
    pub metrics: Vec<Metric>,
    /// Jobs attempted across the run's passes.
    pub attempted: usize,
    /// Failed jobs plus contract violations.
    pub failed: usize,
    /// Job errors, contract violations and attribution warnings, for the
    /// log.
    pub problems: Vec<String>,
}

/// The errors of a pass's failed jobs and its contract violations.
fn problems(pass: &Pass) -> impl Iterator<Item = String> + '_ {
    pass.jobs
        .iter()
        .filter_map(|job| {
            job.result
                .as_ref()
                .err()
                .map(|e| format!("job {} failed: {e}", job.k))
        })
        .chain(pass.violations.iter().cloned())
}

/// Runs `workload` once. Untraced: `setups` set-ups and `jobs` jobs.
/// Traced: an untraced pass of `jobs` jobs, then the same jobs with every
/// bench wrapped in `Timed`; their results must agree bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn measure<K: Benches>(
    workload: Workload,
    sizes: &Sizes,
    benches: &K,
    seed: u64,
    jobs: u64,
    traced: bool,
    setups: usize,
    scratch: &Path,
    spans_out: Option<&Path>,
) -> Result<Measured, String> {
    let first = workload::run(workload, sizes, benches, seed, jobs, setups, scratch)?;
    if first.completed().next().is_none() {
        return Err(format!(
            "no {} job completed: {:?}",
            workload.name(),
            first.jobs.first().map(|j| &j.result)
        ));
    }
    let mut measured = if traced {
        let probed = Traced {
            inner: benches.clone(),
            probe: Probe::default(),
        };
        let second = workload::run(workload, sizes, &probed, seed, jobs, 1, scratch)?;
        let mut problems: Vec<String> = problems(&first).chain(problems(&second)).collect();
        let mut differ = 0;
        for (plain, probed_job) in first.jobs.iter().zip(&second.jobs) {
            if let (Ok(a), Ok(b)) = (&plain.result, &probed_job.result) {
                if a.fingerprint() != b.fingerprint() {
                    differ += 1;
                    problems.push(format!(
                        "traced job {} differs from the untraced run",
                        plain.k
                    ));
                }
            }
        }
        let (metrics, warnings) = layers::per_layer(&second, &probed.probe, &first);
        problems.extend(warnings);
        if let Some(path) = spans_out {
            write_spans(path, &second, &probed.probe)?;
        }
        Measured {
            metrics,
            attempted: first.jobs.len() + second.jobs.len(),
            failed: first.failed() + second.failed() + differ,
            problems,
        }
    } else {
        Measured {
            metrics: layers::end_to_end(&first),
            attempted: first.jobs.len(),
            failed: first.failed(),
            problems: problems(&first).collect(),
        }
    };
    measured.metrics.push(Metric {
        name: "failed_frac".to_string(),
        value: measured.failed as f64 / measured.attempted as f64,
        unit: "ratio",
        n: measured.attempted,
    });
    Ok(measured)
}

fn run(
    spec: &Spec,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<&Path>,
    scratch: &Path,
) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load_start = loadavg();
    let commit = commit();
    println!(
        "# bench_e2e workload={} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    println!("# nproc {nproc}");
    println!("# commit {commit}");
    println!("# loadavg_start {load_start}");
    // A traced run times the same jobs twice, untraced and traced.
    let (jobs, setups) = if trace {
        (workload.jobs(seconds / 2.0), 1)
    } else {
        (workload.jobs(seconds), SETUPS)
    };
    println!("# jobs {jobs}");
    let spans_out = out_dir().join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let measured = measure(
        workload,
        &Sizes::sram(),
        &Sram,
        seed,
        jobs,
        trace,
        setups,
        scratch,
        trace.then_some(spans_out.as_path()),
    )?;
    for line in &measured.problems {
        println!("# {line}");
    }
    print!("{}", render(&measured.metrics));
    let load_end = loadavg();
    println!("# loadavg_end {load_end}");
    if trace {
        println!("# spans written to {}", spans_out.display());
    }
    let named = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let selected = select(named, &measured.metrics)?;
    let correct = measured.failed == 0;
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(measured.attempted as f64)),
        ("failed".into(), Value::Number(measured.failed as f64)),
        ("metrics".into(), selected),
    ]);
    if let Some(path) = json {
        let mut record = vec![
            (
                "workload".to_string(),
                Value::String(workload.name().into()),
            ),
            ("seed".into(), Value::String(seed.to_string())),
            ("seconds".into(), Value::Number(seconds)),
            ("trace".into(), Value::Bool(trace)),
            ("nproc".into(), Value::Number(nproc as f64)),
            ("loadavg_start".into(), Value::String(load_start)),
            ("loadavg_end".into(), Value::String(load_end)),
            ("commit".into(), Value::String(commit)),
            ("result".into(), result.clone()),
        ];
        let all = measured
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Value::Number(m.value)))
            .collect();
        record.push(("all_metrics".into(), Value::Object(all)));
        append_line(path, &Value::Object(record))?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

/// One `name value unit (n=...)` line per metric.
pub fn render(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&format!("{} {} {} (n={})\n", m.name, m.value, m.unit, m.n));
    }
    out
}

/// The metrics `named` lists, as the result line's `metrics` object. Every
/// named metric must have been measured, in the declared unit, as a
/// number.
pub fn select(named: &[spec::MetricSpec], metrics: &[Metric]) -> Result<Value, String> {
    let mut out = Vec::new();
    for want in named {
        let got = metrics
            .iter()
            .find(|m| m.name == want.name)
            .ok_or(format!("metric {} was not measured", want.name))?;
        if got.unit != want.unit {
            return Err(format!(
                "metric {} measured in {}, declared in {}",
                want.name, got.unit, want.unit
            ));
        }
        if !got.value.is_finite() {
            return Err(format!("metric {} is {}", want.name, got.value));
        }
        out.push((
            want.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::Number(got.value)),
                ("unit".into(), Value::String(want.unit.clone())),
            ]),
        ));
    }
    Ok(Value::Object(out))
}

fn append_line(path: &Path, value: &Value) -> Result<(), String> {
    let line = serde_json::to_string(value).map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes the traced pass's spans as JSONL: the program's spans per job,
/// then every simulator call of every bench the pass built.
fn write_spans(path: &Path, pass: &Pass, probe: &Probe) -> Result<(), String> {
    let mut lines = Vec::new();
    for job in &pass.jobs {
        for span in &job.spans {
            lines.push(Value::Object(vec![
                ("name".into(), Value::String(span.name.clone())),
                ("job".into(), Value::Number(job.k as f64)),
                ("node".into(), Value::String(span.node.clone())),
                ("span_id".into(), Value::String(span.span_id.clone())),
                (
                    "parent_span_id".into(),
                    Value::String(span.parent_span_id.clone()),
                ),
                ("start_ts".into(), Value::Number(span.start_ts)),
                ("duration_s".into(), Value::Number(span.duration_s)),
            ]));
        }
    }
    for (index, log) in probe.logs().iter().enumerate() {
        for call in log.calls() {
            lines.push(Value::Object(vec![
                ("name".into(), Value::String("spice".into())),
                ("log".into(), Value::Number(index as f64)),
                ("node".into(), Value::String(log.node.clone())),
                ("start_ts".into(), Value::Number(call.start)),
                ("duration_s".into(), Value::Number(call.end - call.start)),
                ("samples".into(), Value::Number(call.samples as f64)),
            ]));
        }
    }
    let mut text = String::new();
    for line in lines {
        text.push_str(&serde_json::to_string(&line).map_err(|e| e.to_string())?);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The three load averages from `/proc/loadavg`.
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)
                .map(|hash| hash.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_core::bench::LinearBench;
    use ecripse_core::scenario::Scenario;

    /// The synthetic 6-D bench: every workload runs end to end on
    /// it in milliseconds per job.
    #[derive(Debug, Clone, Copy)]
    struct Linear;

    impl Benches for Linear {
        type Bench = LinearBench;
        fn build(&self, _node: &str, _scenario: Scenario, _vdd: f64) -> LinearBench {
            LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5)
        }
    }

    #[test]
    fn job_counts_are_set_by_seconds_alone() {
        let at = |seconds| Workload::ALL.map(|w| w.jobs(seconds));
        // The untraced runs `BENCHMARK.json` declares, and a traced run's
        // two passes.
        assert_eq!(at(25.0), [4, 13, 278]);
        assert_eq!(at(12.5), [4, 6, 139]);
        // Never less than one rotation.
        assert_eq!(at(0.1), [4, 4, 4]);
    }

    #[test]
    fn every_workload_prints_every_named_metric_without_failures() {
        let spec = Spec::load(&root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        let toy = Sizes::toy();
        let scratch = out_dir().join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let started = std::time::Instant::now();
        for workload in Workload::ALL {
            assert!(spec.workloads.iter().any(|w| w == workload.name()));
            for traced in [false, true] {
                let measured = measure(workload, &toy, &Linear, 7, 4, traced, 1, &scratch, None)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                let text = render(&measured.metrics);
                assert!(
                    text.lines().any(|l| l.starts_with("failed_frac 0 ")),
                    "{}: {:?}",
                    workload.name(),
                    measured.problems
                );
                let named = if traced {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                for m in named {
                    assert!(
                        text.lines().any(|l| l.starts_with(&format!("{} ", m.name))),
                        "{} did not print {}",
                        workload.name(),
                        m.name
                    );
                }
                select(named, &measured.metrics)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "smoke run took {:?}",
            started.elapsed()
        );
    }
}
