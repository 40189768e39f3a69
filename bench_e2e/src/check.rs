//! `--check`: the per-job `P_fail` bits, CI bits and simulation counts of
//! seed 1 of every workload, against `reference.json`.
//!
//! Every path is deterministic at any thread count, so any difference is
//! a change in what the program computes. `--bless` rewrites the
//! reference after a change that means to move the numbers.

use crate::workload::{self, Outcome, Sizes, Sram, Workload};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Jobs checked per workload: one per duty ratio or scenario.
const JOBS: u64 = 4;

fn reference_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json")
}

fn hex_bits(x: f64) -> Value {
    Value::String(format!("{:016x}", x.to_bits()))
}

fn fingerprint(k: u64, outcome: &Outcome) -> Value {
    Value::Object(vec![
        ("job".into(), Value::Number(k as f64)),
        ("p_fail_bits".into(), hex_bits(outcome.p_fail)),
        ("ci95_bits".into(), hex_bits(outcome.ci95)),
        (
            "simulations".into(),
            Value::Number(outcome.simulations as f64),
        ),
    ])
}

/// Runs the check (or, with `bless`, rewrites the reference).
///
/// # Errors
///
/// A workload that cannot run, or an unreadable reference.
pub fn check(bless: bool, scratch: &Path) -> Result<ExitCode, String> {
    let mut measured = Vec::new();
    let mut drift = 0;
    for w in Workload::ALL {
        let pass = workload::run(w, &Sizes::sram(), &Sram, 1, JOBS, 1, scratch)?;
        let mut prints = Vec::new();
        for job in &pass.jobs {
            match &job.result {
                Ok(outcome) => prints.push(fingerprint(job.k, outcome)),
                Err(e) => return Err(format!("{} job {} failed: {e}", w.name(), job.k)),
            }
        }
        for violation in &pass.violations {
            println!("{}: {violation}", w.name());
            drift += 1;
        }
        measured.push((w.name().to_string(), Value::Array(prints)));
    }
    let measured = Value::Object(measured);
    let path = reference_path();
    if bless {
        let text = serde_json::to_string_pretty(&measured).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let reference =
        serde_json::from_str_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for w in Workload::ALL {
        let want = reference.get(w.name()).and_then(Value::as_array);
        let got = measured.get(w.name()).and_then(Value::as_array);
        match (want, got) {
            (Some(want), Some(got)) if want == got => {
                println!("check {}: ok ({} jobs)", w.name(), got.len());
            }
            (Some(want), Some(got)) => {
                drift += 1;
                println!("check {}: DRIFT", w.name());
                for (i, (a, b)) in want.iter().zip(got).enumerate() {
                    if a != b {
                        println!(
                            "  job {i}: reference {}",
                            serde_json::to_string(a).unwrap_or_default()
                        );
                        println!(
                            "  job {i}: measured  {}",
                            serde_json::to_string(b).unwrap_or_default()
                        );
                    }
                }
                if want.len() != got.len() {
                    println!(
                        "  {} jobs in the reference, {} measured",
                        want.len(),
                        got.len()
                    );
                }
            }
            _ => {
                drift += 1;
                println!("check {}: no reference", w.name());
            }
        }
    }
    Ok(if drift == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
