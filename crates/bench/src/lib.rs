//! Shared plumbing for the experiment binaries.
//!
//! Each figure/table of the paper has one binary under `src/bin/`:
//!
//! | binary    | reproduces | output |
//! |-----------|------------|--------|
//! | `table1`  | Table I    | stdout (conditions + derived quantities) |
//! | `fig4`    | Fig. 4     | `results/fig4_iter*.csv` particle clouds |
//! | `fig5`    | Fig. 5     | `results/fig5_*.csv` butterfly curves |
//! | `fig6`    | Fig. 6     | `results/fig6_*.csv` + `results/fig6.json` |
//! | `fig7`    | Fig. 7     | `results/fig7_*.csv` + `results/fig7.json` |
//! | `fig8`    | Fig. 8     | `results/fig8.csv` + `results/fig8.json` |
//! | `headline`| Sec. IV headline numbers | stdout table from the saved JSON |
//!
//! Every binary accepts `--quick` (reduced sample counts, minutes →
//! seconds) and `--threads N` (simulation worker threads; 0 = one per
//! core, the default), and honours a `RESULTS_DIR` environment variable
//! (default `./results`). The `fig6`/`fig7`/`fig8` binaries also emit
//! structured observability reports (`*_report*.json`, one
//! [`RunReport`](ecripse_core::observe::RunReport) per estimation run /
//! per α point).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod fault;

use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::ensemble::EnsembleConfig;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::oracle::OracleConfig;
use ecripse_core::particle::ParticleFilterConfig;
use ecripse_svm::classifier::SvmConfig;
use serde::Serialize;
use std::path::PathBuf;

/// The tuned ECRIPSE configuration used by all experiments (see
/// `EXPERIMENTS.md` for how these values were selected).
pub fn paper_config(n_is: usize, m_rtn: usize) -> EcripseConfig {
    EcripseConfig {
        ensemble: EnsembleConfig {
            n_filters: 4,
            filter: ParticleFilterConfig {
                n_particles: 100,
                sigma_prediction: 0.3,
            },
            max_reseeds: 3,
        },
        sigma_kernel: 0.8,
        oracle: OracleConfig {
            svm: Some(SvmConfig {
                uncertain_band: 0.02,
                ..SvmConfig::default()
            }),
            k_train_per_batch: 256,
            retrain_threshold: 512,
        },
        importance: ImportanceConfig {
            n_samples: n_is,
            m_rtn,
            trace_every: 0,
        },
        m_rtn_stage1: if m_rtn > 1 { 10 } else { 1 },
        threads: threads_arg(),
        ..EcripseConfig::default()
    }
}

/// The `--threads N` command-line override (0 = one worker per core).
/// Applied by [`paper_config`], so every experiment binary honours it.
pub fn threads_arg() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(v) = args.next() {
                return v
                    .parse()
                    .unwrap_or_else(|_| panic!("--threads: cannot parse '{v}' as a thread count"));
            }
        }
    }
    0
}

/// Where experiment outputs are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("cannot create results directory");
    path
}

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Serialises a result to pretty JSON in the results directory.
///
/// # Panics
///
/// Panics on I/O or serialisation failure (experiment binaries want loud
/// failures).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serialisable result");
    std::fs::write(&path, json).expect("write result file");
    eprintln!("wrote {}", path.display());
}

/// Reads a previously saved JSON result, if present.
pub fn read_json<T: serde::de::DeserializeOwned>(name: &str) -> Option<T> {
    let path = results_dir().join(name);
    let text = std::fs::read_to_string(&path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Writes raw CSV text into the results directory.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_csv(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write csv file");
    eprintln!("wrote {}", path.display());
}

/// Pretty-prints a "paper vs measured" comparison row.
pub fn report_row(metric: &str, paper: &str, measured: &str) {
    println!("{metric:<48} paper: {paper:<14} measured: {measured}");
}

/// Formats a simulation count compactly (`27.3k`, `1.2M`).
pub fn fmt_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_ranges() {
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(27_300), "27.3k");
        assert_eq!(fmt_count(1_200_000), "1.20M");
    }

    #[test]
    fn paper_config_is_classifier_enabled() {
        let cfg = paper_config(1000, 1);
        assert!(cfg.oracle.svm.is_some());
        assert_eq!(cfg.importance.n_samples, 1000);
        assert_eq!(cfg.m_rtn_stage1, 1);
        let cfg = paper_config(1000, 20);
        assert_eq!(cfg.m_rtn_stage1, 10);
    }

    #[test]
    fn results_roundtrip_json() {
        std::env::set_var(
            "RESULTS_DIR",
            std::env::temp_dir().join("ecripse-test-results"),
        );
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct T {
            x: f64,
        }
        write_json("t.json", &T { x: 1.5 });
        let back: T = read_json("t.json").expect("written above");
        assert_eq!(back, T { x: 1.5 });
        std::env::remove_var("RESULTS_DIR");
    }
}
