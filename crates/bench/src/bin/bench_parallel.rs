//! Records `BENCH_parallel.json`: wall-clock of the fig6/headline
//! RDF-only workload under the batched + parallel pipeline, comparing
//! the fixed-resolution cold path against the warm-started stack
//! (adaptive butterfly resolution + two-tier neighbour cache) and a
//! resident service resubmission served from the persistent verdict
//! store.
//!
//! ```text
//! cargo run --release -p ecripse-bench --bin bench_parallel \
//!     [--quick] [--threads N] [--check PATH]
//! ```
//!
//! Every configuration runs the same seed and must produce the same
//! `P_fail` and simulation count (the determinism contract); the binary
//! asserts this before writing the report. With `--check PATH` the run
//! instead compares its estimates and simulation counts against the
//! reference report at `PATH` (the committed `BENCH_parallel.json`) and
//! exits non-zero on any drift — the CI smoke job runs this in `--quick`
//! mode. The JSON lands in the repository root (next to the figure
//! outputs' `results/`), with the core count recorded so numbers from
//! different machines are not compared blindly.

use ecripse_bench::{fmt_count, paper_config, quick_mode};
use ecripse_core::bench::Testbench;
use ecripse_core::cache::{MemoCacheConfig, WarmBench, WarmCacheConfig};
use ecripse_core::ecripse::{Ecripse, EcripseConfig, EcripseResult};
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::telemetry::{MetricsRegistry, TelemetryObserver};
use ecripse_serve::shared::{tag_for, SharedBench, VerdictCache};
use ecripse_spice::testbench::BenchConfig;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct ConfigReport {
    name: String,
    threads: usize,
    /// Whether the adaptive coarse-first butterfly policy was active.
    adaptive: bool,
    seconds: f64,
    p_fail: f64,
    simulations: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// `None` until the memo-cache has seen traffic (was the string
    /// `"NaN"` in schema v1 reports).
    cache_hit_rate: Option<f64>,
    /// Newton iterations (node-current evaluations) spent inside the
    /// circuit solver.
    newton_iters: u64,
    /// Operating-point curve solves (LU factorisations).
    factorisations: u64,
    /// Butterfly evaluations warm-started from a neighbour seed.
    warm_start_seeds: u64,
    /// Warm-cache exact-tier hits (0 for configs without the cache).
    warm_exact_hits: u64,
    /// Warm-cache neighbour-tier seeds offered.
    warm_seeded: u64,
    /// Raw simulator batches observed by the telemetry bridge.
    sim_batches: u64,
    /// Simulator-batch latency percentiles in seconds (0 when no
    /// batches were recorded).
    sim_batch_p50_s: f64,
    sim_batch_p90_s: f64,
    sim_batch_p99_s: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    workload: String,
    cores: usize,
    quick: bool,
    configs: Vec<ConfigReport>,
    /// Wall-clock ratio of the fixed-resolution cold path over the
    /// warm-started serial stack (adaptive + neighbour cache).
    speedup_warm_vs_fixed: f64,
    /// Wall-clock ratio of all-cores over serial, both warm-started.
    speedup_parallel_vs_serial: f64,
    /// Wall-clock ratio of the cold service run over resubmission
    /// against the snapshot-restored persistent verdict store.
    speedup_warm_serve: f64,
    note: String,
}

/// One measured configuration: wall-clock, estimate, and the full
/// counter set (memo-cache, solver effort, warm-cache tiers).
fn run_bench<B: Testbench>(
    name: &str,
    mut cfg: EcripseConfig,
    threads: usize,
    adaptive: bool,
    bench: B,
    warm: (u64, u64),
) -> ConfigReport {
    cfg.threads = threads;
    cfg.cache = MemoCacheConfig::default();
    // A per-config registry: the telemetry bridge times every raw
    // simulator batch, giving latency percentiles next to wall-clock.
    let registry = MetricsRegistry::new();
    let bridge = TelemetryObserver::new(&registry);
    let t = Instant::now();
    let res: EcripseResult = Ecripse::new(cfg, bench)
        .estimate_observed(&bridge)
        .expect("estimate");
    let seconds = t.elapsed().as_secs_f64();
    let batches = registry.histogram(
        "ecripse_sim_batch_seconds",
        "Wall-clock latency of one raw simulator batch",
    );
    let (p50, p90, p99) = batches.percentiles().unwrap_or((0.0, 0.0, 0.0));
    let stats = &res.oracle_stats;
    println!(
        "{name:<18} {seconds:>8.2} s   P_fail {:.4e}   {} sims   newton {}   warm seeds {}   exact hits {}",
        res.p_fail,
        fmt_count(res.simulations),
        fmt_count(stats.newton_iters),
        fmt_count(stats.warm_start_seeds),
        fmt_count(warm.0),
    );
    let memo_total = stats.cache_hits + stats.cache_misses;
    ConfigReport {
        name: name.to_string(),
        threads,
        adaptive,
        seconds,
        p_fail: res.p_fail,
        simulations: res.simulations,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_hit_rate: (memo_total > 0).then(|| stats.cache_hits as f64 / memo_total as f64),
        newton_iters: stats.newton_iters,
        factorisations: stats.factorisations,
        warm_start_seeds: stats.warm_start_seeds,
        warm_exact_hits: warm.0,
        warm_seeded: warm.1,
        sim_batches: batches.count(),
        sim_batch_p50_s: p50,
        sim_batch_p90_s: p90,
        sim_batch_p99_s: p99,
    }
}

/// The fixed-resolution reference bench: adaptive policy disabled, every
/// butterfly solved on the full grid at the legacy tolerance.
fn fixed_bench() -> SramScenarioBench {
    let mut config = BenchConfig::default();
    config.adaptive.enabled = false;
    SramScenarioBench::with_config(Scenario::ReadSnm, config)
}

/// The `--check PATH` argument, if present.
fn check_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--check" {
            return Some(a_next(&mut args));
        }
    }
    None
}

fn a_next(args: &mut std::env::Args) -> String {
    args.next()
        .unwrap_or_else(|| panic!("--check requires a reference report path"))
}

/// Compares the fresh measurement against the committed reference:
/// estimates and simulation counts must match bit-exactly per config
/// (wall-clock and latency fields are machine-dependent and ignored).
fn check_against(reference_path: &str, fresh: &Report) -> Result<(), String> {
    let text = std::fs::read_to_string(reference_path)
        .map_err(|e| format!("cannot read reference {reference_path}: {e}"))?;
    let reference: Report = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse reference {reference_path}: {e}"))?;
    let mut drift = Vec::new();
    for fresh_config in &fresh.configs {
        let Some(ref_config) = reference
            .configs
            .iter()
            .find(|c| c.name == fresh_config.name)
        else {
            drift.push(format!(
                "config {:?} missing from the reference report",
                fresh_config.name
            ));
            continue;
        };
        if fresh_config.p_fail.to_bits() != ref_config.p_fail.to_bits() {
            drift.push(format!(
                "{}: P_fail {} != reference {}",
                fresh_config.name, fresh_config.p_fail, ref_config.p_fail
            ));
        }
        if fresh_config.simulations != ref_config.simulations {
            drift.push(format!(
                "{}: {} simulations != reference {}",
                fresh_config.name, fresh_config.simulations, ref_config.simulations
            ));
        }
    }
    if reference.quick != fresh.quick {
        drift.push(format!(
            "mode mismatch: reference quick={}, this run quick={}",
            reference.quick, fresh.quick
        ));
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(drift.join("\n"))
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let n_is = if quick { 30_000 } else { 400_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = paper_config(n_is, 1);
    println!(
        "=== Parallel-pipeline benchmark: fig6/headline RDF-only workload ({} IS samples, {} cores) ===",
        fmt_count(n_is as u64),
        cores
    );

    // 1. The cold reference: fixed-resolution butterflies, no caches
    //    beyond the per-run memo-cache every config shares.
    let serial_fixed = run_bench("serial_fixed", cfg, 1, false, fixed_bench(), (0, 0));

    // 2/3. The warm-started stack: adaptive coarse-first resolution plus
    //    the two-tier neighbour cache, serial and all-cores. The cache
    //    layers *below* the pipeline's counters, so the simulation
    //    counts must not move.
    let warm = WarmBench::new(
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
        WarmCacheConfig::default(),
    );
    let serial_warm = {
        let stats = {
            let report = run_bench("serial_warm", cfg, 1, true, &warm, (0, 0));
            let stats = warm.stats();
            ConfigReport {
                warm_exact_hits: stats.exact_hits,
                warm_seeded: stats.seeded,
                ..report
            }
        };
        warm.clear();
        stats
    };
    let all_cores_warm = {
        let report = run_bench("all_cores_warm", cfg, 0, true, &warm, (0, 0));
        let stats = warm.stats();
        ConfigReport {
            warm_exact_hits: stats.exact_hits,
            warm_seeded: stats.seeded,
            ..report
        }
    };

    // 4. The resident-service path: a cold run populates the shared
    //    verdict cache, the snapshot round-trips through the persistent
    //    store, and the resubmission is served from the restored cache.
    let store = Arc::new(VerdictCache::new(MemoCacheConfig::default()));
    let tag = tag_for(&[0x6669_6736]);
    let cold_serve = run_bench(
        "cold_serve",
        cfg,
        0,
        true,
        SharedBench::new(
            SramScenarioBench::paper_cell(Scenario::ReadSnm),
            tag,
            Arc::clone(&store),
            true,
        ),
        (0, 0),
    );
    let snapshot = std::env::temp_dir().join(format!(
        "ecripse-bench-verdicts-{}.json",
        std::process::id()
    ));
    let saved = store.save_snapshot(&snapshot).expect("save verdict store");
    let restored = Arc::new(VerdictCache::new(MemoCacheConfig::default()));
    let loaded = restored
        .load_snapshot(&snapshot)
        .expect("load verdict store");
    assert_eq!(saved, loaded, "the snapshot must round-trip losslessly");
    let _ = std::fs::remove_file(&snapshot);
    let warm_serve = {
        let report = run_bench(
            "warm_serve",
            cfg,
            0,
            true,
            SharedBench::new(
                SramScenarioBench::paper_cell(Scenario::ReadSnm),
                tag,
                Arc::clone(&restored),
                true,
            ),
            (0, 0),
        );
        ConfigReport {
            warm_exact_hits: restored.hits(),
            warm_seeded: 0,
            ..report
        }
    };

    // 5. One non-default scenario: the hold-snm indicator through the
    //    same pipeline. Its estimate answers a different question, so it
    //    stays out of the cross-config invariance loop below; the
    //    `--check` pass still pins its own estimate bit-exactly.
    let hold_snm = {
        let mut hold_cfg = cfg;
        hold_cfg.scenario = Scenario::HoldSnm;
        hold_cfg.initial.r_max = hold_cfg
            .initial
            .r_max
            .max(Scenario::HoldSnm.recommended_r_max());
        run_bench(
            "hold_snm_scenario",
            hold_cfg,
            0,
            true,
            SramScenarioBench::paper_cell(Scenario::HoldSnm),
            (0, 0),
        )
    };

    let configs = vec![
        serial_fixed,
        serial_warm,
        all_cores_warm,
        cold_serve,
        warm_serve,
        hold_snm,
    ];

    // The determinism contract: thread count, the adaptive resolution
    // policy, and every cache tier must not change the estimate or the
    // simulation count. The hold-snm scenario (last config) estimates a
    // different indicator and is exempt.
    for c in &configs[1..5] {
        assert_eq!(
            c.p_fail.to_bits(),
            configs[0].p_fail.to_bits(),
            "P_fail must be invariant ({} vs serial_fixed)",
            c.name
        );
        assert_eq!(
            c.simulations, configs[0].simulations,
            "simulation count must be invariant ({} vs serial_fixed)",
            c.name
        );
    }
    // The retry layer hands the warm cache whole batches, so its seed
    // choice, and with it the solver work, does not depend on the
    // schedule either.
    assert_eq!(
        configs[2].newton_iters, configs[1].newton_iters,
        "Newton evaluations must be thread-invariant (all_cores_warm vs serial_warm)"
    );
    assert_eq!(
        configs[2].warm_start_seeds, configs[1].warm_start_seeds,
        "warm-start seeds must be thread-invariant (all_cores_warm vs serial_warm)"
    );
    assert!(
        configs[1].warm_exact_hits + configs[1].warm_seeded > 0,
        "the warm cache must actually engage on this workload"
    );
    assert!(
        configs[4].warm_exact_hits > 0,
        "the restored store must serve the resubmission"
    );
    assert!(
        configs[5].p_fail.to_bits() != configs[0].p_fail.to_bits(),
        "hold-snm estimates a different indicator and must not echo the read-snm number"
    );

    let speedup_warm_vs_fixed = configs[0].seconds / configs[1].seconds;
    let speedup_parallel = configs[1].seconds / configs[2].seconds;
    let speedup_warm_serve = configs[3].seconds / configs[4].seconds;
    println!(
        "\nwarm vs fixed (serial): {speedup_warm_vs_fixed:.2}x   all-cores vs serial: \
         {speedup_parallel:.2}x   store-warmed resubmission: {speedup_warm_serve:.2}x"
    );

    let report = Report {
        workload: format!(
            "fig6/headline RDF-only estimate, paper_config({n_is}, 1), SramScenarioBench::paper_cell(Scenario::ReadSnm)"
        ),
        cores,
        quick,
        configs,
        speedup_warm_vs_fixed,
        speedup_parallel_vs_serial: speedup_parallel,
        speedup_warm_serve,
        note: format!(
            "Measured on a {cores}-core machine. The parallel-vs-serial ratio is \
             bounded by the core count; on a single core it measures pure batching \
             overhead. serial_fixed disables the adaptive butterfly policy and all \
             warm-start caches; warm_serve resubmits against a verdict cache \
             restored from the persistent snapshot. P_fail and simulation counts \
             are asserted bit-identical across all read-snm configurations; \
             hold_snm_scenario runs the hold-retention indicator through the same \
             pipeline and is pinned by --check but exempt from cross-config \
             invariance."
        ),
    };

    if let Some(reference) = check_path() {
        return match check_against(&reference, &report) {
            Ok(()) => {
                println!("check passed: estimates match {reference}");
                ExitCode::SUCCESS
            }
            Err(drift) => {
                eprintln!("benchmark drift against {reference}:\n{drift}");
                ExitCode::FAILURE
            }
        };
    }
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write("BENCH_parallel.json", json).expect("write BENCH_parallel.json");
    eprintln!("wrote BENCH_parallel.json");
    ExitCode::SUCCESS
}
