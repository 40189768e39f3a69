//! Records `BENCH_parallel.json`: wall-clock of the fig6/headline
//! RDF-only workload under the batched + parallel pipeline, comparing
//! the fixed-resolution path against the adaptive coarse-first butterfly
//! policy, serially and on all cores, and a resident service
//! resubmission served from the persistent verdict store; plus the
//! RTN-aware CLI `estimate` defaults at seed 1 on one thread and on all
//! cores — the scaling row.
//!
//! ```text
//! cargo run --release -p ecripse-bench --bin bench_parallel \
//!     [--quick] [--threads N] [--check PATH]
//! ```
//!
//! Every configuration runs the same seed and must produce the same
//! `P_fail` and simulation count (the determinism contract); the binary
//! asserts this before writing the report. With `--check PATH` the run
//! instead compares its estimates, simulation counts, Newton evaluations,
//! curve solves and memo/store hit and miss counts against the reference
//! report at `PATH` (the committed `BENCH_parallel.json`) and exits
//! non-zero on any drift — the CI smoke job runs this in `--quick` mode.
//! The JSON lands in the repository root (next to the figure
//! outputs' `results/`), with the core count recorded so numbers from
//! different machines are not compared blindly.

use ecripse_bench::{fmt_count, paper_config, quick_mode};
use ecripse_core::bench::Testbench;
use ecripse_core::cache::{tag_for, MemoBench, MemoCacheConfig, VerdictStore};
use ecripse_core::ecripse::{Ecripse, EcripseConfig, EcripseResult};
use ecripse_core::rtn_source::{NoRtn, RtnSource, SramRtn};
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::telemetry::{MetricsRegistry, TelemetryObserver};
use ecripse_serve::shared::{load_snapshot, save_snapshot};
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
    /// Transfer-curve point solves of the butterflies; no matrix is
    /// factorised despite the name.
    factorisations: u64,
    /// Verdicts served from the restored persistent store (`warm_serve`
    /// only; 0 elsewhere).
    store_hits: u64,
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
    /// Wall-clock ratio of the fixed-resolution path over the serial
    /// adaptive coarse-first path.
    speedup_adaptive_vs_fixed: f64,
    /// Wall-clock ratio of serial over all-cores, both adaptive.
    speedup_parallel_vs_serial: f64,
    /// Wall-clock ratio of the cold service run over resubmission
    /// against the snapshot-restored persistent verdict store.
    speedup_warm_serve: f64,
    /// Wall-clock ratio of `estimate_rtn_serial` over
    /// `estimate_rtn_all_cores`: what the machine's `cores` buy one
    /// RTN-aware estimate.
    speedup_all_cores: f64,
    note: String,
}

/// One measured RDF-only configuration (see [`run_bench_with`]).
fn run_bench<B: Testbench>(
    name: &str,
    cfg: EcripseConfig,
    threads: usize,
    adaptive: bool,
    bench: B,
) -> ConfigReport {
    let rtn = NoRtn::new(bench.dim());
    run_bench_with(name, cfg, threads, adaptive, bench, rtn)
}

/// The CLI `estimate` defaults at seed 1: read-snm at 0.7 V, α = 0.5.
fn estimate_rtn(name: &str, threads: usize) -> ConfigReport {
    let scenario = Scenario::ReadSnm;
    let bench = SramScenarioBench::at_vdd(scenario, 0.7);
    let rtn = SramRtn::paper_model(0.5, bench.sigmas());
    let mut cfg = EcripseConfig {
        scenario,
        seed: 1,
        ..EcripseConfig::default()
    };
    cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
    run_bench_with(name, cfg, threads, true, bench, rtn)
}

/// One measured configuration: wall-clock, estimate, and the full
/// counter set (memo-cache, solver effort).
fn run_bench_with<B: Testbench, S: RtnSource>(
    name: &str,
    mut cfg: EcripseConfig,
    threads: usize,
    adaptive: bool,
    bench: B,
    rtn: S,
) -> ConfigReport {
    cfg.threads = threads;
    cfg.cache = MemoCacheConfig::default();
    // A per-config registry: the telemetry bridge times every raw
    // simulator batch, giving latency percentiles next to wall-clock.
    let registry = MetricsRegistry::new();
    let bridge = TelemetryObserver::new(&registry);
    let t = Instant::now();
    let res: EcripseResult = Ecripse::with_rtn(cfg, bench, rtn)
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
        "{name:<22} {seconds:>8.2} s   P_fail {:.4e}   {} sims   newton {}   curve solves {}",
        res.p_fail,
        fmt_count(res.simulations),
        fmt_count(stats.newton_iters),
        fmt_count(stats.factorisations),
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
        store_hits: 0,
        sim_batches: batches.count(),
        sim_batch_p50_s: p50,
        sim_batch_p90_s: p90,
        sim_batch_p99_s: p99,
    }
}

/// The fixed-resolution reference bench: adaptive policy disabled, every
/// butterfly solved on the full grid at the legacy tolerance.
fn fixed_bench() -> SramScenarioBench {
    let config = BenchConfig {
        adaptive: false,
        ..BenchConfig::default()
    };
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
/// estimates, simulation counts and the solver work counters must match
/// exactly per config (wall-clock and latency fields are
/// machine-dependent and ignored).
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
        let counts = [
            (
                "simulations",
                fresh_config.simulations,
                ref_config.simulations,
            ),
            (
                "newton_iters",
                fresh_config.newton_iters,
                ref_config.newton_iters,
            ),
            (
                "factorisations",
                fresh_config.factorisations,
                ref_config.factorisations,
            ),
            ("cache_hits", fresh_config.cache_hits, ref_config.cache_hits),
            (
                "cache_misses",
                fresh_config.cache_misses,
                ref_config.cache_misses,
            ),
            ("store_hits", fresh_config.store_hits, ref_config.store_hits),
        ];
        for (field, fresh_count, ref_count) in counts {
            if fresh_count != ref_count {
                drift.push(format!(
                    "{}: {fresh_count} {field} != reference {ref_count}",
                    fresh_config.name
                ));
            }
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

    // 1. The fixed-resolution reference: every butterfly solved on the
    //    full grid, no caches beyond the per-run memo-cache every config
    //    shares.
    let serial_fixed = run_bench("serial_fixed", cfg, 1, false, fixed_bench());

    // 2/3. The adaptive coarse-first policy, serial and all-cores.
    let serial_adaptive = run_bench(
        "serial_adaptive",
        cfg,
        1,
        true,
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
    );
    let all_cores_adaptive = run_bench(
        "all_cores_adaptive",
        cfg,
        0,
        true,
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
    );

    // 4. The resident-service path: a cold run populates the shared
    //    verdict cache, the snapshot round-trips through the persistent
    //    store, and the resubmission is served from the restored cache.
    let store = Arc::new(VerdictStore::new(MemoCacheConfig::default()));
    let tag = tag_for(&[0x6669_6736]);
    let cold_serve = run_bench(
        "cold_serve",
        cfg,
        0,
        true,
        MemoBench::shared(
            SramScenarioBench::paper_cell(Scenario::ReadSnm),
            tag,
            Arc::clone(&store),
            true,
        ),
    );
    let snapshot = std::env::temp_dir().join(format!(
        "ecripse-bench-verdicts-{}.json",
        std::process::id()
    ));
    let saved = save_snapshot(&store, "", &snapshot).expect("save verdict store");
    let restored = Arc::new(VerdictStore::new(MemoCacheConfig::default()));
    let loaded = load_snapshot(&restored, "", &snapshot).expect("load verdict store");
    assert_eq!(saved, loaded, "the snapshot must round-trip losslessly");
    let _ = std::fs::remove_file(&snapshot);
    let warm_serve = {
        let report = run_bench(
            "warm_serve",
            cfg,
            0,
            true,
            MemoBench::shared(
                SramScenarioBench::paper_cell(Scenario::ReadSnm),
                tag,
                Arc::clone(&restored),
                true,
            ),
        );
        ConfigReport {
            store_hits: restored.hits(),
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
        )
    };

    // 6/7. The scaling row: one RTN-aware estimate on one thread and on
    //      all cores.
    let estimate_rtn_serial = estimate_rtn("estimate_rtn_serial", 1);
    let estimate_rtn_all_cores = estimate_rtn("estimate_rtn_all_cores", 0);

    let configs = vec![
        serial_fixed,
        serial_adaptive,
        all_cores_adaptive,
        cold_serve,
        warm_serve,
        hold_snm,
        estimate_rtn_serial,
        estimate_rtn_all_cores,
    ];

    // The determinism contract: thread count, the adaptive resolution
    // policy, and the verdict store must not change the estimate or the
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
    // Each evaluation's solver work depends only on its sample, so the
    // totals do not depend on the schedule either.
    assert_eq!(
        configs[2].newton_iters, configs[1].newton_iters,
        "Newton evaluations must be thread-invariant (all_cores_adaptive vs serial_adaptive)"
    );
    assert_eq!(
        configs[2].factorisations, configs[1].factorisations,
        "curve solves must be thread-invariant (all_cores_adaptive vs serial_adaptive)"
    );
    let (serial, all_cores) = (&configs[6], &configs[7]);
    assert_eq!(
        all_cores.p_fail.to_bits(),
        serial.p_fail.to_bits(),
        "P_fail must be thread-invariant (estimate_rtn_all_cores vs estimate_rtn_serial)"
    );
    for (field, a, b) in [
        ("simulations", all_cores.simulations, serial.simulations),
        ("newton_iters", all_cores.newton_iters, serial.newton_iters),
        (
            "factorisations",
            all_cores.factorisations,
            serial.factorisations,
        ),
    ] {
        assert_eq!(
            a, b,
            "{field} must be thread-invariant (estimate_rtn_all_cores vs estimate_rtn_serial)"
        );
    }
    assert!(
        configs[4].store_hits > 0,
        "the restored store must serve the resubmission"
    );
    assert!(
        configs[5].p_fail.to_bits() != configs[0].p_fail.to_bits(),
        "hold-snm estimates a different indicator and must not echo the read-snm number"
    );

    let speedup_adaptive_vs_fixed = configs[0].seconds / configs[1].seconds;
    let speedup_parallel = configs[1].seconds / configs[2].seconds;
    let speedup_warm_serve = configs[3].seconds / configs[4].seconds;
    let speedup_all_cores = configs[6].seconds / configs[7].seconds;
    println!(
        "\nadaptive vs fixed (serial): {speedup_adaptive_vs_fixed:.2}x   all-cores vs serial: \
         {speedup_parallel:.2}x   store-warmed resubmission: {speedup_warm_serve:.2}x   \
         RTN estimate on {cores} cores vs one: {speedup_all_cores:.2}x"
    );

    let report = Report {
        workload: format!(
            "fig6/headline RDF-only estimate, paper_config({n_is}, 1), SramScenarioBench::paper_cell(Scenario::ReadSnm)"
        ),
        cores,
        quick,
        configs,
        speedup_adaptive_vs_fixed,
        speedup_parallel_vs_serial: speedup_parallel,
        speedup_warm_serve,
        speedup_all_cores,
        note: format!(
            "Measured on a {cores}-core machine. The parallel-vs-serial ratio is \
             bounded by the core count; on a single core it measures pure batching \
             overhead. serial_fixed disables the adaptive coarse-first butterfly \
             policy; serial_adaptive and all_cores_adaptive run it on a bare bench; \
             warm_serve resubmits against a verdict store restored from the \
             persistent snapshot. P_fail and simulation counts are asserted \
             bit-identical across all read-snm configurations, and Newton \
             evaluations and curve solves across serial_adaptive and \
             all_cores_adaptive; --check pins P_fail and the simulation, Newton, \
             curve-solve, memo hit/miss and store-hit counts per configuration. \
             hold_snm_scenario runs the hold-retention indicator through the same \
             pipeline and is pinned by --check but exempt from cross-config \
             invariance. estimate_rtn_serial and estimate_rtn_all_cores run the \
             RTN-aware CLI estimate defaults at seed 1 (quick mode does not shrink \
             them); their P_fail, simulations, Newton evaluations and curve solves \
             are asserted equal, and speedup_all_cores is their wall-clock ratio."
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
