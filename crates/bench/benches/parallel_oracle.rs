//! Serial element-wise evaluation vs the batched (rayon-parallel)
//! testbench path, and the simulator memo-cache hit/miss paths.
//!
//! The end-to-end wall-clock comparison on the fig6/headline workload is
//! recorded by the `bench_parallel` binary (`BENCH_parallel.json`); this
//! bench isolates the per-layer costs.

use criterion::{criterion_group, criterion_main, Criterion};
use ecripse_core::bench::Testbench;
use ecripse_core::cache::{MemoBench, MemoCacheConfig, VerdictStore};
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use std::hint::black_box;
use std::sync::Arc;

/// A deterministic spread of whitened 6-D points near the ±3–4 σ shell,
/// where stage-2 batches actually live.
fn points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..6)
                .map(|d| ((i * 6 + d) as f64 * 0.37).sin() * 3.5)
                .collect()
        })
        .collect()
}

fn bench_batch_eval(c: &mut Criterion) {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let zs = points(256);
    let mut group = c.benchmark_group("batch_eval");
    group.sample_size(10);

    group.bench_function("elementwise_serial_256", |b| {
        b.iter(|| {
            let verdicts: Vec<bool> = zs.iter().map(|z| bench.fails(z)).collect();
            black_box(verdicts)
        })
    });

    group.bench_function("batch_1_thread_256", |b| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        b.iter(|| pool.install(|| black_box(bench.fails_batch(&zs))))
    });

    group.bench_function("batch_all_cores_256", |b| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build()
            .expect("pool");
        b.iter(|| pool.install(|| black_box(bench.fails_batch(&zs))))
    });

    group.finish();
}

/// A memo over a private, empty store.
fn memo<B>(inner: B, config: MemoCacheConfig) -> MemoBench<B> {
    MemoBench::shared(
        inner,
        0,
        Arc::new(VerdictStore::new(config)),
        config.enabled,
    )
}

fn bench_memo_cache(c: &mut Criterion) {
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let zs = points(256);
    let mut group = c.benchmark_group("memo_cache");
    group.sample_size(10);

    // Every iteration pays full simulation cost plus cache bookkeeping.
    group.bench_function("cold_batch_256", |b| {
        b.iter(|| {
            let cached = memo(&bench, MemoCacheConfig::default());
            black_box(cached.fails_batch(&zs))
        })
    });

    // Pure hit path: the map already holds every key.
    group.bench_function("warm_batch_256", |b| {
        let cached = memo(&bench, MemoCacheConfig::default());
        let _ = cached.fails_batch(&zs);
        b.iter(|| black_box(cached.fails_batch(&zs)))
    });

    // Cache disabled: measures the pass-through overhead (should be nil).
    group.bench_function("disabled_batch_256", |b| {
        let cached = memo(
            &bench,
            MemoCacheConfig {
                enabled: false,
                ..MemoCacheConfig::default()
            },
        );
        b.iter(|| black_box(cached.fails_batch(&zs)))
    });

    group.finish();
}

criterion_group!(benches, bench_batch_eval, bench_memo_cache);
criterion_main!(benches);
