//! Cost of one "transistor-level simulation": the read-noise-margin
//! evaluation that every estimator in the workspace counts. The whole
//! premise of the classifier is that this dwarfs a polynomial-SVM
//! prediction (see the `classifier` bench for the other side).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecripse_spice::testbench::{BenchConfig, ReadStabilityBench, Scenario};
use std::hint::black_box;

fn bench_rnm(c: &mut Criterion) {
    let mut group = c.benchmark_group("rnm_eval");
    group.sample_size(20);

    let bench = ReadStabilityBench::paper_cell();
    group.bench_function("nominal_cell", |b| {
        b.iter(|| black_box(bench.margin(Scenario::ReadSnm, black_box(&[0.0; 6]))))
    });

    // A failure-boundary sample: the kind of point the estimators
    // actually evaluate.
    let boundary = [0.0, -0.05, 0.0, 0.05, 0.01, -0.01];
    group.bench_function("boundary_cell", |b| {
        b.iter(|| black_box(bench.margin(Scenario::ReadSnm, black_box(&boundary))))
    });

    // Grid-resolution scaling: accuracy/cost ablation for DESIGN.md.
    for points in [31usize, 61, 121] {
        let bench = ReadStabilityBench::with_config(BenchConfig {
            grid_points: points,
            ..BenchConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("grid_points", points), &points, |b, _| {
            b.iter(|| black_box(bench.margin(Scenario::ReadSnm, black_box(&boundary))))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_rnm);
criterion_main!(benches);
