//! Classifier costs: training, incremental retraining and — the number
//! that justifies the whole design — per-sample prediction, which must be
//! orders of magnitude below one transistor-level simulation (compare the
//! `rnm_eval` bench).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecripse_svm::classifier::{SvmClassifier, SvmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn sphere_data(n: usize, dim: usize, r: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..n {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        ys.push(norm > r);
        xs.push(x);
    }
    (xs, ys)
}

fn bench_classifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier");
    group.sample_size(10);

    let (xs, ys) = sphere_data(1000, 6, 6.0, 1);

    for degree in [2u32, 4] {
        let cfg = SvmConfig {
            degree,
            ..SvmConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("train_1000", degree), &cfg, |b, cfg| {
            b.iter(|| black_box(SvmClassifier::fit(cfg, &xs, &ys).expect("two classes")))
        });
    }

    let clf = SvmClassifier::fit(&SvmConfig::default(), &xs, &ys).expect("two classes");
    let probe = vec![3.9, -0.2, 0.4, 3.8, 0.0, -0.1];
    group.bench_function("predict_degree4", |b| {
        b.iter(|| black_box(clf.predict(black_box(&probe))))
    });
    group.bench_function("margin_degree4", |b| {
        b.iter(|| black_box(clf.margin(black_box(&probe))))
    });

    // Incremental retraining with a 64-sample batch on a warm model.
    let (nx, ny) = sphere_data(64, 6, 6.0, 2);
    group.bench_function("incremental_64", |b| {
        b.iter_batched(
            || clf.clone(),
            |mut c| {
                c.add_labelled(&nx, &ny);
                black_box(c)
            },
            criterion::BatchSize::LargeInput,
        )
    });

    // The same update on a bank of about 10k rows, the size an RTN
    // estimate's bank reaches: at 210 degree-4 features the bank is
    // about 17 MB, so this retrain streams from memory instead of L2.
    let (bx, by) = sphere_data(10_000, 6, 6.0, 3);
    let big = SvmClassifier::fit(&SvmConfig::default(), &bx, &by).expect("two classes");
    group.bench_function("incremental_64_bank_10k", |b| {
        b.iter_batched(
            || big.clone(),
            |mut c| {
                c.add_labelled(&nx, &ny);
                black_box(c)
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_classifier);
criterion_main!(benches);
