//! Circuit-substrate micro-costs: single device evaluations, single VTC
//! solves, full butterfly sampling and SNM extraction.

use criterion::{criterion_group, criterion_main, Criterion};
use ecripse_spice::butterfly::Butterfly;
use ecripse_spice::ptm::{paper_geometry, DeviceRole, VDD_NOMINAL};
use ecripse_spice::snm::read_noise_margin;
use ecripse_spice::sram::Sram6T;
use std::hint::black_box;

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_solver");
    let cell = Sram6T::paper_cell();
    let bias = cell.read_bias();

    // One device evaluation per polarity, biased near threshold.
    let nmos = paper_geometry(DeviceRole::Driver).build();
    group.bench_function("mosfet_eval_nmos", |b| {
        b.iter(|| black_box(nmos.eval(black_box(0.35), black_box(0.3), 0.0, VDD_NOMINAL)))
    });
    let pmos = paper_geometry(DeviceRole::Load).build();
    group.bench_function("mosfet_eval_pmos", |b| {
        b.iter(|| black_box(pmos.eval(black_box(0.35), black_box(0.4), VDD_NOMINAL, VDD_NOMINAL)))
    });

    group.bench_function("vtc_single_point", |b| {
        b.iter(|| black_box(cell.vtc_right(&bias, black_box(0.35))))
    });

    group.bench_function("butterfly_61", |b| {
        b.iter(|| black_box(Butterfly::sample(&cell, &bias, 61)))
    });

    // The coarse pass every simulation pays: 31 points at 0.3 mV.
    let coarse = |cell: &Sram6T| {
        Butterfly::try_sample_counted(cell, &bias, 31, 3e-4)
            .expect("paper cell")
            .0
    };
    group.bench_function("butterfly_31_coarse", |b| {
        b.iter(|| black_box(coarse(black_box(&cell))))
    });

    let butterfly = Butterfly::sample(&cell, &bias, 61);
    group.bench_function("snm_extract_61", |b| {
        b.iter(|| black_box(read_noise_margin(black_box(&butterfly))))
    });

    let butterfly_31 = coarse(&cell);
    group.bench_function("snm_extract_31", |b| {
        b.iter(|| black_box(read_noise_margin(black_box(&butterfly_31))))
    });

    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
