//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. classifier on/off (the Fig. 6 axis, at a fixed budget);
//! 2. ensemble size — 1 filter (degeneracy-prone) vs 4;
//! 3. mixture kernel width σ_kernel;
//! 4. access-transistor RTN excluded (default) vs included;
//! 5. read vs write failure mode (extension).
//!
//! All runs use reduced budgets: this binary is about *directions*, not
//! publication numbers. Results go to stdout and `results/ablation.json`.

use ecripse_bench::{paper_config, write_json};
use ecripse_core::ecripse::Ecripse;
use ecripse_core::rtn_source::SramRtn;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_rtn::model::RtnCellModel;
use serde::{Deserialize, Serialize};

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    name: String,
    p_fail: f64,
    rel_err: f64,
    simulations: u64,
}

fn row(name: &str, p_fail: f64, rel_err: f64, simulations: u64, rows: &mut Vec<Row>) {
    println!("{name:<44} P={p_fail:>10.3e}  rel={rel_err:>6.3}  sims={simulations}");
    rows.push(Row {
        name: name.into(),
        p_fail,
        rel_err,
        simulations,
    });
}

fn main() {
    let quick = ecripse_bench::quick_mode();
    let n_is = if quick { 3_000 } else { 20_000 };
    let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
    let mut rows = Vec::new();

    println!("=== Ablations (RDF-only budget {n_is} IS samples) ===\n");

    // 1. classifier on/off.
    let res = Ecripse::new(paper_config(n_is, 1), bench.clone())
        .estimate()
        .expect("with classifier");
    row(
        "classifier ON (default)",
        res.p_fail,
        res.relative_error(),
        res.simulations,
        &mut rows,
    );

    let mut cfg = paper_config(n_is, 1);
    cfg.oracle.svm = None;
    let res = Ecripse::new(cfg, bench.clone())
        .estimate()
        .expect("without classifier");
    row(
        "classifier OFF (conventional [8])",
        res.p_fail,
        res.relative_error(),
        res.simulations,
        &mut rows,
    );

    // 2. ensemble size.
    for n_filters in [1usize, 4] {
        let mut cfg = paper_config(n_is, 1);
        cfg.ensemble.n_filters = n_filters;
        // Keep total particles constant so only the resampling topology
        // changes.
        cfg.ensemble.filter.n_particles = 400 / n_filters;
        let res = Ecripse::new(cfg, bench.clone())
            .estimate()
            .expect("filters run");
        row(
            &format!("{n_filters} filter(s), 400 particles total"),
            res.p_fail,
            res.relative_error(),
            res.simulations,
            &mut rows,
        );
    }

    // 3. kernel width.
    for sigma in [0.3, 0.8, 1.2] {
        let mut cfg = paper_config(n_is, 1);
        cfg.sigma_kernel = sigma;
        let res = Ecripse::new(cfg, bench.clone())
            .estimate()
            .expect("kernel run");
        row(
            &format!("sigma_kernel = {sigma}"),
            res.p_fail,
            res.relative_error(),
            res.simulations,
            &mut rows,
        );
    }

    // 4. access RTN in vs out, at the worst-case duty.
    let sigmas = bench.sigmas();
    let cfg = paper_config(n_is.min(5_000), 20);
    let res = Ecripse::with_rtn(cfg, bench.clone(), SramRtn::paper_model(0.0, sigmas))
        .estimate()
        .expect("rtn default");
    row(
        "RTN α=0, access RTN excluded (default)",
        res.p_fail,
        res.relative_error(),
        res.simulations,
        &mut rows,
    );

    let with_access = SramRtn::new(RtnCellModel::paper_model_with_access_rtn(0.0), sigmas);
    let res = Ecripse::with_rtn(cfg, bench.clone(), with_access)
        .estimate()
        .expect("rtn with access");
    row(
        "RTN α=0, access RTN included (ablation)",
        res.p_fail,
        res.relative_error(),
        res.simulations,
        &mut rows,
    );

    // 4b. Eq. 10 occupancy convention: as printed vs physical dwell
    // fraction (see DESIGN.md).
    use ecripse_rtn::duty::CellDutyMap;
    use ecripse_rtn::model::OccupancyConvention;
    use ecripse_rtn::trap::TrapTimeConstants;
    let dwell = RtnCellModel::with_convention(
        CellDutyMap::new(0.0),
        TrapTimeConstants::paper_values(),
        false,
        OccupancyConvention::DwellFraction,
    );
    let res = Ecripse::with_rtn(cfg, bench.clone(), SramRtn::new(dwell, sigmas))
        .estimate()
        .expect("rtn dwell convention");
    row(
        "RTN α=0, occupancy = dwell fraction (ablation)",
        res.p_fail,
        res.relative_error(),
        res.simulations,
        &mut rows,
    );

    // 4c. per-trap amplitude model: fixed quantum (paper Eq. 9) vs
    // exponential amplitudes with the same mean.
    use ecripse_rtn::model::AmplitudeModel;
    let exp_amp = RtnCellModel::paper_model(0.0).with_amplitude_model(AmplitudeModel::Exponential);
    let res = Ecripse::with_rtn(cfg, bench.clone(), SramRtn::new(exp_amp, sigmas))
        .estimate()
        .expect("rtn exponential amplitudes");
    row(
        "RTN α=0, exponential trap amplitudes (ablation)",
        res.p_fail,
        res.relative_error(),
        res.simulations,
        &mut rows,
    );

    // 5. write-failure extension.
    let wbench = SramScenarioBench::paper_cell(Scenario::WriteMargin);
    let mut cfg = paper_config(n_is, 1);
    // The write boundary sits farther out; widen the search radius.
    cfg.initial.r_max = 14.0;
    match Ecripse::new(cfg, wbench).estimate() {
        Ok(res) => row(
            "write-failure probability (extension)",
            res.p_fail,
            res.relative_error(),
            res.simulations,
            &mut rows,
        ),
        Err(e) => println!("write-failure run: {e} (boundary beyond search radius at this V_DD)"),
    }

    write_json("ablation.json", &rows);
}
