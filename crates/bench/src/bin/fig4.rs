//! Fig. 4 — particle-filter failure-region tracking in a 2-D slice.
//!
//! The paper illustrates the filter on a two-dimensional example
//! (ΔV_TH1 vs ΔV_TH2). We restrict the real cell's variability space to
//! the two driver transistors (the dominant read-stability axes), run the
//! full ECRIPSE stage 1 with particle recording, and dump one CSV per
//! iteration: `results/fig4_iter<k>.csv` with `x, y` particle positions.
//! Iteration 0 shows the boundary-bisection initialisation (Fig. 4(a));
//! later iterations show the cloud tightening onto the two failure lobes
//! near the origin (Fig. 4(c)).

use ecripse_bench::{paper_config, write_csv};
use ecripse_core::bench::Testbench;
use ecripse_core::ecripse::Ecripse;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use std::fmt::Write as _;

/// The cell restricted to driver-only variability (2-D slice).
struct DriverSlice {
    inner: SramScenarioBench,
}

impl Testbench for DriverSlice {
    fn dim(&self) -> usize {
        2
    }

    fn fails(&self, z: &[f64]) -> bool {
        // Canonical order: [PL, NL, PR, NR, AL, AR]; the slice drives the
        // two NMOS pull-downs.
        self.inner.fails(&[0.0, z[0], 0.0, z[1], 0.0, 0.0])
    }
}

fn main() {
    println!("=== Fig. 4: particle filter tracking the failure region (2-D slice) ===\n");
    let quick = ecripse_bench::quick_mode();
    let mut cfg = paper_config(if quick { 500 } else { 2000 }, 1);
    cfg.record_particles = true;
    cfg.iterations = if quick { 5 } else { 10 };

    let bench = DriverSlice {
        inner: SramScenarioBench::paper_cell(Scenario::ReadSnm),
    };
    let run = Ecripse::new(cfg, bench);
    let res = run.estimate().expect("2-D slice estimation");

    for (k, snapshot) in res.particle_history.iter().enumerate() {
        let mut csv = String::from("dvth1_sigma,dvth2_sigma\n");
        for p in snapshot {
            writeln!(csv, "{},{}", p[0], p[1]).expect("string write");
        }
        write_csv(&format!("fig4_iter{k}.csv"), &csv);
    }

    // Quantify the convergence the figure shows: mean radius shrinks as
    // particles concentrate at the most probable failure points, and both
    // half-planes (lobes) stay populated.
    for (k, snapshot) in res.particle_history.iter().enumerate() {
        let mean_r = snapshot
            .iter()
            .map(|p| (p[0] * p[0] + p[1] * p[1]).sqrt())
            .sum::<f64>()
            / snapshot.len() as f64;
        let lobe1 = snapshot.iter().filter(|p| p[1] > p[0]).count();
        println!(
            "iteration {k:>2}: mean radius = {mean_r:.2} σ, lobe split = {}/{}",
            lobe1,
            snapshot.len() - lobe1
        );
    }
    println!(
        "\n2-D slice failure probability: {:.3e} (±{:.1e}), {} simulations",
        res.p_fail, res.ci95_half_width, res.simulations
    );
}
