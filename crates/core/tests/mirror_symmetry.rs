//! The paper's 6T cell is mirror-symmetric under the read and hold
//! indicators: one code path solves both half-cells, picking devices
//! with `CellDevice::mirrored`, and both margins take the worse lobe.
//! So `I(x) = I(Mx)`, where `M` swaps each device with its mirror,
//! except where the margin is within its resolution of zero; and the RTN
//! model at `α` is the mirrored model at `1 − α`. Write-margin and
//! power-up are asymmetric by design and are not checked.

use ecripse_core::cache::MemoCacheConfig;
use ecripse_core::initial::{find_boundary_particles, InitialSearchConfig};
use ecripse_core::observe::NullObserver;
use ecripse_core::retry::RetryPolicy;
use ecripse_core::{Scenario, Simulator, SramScenarioBench, Testbench};
use ecripse_rtn::model::RtnCellModel;
use ecripse_spice::sram::CellDevice;
use ecripse_stats::sample::NormalSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The margins' resolution \[V\]: one step of the default 61-point
/// butterfly grid at the nominal 0.7 V supply. A margin is exact only up
/// to the butterfly's sampling (`snm::try_read_noise_margin`), and the
/// mirror exchanges the two sampled curves.
const RESOLUTION: f64 = 0.7 / 60.0;

/// `Mx`: each device's coordinate moves to its mirror's position.
fn mirror(x: &[f64]) -> Vec<f64> {
    CellDevice::ALL.map(|d| x[d.mirrored() as usize]).to_vec()
}

/// Points near the boundary of `bench`'s scenario: the boundary
/// particles of a short step-1 search, and four draws around each, as
/// the Eq. 18 mixture places importance samples around its particles.
fn near_boundary(bench: &SramScenarioBench, seed: u64) -> Vec<Vec<f64>> {
    let observer = NullObserver;
    let cache = MemoCacheConfig {
        enabled: false,
        ..MemoCacheConfig::default()
    };
    let sim = Simulator::new(bench, &observer, cache, RetryPolicy::default());
    let config = InitialSearchConfig {
        count: 32,
        r_max: bench.scenario().recommended_r_max(),
        ..InitialSearchConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let found = find_boundary_particles(&sim, &mut rng, &config).expect("boundary particles");
    let mut normals = NormalSampler::new();
    let mut points = Vec::new();
    for particle in &found.particles {
        points.push(particle.clone());
        for _ in 0..4 {
            let kick = normals.sample_vec(&mut rng, particle.len());
            points.push(
                particle
                    .iter()
                    .zip(&kick)
                    .map(|(p, k)| p + 0.05 * k)
                    .collect(),
            );
        }
    }
    points
}

#[test]
fn mirrored_points_near_the_boundary_get_the_same_verdict() {
    for (scenario, seed) in [(Scenario::ReadSnm, 3), (Scenario::HoldSnm, 4)] {
        let bench = SramScenarioBench::paper_cell(scenario);
        let sigmas = bench.sigmas();
        let margin = |x: &[f64]| {
            let volts: Vec<f64> = x.iter().zip(&sigmas).map(|(z, s)| z * s).collect();
            bench.circuit().margin(scenario, &volts)
        };
        let points = near_boundary(&bench, seed);
        let mut disagreements = 0;
        for x in &points {
            let (m, mirrored) = (margin(x), margin(&mirror(x)));
            assert!(
                (m - mirrored).abs() < RESOLUTION,
                "{scenario}: margin {m:e} V, mirrored {mirrored:e} V"
            );
            if bench.fails(x) != bench.fails(&mirror(x)) {
                disagreements += 1;
                assert!(
                    m.abs() < RESOLUTION,
                    "{scenario}: verdicts disagree at margin {m:e} V"
                );
            }
        }
        assert_eq!(points.len(), 160);
        assert_eq!(disagreements, 0, "{scenario}: mirrored verdicts disagree");
    }
}

#[test]
fn the_rtn_model_at_alpha_is_the_mirrored_model_at_one_minus_alpha() {
    for alpha in [0.0, 0.1, 0.3, 0.5, 0.8, 1.0] {
        let model = RtnCellModel::paper_model(alpha);
        let complement = RtnCellModel::paper_model(1.0 - alpha);
        for d in CellDevice::ALL {
            let here = model.devices()[d as usize];
            let there = complement.devices()[d.mirrored() as usize];
            assert!(
                (here.poisson_mean - there.poisson_mean).abs() <= 1e-12 * here.poisson_mean,
                "{d} at α = {alpha}: {} vs {}",
                here.poisson_mean,
                there.poisson_mean
            );
            assert_eq!(here.quantum, there.quantum, "{d} at α = {alpha}");
        }
    }
}
