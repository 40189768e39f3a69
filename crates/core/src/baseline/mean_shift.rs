//! Mean-shift importance sampling.
//!
//! The classic SRAM rare-event baseline (Kanj et al., DAC 2006 family):
//! find the most probable failure point `x*` (minimum-norm point of the
//! failure region), then importance-sample from `N(x*, I)`. Cheap and
//! simple, but a single shifted Gaussian covers only one failure lobe
//! and mismatches curved boundaries — which is exactly why the paper
//! moves to particle-based alternative distributions.

use crate::bench::Testbench;
use crate::ecripse::RunOptions;
use crate::importance::{importance_stage, ImportanceConfig, ImportanceResult};
use crate::initial::{find_boundary_particles, BoundaryNotFoundError, InitialSearchConfig};
use crate::oracle::{ClassifierOracle, OracleConfig};
use crate::rtn_source::RtnSource;
use crate::simulate::Simulator;
use ecripse_stats::mvn::GaussianMixture;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Mean-shift settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanShiftConfig {
    /// Boundary search used to locate the most probable failure point.
    pub search: InitialSearchConfig,
    /// Importance-sampling stage settings.
    pub importance: ImportanceConfig,
    /// Standard deviation of the shifted sampling Gaussian.
    pub sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MeanShiftConfig {
    fn default() -> Self {
        Self {
            search: InitialSearchConfig::default(),
            importance: ImportanceConfig::default(),
            sigma: 1.0,
            seed: 0x3ea5,
        }
    }
}

/// Mean-shift outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanShiftResult {
    /// The located most probable failure point.
    pub shift_point: Vec<f64>,
    /// Distance of the shift point from the origin (the β of the run).
    pub beta: f64,
    /// Importance-sampling outcome.
    pub importance: ImportanceResult,
    /// Total transistor-level simulations including the search.
    pub simulations: u64,
}

/// Runs mean-shift importance sampling (no classifier — the baseline
/// predates that idea).
///
/// # Errors
///
/// Returns [`BoundaryNotFoundError`] when no failing direction is found.
///
/// # Panics
///
/// Panics if dimensions disagree or `config.sigma` is not positive.
pub fn mean_shift_is<B: Testbench, S: RtnSource>(
    bench: &B,
    rtn: &S,
    config: &MeanShiftConfig,
) -> Result<MeanShiftResult, BoundaryNotFoundError> {
    assert!(config.sigma > 0.0, "sigma must be positive");
    assert_eq!(bench.dim(), rtn.dim(), "bench/RTN dimension mismatch");
    let sim = Simulator::unmemoised(bench);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Most probable failure point = minimum-norm boundary particle.
    let init = find_boundary_particles(&sim, &mut rng, &config.search)?;
    let shift_point = match init
        .particles
        .iter()
        .min_by(|a, b| norm2(a).total_cmp(&norm2(b)))
    {
        Some(p) => p.clone(),
        None => {
            return Err(BoundaryNotFoundError {
                found: 0,
                requested: config.search.count,
            })
        }
    };
    let beta = norm2(&shift_point).sqrt();

    let alternative =
        GaussianMixture::from_particles(std::slice::from_ref(&shift_point), config.sigma);
    let oracle_cfg = OracleConfig {
        svm: None,
        ..OracleConfig::default()
    };
    let mut oracle = ClassifierOracle::new(&sim, oracle_cfg);
    let (importance, _) = importance_stage(
        &mut oracle,
        rtn,
        &alternative,
        &config.importance,
        &mut rng,
        0,
        &RunOptions::default(),
    );

    Ok(MeanShiftResult {
        shift_point,
        beta,
        importance,
        simulations: sim.simulations(),
    })
}

fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{LinearBench, TwoLobeBench};
    use crate::rtn_source::NoRtn;

    #[test]
    fn single_lobe_ground_truth_is_recovered() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.4);
        let exact = bench.exact_p_fail();
        let mut cfg = MeanShiftConfig::default();
        cfg.importance.n_samples = 20_000;
        cfg.importance.m_rtn = 1;
        let res = mean_shift_is(&bench, &NoRtn::new(2), &cfg).expect("boundary found");
        assert!(
            ((res.importance.p_fail - exact) / exact).abs() < 0.1,
            "estimate {:e} vs exact {:e}",
            res.importance.p_fail,
            exact
        );
        // The shift point should sit near the boundary plane.
        assert!((res.shift_point[0] - 3.4).abs() < 0.3);
        assert!((res.beta - 3.4).abs() < 0.3);
    }

    #[test]
    fn two_lobes_expose_the_known_underestimate() {
        // The motivating weakness: a single shifted Gaussian centred on
        // one lobe recovers roughly *half* of a symmetric two-lobe
        // probability (the other lobe is effectively never sampled).
        let bench = TwoLobeBench::new(vec![1.0, 0.0], 3.0);
        let exact = bench.exact_p_fail();
        let mut cfg = MeanShiftConfig::default();
        cfg.importance.n_samples = 20_000;
        cfg.importance.m_rtn = 1;
        let res = mean_shift_is(&bench, &NoRtn::new(2), &cfg).expect("boundary found");
        let ratio = res.importance.p_fail / exact;
        assert!(
            ratio > 0.3 && ratio < 0.75,
            "expected ~0.5 of the truth, got ratio {ratio}"
        );
    }

    #[test]
    fn simulations_include_search_and_sampling() {
        let bench = LinearBench::new(vec![1.0], 3.0);
        let mut cfg = MeanShiftConfig::default();
        cfg.importance.n_samples = 500;
        cfg.importance.m_rtn = 1;
        let res = mean_shift_is(&bench, &NoRtn::new(1), &cfg).expect("boundary found");
        assert!(res.simulations >= 500);
    }
}
