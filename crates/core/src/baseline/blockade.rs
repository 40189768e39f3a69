//! Statistical blockade (Singhee & Rutenbar, TCAD 2009 — the paper's
//! reference \[12\]).
//!
//! The earlier classifier idea the paper builds on: train a classifier
//! as a *blockade* in front of the simulator, then run plain Monte Carlo
//! from the nominal distribution, simulating only samples the classifier
//! cannot confidently wave through as passing. Unlike ECRIPSE there is
//! no importance sampling, so the sample count still scales with
//! `1/P_fail` — the blockade only cheapens each sample.
//!
//! Training uses a variance-inflated pilot distribution so the pilot set
//! actually contains failures (the standard "tail sampling" trick).

use super::{nominal_trial, TRIAL_CHUNK};
use crate::bench::Testbench;
use crate::rtn_source::RtnSource;
use crate::simulate::Simulator;
use ecripse_stats::estimate::WilsonInterval;
use ecripse_stats::sample::NormalSampler;
use ecripse_svm::classifier::{SvmClassifier, SvmConfig, TrainError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Statistical-blockade settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockadeConfig {
    /// Pilot samples used to train the blockade classifier.
    pub n_pilot: usize,
    /// Standard deviation of the inflated pilot distribution.
    pub pilot_sigma: f64,
    /// Monte Carlo trials from the nominal distribution.
    pub n_samples: usize,
    /// Classifier settings (the uncertainty band doubles as the
    /// blockade's conservative margin).
    pub svm: SvmConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BlockadeConfig {
    fn default() -> Self {
        Self {
            n_pilot: 2000,
            pilot_sigma: 2.0,
            n_samples: 100_000,
            svm: SvmConfig::default(),
            seed: 0xb10c,
        }
    }
}

/// Statistical-blockade outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockadeResult {
    /// Failure-probability estimate.
    pub p_fail: f64,
    /// Wilson 95 % interval on the estimate.
    pub interval: WilsonInterval,
    /// Transistor-level simulations spent (pilot + unblocked samples).
    pub simulations: u64,
    /// Monte Carlo trials taken.
    pub samples: u64,
    /// Trials the blockade let through to the simulator.
    pub unblocked: u64,
}

/// Errors the blockade can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockadeError {
    /// The pilot set contained a single class; the blockade cannot train.
    /// Increase `pilot_sigma` or `n_pilot`.
    PilotSingleClass,
}

impl std::fmt::Display for BlockadeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockadeError::PilotSingleClass => write!(
                f,
                "pilot set contained one class only; inflate pilot_sigma or n_pilot"
            ),
        }
    }
}

impl std::error::Error for BlockadeError {}

/// Runs statistical blockade.
///
/// The pilot set is simulated as one batch. Monte Carlo trials are drawn
/// in chunks; the blockade predicts each chunk and its unblocked trials
/// are simulated as one batch. Simulating draws no randomness, so
/// trials and verdicts are those of a trial-by-trial run.
///
/// # Errors
///
/// Returns [`BlockadeError::PilotSingleClass`] when the pilot
/// distribution never crosses the failure boundary.
///
/// # Panics
///
/// Panics if sample counts are zero, `pilot_sigma` is not positive, or
/// dimensions disagree.
pub fn statistical_blockade<B: Testbench, S: RtnSource>(
    bench: &B,
    rtn: &S,
    config: &BlockadeConfig,
) -> Result<BlockadeResult, BlockadeError> {
    assert!(config.n_pilot > 0, "need pilot samples");
    assert!(config.n_samples > 0, "need Monte Carlo samples");
    assert!(config.pilot_sigma > 0.0, "pilot sigma must be positive");
    assert_eq!(bench.dim(), rtn.dim(), "bench/RTN dimension mismatch");

    let sim = Simulator::unmemoised(bench);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut normals = NormalSampler::new();
    let dim = bench.dim();

    // Pilot phase: inflated sampling, all simulated.
    let pilot_x: Vec<Vec<f64>> = (0..config.n_pilot)
        .map(|_| {
            (0..dim)
                .map(|_| config.pilot_sigma * normals.sample(&mut rng))
                .collect()
        })
        .collect();
    let pilot_y = sim.fails_batch(&pilot_x);
    let classifier = match SvmClassifier::fit(&config.svm, &pilot_x, &pilot_y) {
        Ok(c) => c,
        Err(TrainError::SingleClass) | Err(TrainError::EmptyTrainingSet) => {
            return Err(BlockadeError::PilotSingleClass)
        }
    };

    // Monte Carlo phase: nominal sampling behind the blockade.
    let mut failures = 0u64;
    let mut unblocked = 0u64;
    let mut done = 0;
    while done < config.n_samples {
        let end = (done + TRIAL_CHUNK).min(config.n_samples);
        // Blockade: confident "pass" predictions are waved through;
        // everything else is simulated.
        let through: Vec<Vec<f64>> = (done..end)
            .map(|_| nominal_trial(&mut normals, &mut rng, rtn))
            .filter(|z| {
                let (fails, margin) = classifier.predict_with_margin(z);
                fails || margin.abs() < classifier.config().uncertain_band
            })
            .collect();
        unblocked += through.len() as u64;
        failures += sim.fails_batch(&through).into_iter().filter(|&f| f).count() as u64;
        done = end;
    }

    let interval = WilsonInterval::from_counts(failures, config.n_samples as u64);
    Ok(BlockadeResult {
        p_fail: interval.estimate,
        interval,
        simulations: sim.simulations(),
        samples: config.n_samples as u64,
        unblocked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::LinearBench;
    use crate::rtn_source::NoRtn;

    #[test]
    fn matches_naive_estimate_with_fewer_simulations() {
        // Moderate-rarity event so both the blockade and the check stay
        // cheap: boundary at 2.3σ, P ≈ 1.07e-2.
        let bench = LinearBench::new(vec![1.0, 0.0], 2.3);
        let exact = bench.exact_p_fail();
        let cfg = BlockadeConfig {
            n_pilot: 1500,
            pilot_sigma: 2.0,
            n_samples: 50_000,
            svm: SvmConfig {
                degree: 2,
                ..SvmConfig::default()
            },
            seed: 1,
        };
        let res = statistical_blockade(&bench, &NoRtn::new(2), &cfg).expect("pilot has failures");
        assert!(
            ((res.p_fail - exact) / exact).abs() < 0.15,
            "estimate {:e} vs exact {:e}",
            res.p_fail,
            exact
        );
        assert!(
            res.simulations < res.samples / 2,
            "blockade should block most samples: {} sims for {} samples",
            res.simulations,
            res.samples
        );
    }

    #[test]
    fn unreachable_boundary_fails_pilot_training() {
        let bench = LinearBench::new(vec![1.0], 50.0);
        let cfg = BlockadeConfig {
            n_pilot: 200,
            ..BlockadeConfig::default()
        };
        assert_eq!(
            statistical_blockade(&bench, &NoRtn::new(1), &cfg),
            Err(BlockadeError::PilotSingleClass)
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let bench = LinearBench::new(vec![1.0, 0.0], 2.0);
        let cfg = BlockadeConfig {
            n_pilot: 800,
            n_samples: 5000,
            svm: SvmConfig {
                degree: 2,
                ..SvmConfig::default()
            },
            ..BlockadeConfig::default()
        };
        let a = statistical_blockade(&bench, &NoRtn::new(2), &cfg).expect("trains");
        let b = statistical_blockade(&bench, &NoRtn::new(2), &cfg).expect("trains");
        assert_eq!(a.p_fail, b.p_fail);
        assert_eq!(a.simulations, b.simulations);
    }
}
