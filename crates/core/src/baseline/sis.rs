//! The "conventional" method: sequential importance sampling after
//! Katayama et al., ICCAD 2010 (the paper's reference \[8\]).
//!
//! \[8\] introduced the particle-based estimation of the optimal
//! alternative distribution that ECRIPSE builds on; what it lacks is
//! everything the paper adds on top — the simulation-skipping
//! classifier, the two-stage budget split tuned around it, and
//! bias-condition sharing. Accordingly, this baseline reuses the exact
//! same particle machinery with the classifier disabled, so every weight
//! measurement and every importance sample costs one transistor-level
//! simulation. The Fig. 6 speed-up is measured against precisely this
//! configuration.

use crate::bench::Testbench;
use crate::ecripse::{Ecripse, EcripseConfig, EcripseResult, EstimateError};
use crate::rtn_source::{NoRtn, RtnSource};

/// Sequential importance sampling — ECRIPSE's machinery with the
/// classifier disabled.
#[derive(Debug, Clone)]
pub struct SequentialImportanceSampling<B, S = NoRtn> {
    inner: Ecripse<B, S>,
}

impl<B: Testbench> SequentialImportanceSampling<B, NoRtn> {
    /// RDF-only conventional estimator (\[8\] does not model RTN).
    pub fn new(mut config: EcripseConfig, bench: B) -> Self {
        config.oracle.svm = None;
        Self {
            inner: Ecripse::new(config, bench),
        }
    }
}

impl<B: Testbench, S: RtnSource> SequentialImportanceSampling<B, S> {
    /// Conventional estimator with an RTN source (for ablation studies;
    /// the original method predates RTN-aware analysis).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn with_rtn(mut config: EcripseConfig, bench: B, rtn: S) -> Self {
        config.oracle.svm = None;
        Self {
            inner: Ecripse::with_rtn(config, bench, rtn),
        }
    }

    /// The effective configuration (classifier stripped).
    pub fn config(&self) -> &EcripseConfig {
        self.inner.config()
    }

    /// Runs the full estimation.
    ///
    /// # Errors
    ///
    /// See [`EstimateError`].
    pub fn estimate(&self) -> Result<EcripseResult, EstimateError> {
        self.inner.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::LinearBench;

    #[test]
    fn classifier_is_forcibly_disabled() {
        let mut cfg = EcripseConfig::default();
        cfg.oracle.svm = Some(ecripse_svm::classifier::SvmConfig::default());
        let sis = SequentialImportanceSampling::new(cfg, LinearBench::new(vec![1.0], 3.0));
        assert!(sis.config().oracle.svm.is_none());
    }

    #[test]
    fn recovers_ground_truth_and_simulates_every_sample() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.2);
        let exact = bench.exact_p_fail();
        let mut cfg = EcripseConfig::default();
        cfg.importance.n_samples = 6000;
        cfg.importance.m_rtn = 1;
        cfg.m_rtn_stage1 = 1;
        cfg.iterations = 6;
        let sis = SequentialImportanceSampling::new(cfg, bench);
        let res = sis.estimate().expect("estimation succeeds");
        assert!(
            ((res.p_fail - exact) / exact).abs() < 0.15,
            "estimate {:e} vs exact {:e}",
            res.p_fail,
            exact
        );
        assert_eq!(res.oracle_stats.classified, 0);
        // Every importance sample went through the simulator (plus the
        // stage-1 weighting and initialisation).
        assert!(res.simulations >= res.is_samples);
    }
}
