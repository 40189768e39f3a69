//! Gibbs-sampling importance sampling, after Dong & Li (DAC 2011) — the
//! paper's reference \[7\].
//!
//! Like ECRIPSE, \[7\] estimates the optimal alternative distribution
//! `Q_opt ∝ I(x)·P(x)` directly; instead of a particle filter it runs a
//! Markov chain *inside the failure region*: one coordinate at a time is
//! redrawn from its standard-normal conditional, and moves that would
//! leave the failure region are rejected (Metropolis-within-Gibbs with
//! the indicator as a hard constraint). The visited states sample
//! `Q_opt`; a kernel mixture over a thinned subset then drives the same
//! Eq. 19 importance-sampling stage ECRIPSE uses.
//!
//! Compared with the particle ensemble, a single chain mixes poorly
//! between disjoint failure lobes — the same weakness as mean-shift, so
//! several independent chains are run from distinct boundary points.

use crate::bench::Testbench;
use crate::ecripse::RunOptions;
use crate::importance::{importance_stage, ImportanceConfig, ImportanceResult};
use crate::initial::{find_boundary_particles, BoundaryNotFoundError, InitialSearchConfig};
use crate::oracle::{ClassifierOracle, OracleConfig};
use crate::rtn_source::RtnSource;
use crate::simulate::Simulator;
use ecripse_stats::mvn::GaussianMixture;
use ecripse_stats::sample::NormalSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Gibbs-sampling baseline settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GibbsConfig {
    /// Boundary search used to seed the chains.
    pub search: InitialSearchConfig,
    /// Number of independent chains.
    pub n_chains: usize,
    /// Gibbs sweeps per chain (each sweep updates every coordinate once;
    /// every coordinate update costs one simulation).
    pub sweeps_per_chain: usize,
    /// Keep every `thin`-th visited state for the mixture.
    pub thin: usize,
    /// Kernel width of the resulting mixture.
    pub sigma_kernel: f64,
    /// Importance-sampling stage settings.
    pub importance: ImportanceConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        Self {
            search: InitialSearchConfig {
                count: 8,
                ..InitialSearchConfig::default()
            },
            n_chains: 4,
            sweeps_per_chain: 60,
            thin: 2,
            sigma_kernel: 0.8,
            importance: ImportanceConfig::default(),
            seed: 0x91bb5,
        }
    }
}

/// Gibbs baseline outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GibbsResult {
    /// Importance-sampling outcome.
    pub importance: ImportanceResult,
    /// Number of states retained for the mixture.
    pub mixture_size: usize,
    /// Fraction of coordinate moves accepted across all chains.
    pub acceptance_rate: f64,
    /// Total transistor-level simulations (search + chains + IS stage).
    pub simulations: u64,
}

/// Runs Gibbs-sampling importance sampling (no classifier — \[7\]
/// predates that idea).
///
/// # Errors
///
/// Returns [`BoundaryNotFoundError`] if no chain seed can be found.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero chains, sweeps or
/// thinning) or dimensions disagree.
pub fn gibbs_is<B: Testbench, S: RtnSource>(
    bench: &B,
    rtn: &S,
    config: &GibbsConfig,
) -> Result<GibbsResult, BoundaryNotFoundError> {
    assert!(config.n_chains > 0, "need at least one chain");
    assert!(config.sweeps_per_chain > 0, "need at least one sweep");
    assert!(config.thin > 0, "thinning factor must be positive");
    assert!(config.sigma_kernel > 0.0, "kernel width must be positive");
    assert_eq!(bench.dim(), rtn.dim(), "bench/RTN dimension mismatch");

    let sim = Simulator::unmemoised(bench);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let dim = bench.dim();

    // Seed chains on the failure boundary (distinct directions find
    // distinct lobes when they exist).
    let mut search = config.search;
    search.count = search.count.max(config.n_chains);
    let init = find_boundary_particles(&sim, &mut rng, &search)?;

    let mut normals = NormalSampler::new();
    let mut states = Vec::new();
    let mut accepted = 0u64;
    let mut proposed = 0u64;
    for c in 0..config.n_chains {
        // Spread chain seeds across the boundary set.
        let mut x = init.particles[(c * init.particles.len()) / config.n_chains].clone();
        // Checked on the raw bench, so no build profile bills it. A seed
        // that healed on a retry rung may not evaluate at attempt 0.
        debug_assert!(bench.try_fails(&x) != Ok(false), "chain seed must fail");
        for sweep in 0..config.sweeps_per_chain {
            for d in 0..dim {
                // Conditional of a standard normal given the others is a
                // standard normal on that coordinate.
                let proposal = normals.sample(&mut rng);
                let old = x[d];
                x[d] = proposal;
                proposed += 1;
                if sim.fails(&x) {
                    accepted += 1;
                } else {
                    x[d] = old;
                }
            }
            if sweep % config.thin == 0 {
                states.push(x.clone());
            }
        }
    }

    let mixture = GaussianMixture::from_particles(&states, config.sigma_kernel);
    let oracle_cfg = OracleConfig {
        svm: None,
        ..OracleConfig::default()
    };
    let mut oracle = ClassifierOracle::new(&sim, oracle_cfg);
    let (importance, _) = importance_stage(
        &mut oracle,
        rtn,
        &mixture,
        &config.importance,
        &mut rng,
        0,
        &RunOptions::default(),
    );

    Ok(GibbsResult {
        importance,
        mixture_size: states.len(),
        acceptance_rate: accepted as f64 / proposed as f64,
        simulations: sim.simulations(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{LinearBench, TwoLobeBench};
    use crate::rtn_source::NoRtn;

    fn fast_config(n_is: usize) -> GibbsConfig {
        GibbsConfig {
            importance: ImportanceConfig {
                n_samples: n_is,
                m_rtn: 1,
                trace_every: 0,
            },
            ..GibbsConfig::default()
        }
    }

    #[test]
    fn recovers_linear_ground_truth() {
        let bench = LinearBench::new(vec![1.0, 0.0, 0.0], 3.2);
        let exact = bench.exact_p_fail();
        let res = gibbs_is(&bench, &NoRtn::new(3), &fast_config(10_000)).expect("runs");
        assert!(
            ((res.importance.p_fail - exact) / exact).abs() < 0.2,
            "gibbs estimate {:e} vs exact {:e}",
            res.importance.p_fail,
            exact
        );
        assert!(res.acceptance_rate > 0.05 && res.acceptance_rate < 0.95);
        assert!(res.mixture_size > 0);
    }

    #[test]
    fn multiple_chains_cover_both_lobes() {
        let bench = TwoLobeBench::new(vec![1.0, 0.0], 3.0);
        let exact = bench.exact_p_fail();
        let mut cfg = fast_config(12_000);
        cfg.n_chains = 6;
        cfg.search.count = 12;
        let res = gibbs_is(&bench, &NoRtn::new(2), &cfg).expect("runs");
        assert!(
            ((res.importance.p_fail - exact) / exact).abs() < 0.25,
            "gibbs two-lobe {:e} vs {:e}",
            res.importance.p_fail,
            exact
        );
    }

    #[test]
    fn chain_states_all_fail() {
        // The invariant of the sampler: the chain never leaves the
        // failure region. Verified indirectly: the acceptance rate is
        // below 1 (some moves rejected) yet the estimate is sound, and
        // every mixture state must fail when re-simulated.
        let bench = LinearBench::new(vec![0.0, 1.0], 3.0);
        let cfg = fast_config(2_000);
        let res = gibbs_is(&bench, &NoRtn::new(2), &cfg).expect("runs");
        assert!(res.acceptance_rate < 1.0);
        assert!(res.importance.p_fail > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let bench = LinearBench::new(vec![1.0], 3.0);
        let cfg = fast_config(1_000);
        let a = gibbs_is(&bench, &NoRtn::new(1), &cfg).expect("a");
        let b = gibbs_is(&bench, &NoRtn::new(1), &cfg).expect("b");
        assert_eq!(a.importance.p_fail, b.importance.p_fail);
        assert_eq!(a.simulations, b.simulations);
    }

    #[test]
    fn simulations_are_the_search_the_proposals_and_the_importance_samples() {
        let bench = LinearBench::new(vec![1.0, 0.5], 3.0);
        let cfg = fast_config(1_000);
        let res = gibbs_is(&bench, &NoRtn::new(2), &cfg).expect("runs");
        // The chains' search, replayed: the same seed and search settings.
        let mut search = cfg.search;
        search.count = search.count.max(cfg.n_chains);
        let searched = find_boundary_particles(
            &Simulator::unmemoised(&bench),
            &mut StdRng::seed_from_u64(cfg.seed),
            &search,
        )
        .expect("boundary")
        .simulations;
        let proposals = (cfg.n_chains * cfg.sweeps_per_chain * bench.dim()) as u64;
        assert_eq!(
            res.simulations,
            searched + proposals + res.importance.samples
        );
    }

    #[test]
    fn unreachable_boundary_errors() {
        let bench = LinearBench::new(vec![1.0], 50.0);
        let mut cfg = fast_config(100);
        cfg.search.max_attempts = 100;
        assert!(gibbs_is(&bench, &NoRtn::new(1), &cfg).is_err());
    }
}
