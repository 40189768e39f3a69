//! Naive Monte Carlo (Eq. 2).
//!
//! Draws `(x_RDF, x_RTN)` jointly from the nominal distributions and
//! counts failures. Exact and unbiased, but needs `≫ 1/P_fail` samples —
//! the paper lowers the supply to 0.5 V in Fig. 7 precisely so this
//! reference can converge at all.

use super::{nominal_trial, TRIAL_CHUNK};
use crate::bench::Testbench;
use crate::rtn_source::RtnSource;
use crate::simulate::Simulator;
use crate::trace::{ConvergenceTrace, TracePoint};
use ecripse_stats::estimate::WilsonInterval;
use ecripse_stats::sample::NormalSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Naive Monte Carlo settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NaiveConfig {
    /// Number of Monte Carlo trials.
    pub n_samples: usize,
    /// Record a trace point every this many trials (0 disables).
    pub trace_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        Self {
            n_samples: 100_000,
            trace_every: 0,
            seed: 0xa1fe,
        }
    }
}

/// Naive Monte Carlo outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveResult {
    /// Point estimate `k/n`.
    pub p_fail: f64,
    /// Wilson 95 % interval.
    pub interval: WilsonInterval,
    /// Transistor-level simulations (= trials here).
    pub simulations: u64,
    /// Failures observed.
    pub failures: u64,
    /// Convergence trace (empty unless requested).
    pub trace: ConvergenceTrace,
}

impl NaiveResult {
    /// Relative error: 95 % CI half-width over the estimate.
    pub fn relative_error(&self) -> f64 {
        self.interval.relative_error()
    }
}

/// Runs naive Monte Carlo.
///
/// Trials are drawn in chunks and each chunk is simulated as one batch.
/// A chunk ends at every trace point, and simulating draws no
/// randomness, so trials, verdicts and trace are those of a
/// trial-by-trial run.
///
/// # Panics
///
/// Panics if `config.n_samples` is zero or bench and RTN dimensions
/// disagree.
pub fn naive_monte_carlo<B: Testbench, S: RtnSource>(
    bench: &B,
    rtn: &S,
    config: &NaiveConfig,
) -> NaiveResult {
    assert!(config.n_samples > 0, "need at least one trial");
    assert_eq!(bench.dim(), rtn.dim(), "bench/RTN dimension mismatch");
    let sim = Simulator::unmemoised(bench);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut normals = NormalSampler::new();
    let mut failures = 0u64;
    let mut trace = ConvergenceTrace::new();

    let mut done = 0;
    while done < config.n_samples {
        let mut end = (done + TRIAL_CHUNK).min(config.n_samples);
        if let Some(traced) = done.checked_div(config.trace_every) {
            end = end.min((traced + 1) * config.trace_every);
        }
        let trials: Vec<Vec<f64>> = (done..end)
            .map(|_| nominal_trial(&mut normals, &mut rng, rtn))
            .collect();
        failures += sim.fails_batch(&trials).into_iter().filter(|&f| f).count() as u64;
        done = end;
        if config.trace_every > 0 && done % config.trace_every == 0 {
            let w = WilsonInterval::from_counts(failures, done as u64);
            trace.push(TracePoint {
                simulations: sim.simulations(),
                samples: done as u64,
                estimate: w.estimate,
                ci95_half_width: 0.5 * (w.hi - w.lo),
            });
        }
    }

    let interval = WilsonInterval::from_counts(failures, config.n_samples as u64);
    NaiveResult {
        p_fail: interval.estimate,
        interval,
        simulations: sim.simulations(),
        failures,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::LinearBench;
    use crate::rtn_source::NoRtn;

    #[test]
    fn estimates_moderate_probability_accurately() {
        // Boundary at 1.5σ → P ≈ 6.68e-2: naive MC handles this easily.
        let bench = LinearBench::new(vec![1.0, 0.0], 1.5);
        let exact = bench.exact_p_fail();
        let res = naive_monte_carlo(
            &bench,
            &NoRtn::new(2),
            &NaiveConfig {
                n_samples: 200_000,
                ..NaiveConfig::default()
            },
        );
        assert!(
            ((res.p_fail - exact) / exact).abs() < 0.05,
            "estimate {:e} vs exact {:e}",
            res.p_fail,
            exact
        );
        assert!(res.interval.lo <= exact && exact <= res.interval.hi);
        assert_eq!(res.simulations, 200_000);
    }

    #[test]
    fn rare_events_are_missed() {
        // Boundary at 6σ: with 10k samples the naive method sees nothing.
        let bench = LinearBench::new(vec![1.0], 6.0);
        let res = naive_monte_carlo(
            &bench,
            &NoRtn::new(1),
            &NaiveConfig {
                n_samples: 10_000,
                ..NaiveConfig::default()
            },
        );
        assert_eq!(res.failures, 0);
        assert!(res.relative_error().is_infinite());
    }

    #[test]
    fn trace_has_monotone_sample_counts() {
        let bench = LinearBench::new(vec![1.0], 1.0);
        let res = naive_monte_carlo(
            &bench,
            &NoRtn::new(1),
            &NaiveConfig {
                n_samples: 1000,
                trace_every: 100,
                ..NaiveConfig::default()
            },
        );
        assert_eq!(res.trace.len(), 10);
        for w in res.trace.points().windows(2) {
            assert!(w[1].samples > w[0].samples);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let bench = LinearBench::new(vec![1.0], 2.0);
        let cfg = NaiveConfig {
            n_samples: 5000,
            ..NaiveConfig::default()
        };
        let a = naive_monte_carlo(&bench, &NoRtn::new(1), &cfg);
        let b = naive_monte_carlo(&bench, &NoRtn::new(1), &cfg);
        assert_eq!(a.failures, b.failures);
    }
}
