//! The second Monte Carlo stage: importance sampling from the particle
//! mixture (Eqs. 17–19).
//!
//! Samples `x_k ~ Q̂` are drawn from the Eq. 18 mixture; for each, the
//! inner RTN Monte Carlo of Eq. 17 estimates `P_fail^RTN(x_k)` with `M`
//! RTN draws (collapsing to a single deterministic indicator call when
//! RTN is disabled), and the estimator accumulates
//! `P_fail^RTN(x_k)·P(x_k)/Q̂(x_k)`.
//!
//! Likelihood ratios are computed in log space: at a 4 σ boundary the
//! densities involved underflow ordinary arithmetic.

use crate::bench::Testbench;
use crate::ecripse::RunOptions;
use crate::observe::{ChunkStats, PrefetchStats};
use crate::oracle::ClassifierOracle;
use crate::prefetch::Lookahead;
use crate::rtn_source::RtnSource;
use crate::trace::{ConvergenceTrace, TracePoint};
use ecripse_stats::estimate::WeightedIsEstimator;
use ecripse_stats::mvn::{DiagGaussian, GaussianMixture};
use ecripse_stats::sample::NormalSampler;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Stage-2 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImportanceConfig {
    /// Number of importance samples `N_IS`.
    pub n_samples: usize,
    /// RTN draws per importance sample (the paper's `M`); ignored when
    /// the RTN source is null.
    pub m_rtn: usize,
    /// Record a trace point every this many importance samples
    /// (0 disables tracing).
    pub trace_every: usize,
}

impl Default for ImportanceConfig {
    fn default() -> Self {
        Self {
            n_samples: 4000,
            m_rtn: 20,
            trace_every: 0,
        }
    }
}

/// The outcome of an importance-sampling stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportanceResult {
    /// The Eq. 19 estimate.
    pub p_fail: f64,
    /// 95 % CI half-width from the weighted-sample CLT.
    pub ci95_half_width: f64,
    /// Effective sample size of the importance weights.
    pub effective_sample_size: f64,
    /// Importance samples consumed.
    pub samples: u64,
    /// Convergence trace (empty unless requested).
    pub trace: ConvergenceTrace,
}

impl ImportanceResult {
    /// The paper's relative error (CI half-width / estimate).
    pub fn relative_error(&self) -> f64 {
        if self.p_fail > 0.0 {
            self.ci95_half_width / self.p_fail
        } else {
            f64::INFINITY
        }
    }
}

/// One drawn chunk: each importance sample's likelihood ratio, and the
/// points the oracle answers for it (`m` RTN-shifted copies per sample,
/// or the sample itself without RTN).
struct Chunk {
    weights: Vec<f64>,
    points: Vec<Vec<f64>>,
}

/// Draws `n` importance samples serially from the master stream, in the
/// per-sample order of a serial loop (sample, then its RTN shifts, then
/// the next sample).
#[allow(clippy::too_many_arguments)]
fn draw_chunk<S, R>(
    n: usize,
    alternative: &GaussianMixture,
    rdf: &DiagGaussian,
    rtn: &S,
    m: usize,
    rng: &mut R,
    normals: &mut NormalSampler,
) -> Chunk
where
    S: RtnSource,
    R: Rng + ?Sized,
{
    let mut weights = Vec::with_capacity(n);
    let mut points = Vec::with_capacity(n * m.max(1));
    for _ in 0..n {
        let x = alternative.sample(rng, normals);
        let log_ratio = rdf.log_pdf(&x) - alternative.log_pdf(&x);
        weights.push(log_ratio.exp());
        if rtn.is_null() {
            points.push(x);
        } else {
            for _ in 0..m {
                let shift = rtn.sample_whitened(rng);
                points.push(x.iter().zip(&shift).map(|(xi, si)| xi + si).collect());
            }
        }
    }
    Chunk { weights, points }
}

/// Runs the stage-2 importance sampling — the loop behind every
/// [`Ecripse`](crate::ecripse::Ecripse) estimate and the baselines that
/// sample a fixed alternative.
///
/// `sim_count` reports the current transistor-level simulation count (for
/// trace points); pass the enclosing [`crate::bench::SimCounter`]'s
/// getter. Of `options`, the stage reads the observer, the stop flag and
/// the target ([`RunOptions::initial`] is step 1's business).
///
/// With [`RunOptions::target_relative_error`] set, sampling stops as soon
/// as the estimator's relative error falls at or below the target
/// (checked every 256 samples, after a warm-up of 1024), or when
/// `n_samples` is exhausted, whichever comes first. A raised
/// [`RunOptions::stop`] flag is checked before each chunk is drawn; the
/// returned flag says whether it cut the stage short, and a flag raised
/// after the budget was exhausted is a no-op. One [`ChunkStats`] per
/// chunk goes to the observer. Neither the checks nor the observer
/// consume randomness or change a number.
///
/// Each chunk is routed with
/// [`ClassifierOracle::evaluate_batch_accurate_deferred`]; the next
/// chunk is drawn right after the early-stopping check (nothing in
/// between consumes the master stream), and then the retrain the routed
/// chunk owes runs. With a `lookahead`, a pool of more than one thread
/// and a retrain owed, the retrain runs on a scoped thread while this
/// one draws the next chunk and simulates ahead the points the
/// pre-retrain classifier finds uncertain ([`crate::prefetch`]); the
/// results are the same bits either way.
///
/// # Panics
///
/// Panics if `config.n_samples` is zero, the target is not positive, or
/// dimensions disagree.
#[allow(clippy::too_many_arguments)]
pub fn importance_stage<B, S, R>(
    oracle: &mut ClassifierOracle<'_, B>,
    rtn: &S,
    alternative: &GaussianMixture,
    config: &ImportanceConfig,
    rng: &mut R,
    sim_count: &dyn Fn() -> u64,
    options: &RunOptions<'_>,
    lookahead: Option<&dyn Lookahead>,
) -> (ImportanceResult, bool)
where
    B: Testbench,
    S: RtnSource,
    R: Rng + ?Sized,
{
    assert!(config.n_samples > 0, "need at least one importance sample");
    let RunOptions {
        observer,
        stop,
        target_relative_error,
        ..
    } = *options;
    if let Some(t) = target_relative_error {
        assert!(t > 0.0, "relative-error target must be positive");
    }
    const CHECK_EVERY: u64 = 256;
    const WARMUP: u64 = 1024;
    // Samples per oracle batch. Aligned with CHECK_EVERY so the
    // early-stopping rule fires exactly at batch boundaries and no
    // already-simulated sample is ever discarded.
    const BATCH: usize = CHECK_EVERY as usize;
    let dim = alternative.dim();
    let rdf = DiagGaussian::standard(dim);
    let mut normals = NormalSampler::new();
    let mut estimator = WeightedIsEstimator::new();
    let mut trace = ConvergenceTrace::new();
    let m = config.m_rtn;
    if !rtn.is_null() {
        assert!(m > 0, "need at least one RTN draw");
    }
    let prefetching = lookahead.filter(|_| rayon::current_num_threads() > 1);

    let mut drawn = 0usize;
    let mut interrupted = false;
    // Cooperative cancellation, checked only before a chunk is drawn, so
    // every already-simulated sample lands in the estimator and the RNG
    // stream is never cut mid-sample.
    let mut next_chunk = |drawn: usize| {
        if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
            interrupted = true;
            return None;
        }
        let n = BATCH.min(config.n_samples - drawn);
        Some(draw_chunk(n, alternative, &rdf, rtn, m, rng, &mut normals))
    };
    let mut chunk = next_chunk(drawn);
    // The work done ahead of `chunk`: points evaluated and walk time.
    let mut ahead: Option<(u64, f64)> = None;
    while let Some(Chunk { weights, points }) = chunk.take() {
        let batch = weights.len();
        let sims_at_chunk_start = sim_count();
        // One accurate-policy batch answers the whole chunk (parallel
        // simulation for the uncertain subset).
        let verdicts = oracle.evaluate_batch_accurate_deferred(&points);
        if let (Some((evaluated, wall_seconds)), Some(lookahead)) = (ahead.take(), prefetching) {
            observer.prefetch_finished(&PrefetchStats {
                evaluated,
                consumed: lookahead.end_round(),
                wall_seconds,
            });
        }

        for (j, &weight) in weights.iter().enumerate() {
            let p_inner = if rtn.is_null() {
                if verdicts[j] {
                    1.0
                } else {
                    0.0
                }
            } else {
                let fails = verdicts[j * m..(j + 1) * m].iter().filter(|v| **v).count();
                fails as f64 / m as f64
            };
            estimator.push(p_inner, weight);

            let n = estimator.count();
            if config.trace_every > 0 && n.is_multiple_of(config.trace_every as u64) {
                trace.push(TracePoint {
                    simulations: sim_count(),
                    samples: n,
                    estimate: estimator.estimate(),
                    ci95_half_width: estimator.ci95_half_width(),
                });
            }
        }
        drawn += batch;

        let n = estimator.count();
        let sims_now = sim_count();
        observer.chunk_finished(&ChunkStats {
            samples: n,
            chunk_samples: batch as u64,
            estimate: estimator.estimate(),
            ci95_half_width: estimator.ci95_half_width(),
            simulations: sims_now,
            chunk_simulations: sims_now - sims_at_chunk_start,
        });

        // The early-stopping rule fires only at multiples of CHECK_EVERY
        // past the warm-up; batches are CHECK_EVERY samples long, so
        // checking once per batch is exactly the per-sample rule.
        let mut converged = false;
        if let Some(target) = target_relative_error {
            if n >= WARMUP && n.is_multiple_of(CHECK_EVERY) {
                let est = estimator.estimate();
                converged = est > 0.0 && estimator.ci95_half_width() / est <= target;
            }
        }
        if converged || drawn >= config.n_samples {
            // No next chunk, but the owed step still runs, so the
            // retrain count does not depend on where the stage ended.
            oracle.finish_accurate_batch();
            break;
        }
        let snapshot = prefetching
            .filter(|_| oracle.owes_retrain())
            .and_then(|lookahead| Some((lookahead, oracle.decision()?.clone())));
        match snapshot {
            Some((lookahead, decision)) => {
                let done = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    let oracle = &mut *oracle;
                    let done = &done;
                    let retrain = scope.spawn(move || {
                        oracle.finish_accurate_batch();
                        done.store(true, Ordering::Release);
                    });
                    chunk = next_chunk(drawn);
                    if let Some(next) = &chunk {
                        let start = Instant::now();
                        let evaluated = lookahead.prefetch(&next.points, &decision, done);
                        ahead = Some((evaluated, start.elapsed().as_secs_f64()));
                    }
                    if let Err(panic) = retrain.join() {
                        std::panic::resume_unwind(panic);
                    }
                });
            }
            None => {
                chunk = next_chunk(drawn);
                oracle.finish_accurate_batch();
            }
        }
    }

    (
        ImportanceResult {
            p_fail: estimator.estimate(),
            ci95_half_width: estimator.ci95_half_width(),
            effective_sample_size: estimator.effective_sample_size(),
            samples: estimator.count(),
            trace,
        },
        interrupted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{LinearBench, SimCounter, TwoLobeBench};
    use crate::oracle::OracleConfig;
    use crate::rtn_source::NoRtn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Importance sampling against a linear indicator with the mixture
    /// centred on the true boundary point must recover Φ(−β).
    #[test]
    fn recovers_linear_ground_truth_without_classifier() {
        let beta = 3.5;
        let bench = LinearBench::new(vec![1.0, 0.0], beta);
        let exact = bench.exact_p_fail();
        let counter = SimCounter::new(bench);
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        // Kernels around the most probable failure point.
        let alt = GaussianMixture::from_particles(
            &[
                vec![beta, 0.0],
                vec![beta + 0.3, 0.5],
                vec![beta + 0.3, -0.5],
            ],
            0.7,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let (res, _) = importance_stage(
            &mut oracle,
            &NoRtn::new(2),
            &alt,
            &ImportanceConfig {
                n_samples: 20_000,
                m_rtn: 1,
                trace_every: 0,
            },
            &mut rng,
            &|| counter.simulations(),
            &RunOptions::default(),
            None,
        );
        assert!(
            ((res.p_fail - exact) / exact).abs() < 0.1,
            "estimate {:e} vs exact {:e}",
            res.p_fail,
            exact
        );
        // CI should cover the truth.
        assert!((res.p_fail - exact).abs() < 3.0 * res.ci95_half_width);
    }

    #[test]
    fn recovers_two_lobe_ground_truth() {
        let bench = TwoLobeBench::new(vec![1.0, 0.0], 3.0);
        let exact = bench.exact_p_fail();
        let counter = SimCounter::new(bench);
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let alt = GaussianMixture::from_particles(
            &[
                vec![3.0, 0.0],
                vec![-3.0, 0.0],
                vec![3.3, 0.4],
                vec![-3.3, -0.4],
            ],
            0.7,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let (res, _) = importance_stage(
            &mut oracle,
            &NoRtn::new(2),
            &alt,
            &ImportanceConfig {
                n_samples: 30_000,
                m_rtn: 1,
                trace_every: 0,
            },
            &mut rng,
            &|| counter.simulations(),
            &RunOptions::default(),
            None,
        );
        assert!(
            ((res.p_fail - exact) / exact).abs() < 0.1,
            "estimate {:e} vs exact {:e}",
            res.p_fail,
            exact
        );
    }

    #[test]
    fn one_sided_mixture_misses_half_the_probability() {
        // The degeneracy scenario the ensemble exists to prevent: a
        // mixture covering only one lobe converges to half the truth.
        let bench = TwoLobeBench::new(vec![1.0, 0.0], 3.0);
        let exact = bench.exact_p_fail();
        let counter = SimCounter::new(bench);
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let alt = GaussianMixture::from_particles(&[vec![3.0, 0.0], vec![3.3, 0.3]], 0.6);
        let mut rng = StdRng::seed_from_u64(3);
        let (res, _) = importance_stage(
            &mut oracle,
            &NoRtn::new(2),
            &alt,
            &ImportanceConfig {
                n_samples: 20_000,
                m_rtn: 1,
                trace_every: 0,
            },
            &mut rng,
            &|| counter.simulations(),
            &RunOptions::default(),
            None,
        );
        assert!(
            ((res.p_fail - 0.5 * exact) / (0.5 * exact)).abs() < 0.15,
            "one-sided estimate {:e} vs half-truth {:e}",
            res.p_fail,
            0.5 * exact
        );
    }

    /// An "RTN" source whose draws cycle through `m` shifts: the first
    /// `k` of every `m` push a sample far past the boundary, the rest do
    /// not move it. It consumes no randomness.
    struct CyclingRtn {
        k: usize,
        m: usize,
        draws: std::cell::Cell<usize>,
    }

    impl RtnSource for CyclingRtn {
        fn dim(&self) -> usize {
            1
        }

        fn sample_whitened<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<f64> {
            let i = self.draws.get();
            self.draws.set(i + 1);
            vec![if i % self.m < self.k { 100.0 } else { 0.0 }]
        }
    }

    #[test]
    fn inner_rtn_average_is_the_fail_fraction_of_the_shifts() {
        // The boundary at 50 is out of the RDF samples' reach, so each
        // sample fails on exactly the k shifted copies of its m draws:
        // every inner probability is k/m.
        let (k, m, n) = (3, 8, 600);
        let counter = SimCounter::new(LinearBench::new(vec![1.0], 50.0));
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let rtn = CyclingRtn {
            k,
            m,
            draws: std::cell::Cell::new(0),
        };
        let alt = GaussianMixture::from_particles(&[vec![0.5], vec![-0.5]], 1.2);
        let (res, _) = importance_stage(
            &mut oracle,
            &rtn,
            &alt,
            &ImportanceConfig {
                n_samples: n,
                m_rtn: m,
                trace_every: 0,
            },
            &mut StdRng::seed_from_u64(6),
            &|| counter.simulations(),
            &RunOptions::default(),
            None,
        );
        assert_eq!(rtn.draws.get(), n * m);
        assert_eq!(counter.simulations(), (n * m) as u64);

        // Replay the sample stream (the source draws no randomness) for
        // the importance weights.
        let rdf = DiagGaussian::standard(1);
        let mut rng = StdRng::seed_from_u64(6);
        let mut normals = NormalSampler::new();
        let weight_sum: f64 = (0..n)
            .map(|_| {
                let x = alt.sample(&mut rng, &mut normals);
                (rdf.log_pdf(&x) - alt.log_pdf(&x)).exp()
            })
            .sum();
        let expected = k as f64 / m as f64 * weight_sum / n as f64;
        assert_eq!(res.samples, n as u64);
        assert!(
            ((res.p_fail - expected) / expected).abs() < 1e-12,
            "estimate {:e} vs k/m × mean weight {:e}",
            res.p_fail,
            expected
        );
    }

    #[test]
    fn null_rtn_simulates_each_sample_once() {
        // A null source collapses the inner loop to the sample's own
        // 0/1 verdict, whatever `m_rtn` says.
        let counter = SimCounter::new(LinearBench::new(vec![1.0], 50.0));
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let alt = GaussianMixture::from_particles(&[vec![0.0]], 1.0);
        let (res, _) = importance_stage(
            &mut oracle,
            &NoRtn::new(1),
            &alt,
            &ImportanceConfig {
                n_samples: 300,
                m_rtn: 8,
                trace_every: 0,
            },
            &mut StdRng::seed_from_u64(7),
            &|| counter.simulations(),
            &RunOptions::default(),
            None,
        );
        assert_eq!(counter.simulations(), 300);
        assert_eq!(res.p_fail, 0.0);
    }

    #[test]
    fn trace_points_are_recorded_at_requested_cadence() {
        let bench = LinearBench::new(vec![1.0], 2.0);
        let counter = SimCounter::new(bench);
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let alt = GaussianMixture::from_particles(&[vec![2.0]], 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let (res, _) = importance_stage(
            &mut oracle,
            &NoRtn::new(1),
            &alt,
            &ImportanceConfig {
                n_samples: 1000,
                m_rtn: 1,
                trace_every: 100,
            },
            &mut rng,
            &|| counter.simulations(),
            &RunOptions::default(),
            None,
        );
        assert_eq!(res.trace.len(), 10);
        let pts = res.trace.points();
        for w in pts.windows(2) {
            assert!(w[1].samples > w[0].samples);
            assert!(w[1].simulations >= w[0].simulations);
        }
    }
}
