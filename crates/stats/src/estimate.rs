//! Estimators and confidence intervals.
//!
//! Three estimators appear in the paper's evaluation:
//!
//! * the naive Monte Carlo estimate of Eq. 2 (a binomial proportion —
//!   [`WilsonInterval`] gives its 95 % CI, the black bands of Fig. 7);
//! * the importance-sampling estimate of Eq. 19
//!   ([`WeightedIsEstimator`]), whose CI comes from the CLT on the weighted
//!   samples and whose *relative error* (CI half-width over the estimate)
//!   is the y-axis of Fig. 6(b);
//! * generic streaming moments ([`RunningStats`]) used throughout for
//!   diagnostics.

use serde::{Deserialize, Serialize};

/// Two-sided 95 % z-value.
pub const Z95: f64 = 1.959_963_984_540_054;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// ```
/// use ecripse_stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.variance() / self.count as f64).sqrt()
        }
    }

    /// Half-width of the 95 % CLT confidence interval on the mean.
    pub fn ci95_half_width(&self) -> f64 {
        Z95 * self.std_error()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Wilson score interval for a binomial proportion — the correct 95 % CI
/// for naive Monte Carlo pass/fail counting, and much better behaved than
/// the Wald interval when failures are rare.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WilsonInterval {
    /// Point estimate `k/n`.
    pub estimate: f64,
    /// Lower bound of the 95 % interval.
    pub lo: f64,
    /// Upper bound of the 95 % interval.
    pub hi: f64,
}

impl WilsonInterval {
    /// Computes the interval for `k` successes in `n` trials.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k > n`.
    pub fn from_counts(k: u64, n: u64) -> Self {
        assert!(n > 0, "Wilson interval needs at least one trial");
        assert!(k <= n, "more successes than trials");
        let nf = n as f64;
        let p = k as f64 / nf;
        let z2 = Z95 * Z95;
        let denom = 1.0 + z2 / nf;
        let centre = (p + z2 / (2.0 * nf)) / denom;
        let half = Z95 * ((p * (1.0 - p) + z2 / (4.0 * nf)) / nf).sqrt() / denom;
        // Exact endpoints when the count is degenerate; the formula can
        // leave ±1e-19 rounding residue there.
        let lo = if k == 0 {
            0.0
        } else {
            (centre - half).max(0.0)
        };
        let hi = if k == n {
            1.0
        } else {
            (centre + half).min(1.0)
        };
        Self {
            estimate: p,
            lo,
            hi,
        }
    }

    /// Relative error: CI half-width divided by the point estimate
    /// (infinite when the estimate is zero).
    pub fn relative_error(&self) -> f64 {
        if self.estimate == 0.0 {
            f64::INFINITY
        } else {
            0.5 * (self.hi - self.lo) / self.estimate
        }
    }
}

/// The importance-sampling estimator of Eq. 19.
///
/// Accumulates terms `yₖ = P̂_failᴿᵀᴺ(xₖ) · P(xₖ)/Q̂(xₖ)`; the estimate is
/// their mean, and the 95 % CI follows from the CLT on the `yₖ`. The
/// *relative error* reported matches the paper's definition: "the ratio of
/// the 95 % confidence interval to the estimated failure probability"
/// (Fig. 6(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WeightedIsEstimator {
    stats: RunningStats,
    /// Running sum of weights, for diagnostics (weight degeneracy).
    weight_sum: f64,
    weight_sq_sum: f64,
}

impl WeightedIsEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one IS term: `indicator_value` ∈ [0, 1] (a probability when the
    /// inner RTN loop is used, 0/1 for a deterministic indicator) and the
    /// likelihood ratio `weight = P(x)/Q̂(x)`.
    ///
    /// # Panics
    ///
    /// Panics if the weight is negative or non-finite.
    pub fn push(&mut self, indicator_value: f64, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "IS weight must be non-negative and finite, got {weight}"
        );
        self.stats.push(indicator_value * weight);
        self.weight_sum += weight;
        self.weight_sq_sum += weight * weight;
    }

    /// Number of accumulated samples.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Current failure-probability estimate (Eq. 19).
    pub fn estimate(&self) -> f64 {
        self.stats.mean()
    }

    /// Half-width of the 95 % confidence interval.
    pub fn ci95_half_width(&self) -> f64 {
        self.stats.ci95_half_width()
    }

    /// The paper's relative error: 95 % CI half-width over the estimate.
    /// Infinite while the estimate is zero.
    pub fn relative_error(&self) -> f64 {
        let est = self.estimate();
        if est <= 0.0 {
            f64::INFINITY
        } else {
            self.ci95_half_width() / est
        }
    }

    /// Kish effective sample size of the raw weights, `(Σw)²/Σw²`: how
    /// evenly the alternative distribution's weights spread, over every
    /// sample whatever its indicator value. It is not a health signal
    /// for a rare-event integrand, whose estimate reads only the weights
    /// of failing samples: the largest raw weights usually fall on
    /// passing ones, so a healthy run can read a few samples and a
    /// biased one can read more.
    pub fn effective_sample_size(&self) -> f64 {
        if self.weight_sq_sum == 0.0 {
            0.0
        } else {
            self.weight_sum * self.weight_sum / self.weight_sq_sum
        }
    }

    /// Merges another estimator (parallel accumulation).
    pub fn merge(&mut self, other: &WeightedIsEstimator) {
        self.stats.merge(&other.stats);
        self.weight_sum += other.weight_sum;
        self.weight_sq_sum += other.weight_sq_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_matches_direct_formulas() {
        let xs = [0.2, -1.3, 4.5, 2.2, 0.0, -0.7];
        let s: RunningStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert!((s.std_error() - (var / n).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_equals_concatenation() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, -5.0, 0.5, 7.0];
        let mut sa: RunningStats = a.iter().copied().collect();
        let sb: RunningStats = b.iter().copied().collect();
        sa.merge(&sb);
        let all: RunningStats = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-12);
        assert!((sa.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_with_empty_is_identity() {
        let mut s: RunningStats = [1.0, 2.0].iter().copied().collect();
        let before = s;
        s.merge(&RunningStats::new());
        assert_eq!(s, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let w = WilsonInterval::from_counts(13, 10_000);
        assert!(w.lo < w.estimate && w.estimate < w.hi);
        assert!((w.estimate - 13.0 / 10_000.0).abs() < 1e-15);
    }

    #[test]
    fn wilson_interval_zero_successes_has_positive_upper_bound() {
        let w = WilsonInterval::from_counts(0, 1_000);
        assert_eq!(w.estimate, 0.0);
        assert_eq!(w.lo, 0.0);
        assert!(w.hi > 0.0 && w.hi < 0.01);
        assert!(w.relative_error().is_infinite());
    }

    #[test]
    fn wilson_interval_narrows_with_more_trials() {
        let small = WilsonInterval::from_counts(10, 1_000);
        let large = WilsonInterval::from_counts(1_000, 100_000);
        assert!(large.relative_error() < small.relative_error());
    }

    #[test]
    fn wilson_interval_known_value() {
        // k = 50, n = 100: Wilson centre = 0.5, half ≈ 0.0958 (z = 1.96).
        let w = WilsonInterval::from_counts(50, 100);
        assert!((w.lo - 0.404).abs() < 0.005, "lo = {}", w.lo);
        assert!((w.hi - 0.596).abs() < 0.005, "hi = {}", w.hi);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_rejects_zero_trials() {
        let _ = WilsonInterval::from_counts(0, 0);
    }

    #[test]
    fn is_estimator_equal_weights_reduces_to_plain_mean() {
        let mut e = WeightedIsEstimator::new();
        let vals = [1.0, 0.0, 0.0, 1.0, 0.0];
        for v in vals {
            e.push(v, 1.0);
        }
        assert!((e.estimate() - 0.4).abs() < 1e-12);
        assert!((e.effective_sample_size() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn is_estimator_relative_error_shrinks_as_sqrt_n() {
        // Alternate deterministic values; rel. err ∝ 1/√n.
        let mut small = WeightedIsEstimator::new();
        let mut large = WeightedIsEstimator::new();
        for i in 0..100 {
            small.push((i % 2) as f64, 1.0);
        }
        for i in 0..10_000 {
            large.push((i % 2) as f64, 1.0);
        }
        let ratio = small.relative_error() / large.relative_error();
        assert!((ratio - 10.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn is_estimator_merge_equals_sequential() {
        let mut a = WeightedIsEstimator::new();
        let mut b = WeightedIsEstimator::new();
        let mut all = WeightedIsEstimator::new();
        let data = [(1.0, 0.2), (0.0, 3.0), (1.0, 1.5), (0.5, 0.9)];
        for (i, &(v, w)) in data.iter().enumerate() {
            if i % 2 == 0 {
                a.push(v, w);
            } else {
                b.push(v, w);
            }
            all.push(v, w);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.estimate() - all.estimate()).abs() < 1e-12);
        assert!((a.effective_sample_size() - all.effective_sample_size()).abs() < 1e-12);
    }

    #[test]
    fn is_estimator_degenerate_weights_reduce_ess() {
        let mut e = WeightedIsEstimator::new();
        e.push(1.0, 1000.0);
        for _ in 0..99 {
            e.push(1.0, 0.001);
        }
        assert!(e.effective_sample_size() < 1.1);
    }

    #[test]
    #[should_panic(expected = "IS weight must be non-negative")]
    fn is_estimator_rejects_negative_weight() {
        let mut e = WeightedIsEstimator::new();
        e.push(1.0, -0.5);
    }
}
