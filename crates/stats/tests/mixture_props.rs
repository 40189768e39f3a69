//! Property tests for the Gaussian-mixture density: evaluating each
//! distinct component once must give exactly the bits of the naive
//! evaluation over every component.

use ecripse_stats::{DiagGaussian, GaussianMixture};
use proptest::prelude::*;

/// The naive log density: every component's term `ln w + ln N(x | c)`
/// in component order, the max folded in that order, and the `exp`s
/// summed in that order.
fn naive_log_pdf(components: &[DiagGaussian], weights: &[f64], x: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    let terms: Vec<f64> = components
        .iter()
        .zip(weights)
        .map(|(c, w)| (w / total).ln() + c.log_pdf(x))
        .collect();
    let m = terms.iter().fold(f64::NEG_INFINITY, |m, t| m.max(*t));
    if !m.is_finite() {
        return m;
    }
    let s: f64 = terms.iter().map(|t| (t - m).exp()).sum();
    m + s.ln()
}

proptest! {
    /// `from_particles` over a particle set drawn with repetition from a
    /// small pool of distinct points, as systematic resampling leaves
    /// it, matches the naive per-component evaluation bit for bit.
    #[test]
    fn repeated_particles_give_the_naive_bits(
        dim in 1usize..5,
        pool in proptest::collection::vec(proptest::collection::vec(-6.0..6.0_f64, 4), 1..8),
        picks in proptest::collection::vec(0usize..1000, 1..60),
        sigma in 0.05..2.0_f64,
        x in proptest::collection::vec(-12.0..12.0_f64, 4),
    ) {
        let particles: Vec<Vec<f64>> = picks
            .iter()
            .map(|i| pool[i % pool.len()][..dim].to_vec())
            .collect();
        let x = &x[..dim];
        let mixture = GaussianMixture::from_particles(&particles, sigma);
        let n = particles.len();
        let want = naive_log_pdf(mixture.components(), &vec![1.0 / n as f64; n], x);
        let got = mixture.log_pdf(x);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs naive {}", got, want);
    }

    /// One centre listed twice under different weights stays two terms:
    /// the result matches the naive evaluation, which weighs each copy
    /// by its own weight.
    #[test]
    fn a_centre_under_two_weights_stays_two_terms(
        centre in proptest::collection::vec(-4.0..4.0_f64, 3),
        other in proptest::collection::vec(-4.0..4.0_f64, 3),
        weights in (0.01..1.0_f64, 0.01..1.0_f64, 0.01..1.0_f64),
        x in proptest::collection::vec(-8.0..8.0_f64, 3),
    ) {
        let (first, second, between) = weights;
        prop_assert!(first != second);
        let components = vec![
            DiagGaussian::isotropic(centre.clone(), 0.7),
            DiagGaussian::isotropic(other, 0.7),
            DiagGaussian::isotropic(centre, 0.7),
        ];
        let weights = [first, between, second];
        let mixture = GaussianMixture::weighted(components.clone(), &weights);
        let want = naive_log_pdf(&components, &weights, &x);
        let got = mixture.log_pdf(&x);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs naive {}", got, want);
    }
}

/// When no term is finite the density returns the max at once: `-inf`
/// both for a point so far away that every distance overflows and for a
/// NaN point (whose NaN terms the max skips).
#[test]
fn all_infinite_terms_return_negative_infinity() {
    let particles = vec![vec![0.5, -1.0], vec![0.5, -1.0], vec![2.0, 0.0]];
    let mixture = GaussianMixture::from_particles(&particles, 0.3);
    for x in [[1e200, 1e200], [f64::NAN, 0.0]] {
        let got = mixture.log_pdf(&x);
        assert_eq!(got, f64::NEG_INFINITY, "log_pdf({x:?}) = {got}");
        let want = naive_log_pdf(mixture.components(), &[1.0 / 3.0; 3], &x);
        assert_eq!(got.to_bits(), want.to_bits());
    }
}
