//! Statistical substrate for the ECRIPSE reproduction.
//!
//! This crate collects the numerical building blocks that the failure
//! probability machinery in `ecripse-core` relies on:
//!
//! * [`special`] — error function, standard normal CDF `Φ`, its inverse
//!   `Φ⁻¹`, and log-space helpers, all implemented from scratch and tested
//!   against tabulated values.
//! * [`sample`] — standard-normal (Marsaglia polar) and Poisson (Knuth /
//!   PTRS) samplers built on top of any [`rand::Rng`].
//! * [`mvn`] — diagonal multivariate Gaussians and equal-or-weighted
//!   Gaussian mixtures with numerically stable log-density evaluation.
//!   These represent both the process-variability PDF `P(x)` (Eq. 14 of the
//!   paper) and the particle-based alternative distribution `Q̂(x)`
//!   (Eq. 18).
//! * [`estimate`] — streaming mean/variance accumulators, binomial and
//!   CLT-based 95 % confidence intervals, and the weighted importance
//!   sampling estimator of Eq. 19 together with its relative error (the
//!   quantity plotted in Fig. 6(b)).
//! * [`resample`] — multinomial and systematic resampling plus effective
//!   sample size, used by the particle filter's resampling step.
//! * [`fnv1a`] — the FNV-1a 64-bit hash behind every checksum, cache
//!   tag, digest and id the workspace derives from bytes.
//!
//! # Example
//!
//! ```
//! use ecripse_stats::special::normal_cdf;
//!
//! // P(Z < -3.65) is about the RDF-only SRAM failure level of the paper.
//! let p = normal_cdf(-3.65);
//! assert!(p > 1.0e-4 && p < 2.0e-4);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod estimate;
pub mod mvn;
pub mod resample;
pub mod sample;
pub mod special;

pub use estimate::{RunningStats, WeightedIsEstimator, WilsonInterval};
pub use mvn::{DiagGaussian, GaussianMixture};
pub use resample::{effective_sample_size, multinomial_resample, systematic_resample};
pub use sample::{sample_poisson, sample_standard_normal, NormalSampler};
pub use special::{erf, erfc, log_normal_pdf, normal_cdf, normal_pdf, normal_quantile};

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit `hash`; start a hash from
/// [`FNV_OFFSET`]. Folding two byte strings in turn hashes their
/// concatenation.
///
/// ```
/// use ecripse_stats::{fnv1a, FNV_OFFSET};
///
/// let h = fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar");
/// assert_eq!(h, fnv1a(FNV_OFFSET, b"foobar"));
/// ```
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Numerically stable `log(Σ exp(xᵢ))`.
///
/// Returns negative infinity for an empty slice.
///
/// ```
/// let x = [0.0_f64, (2.0_f64).ln()];
/// assert!((ecripse_stats::log_sum_exp(&x) - (3.0_f64).ln()).abs() < 1e-12);
/// ```
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let s: f64 = xs.iter().map(|x| (x - m).exp()).sum();
    m + s.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn log_sum_exp_matches_direct_sum() {
        let xs = [-1.0_f64, 0.5, 2.0, -3.0];
        let direct: f64 = xs.iter().map(|x| x.exp()).sum::<f64>();
        assert!((log_sum_exp(&xs) - direct.ln()).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_handles_large_magnitudes() {
        // Direct exponentiation would overflow; the stable version must not.
        let xs = [1000.0, 1000.0];
        let got = log_sum_exp(&xs);
        assert!((got - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_single_element_identity() {
        assert!((log_sum_exp(&[-7.25]) - (-7.25)).abs() < 1e-15);
    }
}
