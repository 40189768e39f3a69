//! Diagonal multivariate Gaussians and Gaussian mixtures.
//!
//! Two distributions drive the whole ECRIPSE flow:
//!
//! * the process-variability PDF `P_RDF(x) = N(x | 0, I)` (Eq. 14), a
//!   special case of [`DiagGaussian`];
//! * the particle-based alternative distribution `Q̂(x) = (1/N) Σᵢ
//!   N(x | xᵢ, σ)` (Eq. 18) and the prediction proposal (Eq. 15), both
//!   equal-weight [`GaussianMixture`]s.
//!
//! All densities are evaluated in log space: importance weights
//! `P(x)/Q̂(x)` involve densities around e^{-40} at the failure boundary of
//! a 6-σ problem, far below what naive multiplication keeps accurate.

use crate::sample::NormalSampler;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;

/// A multivariate Gaussian with diagonal covariance.
///
/// The normalisation constant and the per-axis inverse deviations are
/// precomputed at construction: `log_pdf` sits on the hottest loop of
/// stage 2 (once per mixture component per importance sample), where
/// re-deriving `ln σ` per call dominated the whole estimator's
/// simulation-free floor.
#[derive(Debug, Clone)]
pub struct DiagGaussian {
    mean: Vec<f64>,
    sigma: Vec<f64>,
    /// `1/σᵢ` per axis.
    inv_sigma: Vec<f64>,
    /// `−Σᵢ ln σᵢ − (d/2)·ln 2π` — the log normalisation constant.
    log_norm: f64,
}

impl PartialEq for DiagGaussian {
    fn eq(&self, other: &Self) -> bool {
        // The derived fields are functions of `sigma`.
        self.mean == other.mean && self.sigma == other.sigma
    }
}

impl DiagGaussian {
    /// Creates a Gaussian with the given mean vector and per-axis standard
    /// deviations.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths, are empty, or any
    /// sigma is not strictly positive and finite.
    pub fn new(mean: Vec<f64>, sigma: Vec<f64>) -> Self {
        assert_eq!(mean.len(), sigma.len(), "mean/sigma dimension mismatch");
        assert!(!mean.is_empty(), "zero-dimensional Gaussian");
        assert!(
            sigma.iter().all(|s| s.is_finite() && *s > 0.0),
            "sigmas must be positive and finite: {sigma:?}"
        );
        let inv_sigma: Vec<f64> = sigma.iter().map(|s| 1.0 / s).collect();
        let log_norm = -sigma.iter().map(|s| s.ln()).sum::<f64>()
            - 0.5 * mean.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        Self {
            mean,
            sigma,
            inv_sigma,
            log_norm,
        }
    }

    /// The standard multivariate normal `N(0, I)` in `dim` dimensions —
    /// the paper's `P_RDF` (Eq. 14).
    pub fn standard(dim: usize) -> Self {
        Self::new(vec![0.0; dim], vec![1.0; dim])
    }

    /// An isotropic Gaussian centred at `mean` with common deviation
    /// `sigma` — the proposal kernel of Eq. 15.
    pub fn isotropic(mean: Vec<f64>, sigma: f64) -> Self {
        let d = mean.len();
        Self::new(mean, vec![sigma; d])
    }

    /// Dimensionality of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The per-axis standard deviations.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Log density at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "log_pdf dimension mismatch");
        let q: f64 = x
            .iter()
            .zip(&self.mean)
            .zip(&self.inv_sigma)
            .map(|((xi, mi), inv)| {
                let z = (xi - mi) * inv;
                z * z
            })
            .sum();
        self.log_norm - 0.5 * q
    }

    /// Density at `x`. May underflow to zero far from the mean; prefer
    /// [`Self::log_pdf`] for weight ratios.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, normals: &mut NormalSampler) -> Vec<f64> {
        self.mean
            .iter()
            .zip(&self.sigma)
            .map(|(m, s)| m + s * normals.sample(rng))
            .collect()
    }
}

/// An equal-or-weighted mixture of diagonal Gaussians.
///
/// The density arrays hold each *distinct* component once: a particle
/// cloud after systematic resampling holds many exact copies, and
/// [`Self::log_pdf`] evaluates a copy's term only once.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    components: Vec<DiagGaussian>,
    /// Per-component normalised weights, for the sampling scan.
    weights: Vec<f64>,
    /// For every component, its index among the distinct components.
    distinct_of: Vec<u32>,
    /// Distinct components' means in dimension-major order (`[d][k]`),
    /// so the density loop streams contiguously across components.
    means_t: Vec<f64>,
    /// Distinct components' inverse deviations, dimension-major like
    /// `means_t`.
    inv_sigma_t: Vec<f64>,
    /// Distinct components' log normalisation constants.
    log_norms: Vec<f64>,
    /// Distinct components' log weights.
    log_weights: Vec<f64>,
}

thread_local! {
    /// Scratch for [`GaussianMixture::log_pdf`]: one term per distinct
    /// component, reused across calls (a fresh vector per call cost
    /// about 3 % of a served job).
    static TERMS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl GaussianMixture {
    /// Creates an equal-weight mixture, the form used by Eqs. 15 and 18.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or dimensions disagree.
    pub fn equal_weight(components: Vec<DiagGaussian>) -> Self {
        assert!(!components.is_empty(), "empty mixture");
        let n = components.len();
        Self::weighted(components, &vec![1.0 / n as f64; n])
    }

    /// Creates a mixture with explicit (normalised internally) weights.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree, any weight is negative/non-finite, all
    /// weights are zero, or component dimensions disagree.
    pub fn weighted(components: Vec<DiagGaussian>, weights: &[f64]) -> Self {
        assert!(!components.is_empty(), "empty mixture");
        assert_eq!(components.len(), weights.len(), "weight count mismatch");
        let dim = components[0].dim();
        assert!(
            components.iter().all(|c| c.dim() == dim),
            "mixture components must share a dimension"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "all mixture weights are zero");
        let log_weights: Vec<f64> = weights.iter().map(|w| (w / total).ln()).collect();
        let weights = log_weights.iter().map(|lw| lw.exp()).collect();
        // Two components share a term at every `x` exactly when their
        // mean, inverse deviations, log normalisation and log weight
        // agree bit for bit; keep the first of each such class.
        let mut first_of: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut distinct: Vec<usize> = Vec::new();
        let distinct_of = components
            .iter()
            .zip(&log_weights)
            .enumerate()
            .map(|(c, (comp, lw))| {
                let key = comp
                    .mean
                    .iter()
                    .chain(&comp.inv_sigma)
                    .chain([&comp.log_norm, lw])
                    .map(|v| v.to_bits())
                    .collect();
                *first_of.entry(key).or_insert_with(|| {
                    distinct.push(c);
                    (distinct.len() - 1) as u32
                })
            })
            .collect();
        let k = distinct.len();
        let mut means_t = vec![0.0; k * dim];
        let mut inv_sigma_t = vec![0.0; k * dim];
        for (j, &c) in distinct.iter().enumerate() {
            for d in 0..dim {
                means_t[d * k + j] = components[c].mean[d];
                inv_sigma_t[d * k + j] = components[c].inv_sigma[d];
            }
        }
        let log_norms = distinct.iter().map(|&c| components[c].log_norm).collect();
        let log_weights = distinct.iter().map(|&c| log_weights[c]).collect();
        Self {
            components,
            weights,
            distinct_of,
            means_t,
            inv_sigma_t,
            log_norms,
            log_weights,
        }
    }

    /// Builds the particle-cloud alternative distribution of Eq. 18: an
    /// equal-weight mixture of isotropic kernels centred at each particle.
    ///
    /// # Panics
    ///
    /// Panics if `particles` is empty or `sigma` is not positive.
    pub fn from_particles(particles: &[Vec<f64>], sigma: f64) -> Self {
        assert!(!particles.is_empty(), "no particles to build mixture from");
        Self::equal_weight(
            particles
                .iter()
                .map(|p| DiagGaussian::isotropic(p.clone(), sigma))
                .collect(),
        )
    }

    /// Number of mixture components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Dimensionality of the mixture.
    pub fn dim(&self) -> usize {
        self.components[0].dim()
    }

    /// The mixture components.
    pub fn components(&self) -> &[DiagGaussian] {
        &self.components
    }

    /// Log density at `x`, computed with log-sum-exp stability.
    ///
    /// Evaluated dimension-major over the transposed arrays of distinct
    /// components: one importance-sampling run calls this once per
    /// sample with hundreds of components, and the contiguous inner loop
    /// is several times faster than per-component evaluation. Each
    /// distinct term and its `exp` are computed once; the max is taken
    /// over the distinct terms (the same value as over all of them), and
    /// the `exp`s are summed once per component in component order. The
    /// result is therefore bit-identical to evaluating every component's
    /// [`DiagGaussian::log_pdf`] plus its log weight, folding the max
    /// and summing the `exp`s in component order.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "log_pdf dimension mismatch");
        let k = self.log_norms.len();
        TERMS.with_borrow_mut(|q| {
            q.clear();
            q.resize(k, 0.0);
            for (d, xd) in x.iter().enumerate() {
                let means = &self.means_t[d * k..(d + 1) * k];
                let invs = &self.inv_sigma_t[d * k..(d + 1) * k];
                for ((qc, mc), ic) in q.iter_mut().zip(means).zip(invs) {
                    let z = (xd - mc) * ic;
                    *qc += z * z;
                }
            }
            let mut m = f64::NEG_INFINITY;
            for ((qc, lw), ln) in q.iter_mut().zip(&self.log_weights).zip(&self.log_norms) {
                let term = lw + (ln - 0.5 * *qc);
                *qc = term;
                m = m.max(term);
            }
            if !m.is_finite() {
                return m;
            }
            for t in q.iter_mut() {
                *t = (*t - m).exp();
            }
            let s: f64 = self.distinct_of.iter().map(|&j| q[j as usize]).sum();
            m + s.ln()
        })
    }

    /// Density at `x`; see [`Self::log_pdf`] for the numerically safe form.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Draws one sample: picks a component by weight, then samples it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, normals: &mut NormalSampler) -> Vec<f64> {
        let u: f64 = rng.gen::<f64>();
        let mut acc = 0.0;
        for (c, w) in self.components.iter().zip(&self.weights) {
            acc += w;
            if u <= acc {
                return c.sample(rng, normals);
            }
        }
        // Floating-point slack: fall back to the last component.
        self.components
            .last()
            .expect("mixture is non-empty")
            .sample(rng, normals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::log_normal_pdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_gaussian_log_pdf_at_origin() {
        let g = DiagGaussian::standard(6);
        let want = -0.5 * 6.0 * (2.0 * std::f64::consts::PI).ln();
        assert!((g.log_pdf(&[0.0; 6]) - want).abs() < 1e-12);
    }

    #[test]
    fn diag_gaussian_factorises() {
        let g = DiagGaussian::new(vec![1.0, -2.0], vec![0.5, 3.0]);
        let x = [1.3, 0.4];
        let manual = log_normal_pdf((1.3 - 1.0) / 0.5) - 0.5_f64.ln()
            + log_normal_pdf((0.4 + 2.0) / 3.0)
            - 3.0_f64.ln();
        assert!((g.log_pdf(&x) - manual).abs() < 1e-12);
    }

    #[test]
    fn gaussian_sample_moments() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ns = NormalSampler::new();
        let g = DiagGaussian::new(vec![2.0, -1.0], vec![0.5, 2.0]);
        let n = 100_000;
        let mut mean = [0.0; 2];
        let mut m2 = [0.0; 2];
        for _ in 0..n {
            let s = g.sample(&mut rng, &mut ns);
            for d in 0..2 {
                mean[d] += s[d];
                m2[d] += s[d] * s[d];
            }
        }
        for d in 0..2 {
            mean[d] /= n as f64;
            m2[d] = m2[d] / n as f64 - mean[d] * mean[d];
        }
        assert!((mean[0] - 2.0).abs() < 0.01);
        assert!((mean[1] + 1.0).abs() < 0.03);
        assert!((m2[0] - 0.25).abs() < 0.01);
        assert!((m2[1] - 4.0).abs() < 0.1);
    }

    #[test]
    fn single_component_mixture_equals_component() {
        let c = DiagGaussian::isotropic(vec![0.3, -0.7, 1.1], 0.4);
        let m = GaussianMixture::equal_weight(vec![c.clone()]);
        for x in [[0.0, 0.0, 0.0], [0.5, -1.0, 2.0]] {
            assert!((m.log_pdf(&x) - c.log_pdf(&x)).abs() < 1e-12);
        }
    }

    #[test]
    fn mixture_density_is_weighted_average() {
        let a = DiagGaussian::isotropic(vec![-2.0], 1.0);
        let b = DiagGaussian::isotropic(vec![2.0], 1.0);
        let m = GaussianMixture::weighted(vec![a.clone(), b.clone()], &[0.25, 0.75]);
        let x = [0.5];
        let want = 0.25 * a.pdf(&x) + 0.75 * b.pdf(&x);
        assert!(((m.pdf(&x) - want) / want).abs() < 1e-10);
    }

    #[test]
    fn mixture_density_integrates_to_one_by_mc() {
        // Importance-sample the mixture against a wide reference Gaussian.
        let mut rng = StdRng::seed_from_u64(23);
        let mut ns = NormalSampler::new();
        let m = GaussianMixture::equal_weight(vec![
            DiagGaussian::isotropic(vec![-1.5, 0.0], 0.4),
            DiagGaussian::isotropic(vec![1.5, 0.5], 0.8),
        ]);
        let reference = DiagGaussian::new(vec![0.0, 0.0], vec![4.0, 4.0]);
        let n = 200_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let x = reference.sample(&mut rng, &mut ns);
            acc += (m.log_pdf(&x) - reference.log_pdf(&x)).exp();
        }
        let integral = acc / n as f64;
        assert!((integral - 1.0).abs() < 0.02, "∫mixture = {integral}");
    }

    #[test]
    fn from_particles_centres_kernels_on_particles() {
        let particles = vec![vec![1.0, 2.0], vec![-3.0, 0.5]];
        let m = GaussianMixture::from_particles(&particles, 0.3);
        assert_eq!(m.len(), 2);
        assert_eq!(m.components()[0].mean(), &[1.0, 2.0]);
        assert_eq!(m.components()[1].sigma(), &[0.3, 0.3]);
    }

    #[test]
    fn a_resampled_cloud_keeps_one_term_per_distinct_particle() {
        let pool = [vec![1.0, 2.0], vec![-3.0, 0.5], vec![0.0, 0.0]];
        let particles: Vec<Vec<f64>> = (0..400).map(|i| pool[i % 3].clone()).collect();
        let m = GaussianMixture::from_particles(&particles, 0.3);
        assert_eq!(m.len(), 400);
        assert_eq!(m.log_norms.len(), 3);
        assert_eq!(m.means_t.len(), 3 * 2);
        for (c, j) in m.distinct_of.iter().enumerate() {
            assert_eq!(*j as usize, c % 3, "component {c}");
        }
    }

    #[test]
    fn mixture_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut ns = NormalSampler::new();
        let m = GaussianMixture::weighted(
            vec![
                DiagGaussian::isotropic(vec![-10.0], 0.1),
                DiagGaussian::isotropic(vec![10.0], 0.1),
            ],
            &[0.2, 0.8],
        );
        let n = 50_000;
        let right = (0..n)
            .filter(|_| m.sample(&mut rng, &mut ns)[0] > 0.0)
            .count() as f64
            / n as f64;
        assert!((right - 0.8).abs() < 0.01, "right fraction {right}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn gaussian_rejects_mismatched_dims() {
        let _ = DiagGaussian::new(vec![0.0, 1.0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "sigmas must be positive")]
    fn gaussian_rejects_zero_sigma() {
        let _ = DiagGaussian::new(vec![0.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "empty mixture")]
    fn mixture_rejects_empty() {
        let _ = GaussianMixture::equal_weight(vec![]);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn mixture_rejects_dim_mismatch() {
        let _ = GaussianMixture::equal_weight(vec![
            DiagGaussian::standard(2),
            DiagGaussian::standard(3),
        ]);
    }
}
