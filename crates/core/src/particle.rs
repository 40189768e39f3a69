//! A single particle filter (Algorithm 1, steps 2–4).
//!
//! Particles move through the whitened variability space tracking the
//! optimal alternative distribution `Q_opt(x) ∝ P_fail^RTN(x)·P_RDF(x)`:
//!
//! * **Prediction** — candidates are drawn from an equal-weight Gaussian
//!   mixture centred on the current particles (Eq. 15);
//! * **Measurement** — each candidate is weighted by
//!   `P_fail^RTN(x)·P_RDF(x)` (Eq. 16), the weight function being
//!   supplied by the caller (it hides the inner RTN Monte Carlo and the
//!   classifier);
//! * **Resampling** — systematic resampling proportional to the weights.
//!
//! Degeneracy — all particles collapsing onto the single highest-weight
//! lobe — is the known failure mode; [`crate::ensemble`] counters it
//! with several independent filters, following the paper.

use ecripse_stats::mvn::GaussianMixture;
use ecripse_stats::resample::systematic_resample;
use ecripse_stats::sample::NormalSampler;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Particle filter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParticleFilterConfig {
    /// Number of particles this filter maintains.
    pub n_particles: usize,
    /// Standard deviation of the prediction kernel (Eq. 15's σ), in
    /// whitened units.
    pub sigma_prediction: f64,
}

impl Default for ParticleFilterConfig {
    fn default() -> Self {
        Self {
            n_particles: 100,
            sigma_prediction: 0.3,
        }
    }
}

/// One particle filter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleFilter {
    config: ParticleFilterConfig,
    particles: Vec<Vec<f64>>,
}

/// Error when every candidate particle receives zero weight (the filter
/// has wandered completely out of the failure region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegenerateWeightsError;

impl std::fmt::Display for DegenerateWeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all candidate particles received zero weight")
    }
}

impl std::error::Error for DegenerateWeightsError {}

impl ParticleFilter {
    /// Creates a filter from seed particles, resampled (with repetition
    /// if needed) to the configured population size.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, dimensions are inconsistent, or the
    /// configuration is invalid.
    pub fn from_seeds<R: Rng + ?Sized>(
        rng: &mut R,
        config: ParticleFilterConfig,
        seeds: &[Vec<f64>],
    ) -> Self {
        assert!(!seeds.is_empty(), "no seed particles");
        assert!(config.n_particles > 0, "need at least one particle");
        assert!(
            config.sigma_prediction > 0.0,
            "prediction sigma must be positive"
        );
        let dim = seeds[0].len();
        assert!(
            seeds.iter().all(|s| s.len() == dim),
            "seed dimensions disagree"
        );
        let particles = (0..config.n_particles)
            .map(|_| seeds[rng.gen_range(0..seeds.len())].clone())
            .collect();
        Self { config, particles }
    }

    /// Current particle positions.
    pub fn particles(&self) -> &[Vec<f64>] {
        &self.particles
    }

    /// Configuration in use.
    pub fn config(&self) -> &ParticleFilterConfig {
        &self.config
    }

    /// Dimensionality of the particle space.
    pub fn dim(&self) -> usize {
        self.particles[0].len()
    }

    /// Draws the next-step candidates from the Eq. 15 proposal: pick a
    /// current particle uniformly, perturb with the isotropic kernel.
    pub fn predict<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Vec<f64>> {
        let mut normals = NormalSampler::new();
        (0..self.config.n_particles)
            .map(|_| {
                let centre = &self.particles[rng.gen_range(0..self.particles.len())];
                centre
                    .iter()
                    .map(|c| c + self.config.sigma_prediction * normals.sample(rng))
                    .collect()
            })
            .collect()
    }

    /// Resamples the filter onto `candidates` with the given weights
    /// (Eq. 16 values).
    ///
    /// # Errors
    ///
    /// Returns [`DegenerateWeightsError`] when all weights vanish; the
    /// caller typically keeps the previous particle set in that case.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn resample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        candidates: &[Vec<f64>],
        weights: &[f64],
    ) -> Result<(), DegenerateWeightsError> {
        assert_eq!(candidates.len(), weights.len(), "weight count mismatch");
        let Some(indices) = systematic_resample(rng, weights, self.config.n_particles) else {
            return Err(DegenerateWeightsError);
        };
        self.particles = indices.iter().map(|&i| candidates[i].clone()).collect();
        Ok(())
    }

    /// One full predict→measure→resample iteration; `weight_fn` evaluates
    /// Eq. 16 for a batch of candidates (batched so the caller can train
    /// its classifier on a subset of the batch).
    ///
    /// # Errors
    ///
    /// Returns [`DegenerateWeightsError`] if every candidate weighed
    /// zero; the particle population is left unchanged in that case.
    pub fn step<R, F>(
        &mut self,
        rng: &mut R,
        mut weight_fn: F,
    ) -> Result<(), DegenerateWeightsError>
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R, &[Vec<f64>]) -> Vec<f64>,
    {
        let candidates = self.predict(rng);
        let weights = weight_fn(rng, &candidates);
        self.resample(rng, &candidates, &weights)
    }

    /// The equal-weight Gaussian-mixture density implied by the current
    /// particles with kernel width `sigma` (Eq. 18).
    pub fn as_mixture(&self, sigma: f64) -> GaussianMixture {
        GaussianMixture::from_particles(&self.particles, sigma)
    }

    /// Mean position of the particle cloud (diagnostic).
    pub fn centroid(&self) -> Vec<f64> {
        let dim = self.dim();
        let mut c = vec![0.0; dim];
        for p in &self.particles {
            for (ci, pi) in c.iter_mut().zip(p) {
                *ci += pi;
            }
        }
        for ci in &mut c {
            *ci /= self.particles.len() as f64;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_stats::special::normal_pdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seeds_2d() -> Vec<Vec<f64>> {
        vec![vec![3.0, 0.0], vec![0.0, 3.0], vec![-3.0, 0.0]]
    }

    #[test]
    fn seeding_replicates_to_population_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = ParticleFilter::from_seeds(&mut rng, ParticleFilterConfig::default(), &seeds_2d());
        assert_eq!(
            f.particles().len(),
            ParticleFilterConfig::default().n_particles
        );
        assert_eq!(f.dim(), 2);
        // Every particle is one of the seeds.
        for p in f.particles() {
            assert!(seeds_2d().iter().any(|s| s == p));
        }
    }

    #[test]
    fn prediction_spreads_particles_locally() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ParticleFilterConfig {
            n_particles: 200,
            sigma_prediction: 0.2,
        };
        let f = ParticleFilter::from_seeds(&mut rng, cfg, &[vec![5.0, -1.0]]);
        let candidates = f.predict(&mut rng);
        assert_eq!(candidates.len(), 200);
        let mean_x: f64 = candidates.iter().map(|c| c[0]).sum::<f64>() / 200.0;
        let var_x: f64 = candidates
            .iter()
            .map(|c| (c[0] - mean_x).powi(2))
            .sum::<f64>()
            / 200.0;
        assert!((mean_x - 5.0).abs() < 0.1, "mean {mean_x}");
        assert!((var_x - 0.04).abs() < 0.02, "var {var_x}");
    }

    #[test]
    fn filter_converges_toward_high_weight_region() {
        // Weight = standard normal restricted to x₀ > 2 (a "failure
        // region" on one side); the cloud must settle near the boundary
        // point (2, 0) — the highest-density failing point.
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ParticleFilterConfig {
            n_particles: 300,
            sigma_prediction: 0.3,
        };
        let mut f = ParticleFilter::from_seeds(&mut rng, cfg, &[vec![4.0, 2.0]]);
        for _ in 0..15 {
            f.step(&mut rng, |_, cands| {
                cands
                    .iter()
                    .map(|c| {
                        if c[0] > 2.0 {
                            normal_pdf(c[0]) * normal_pdf(c[1])
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .expect("weights present");
        }
        let c = f.centroid();
        assert!((c[0] - 2.1).abs() < 0.3, "centroid x {:?}", c);
        assert!(c[1].abs() < 0.3, "centroid y {:?}", c);
        // All particles remain in the failing half-space.
        assert!(f.particles().iter().all(|p| p[0] > 2.0));
    }

    #[test]
    fn zero_weights_leave_population_unchanged() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut f =
            ParticleFilter::from_seeds(&mut rng, ParticleFilterConfig::default(), &seeds_2d());
        let before = f.particles().to_vec();
        let err = f.step(&mut rng, |_, cands| vec![0.0; cands.len()]);
        assert_eq!(err, Err(DegenerateWeightsError));
        assert_eq!(f.particles(), &before[..]);
    }

    #[test]
    fn mixture_centres_on_particles() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = ParticleFilterConfig {
            n_particles: 3,
            sigma_prediction: 0.3,
        };
        let f = ParticleFilter::from_seeds(&mut rng, cfg, &seeds_2d());
        let m = f.as_mixture(0.4);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "no seed particles")]
    fn rejects_empty_seeds() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = ParticleFilter::from_seeds(&mut rng, ParticleFilterConfig::default(), &[]);
    }
}
