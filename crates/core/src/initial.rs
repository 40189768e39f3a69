//! Initial particle selection (Algorithm 1, step 1).
//!
//! Random directions on the unit `D`-sphere are shot outward; along each
//! direction that fails at the search radius, the pass→fail boundary is
//! located by bisection and a particle is placed on it. The resulting
//! cloud hugs the failure boundary from the start, so the particle filter
//! needs only a few iterations to converge — and, crucially, the *same*
//! initial set can be reused for every gate-bias condition of a sweep
//! (the boundary moves with bias, but not far).

use crate::bench::Testbench;
use ecripse_stats::sample::NormalSampler;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Options for the boundary search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InitialSearchConfig {
    /// Number of boundary particles requested.
    pub count: usize,
    /// Outer search radius in sigma units; directions that do not fail
    /// at this radius are discarded.
    pub r_max: f64,
    /// Bisection iterations per direction (each costs one simulation).
    pub bisection_steps: usize,
    /// Give up after this many candidate directions.
    pub max_attempts: usize,
}

impl Default for InitialSearchConfig {
    fn default() -> Self {
        Self {
            count: 64,
            r_max: 8.0,
            bisection_steps: 12,
            max_attempts: 4096,
        }
    }
}

/// The initial particle set, reusable across bias conditions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitialParticles {
    /// Boundary points in whitened space.
    pub particles: Vec<Vec<f64>>,
    /// Indicator evaluations spent building the set.
    pub simulations: u64,
}

/// Error when the boundary search cannot find enough failing directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryNotFoundError {
    /// Particles found before giving up.
    pub found: usize,
    /// Particles requested.
    pub requested: usize,
}

impl std::fmt::Display for BoundaryNotFoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "boundary search found only {}/{} failing directions; \
             increase r_max or max_attempts",
            self.found, self.requested
        )
    }
}

impl std::error::Error for BoundaryNotFoundError {}

/// Runs the spherical bisection search.
///
/// # Errors
///
/// Returns [`BoundaryNotFoundError`] if fewer than `config.count`
/// boundary points were found within `config.max_attempts` directions.
///
/// # Panics
///
/// Panics if `count` or `bisection_steps` is zero, or `r_max` is not
/// positive.
pub fn find_boundary_particles<B: Testbench, R: Rng + ?Sized>(
    bench: &B,
    rng: &mut R,
    config: &InitialSearchConfig,
) -> Result<InitialParticles, BoundaryNotFoundError> {
    assert!(config.count > 0, "need at least one particle");
    assert!(
        config.bisection_steps > 0,
        "need at least one bisection step"
    );
    assert!(config.r_max > 0.0, "search radius must be positive");

    let dim = bench.dim();
    let mut normals = NormalSampler::new();
    let mut particles = Vec::with_capacity(config.count);
    let mut simulations = 0u64;

    for _ in 0..config.max_attempts {
        if particles.len() >= config.count {
            break;
        }
        // Uniform direction on the sphere: normalised Gaussian vector.
        let mut dir = normals.sample_vec(rng, dim);
        let norm: f64 = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            continue;
        }
        for v in &mut dir {
            *v /= norm;
        }

        let at = |r: f64| -> Vec<f64> { dir.iter().map(|d| d * r).collect() };
        simulations += 1;
        if !bench.fails(&at(config.r_max)) {
            continue; // this direction never fails within range
        }
        let mut lo = 0.0;
        let mut hi = config.r_max;
        for _ in 0..config.bisection_steps {
            let mid = 0.5 * (lo + hi);
            simulations += 1;
            if bench.fails(&at(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // Place the particle just inside the failure region.
        particles.push(at(hi));
    }

    if particles.len() < config.count {
        return Err(BoundaryNotFoundError {
            found: particles.len(),
            requested: config.count,
        });
    }
    Ok(InitialParticles {
        particles,
        simulations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{LinearBench, SimCounter, TwoLobeBench};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn particles_land_on_the_linear_boundary() {
        let bench = LinearBench::new(vec![1.0, 0.0, 0.0], 3.0);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = InitialSearchConfig {
            count: 32,
            r_max: 10.0,
            bisection_steps: 20,
            max_attempts: 10_000,
        };
        let init = find_boundary_particles(&bench, &mut rng, &cfg).expect("boundary exists");
        assert_eq!(init.particles.len(), 32);
        for p in &init.particles {
            // On the failing side, close to the plane z₀ = 3.
            assert!(bench.fails(p));
            assert!(
                (p[0] - 3.0).abs() < 0.05,
                "particle {:?} should hug the boundary",
                p
            );
        }
    }

    #[test]
    fn two_lobes_are_both_discovered() {
        let bench = TwoLobeBench::new(vec![1.0, 0.0], 2.5);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = InitialSearchConfig {
            count: 40,
            r_max: 8.0,
            ..InitialSearchConfig::default()
        };
        let init = find_boundary_particles(&bench, &mut rng, &cfg).expect("two lobes");
        let positive = init.particles.iter().filter(|p| p[0] > 0.0).count();
        let negative = init.particles.len() - positive;
        assert!(
            positive >= 8 && negative >= 8,
            "both lobes should be seeded: {positive} vs {negative}"
        );
    }

    #[test]
    fn simulation_count_is_tracked_accurately() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 2.0));
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = InitialSearchConfig {
            count: 10,
            ..InitialSearchConfig::default()
        };
        let init = find_boundary_particles(&counter, &mut rng, &cfg).expect("boundary");
        assert_eq!(init.simulations, counter.simulations());
    }

    #[test]
    fn unreachable_boundary_is_an_error() {
        // Boundary at 30σ but search radius 8σ.
        let bench = LinearBench::new(vec![1.0], 30.0);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = InitialSearchConfig {
            count: 4,
            max_attempts: 200,
            ..InitialSearchConfig::default()
        };
        let err = find_boundary_particles(&bench, &mut rng, &cfg).expect_err("unreachable");
        assert_eq!(err.found, 0);
        assert_eq!(err.requested, 4);
    }

    #[test]
    fn sram_boundary_search_succeeds() {
        // The real cell: boundary at ~3.8σ, well inside r_max = 8.
        let bench =
            crate::scenario::SramScenarioBench::paper_cell(crate::scenario::Scenario::ReadSnm);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = InitialSearchConfig {
            count: 8,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        };
        let init = find_boundary_particles(&bench, &mut rng, &cfg).expect("SRAM boundary");
        for p in &init.particles {
            assert!(bench.fails(p));
            let r: f64 = p.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(r > 2.0 && r <= 8.0, "boundary radius {r}");
        }
    }
}
