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
use crate::simulate::Simulator;
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
    /// Simulations billed building the set: every probe that reached
    /// the bench, retry rungs included.
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
/// The search works in rounds of simulator batches. A round draws the
/// next `min(count − found, max_attempts − attempted)` directions — each
/// yields at most one particle, so a one-direction-at-a-time search
/// would draw every one of them too — probes them all at `r_max` in one
/// batch, then bisects the failing ones together, one batch per step.
/// Directions, evaluations, simulation count and particles (in direction
/// order) are exactly those of the one-at-a-time search.
///
/// Every probe goes through `sim`, which bills it (and any retry rung it
/// climbs); the set's `simulations` is what `sim` billed during the
/// search.
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
    sim: &Simulator<'_, B>,
    rng: &mut R,
    config: &InitialSearchConfig,
) -> Result<InitialParticles, BoundaryNotFoundError> {
    check(config);
    let dim = sim.dim();
    let billed_before = sim.simulations();
    let mut normals = NormalSampler::new();
    let mut particles = Vec::with_capacity(config.count);
    let mut attempted = 0usize;
    while particles.len() < config.count && attempted < config.max_attempts {
        let round = (config.count - particles.len()).min(config.max_attempts - attempted);
        attempted += round;
        let dirs: Vec<Vec<f64>> = (0..round)
            .filter_map(|_| unit_direction(&mut normals, rng, dim))
            .collect();
        let probes: Vec<Vec<f64>> = dirs.iter().map(|d| at(d, config.r_max)).collect();
        let verdicts = sim.fails_batch(&probes);
        // Directions that never fail within range are dropped.
        let failing: Vec<Vec<f64>> = dirs
            .into_iter()
            .zip(verdicts)
            .filter_map(|(d, fails)| fails.then_some(d))
            .collect();
        let mut lo = vec![0.0; failing.len()];
        let mut hi = vec![config.r_max; failing.len()];
        if !failing.is_empty() {
            for _ in 0..config.bisection_steps {
                let mids: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect();
                let points: Vec<Vec<f64>> =
                    failing.iter().zip(&mids).map(|(d, &r)| at(d, r)).collect();
                let verdicts = sim.fails_batch(&points);
                for (i, fails) in verdicts.into_iter().enumerate() {
                    if fails {
                        hi[i] = mids[i];
                    } else {
                        lo[i] = mids[i];
                    }
                }
            }
        }
        // Place each particle just inside the failure region.
        particles.extend(failing.iter().zip(&hi).map(|(d, &r)| at(d, r)));
    }
    finish(particles, sim.simulations() - billed_before, config)
}

fn check(config: &InitialSearchConfig) {
    assert!(config.count > 0, "need at least one particle");
    assert!(
        config.bisection_steps > 0,
        "need at least one bisection step"
    );
    assert!(config.r_max > 0.0, "search radius must be positive");
}

/// A uniform direction on the sphere (a normalised Gaussian vector), or
/// `None` for a draw too short to normalise.
fn unit_direction<R: Rng + ?Sized>(
    normals: &mut NormalSampler,
    rng: &mut R,
    dim: usize,
) -> Option<Vec<f64>> {
    let mut dir = normals.sample_vec(rng, dim);
    let norm: f64 = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm < 1e-12 {
        return None;
    }
    for v in &mut dir {
        *v /= norm;
    }
    Some(dir)
}

/// The point at radius `r` along `dir`.
fn at(dir: &[f64], r: f64) -> Vec<f64> {
    dir.iter().map(|d| d * r).collect()
}

fn finish(
    particles: Vec<Vec<f64>>,
    simulations: u64,
    config: &InitialSearchConfig,
) -> Result<InitialParticles, BoundaryNotFoundError> {
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
    use crate::bench::{LinearBench, TwoLobeBench};
    use crate::cache::MemoCacheConfig;
    use crate::observe::NullObserver;
    use crate::retry::RetryPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Searches `bench` through a fresh simulator, seeded with `seed`.
    fn search<B: Testbench>(
        bench: &B,
        seed: u64,
        config: &InitialSearchConfig,
    ) -> Result<InitialParticles, BoundaryNotFoundError> {
        let sim = Simulator::unmemoised(bench);
        find_boundary_particles(&sim, &mut StdRng::seed_from_u64(seed), config)
    }

    /// The one-direction-at-a-time search the batched rounds replace: the
    /// reference they must reproduce exactly.
    fn reference_find_boundary_particles<B: Testbench, R: Rng + ?Sized>(
        bench: &B,
        rng: &mut R,
        config: &InitialSearchConfig,
    ) -> Result<InitialParticles, BoundaryNotFoundError> {
        check(config);
        let dim = bench.dim();
        let mut normals = NormalSampler::new();
        let mut particles = Vec::with_capacity(config.count);
        let mut simulations = 0u64;
        for _ in 0..config.max_attempts {
            if particles.len() >= config.count {
                break;
            }
            let Some(dir) = unit_direction(&mut normals, rng, dim) else {
                continue;
            };
            simulations += 1;
            if !bench.fails(&at(&dir, config.r_max)) {
                continue;
            }
            let mut lo = 0.0;
            let mut hi = config.r_max;
            for _ in 0..config.bisection_steps {
                let mid = 0.5 * (lo + hi);
                simulations += 1;
                if bench.fails(&at(&dir, mid)) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            particles.push(at(&dir, hi));
        }
        finish(particles, simulations, config)
    }

    /// Runs both searches through fresh simulators (memo on, as in an
    /// estimate) at `threads` and asserts identical particles (bit for
    /// bit), simulation counts, billed simulations, solver effort and RNG
    /// position afterwards.
    fn assert_batched_matches_reference<B: Testbench>(
        bench: &B,
        config: &InitialSearchConfig,
        seed: u64,
        threads: usize,
    ) {
        let run = |batched: bool| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let sim = Simulator::new(
                    bench,
                    &NullObserver,
                    MemoCacheConfig::default(),
                    RetryPolicy::default(),
                );
                let effort = sim.solve_effort();
                let mut rng = StdRng::seed_from_u64(seed);
                let found = if batched {
                    find_boundary_particles(&sim, &mut rng, config)
                } else {
                    reference_find_boundary_particles(&sim, &mut rng, config)
                };
                let bits = found.map(|init| {
                    let bits: Vec<Vec<u64>> = init
                        .particles
                        .iter()
                        .map(|p| p.iter().map(|v| v.to_bits()).collect())
                        .collect();
                    (bits, init.simulations)
                });
                (
                    bits,
                    sim.simulations(),
                    sim.solve_effort().delta(&effort),
                    rng.gen::<u64>(),
                )
            })
        };
        assert_eq!(run(true), run(false), "threads {threads}");
    }

    #[test]
    fn batched_search_matches_the_one_at_a_time_search() {
        let linear = LinearBench::new(vec![1.0, 0.5, -0.25], 3.0);
        let two_lobe = TwoLobeBench::new(vec![1.0, 0.0], 2.5);
        for threads in [1, 2] {
            let cfg = InitialSearchConfig {
                count: 20,
                ..InitialSearchConfig::default()
            };
            assert_batched_matches_reference(&linear, &cfg, 11, threads);
            assert_batched_matches_reference(&two_lobe, &cfg, 12, threads);
            // A boundary mostly out of range exhausts `max_attempts` over
            // two rounds (30 directions, then the last 10) and errs with
            // the same partial count.
            let far = InitialSearchConfig {
                count: 30,
                r_max: 2.8,
                max_attempts: 40,
                ..InitialSearchConfig::default()
            };
            let err = search(&linear, 13, &far).expect_err("out of range");
            assert!(err.found > 0 && err.found < 30, "{err:?}");
            assert_batched_matches_reference(&linear, &far, 13, threads);
        }
    }

    #[test]
    fn batched_search_matches_the_one_at_a_time_search_on_the_sram_bench() {
        let bench =
            crate::scenario::SramScenarioBench::paper_cell(crate::scenario::Scenario::ReadSnm);
        let cfg = InitialSearchConfig {
            count: 4,
            bisection_steps: 6,
            max_attempts: 400,
            ..InitialSearchConfig::default()
        };
        for threads in [1, 2] {
            assert_batched_matches_reference(&bench, &cfg, 5, threads);
        }
    }

    #[test]
    fn particles_land_on_the_linear_boundary() {
        let bench = LinearBench::new(vec![1.0, 0.0, 0.0], 3.0);
        let cfg = InitialSearchConfig {
            count: 32,
            r_max: 10.0,
            bisection_steps: 20,
            max_attempts: 10_000,
        };
        let init = search(&bench, 1, &cfg).expect("boundary exists");
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
        let cfg = InitialSearchConfig {
            count: 40,
            r_max: 8.0,
            ..InitialSearchConfig::default()
        };
        let init = search(&bench, 2, &cfg).expect("two lobes");
        let positive = init.particles.iter().filter(|p| p[0] > 0.0).count();
        let negative = init.particles.len() - positive;
        assert!(
            positive >= 8 && negative >= 8,
            "both lobes should be seeded: {positive} vs {negative}"
        );
    }

    #[test]
    fn simulations_are_what_the_search_billed() {
        // The simulator billed two queries before the search; the set
        // counts only the search's share, which is the one-at-a-time
        // search's tally.
        let bench = LinearBench::new(vec![1.0, 0.0], 2.0);
        let sim = Simulator::unmemoised(&bench);
        let _ = sim.fails_batch(&[vec![0.0, 0.0], vec![3.0, 0.0]]);
        let cfg = InitialSearchConfig {
            count: 10,
            ..InitialSearchConfig::default()
        };
        let init =
            find_boundary_particles(&sim, &mut StdRng::seed_from_u64(3), &cfg).expect("boundary");
        assert_eq!(init.simulations, sim.simulations() - 2);
        let reference =
            reference_find_boundary_particles(&bench, &mut StdRng::seed_from_u64(3), &cfg)
                .expect("boundary");
        assert_eq!(init.simulations, reference.simulations);
    }

    #[test]
    fn unreachable_boundary_is_an_error() {
        // Boundary at 30σ but search radius 8σ.
        let bench = LinearBench::new(vec![1.0], 30.0);
        let cfg = InitialSearchConfig {
            count: 4,
            max_attempts: 200,
            ..InitialSearchConfig::default()
        };
        let err = search(&bench, 4, &cfg).expect_err("unreachable");
        assert_eq!(err.found, 0);
        assert_eq!(err.requested, 4);
    }

    #[test]
    fn sram_boundary_search_succeeds() {
        // The real cell: boundary at ~3.8σ, well inside r_max = 8.
        let bench =
            crate::scenario::SramScenarioBench::paper_cell(crate::scenario::Scenario::ReadSnm);
        let cfg = InitialSearchConfig {
            count: 8,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        };
        let init = search(&bench, 5, &cfg).expect("SRAM boundary");
        for p in &init.particles {
            assert!(bench.fails(p));
            let r: f64 = p.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(r > 2.0 && r <= 8.0, "boundary radius {r}");
        }
    }
}
