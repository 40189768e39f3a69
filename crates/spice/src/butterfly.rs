//! Butterfly-curve construction.
//!
//! A butterfly plot overlays the two storage-node transfer curves of the
//! cell in the `(V_Q, V_QB)` plane:
//!
//! * curve A — `V_QB = f_R(V_Q)`: the right half-cell driven by `Q`;
//! * curve B — `V_Q = f_L(V_QB)`: the left half-cell driven by `QB`.
//!
//! A bistable (readable) cell shows the classic two-lobed "eye"; the
//! static noise margin is the side of the largest square embedded in the
//! smaller lobe (see [`crate::snm`]).

use crate::error::EvalError;
use crate::sram::{BiasCondition, Sram6T};
use serde::{Deserialize, Serialize};

/// Work spent sampling one butterfly, for effort accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleEffort {
    /// Transfer-curve points solved (two per grid point).
    pub solves: u64,
    /// Total Newton iterations (node-current evaluations) across all
    /// solves.
    pub newton_iters: u64,
    /// Solves started from a seed-predicted point.
    pub seeded_points: u64,
}

impl SampleEffort {
    /// Accumulates another effort record into this one.
    pub fn add(&mut self, other: &SampleEffort) {
        self.solves += other.solves;
        self.newton_iters += other.newton_iters;
        self.seeded_points += other.seeded_points;
    }
}

/// The two transfer curves of a cell sampled on a uniform input grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Butterfly {
    /// Uniform grid of input voltages, ascending from 0 to `V_DD`.
    pub grid: Vec<f64>,
    /// `curve_a[i] = f_R(grid[i])` — right half-cell output.
    pub curve_a: Vec<f64>,
    /// `curve_b[i] = f_L(grid[i])` — left half-cell output.
    pub curve_b: Vec<f64>,
}

impl Butterfly {
    /// Samples both transfer curves of `cell` under `bias` on a uniform
    /// grid with `points` samples.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`, or if the cell parameters produce a
    /// non-finite transfer curve (use [`Self::try_sample`] for a typed
    /// error instead).
    pub fn sample(cell: &Sram6T, bias: &BiasCondition, points: usize) -> Self {
        match Self::try_sample(cell, bias, points) {
            Ok(b) => b,
            Err(e) => panic!("butterfly sampling failed: {e}"),
        }
    }

    /// Like [`Self::sample`], but surfaces a garbage operating point
    /// (NaN supply, non-finite ΔVth propagating into the curves) as a
    /// typed [`EvalError`] instead of handing back poisoned data.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` — a caller bug, not a data problem.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::NonFinite`] when the supply or either
    /// transfer curve contains a NaN or infinity.
    pub fn try_sample(
        cell: &Sram6T,
        bias: &BiasCondition,
        points: usize,
    ) -> Result<Self, EvalError> {
        Self::try_sample_seeded(cell, bias, points, 1e-7, None).map(|(b, _)| b)
    }

    /// The full-control sampler behind [`Self::try_sample`]: an explicit
    /// solver `resolution`, an optional `seed` butterfly from a nearby
    /// operating point, and effort counters.
    ///
    /// Each point's solve starts from the seed's interpolated value when
    /// a seed is given and that value lies inside the solve's bracket,
    /// and from the previous point's root otherwise. The
    /// start point only changes how fast the solve converges, never which
    /// root it finds, so the result is correct for any seed. With
    /// `resolution = 1e-7` and no seed this is bit-identical to
    /// [`Self::try_sample`].
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` — a caller bug, not a data problem.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::NonFinite`] when the supply or either
    /// transfer curve contains a NaN or infinity.
    pub fn try_sample_seeded(
        cell: &Sram6T,
        bias: &BiasCondition,
        points: usize,
        resolution: f64,
        seed: Option<&Butterfly>,
    ) -> Result<(Self, SampleEffort), EvalError> {
        assert!(points >= 2, "need at least two grid points, got {points}");
        let vdd = cell.vdd();
        if !vdd.is_finite() {
            return Err(EvalError::NonFinite {
                context: "supply voltage",
            });
        }
        let seed = seed.filter(|s| s.len() >= 2);
        let mut effort = SampleEffort::default();
        let mut grid = Vec::with_capacity(points);
        let mut curve_a = Vec::with_capacity(points);
        let mut curve_b = Vec::with_capacity(points);
        for i in 0..points {
            let vin = vdd * i as f64 / (points - 1) as f64;
            grid.push(vin);
            let mut solve = |right: bool, hint: Option<f64>, guess: Option<f64>| {
                let v = cell.solve_vtc(right, bias, vin, hint, guess, resolution);
                effort.solves += 1;
                effort.newton_iters += u64::from(v.iters);
                effort.seeded_points += u64::from(v.seeded);
                v.v
            };
            // The VTCs are monotone decreasing, so each curve's previous
            // root bounds its next one from above.
            let a = solve(true, curve_a.last().copied(), seed.map(|s| s.interp_a(vin)));
            let b = solve(
                false,
                curve_b.last().copied(),
                seed.map(|s| s.interp_b(vin)),
            );
            if !a.is_finite() {
                return Err(EvalError::NonFinite {
                    context: "butterfly curve A",
                });
            }
            if !b.is_finite() {
                return Err(EvalError::NonFinite {
                    context: "butterfly curve B",
                });
            }
            curve_a.push(a);
            curve_b.push(b);
        }
        Ok((
            Self {
                grid,
                curve_a,
                curve_b,
            },
            effort,
        ))
    }

    /// Linear interpolation of curve A (`f_R`) at an arbitrary input,
    /// clamped to the sampled range.
    pub fn interp_a(&self, vin: f64) -> f64 {
        Self::interp(&self.grid, &self.curve_a, vin)
    }

    /// Linear interpolation of curve B (`f_L`) at an arbitrary input,
    /// clamped to the sampled range.
    pub fn interp_b(&self, vin: f64) -> f64 {
        Self::interp(&self.grid, &self.curve_b, vin)
    }

    fn interp(grid: &[f64], curve: &[f64], vin: f64) -> f64 {
        match grid.binary_search_by(|g| g.total_cmp(&vin)) {
            Ok(i) => curve[i],
            Err(0) => curve[0],
            Err(i) if i >= grid.len() => curve[grid.len() - 1],
            Err(i) => {
                let t = (vin - grid[i - 1]) / (grid[i] - grid[i - 1]);
                curve[i - 1] + t * (curve[i] - curve[i - 1])
            }
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// Whether the butterfly has no samples (never true after
    /// [`Self::sample`]).
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Curve A as `(V_Q, V_QB)` points: `(grid[i], curve_a[i])`.
    pub fn points_a(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.grid.iter().copied().zip(self.curve_a.iter().copied())
    }

    /// Curve B as `(V_Q, V_QB)` points: `(curve_b[i], grid[i])` — note the
    /// axis swap, since curve B maps `V_QB` to `V_Q`.
    pub fn points_b(&self) -> impl DoubleEndedIterator<Item = (f64, f64)> + '_ {
        self.curve_b.iter().copied().zip(self.grid.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn butterfly_has_requested_resolution() {
        let cell = Sram6T::paper_cell();
        let b = Butterfly::sample(&cell, &cell.read_bias(), 41);
        assert_eq!(b.len(), 41);
        assert_eq!(b.grid[0], 0.0);
        assert!((b.grid[40] - cell.vdd()).abs() < 1e-12);
    }

    #[test]
    fn nominal_cell_butterfly_is_symmetric() {
        // With identical halves, curve B is curve A reflected about y = x:
        // f_L == f_R, so points_b are points_a with coordinates swapped.
        let cell = Sram6T::paper_cell();
        let b = Butterfly::sample(&cell, &cell.read_bias(), 21);
        for (a, bb) in b.curve_a.iter().zip(&b.curve_b) {
            assert!((a - bb).abs() < 1e-9);
        }
    }

    #[test]
    fn curves_stay_within_extended_rails() {
        let cell = Sram6T::paper_cell();
        for bias in [cell.read_bias(), cell.hold_bias()] {
            let b = Butterfly::sample(&cell, &bias, 31);
            for v in b.curve_a.iter().chain(&b.curve_b) {
                assert!(*v > -0.01 && *v < cell.vdd() + 0.01, "out of rails: {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two grid points")]
    fn rejects_degenerate_grid() {
        let cell = Sram6T::paper_cell();
        let _ = Butterfly::sample(&cell, &cell.read_bias(), 1);
    }

    #[test]
    fn try_sample_matches_sample_on_healthy_cells() {
        let cell = Sram6T::paper_cell();
        let a = Butterfly::sample(&cell, &cell.read_bias(), 31);
        let b = Butterfly::try_sample(&cell, &cell.read_bias(), 31).expect("healthy cell");
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_sampling_costs_no_more_work() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        let (seed, cold) =
            Butterfly::try_sample_seeded(&cell, &bias, 31, 1e-7, None).expect("cold");
        // A tiny perturbation of the same cell: the seed curves are
        // excellent start points.
        let near = cell.with_delta_vth(&[0.002, -0.001, 0.0, 0.001, 0.0, -0.002]);
        let (plain, unseeded) =
            Butterfly::try_sample_seeded(&near, &bias, 31, 1e-7, None).expect("unseeded");
        let (warm_b, warm) =
            Butterfly::try_sample_seeded(&near, &bias, 31, 1e-7, Some(&seed)).expect("seeded");
        assert!(warm.seeded_points > 0, "seed start points should engage");
        assert!(
            warm.newton_iters <= unseeded.newton_iters,
            "seeded {} vs unseeded {} Newton iterations",
            warm.newton_iters,
            unseeded.newton_iters
        );
        assert_eq!(cold.seeded_points, 0);
        // And the curves agree with the unseeded solve to the solver
        // resolution.
        let seeded_points = warm_b.curve_a.iter().chain(&warm_b.curve_b);
        for (a, b) in seeded_points.zip(plain.curve_a.iter().chain(&plain.curve_b)) {
            assert!((a - b).abs() < 2e-7, "seeded {a} vs plain {b}");
        }
    }

    #[test]
    fn nonsense_seed_still_gives_the_correct_curve() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        // A nonsense seed: constant mid-rail curves are far from most
        // roots, yet only the start points change — the result must
        // still be correct.
        let bogus = Butterfly {
            grid: vec![0.0, cell.vdd()],
            curve_a: vec![0.35, 0.35],
            curve_b: vec![0.35, 0.35],
        };
        let (b, eff) = Butterfly::try_sample_seeded(&cell, &bias, 21, 1e-7, Some(&bogus))
            .expect("seeded path");
        assert!(eff.seeded_points > 0);
        let plain = Butterfly::try_sample(&cell, &bias, 21).expect("plain");
        for (a, p) in b.curve_a.iter().zip(&plain.curve_a) {
            assert!((a - p).abs() < 2e-7);
        }
        for (a, p) in b.curve_b.iter().zip(&plain.curve_b) {
            assert!((a - p).abs() < 2e-7);
        }
    }

    #[test]
    fn interpolation_clamps_and_matches_grid_points() {
        let cell = Sram6T::paper_cell();
        let b = Butterfly::sample(&cell, &cell.read_bias(), 21);
        for (i, &g) in b.grid.iter().enumerate() {
            assert_eq!(b.interp_a(g), b.curve_a[i]);
            assert_eq!(b.interp_b(g), b.curve_b[i]);
        }
        assert_eq!(b.interp_a(-1.0), b.curve_a[0]);
        assert_eq!(b.interp_a(b.grid[20] + 1.0), b.curve_a[20]);
        // Midpoints interpolate between neighbours.
        let mid = 0.5 * (b.grid[3] + b.grid[4]);
        let want = 0.5 * (b.curve_a[3] + b.curve_a[4]);
        assert!((b.interp_a(mid) - want).abs() < 1e-12);
    }
}
