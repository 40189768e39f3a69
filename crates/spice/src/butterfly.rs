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

use crate::curve_store::CurveStore;
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
}

impl SampleEffort {
    /// Accumulates another effort record into this one.
    pub fn add(&mut self, other: &SampleEffort) {
        self.solves += other.solves;
        self.newton_iters += other.newton_iters;
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
    /// (a non-finite supply, bias voltage, device threshold or β) as a
    /// typed [`EvalError`] instead of handing back poisoned data.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` — a caller bug, not a data problem.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::NonFinite`] when the supply, a bias voltage,
    /// a device threshold or a device β is a NaN or infinity.
    pub fn try_sample(
        cell: &Sram6T,
        bias: &BiasCondition,
        points: usize,
    ) -> Result<Self, EvalError> {
        Self::try_sample_counted(cell, bias, points, 1e-7).map(|(b, _)| b)
    }

    /// The counted sampler behind [`Self::try_sample`]: an explicit
    /// solver `resolution` and the effort the solves cost.
    ///
    /// Each curve is solved as its own pass. The previous root of the
    /// same curve bounds each point's root from above, and the solve
    /// starts from a root extrapolated from the curve's last roots. With
    /// `resolution = 1e-7` this is bit-identical to [`Self::try_sample`].
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` — a caller bug, not a data problem.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::NonFinite`] when the supply, a bias voltage,
    /// a device threshold or a device β is a NaN or infinity.
    pub fn try_sample_counted(
        cell: &Sram6T,
        bias: &BiasCondition,
        points: usize,
        resolution: f64,
    ) -> Result<(Self, SampleEffort), EvalError> {
        Self::try_sample_stored(cell, bias, points, resolution, None, None)
    }

    /// [`Self::try_sample_counted`], taking each curve that `store` holds
    /// instead of solving it. A taken curve counts its original solve's
    /// effort, so the butterfly and the effort are the same bits with or
    /// without a store (see [`crate::curve_store`]).
    ///
    /// `seeds`, a butterfly of the same cell on every other point of this
    /// grid, starts each even point of a solved curve from the seed
    /// curve's root at the same input instead of an extrapolated one.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`, or if `seeds` is not on every other point
    /// of the grid.
    pub(crate) fn try_sample_stored(
        cell: &Sram6T,
        bias: &BiasCondition,
        points: usize,
        resolution: f64,
        store: Option<&CurveStore>,
        seeds: Option<&Butterfly>,
    ) -> Result<(Self, SampleEffort), EvalError> {
        assert!(points >= 2, "need at least two grid points, got {points}");
        if let Some(seeds) = seeds {
            assert_eq!(
                2 * (seeds.len() - 1),
                points - 1,
                "seeds must sit on every other grid point"
            );
        }
        let vdd = cell.vdd();
        if !vdd.is_finite() {
            return Err(EvalError::NonFinite {
                context: "supply voltage",
            });
        }
        if [bias.wl, bias.bl, bias.blb].iter().any(|v| !v.is_finite()) {
            return Err(EvalError::NonFinite {
                context: "bias voltage",
            });
        }
        if !cell.has_finite_devices() {
            return Err(EvalError::NonFinite {
                context: "device threshold or beta",
            });
        }
        let grid: Vec<f64> = (0..points)
            .map(|i| vdd * i as f64 / (points - 1) as f64)
            .collect();
        let curve = |right: bool| {
            let seeds = seeds.map_or(&[][..], |s| if right { &s.curve_a } else { &s.curve_b });
            let solve = || solve_curve(cell, bias, right, &grid, resolution, seeds);
            match store {
                Some(store) => store.curve(cell, bias, right, points, resolution, solve),
                None => solve(),
            }
        };
        let (curve_a, iters_a) = curve(true);
        let (curve_b, iters_b) = curve(false);
        let effort = SampleEffort {
            solves: 2 * points as u64,
            newton_iters: iters_a + iters_b,
        };
        Ok((
            Self {
                grid,
                curve_a,
                curve_b,
            },
            effort,
        ))
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

/// One half-cell transfer curve on `grid` (the right half when `right`)
/// and the Newton evaluations it cost. Every root comes from a bracketed
/// solve, so every point is finite.
///
/// Point `i` starts from `seeds[i / 2]` when `i` is even and the seeds
/// reach it, else from the root [`predict`] extrapolates. A start only
/// changes how many evaluations a root costs: the bracket and stopping
/// rules keep every root within `resolution` of the true one.
fn solve_curve(
    cell: &Sram6T,
    bias: &BiasCondition,
    right: bool,
    grid: &[f64],
    resolution: f64,
    seeds: &[f64],
) -> (Vec<f64>, u64) {
    let mut outputs: Vec<f64> = Vec::with_capacity(grid.len());
    let mut newton_iters = 0;
    for (i, &vin) in grid.iter().enumerate() {
        let seed = if i % 2 == 0 { seeds.get(i / 2) } else { None };
        let guess = seed.copied().or_else(|| predict(&outputs));
        // The VTCs are monotone decreasing, so the previous root bounds
        // the next one from above.
        let v = cell.solve_vtc(right, bias, vin, outputs.last().copied(), guess, resolution);
        newton_iters += u64::from(v.iters);
        outputs.push(v.v);
    }
    (outputs, newton_iters)
}

/// The next root of a curve on a uniform grid, extrapolated from its
/// last roots `c`: quadratically (`3c[i−1] − 3c[i−2] + c[i−3]`) from
/// three, linearly (`2c[i−1] − c[i−2]`) from two, the previous root from
/// one.
fn predict(c: &[f64]) -> Option<f64> {
    match *c {
        [] => None,
        [c1] => Some(c1),
        [c2, c1] => Some(2.0 * c1 - c2),
        [.., c3, c2, c1] => Some(3.0 * c1 - 3.0 * c2 + c3),
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
    fn non_finite_operating_points_are_typed_errors_not_curves() {
        let cell = Sram6T::paper_cell();
        for bad in [f64::NAN, f64::INFINITY] {
            let skewed = cell.with_delta_vth(&[bad, 0.0, 0.0, 0.0, 0.0, 0.0]);
            assert_eq!(
                Butterfly::try_sample(&skewed, &skewed.read_bias(), 21),
                Err(EvalError::NonFinite {
                    context: "device threshold or beta"
                })
            );
            let bias = BiasCondition {
                wl: bad,
                ..cell.read_bias()
            };
            assert_eq!(
                Butterfly::try_sample(&cell, &bias, 21),
                Err(EvalError::NonFinite {
                    context: "bias voltage"
                })
            );
        }
    }

    #[test]
    fn try_sample_matches_sample_on_healthy_cells() {
        let cell = Sram6T::paper_cell();
        let a = Butterfly::sample(&cell, &cell.read_bias(), 31);
        let b = Butterfly::try_sample(&cell, &cell.read_bias(), 31).expect("healthy cell");
        assert_eq!(a, b);
    }
}
