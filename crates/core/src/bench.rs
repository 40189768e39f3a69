//! The testbench abstraction.
//!
//! Every estimator in this crate consumes a [`Testbench`]: a deterministic
//! indicator over the *whitened total-shift space* — the 6-D vector
//! `z = x_RDF + x_RTN/σ` of combined threshold shifts in sigma units.
//! Working in the combined space lets one classifier serve both the
//! RDF-only and the RTN-aware flows, exactly as the indicator
//! `I(x_RDF, x_RTN)` of the paper depends only on the total shift.
//!
//! A bench only answers; billing is the
//! [`Simulator`](crate::simulate::Simulator)'s job. Every estimator and
//! baseline queries its bench through one, which counts the
//! "number of transistor-level simulations" axis of Figs. 6 and 7.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

pub use ecripse_spice::testbench::EffortSnapshot;
pub use ecripse_spice::EvalError;

/// Cumulative inner-solver effort behind a bench's verdicts.
///
/// The SRAM bench solves each butterfly transfer-curve point with a 1-D
/// safeguarded Newton iteration and factorises no matrix, so two field
/// names overstate what they count there: `newton_iters` counts Newton
/// evaluations (node-current evaluations) and `factorisations` counts
/// transfer-curve point solves. Both count the effort behind the
/// verdicts: a curve the SRAM bench reuses from its curve store counts
/// as the solve that produced it. Synthetic benches report zeros. Totals
/// are monotone — consumers read before/after deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveEffort {
    /// Newton evaluations of the inner solver (node-current evaluations
    /// of the transfer-curve solves for the SRAM bench).
    pub newton_iters: u64,
    /// Inner-solver invocations (transfer-curve point solves for the
    /// SRAM bench).
    pub factorisations: u64,
}

impl SolveEffort {
    /// Component-wise `self - earlier` (saturating, for counter resets).
    pub fn delta(&self, earlier: &SolveEffort) -> SolveEffort {
        SolveEffort {
            newton_iters: self.newton_iters.saturating_sub(earlier.newton_iters),
            factorisations: self.factorisations.saturating_sub(earlier.factorisations),
        }
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, other: &SolveEffort) {
        self.newton_iters += other.newton_iters;
        self.factorisations += other.factorisations;
    }
}

/// A deterministic pass/fail indicator over whitened shift space.
pub trait Testbench: Sync {
    /// Dimensionality of the variability space.
    fn dim(&self) -> usize;

    /// The indicator `I(z)`: `true` when the sample violates the
    /// specification.
    fn fails(&self, z: &[f64]) -> bool;

    /// Evaluates a whole batch of samples, in order.
    ///
    /// The default implementation is a serial loop over [`fails`]
    /// (cheap synthetic benches gain nothing from threading); expensive
    /// circuit-level benches override this with a parallel map. The
    /// verdicts must be identical to element-wise `fails` calls and in
    /// input order regardless of thread count — every estimator's
    /// determinism guarantee rests on that.
    ///
    /// [`fails`]: Testbench::fails
    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        zs.iter().map(|z| self.fails(z)).collect()
    }

    /// Fallible indicator: surfaces an unevaluable sample as a typed
    /// [`EvalError`] instead of panicking or fabricating a verdict.
    ///
    /// Synthetic benches are total functions, so the default simply
    /// wraps [`fails`]; circuit-level benches override it with their
    /// genuinely fallible evaluation path.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    ///
    /// [`fails`]: Testbench::fails
    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        Ok(self.fails(z))
    }

    /// Fallible indicator at a given rung of the retry ladder.
    ///
    /// `attempt` 0 is the normal evaluation; higher attempts may spend
    /// more effort (the SRAM bench re-samples the butterfly curves on a
    /// progressively finer grid; see
    /// [`ReadStabilityBench::try_fails_whitened`](ecripse_spice::testbench::ReadStabilityBench::try_fails_whitened)).
    /// Benches with a single evaluation
    /// strategy ignore `attempt` — retrying them is then pointless but
    /// harmless.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        let _ = attempt;
        self.try_fails(z)
    }

    /// Fallible batch evaluation at attempt 0 of the retry ladder, in
    /// input order (same determinism contract as
    /// [`fails_batch`](Testbench::fails_batch)).
    ///
    /// The [`Simulator`](crate::simulate::Simulator) sends every first
    /// attempt through here. The default is an order-preserving parallel
    /// map of [`try_fails_attempt`](Testbench::try_fails_attempt) at
    /// attempt 0, so a bench that implements only the ladder entry point
    /// batches the same evaluation it climbs from, and one that
    /// implements only [`fails`](Testbench::fails) still evaluates across
    /// the pool.
    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        zs.par_iter()
            .map(|z| self.try_fails_attempt(z, 0))
            .collect()
    }

    /// Cumulative inner-solver effort behind this bench's verdicts so
    /// far. Synthetic benches have no inner solver and keep the zeroed
    /// default; wrappers forward to the wrapped bench.
    fn solve_effort(&self) -> SolveEffort {
        SolveEffort::default()
    }

    /// Attempt 0 of the ladder evaluated on a private effort ledger: the
    /// outcome plus a receipt of the effort it took, with this bench's
    /// own ledger ([`solve_effort`](Testbench::solve_effort)) untouched
    /// until the receipt is passed to [`book`](Testbench::book).
    ///
    /// This is how work is done ahead of need without moving any counter
    /// (see [`crate::simulate`]). The default `None` means the bench
    /// cannot evaluate detached, and nothing is done ahead for it.
    fn evaluate_detached(&self, z: &[f64]) -> Option<(Result<bool, EvalError>, EffortSnapshot)> {
        let _ = z;
        None
    }

    /// Adds a receipt from
    /// [`evaluate_detached`](Testbench::evaluate_detached) to this bench's
    /// effort ledger, once its outcome is used. The default does nothing,
    /// matching the default `evaluate_detached`.
    fn book(&self, receipt: &EffortSnapshot) {
        let _ = receipt;
    }
}

/// A linear synthetic indicator `I(z) = [w·z > b]` whose exact failure
/// probability under `z ~ N(0, I)` is `Φ(−b/‖w‖)` — the ground truth the
/// estimator tests validate against.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearBench {
    /// Normal direction.
    pub w: Vec<f64>,
    /// Offset.
    pub b: f64,
}

impl LinearBench {
    /// Creates the indicator; `w` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `w` is empty or has zero norm.
    pub fn new(w: Vec<f64>, b: f64) -> Self {
        assert!(!w.is_empty(), "empty direction vector");
        let norm: f64 = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm > 0.0, "direction must be non-zero");
        Self { w, b }
    }

    /// The exact failure probability under the standard normal.
    pub fn exact_p_fail(&self) -> f64 {
        let norm: f64 = self.w.iter().map(|v| v * v).sum::<f64>().sqrt();
        ecripse_stats::special::normal_sf(self.b / norm)
    }
}

impl Testbench for LinearBench {
    fn dim(&self) -> usize {
        self.w.len()
    }

    fn fails(&self, z: &[f64]) -> bool {
        assert_eq!(z.len(), self.w.len(), "dimension mismatch");
        self.w.iter().zip(z).map(|(w, zi)| w * zi).sum::<f64>() > self.b
    }
}

/// A two-lobed synthetic indicator `I(z) = [|w·z| > b]`, mimicking the
/// symmetric pair of SRAM failure regions; exact probability
/// `2·Φ(−b/‖w‖)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLobeBench {
    inner: LinearBench,
}

impl TwoLobeBench {
    /// Creates the two-sided indicator.
    ///
    /// # Panics
    ///
    /// Panics if `w` is empty or zero, or `b` is not positive.
    pub fn new(w: Vec<f64>, b: f64) -> Self {
        assert!(b > 0.0, "offset must be positive for two lobes");
        Self {
            inner: LinearBench::new(w, b),
        }
    }

    /// The exact failure probability under the standard normal.
    pub fn exact_p_fail(&self) -> f64 {
        2.0 * self.inner.exact_p_fail()
    }
}

impl Testbench for TwoLobeBench {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        assert_eq!(z.len(), self.inner.w.len(), "dimension mismatch");
        let dot: f64 = self.inner.w.iter().zip(z).map(|(w, zi)| w * zi).sum();
        dot.abs() > self.inner.b
    }
}

impl<T: Testbench + ?Sized> Testbench for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        (**self).fails(z)
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        (**self).fails_batch(zs)
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        (**self).try_fails(z)
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        (**self).try_fails_attempt(z, attempt)
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        (**self).try_fails_batch(zs)
    }

    fn solve_effort(&self) -> SolveEffort {
        (**self).solve_effort()
    }

    fn evaluate_detached(&self, z: &[f64]) -> Option<(Result<bool, EvalError>, EffortSnapshot)> {
        (**self).evaluate_detached(z)
    }

    fn book(&self, receipt: &EffortSnapshot) {
        (**self).book(receipt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, SramScenarioBench};

    #[test]
    fn linear_bench_probability_is_gaussian_tail() {
        let b = LinearBench::new(vec![1.0, 0.0], 3.0);
        let want = ecripse_stats::special::normal_sf(3.0);
        assert!((b.exact_p_fail() - want).abs() < 1e-15);
        assert!(b.fails(&[3.5, 0.0]));
        assert!(!b.fails(&[2.5, 0.0]));
    }

    #[test]
    fn linear_bench_norm_scales_threshold() {
        // w = (3,4), b = 15 → boundary at distance 3.
        let b = LinearBench::new(vec![3.0, 4.0], 15.0);
        let want = ecripse_stats::special::normal_sf(3.0);
        assert!(((b.exact_p_fail() - want) / want).abs() < 1e-12);
    }

    #[test]
    fn two_lobe_bench_is_symmetric() {
        let b = TwoLobeBench::new(vec![1.0, 1.0], 4.0);
        assert!(b.fails(&[3.0, 3.0]));
        assert!(b.fails(&[-3.0, -3.0]));
        assert!(!b.fails(&[0.0, 0.0]));
        assert!(
            (b.exact_p_fail() - 2.0 * ecripse_stats::special::normal_sf(4.0 / 2.0_f64.sqrt()))
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn sram_bench_dim_and_nominal_pass() {
        let b = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        assert_eq!(b.dim(), 6);
        assert!(!b.fails(&[0.0; 6]));
        assert!(b.sigmas().iter().all(|s| *s > 0.0));
    }

    #[test]
    fn reference_impl_forwards() {
        let b = LinearBench::new(vec![1.0], 1.0);
        let r: &dyn Testbench = &b;
        assert_eq!(r.dim(), 1);
        assert!(r.fails(&[2.0]));
        assert_eq!(r.fails_batch(&[vec![2.0], vec![0.0]]), vec![true, false]);
    }

    #[test]
    fn batch_matches_elementwise_on_the_sram_bench() {
        let b = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        let zs: Vec<Vec<f64>> = (0..17)
            .map(|i| {
                (0..6)
                    .map(|d| ((i * 6 + d) as f64 * 0.37).sin() * 4.0)
                    .collect()
            })
            .collect();
        let batch = b.fails_batch(&zs);
        let single: Vec<bool> = zs.iter().map(|z| b.fails(z)).collect();
        assert_eq!(batch, single);
    }

    #[test]
    fn default_try_fails_wraps_fails() {
        let b = LinearBench::new(vec![1.0], 1.0);
        assert_eq!(b.try_fails(&[2.0]), Ok(true));
        assert_eq!(b.try_fails_attempt(&[0.0], 3), Ok(false));
        assert_eq!(
            b.try_fails_batch(&[vec![2.0], vec![0.0]]),
            vec![Ok(true), Ok(false)]
        );
    }

    #[test]
    fn sram_try_fails_surfaces_typed_errors() {
        let b = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        assert!(matches!(
            b.try_fails(&[0.0; 5]),
            Err(EvalError::DimensionMismatch {
                expected: 6,
                got: 5
            })
        ));
        let mut z = [0.0; 6];
        z[0] = f64::NAN;
        assert!(matches!(b.try_fails(&z), Err(EvalError::NonFinite { .. })));
    }

    #[test]
    fn sram_retry_attempts_agree_on_healthy_samples() {
        let b = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        let z = [1.0, -2.0, 0.5, 0.0, -0.5, 1.5];
        let base = b.try_fails_attempt(&z, 0).expect("attempt 0");
        for attempt in 1..4 {
            assert_eq!(b.try_fails_attempt(&z, attempt).expect("retry"), base);
        }
    }

    #[test]
    fn synthetic_benches_report_zero_solve_effort() {
        let b = LinearBench::new(vec![1.0], 0.0);
        let _ = b.fails(&[1.0]);
        assert_eq!(b.solve_effort(), SolveEffort::default());
    }

    #[test]
    fn sram_solve_effort_grows_and_forwards_through_wrappers() {
        let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        let c = crate::simulate::Simulator::unmemoised(&bench);
        let before = c.solve_effort();
        let _ = c.fails(&[0.5, -0.5, 0.0, 0.0, 0.0, 0.0]);
        let delta = c.solve_effort().delta(&before);
        assert!(
            delta.factorisations > 0,
            "curve solves uncounted: {delta:?}"
        );
        assert!(delta.newton_iters > delta.factorisations);
    }
}
