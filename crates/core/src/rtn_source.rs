//! Sources of whitened RTN shift vectors.
//!
//! The inner Monte Carlo of Eq. 17 draws `x_RTN ~ P_RTN`; estimators here
//! consume those draws already *whitened* (divided by the per-device RDF
//! sigma) so they can be added directly to the whitened RDF coordinates
//! before evaluating the [`crate::bench::Testbench`].

use ecripse_rtn::model::RtnCellModel;
use rand::Rng;

/// A source of whitened RTN shift vectors.
pub trait RtnSource {
    /// Dimensionality (must match the testbench).
    fn dim(&self) -> usize;

    /// Draws one whitened shift vector.
    fn sample_whitened<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64>;

    /// Whether this source is the degenerate "no RTN" case, whose every
    /// shift is zero; estimators then take one copy per sample (`M = 1`),
    /// since more copies of the same point add nothing.
    fn is_null(&self) -> bool {
        false
    }
}

/// The degenerate RTN source: no shift at all (RDF-only analysis, used by
/// the Fig. 6 comparison where the conventional method cannot handle
/// RTN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRtn {
    dim: usize,
}

impl NoRtn {
    /// A null source of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl RtnSource for NoRtn {
    fn dim(&self) -> usize {
        self.dim
    }

    fn sample_whitened<R: Rng + ?Sized>(&self, _rng: &mut R) -> Vec<f64> {
        vec![0.0; self.dim]
    }

    fn is_null(&self) -> bool {
        true
    }
}

/// RTN for the paper's 6T cell at a given duty ratio, whitened by the
/// same Pelgrom sigmas as the RDF space.
#[derive(Debug, Clone, PartialEq)]
pub struct SramRtn {
    model: RtnCellModel,
    inv_sigmas: [f64; 6],
}

impl SramRtn {
    /// Builds the source from an RTN model and the RDF sigmas \[V\].
    ///
    /// # Panics
    ///
    /// Panics if any sigma is not positive.
    pub fn new(model: RtnCellModel, sigmas: [f64; 6]) -> Self {
        assert!(
            sigmas.iter().all(|s| *s > 0.0 && s.is_finite()),
            "sigmas must be positive"
        );
        Self {
            model,
            inv_sigmas: sigmas.map(|s| 1.0 / s),
        }
    }

    /// Convenience: the paper's model at duty ratio `alpha` whitened by
    /// the paper bench's sigmas.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn paper_model(alpha: f64, sigmas: [f64; 6]) -> Self {
        Self::new(RtnCellModel::paper_model(alpha), sigmas)
    }

    /// The underlying RTN model.
    pub fn model(&self) -> &RtnCellModel {
        &self.model
    }

    /// Mean whitened shift — how many "RDF sigmas" of weakening RTN
    /// contributes on average per device.
    pub fn mean_whitened_shift(&self) -> [f64; 6] {
        let mean = self.model.mean_shift();
        let mut out = [0.0; 6];
        for i in 0..6 {
            out[i] = mean[i] * self.inv_sigmas[i];
        }
        out
    }
}

impl RtnSource for SramRtn {
    fn dim(&self) -> usize {
        6
    }

    fn sample_whitened<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let physical = self.model.sample(rng);
        physical
            .iter()
            .zip(&self.inv_sigmas)
            .map(|(v, inv)| v * inv)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_rtn_is_all_zero() {
        let s = NoRtn::new(6);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(s.is_null());
        assert_eq!(s.sample_whitened(&mut rng), vec![0.0; 6]);
    }

    #[test]
    fn sram_rtn_scales_by_sigma() {
        let sigmas = [0.02, 0.04, 0.02, 0.04, 0.04, 0.04];
        let src = SramRtn::paper_model(0.5, sigmas);
        let mut rng = StdRng::seed_from_u64(2);
        // Empirical mean should match analytic whitened mean.
        let n = 50_000;
        let mut acc = [0.0; 6];
        for _ in 0..n {
            let s = src.sample_whitened(&mut rng);
            for (a, v) in acc.iter_mut().zip(&s) {
                *a += v;
            }
        }
        for (a, want) in acc.iter().zip(src.mean_whitened_shift()) {
            let got = a / n as f64;
            assert!(
                (got - want).abs() < 0.05 * want.max(0.01),
                "mean {got} vs {want}"
            );
        }
    }

    #[test]
    fn shifts_are_nonnegative_in_whitened_space_too() {
        let sigmas = [0.02; 6];
        let src = SramRtn::paper_model(0.3, sigmas);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(src.sample_whitened(&mut rng).iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn not_null() {
        let src = SramRtn::paper_model(0.5, [0.02; 6]);
        assert!(!src.is_null());
        assert_eq!(src.dim(), 6);
    }

    #[test]
    #[should_panic(expected = "sigmas must be positive")]
    fn rejects_bad_sigmas() {
        let _ = SramRtn::paper_model(0.5, [0.0; 6]);
    }
}
