//! Feature standardisation.
//!
//! Degree-4 monomials of inputs around ±4σ span six orders of magnitude;
//! subgradient descent on raw features either diverges or crawls. The
//! scaler is fitted once on the first labelled batch and then *frozen*,
//! so that incrementally added samples see the same feature geometry and
//! previously learned weights stay meaningful.

use serde::{Deserialize, Serialize};

/// Per-feature affine standardiser `f ↦ (f − mean)/std`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    mean: Vec<f64>,
    inv_std: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler to a batch of feature vectors.
    ///
    /// Features with (near-)zero variance — e.g. the constant monomial —
    /// keep their offset but get unit scale.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows have inconsistent lengths.
    pub fn fit<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a scaler on no data");
        let dim = rows[0].as_ref().len();
        let n = rows.len() as f64;
        let mut mean = vec![0.0; dim];
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), dim, "inconsistent feature dimensions");
            for (m, v) in mean.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for r in rows {
            for ((v, m), x) in var.iter_mut().zip(&mean).zip(r.as_ref()) {
                let d = x - m;
                *v += d * d;
            }
        }
        let inv_std = var
            .iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    1.0 / s
                } else {
                    1.0
                }
            })
            .collect();
        Self { mean, inv_std }
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardises one feature vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimension differs from the fitted one.
    pub fn transform_in_place(&self, features: &mut [f64]) {
        assert_eq!(features.len(), self.dim(), "feature dimension mismatch");
        for ((f, m), s) in features.iter_mut().zip(&self.mean).zip(&self.inv_std) {
            *f = (*f - m) * s;
        }
    }

    /// Standardises one feature vector.
    pub fn transform(&self, features: &[f64]) -> Vec<f64> {
        let mut out = features.to_vec();
        self.transform_in_place(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardised_batch_has_zero_mean_unit_var() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, 1000.0 + 10.0 * (i % 7) as f64])
            .collect();
        let sc = StandardScaler::fit(&rows);
        let t: Vec<Vec<f64>> = rows.iter().map(|r| sc.transform(r)).collect();
        for d in 0..2 {
            let mean: f64 = t.iter().map(|r| r[d]).sum::<f64>() / t.len() as f64;
            let var: f64 = t.iter().map(|r| r[d] * r[d]).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-9, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "dim {d} var {var}");
        }
    }

    #[test]
    fn constant_feature_gets_unit_scale() {
        let rows = vec![vec![1.0, 5.0], vec![1.0, 7.0], vec![1.0, 9.0]];
        let sc = StandardScaler::fit(&rows);
        let t = sc.transform(&[1.0, 7.0]);
        assert_eq!(t[0], 0.0); // offset removed, scale 1
        assert!(t[1].abs() < 1e-9);
    }

    #[test]
    fn transform_is_affine() {
        let rows = vec![vec![0.0], vec![2.0], vec![4.0]];
        let sc = StandardScaler::fit(&rows);
        let a = sc.transform(&[1.0])[0];
        let b = sc.transform(&[3.0])[0];
        let mid = sc.transform(&[2.0])[0];
        assert!((0.5 * (a + b) - mid).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot fit a scaler on no data")]
    fn rejects_empty_fit() {
        let _ = StandardScaler::fit::<Vec<f64>>(&[]);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn rejects_wrong_dimension() {
        let sc = StandardScaler::fit(&[vec![1.0, 2.0]]);
        let _ = sc.transform(&[1.0]);
    }
}
