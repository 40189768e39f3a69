//! Dense LU factorisation with partial pivoting.
//!
//! The MNA systems of this workspace are tiny (≤ ~10 unknowns for the 6T
//! cell with sources), so a straightforward `O(n³)` dense factorisation is
//! both the simplest and the fastest option — no sparse machinery, no
//! external linear-algebra dependency.

/// A square matrix in row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub fn from_rows(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "row-major data length mismatch");
        Self { n, data }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Element accessor.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Element setter.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// In-place element update (`+=`), the natural operation for MNA
    /// stamping.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// Resets all entries to zero, preserving the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.n];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

/// Error returned when factorisation meets a (numerically) singular pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError;

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrixError {}

/// An LU factorisation `P·A = L·U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Factorises `a` (consumed).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300`
    /// in magnitude is encountered.
    pub fn factor(a: DenseMatrix) -> Result<Self, SingularMatrixError> {
        let n = a.n;
        let mut lu = a.data;
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = lu[col * n + col].abs();
            for row in (col + 1)..n {
                let v = lu[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(SingularMatrixError);
            }
            if pivot_row != col {
                for k in 0..n {
                    lu.swap(col * n + k, pivot_row * n + k);
                }
                perm.swap(col, pivot_row);
            }
            let pivot = lu[col * n + col];
            for row in (col + 1)..n {
                let factor = lu[row * n + col] / pivot;
                lu[row * n + col] = factor;
                for k in (col + 1)..n {
                    lu[row * n + k] -= factor * lu[col * n + k];
                }
            }
        }
        Ok(Self { n, lu, perm })
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        let n = self.n;
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            for k in 0..i {
                x[i] -= self.lu[i * n + k] * x[k];
            }
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.lu[i * n + k] * x[k];
            }
            x[i] /= self.lu[i * n + i];
        }
        x
    }
}

/// Convenience: factorises and solves in one call.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if the matrix cannot be factorised.
pub fn solve_dense(a: DenseMatrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
    Ok(LuFactors::factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solves_identity() {
        let mut a = DenseMatrix::zeros(3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        let x = solve_dense(a, &[3.0, -1.0, 2.5]).expect("identity is regular");
        assert_eq!(x, vec![3.0, -1.0, 2.5]);
    }

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [3; 5] → x = [0.8, 1.4]
        let a = DenseMatrix::from_rows(2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve_dense(a, &[3.0, 5.0]).expect("regular");
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading zero demands a row swap.
        let a = DenseMatrix::from_rows(2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve_dense(a, &[2.0, 3.0]).expect("regular after pivot");
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve_dense(a, &[1.0, 2.0]), Err(SingularMatrixError));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DenseMatrix::from_rows(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn stamping_add_accumulates() {
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, 1.5);
        a.add(0, 0, 2.5);
        assert_eq!(a.get(0, 0), 4.0);
        a.clear();
        assert_eq!(a.get(0, 0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_solves_diagonally_dominant_systems(
            seed in proptest::collection::vec(-1.0f64..1.0, 16),
            rhs in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            // Make the matrix strictly diagonally dominant → regular.
            let n = 4;
            let mut a = DenseMatrix::from_rows(n, seed);
            for i in 0..n {
                let off: f64 = (0..n).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
                a.set(i, i, off + 1.0);
            }
            let x = solve_dense(a.clone(), &rhs).expect("dd matrix is regular");
            let back = a.mul_vec(&x);
            for (b, r) in back.iter().zip(&rhs) {
                prop_assert!((b - r).abs() < 1e-8);
            }
        }
    }
}
