//! The append-only label bank the SVM trains on.
//!
//! Rows are stored contiguously in fixed blocks of `BLOCK_ROWS` rows.
//! A block's buffer is allocated at full size when its first row
//! arrives, so a push costs one row copy and never moves earlier rows:
//! the bank never holds two copies of itself, as one growing `Vec<f64>`
//! would at every doubling. Each row's label and its Gram diagonal
//! `‖x‖² + 1` are recorded on push, so a retrain does not re-derive them
//! over the whole bank.

/// Rows per block.
const BLOCK_ROWS: usize = 256;

/// Labelled feature rows of one dimension, in insertion order.
#[derive(Debug, Clone)]
pub struct RowBank {
    dim: usize,
    blocks: Vec<Vec<f64>>,
    labels: Vec<bool>,
    qdiag: Vec<f64>,
}

impl RowBank {
    /// An empty bank of rows with `dim` features.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            blocks: Vec::new(),
            labels: Vec::new(),
            qdiag: Vec::new(),
        }
    }

    /// A bank holding `xs` with labels `ys`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, lengths differ, or rows have
    /// inconsistent dimensions.
    pub fn from_rows(xs: &[Vec<f64>], ys: &[bool]) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len(), "label count mismatch");
        let mut bank = Self::new(xs[0].len());
        for (x, y) in xs.iter().zip(ys) {
            bank.push(x, *y);
        }
        bank
    }

    /// Appends one row with its label (`true` = positive class).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the bank's dimension.
    pub fn push(&mut self, x: &[f64], y: bool) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        if self.len().is_multiple_of(BLOCK_ROWS) {
            self.blocks.push(Vec::with_capacity(BLOCK_ROWS * self.dim));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.extend_from_slice(x);
        self.labels.push(y);
        self.qdiag.push(x.iter().map(|v| v * v).sum::<f64>() + 1.0);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the bank holds no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Features per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`'s features.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        let start = (i % BLOCK_ROWS) * self.dim;
        &self.blocks[i / BLOCK_ROWS][start..start + self.dim]
    }

    /// Row `i`'s label.
    #[inline]
    pub(crate) fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Row `i`'s Gram diagonal `‖x‖² + 1` (the `+ 1` is the bias
    /// feature).
    #[inline]
    pub(crate) fn qdiag(&self, i: usize) -> f64 {
        self.qdiag[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_across_block_boundaries() {
        let dim = 3;
        let n = 2 * BLOCK_ROWS + 5;
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|j| (i * dim + j) as f64 - 7.5).collect())
            .collect();
        let ys: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let bank = RowBank::from_rows(&xs, &ys);
        assert_eq!(bank.len(), n);
        assert_eq!(bank.dim(), dim);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(bank.row(i), &x[..]);
            assert_eq!(bank.label(i), ys[i]);
            let q = x.iter().map(|v| v * v).sum::<f64>() + 1.0;
            assert_eq!(bank.qdiag(i).to_bits(), q.to_bits());
        }
    }

    #[test]
    fn full_blocks_never_move() {
        let mut bank = RowBank::new(4);
        bank.push(&[1.0; 4], true);
        let first = bank.blocks[0].as_ptr();
        for _ in 0..BLOCK_ROWS {
            bank.push(&[2.0; 4], false);
        }
        assert_eq!(bank.blocks.len(), 2);
        assert_eq!(bank.blocks[0].as_ptr(), first);
        assert_eq!(bank.row(BLOCK_ROWS), &[2.0; 4]);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn rejects_rows_of_another_dimension() {
        let mut bank = RowBank::new(2);
        bank.push(&[1.0, 2.0, 3.0], true);
    }
}
