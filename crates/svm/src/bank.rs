//! The append-only label bank the SVM trains on.
//!
//! The bank holds *labels*, and each label points at a *stored row*.
//! The RTN-aware estimate hands the classifier many exact copies of one
//! sample (every zero-trap RTN draw reproduces its RDF sample bit for
//! bit), so several labels may share one stored row: a repeat costs one
//! index, one label and one Gram diagonal instead of a whole feature
//! row. Training still visits every label with its own dual variable.
//!
//! Stored rows live contiguously in fixed blocks of `BLOCK_ROWS` rows.
//! A block's buffer is allocated at full size when its first row
//! arrives, so a push costs one row copy and never moves earlier rows:
//! the bank never holds two copies of itself, as one growing `Vec<f64>`
//! would at every doubling. Each label's Gram diagonal `‖x‖² + 1` is
//! recorded on push, so a retrain does not re-derive it over the whole
//! bank.

/// Stored rows per block.
const BLOCK_ROWS: usize = 256;

/// Labelled feature rows of one dimension, in insertion order.
#[derive(Debug, Clone)]
pub struct RowBank {
    dim: usize,
    /// The distinct stored rows.
    blocks: Vec<Vec<f64>>,
    n_rows: usize,
    /// Per label: its stored row, its class and its Gram diagonal.
    rows: Vec<usize>,
    labels: Vec<bool>,
    qdiag: Vec<f64>,
}

impl RowBank {
    /// An empty bank of rows with `dim` features.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            blocks: Vec::new(),
            n_rows: 0,
            rows: Vec::new(),
            labels: Vec::new(),
            qdiag: Vec::new(),
        }
    }

    /// A bank holding `xs` with labels `ys`, in order, one stored row
    /// per label.
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

    /// Stores a new row and appends a label for it (`true` = positive
    /// class). Returns the stored row's index, for [`Self::push_repeat`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the bank's dimension.
    pub fn push(&mut self, x: &[f64], y: bool) -> usize {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        if self.n_rows.is_multiple_of(BLOCK_ROWS) {
            self.blocks.push(Vec::with_capacity(BLOCK_ROWS * self.dim));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.extend_from_slice(x);
        let row = self.n_rows;
        self.n_rows += 1;
        self.rows.push(row);
        self.labels.push(y);
        self.qdiag.push(x.iter().map(|v| v * v).sum::<f64>() + 1.0);
        row
    }

    /// Appends a label for the already stored row `row` (a repeat of an
    /// earlier sample), without storing its features again.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a stored row.
    pub fn push_repeat(&mut self, row: usize, y: bool) {
        assert!(row < self.n_rows, "no stored row {row}");
        let q = self.row(row).iter().map(|v| v * v).sum::<f64>() + 1.0;
        self.rows.push(row);
        self.labels.push(y);
        self.qdiag.push(q);
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the bank holds no labels.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct stored rows (at most [`Self::len`]).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Features per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Stored row `row`'s features.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[f64] {
        let start = (row % BLOCK_ROWS) * self.dim;
        &self.blocks[row / BLOCK_ROWS][start..start + self.dim]
    }

    /// The stored row of every label, in label order.
    #[inline]
    pub(crate) fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Label `i`'s class.
    #[inline]
    pub(crate) fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Label `i`'s Gram diagonal `‖x‖² + 1` (the `+ 1` is the bias
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
        assert_eq!(bank.n_rows(), n);
        assert_eq!(bank.dim(), dim);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(bank.row(bank.rows()[i]), &x[..]);
            assert_eq!(bank.label(i), ys[i]);
            let q = x.iter().map(|v| v * v).sum::<f64>() + 1.0;
            assert_eq!(bank.qdiag(i).to_bits(), q.to_bits());
        }
    }

    #[test]
    fn repeats_share_a_stored_row_but_keep_their_own_label() {
        let mut bank = RowBank::new(2);
        let a = bank.push(&[1.5, -2.0], true);
        let b = bank.push(&[0.25, 3.0], false);
        bank.push_repeat(a, false);
        bank.push_repeat(a, true);
        bank.push_repeat(b, true);
        assert_eq!((bank.len(), bank.n_rows()), (5, 2));
        assert_eq!(bank.rows(), &[a, b, a, a, b]);
        let labels: Vec<bool> = (0..5).map(|i| bank.label(i)).collect();
        assert_eq!(labels, [true, false, false, true, true]);
        for i in 0..5 {
            let x = bank.row(bank.rows()[i]);
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

    #[test]
    #[should_panic(expected = "no stored row")]
    fn rejects_a_repeat_of_a_row_never_stored() {
        let mut bank = RowBank::new(2);
        bank.push(&[1.0, 2.0], true);
        bank.push_repeat(1, false);
    }
}
