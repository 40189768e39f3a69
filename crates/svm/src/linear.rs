//! Linear SVM trained by dual coordinate descent.
//!
//! Solves the L1-hinge SVM
//!
//! ```text
//! min_w  ½‖w‖² + C·Σᵢ cᵢ·max(0, 1 − yᵢ·w·x̃ᵢ)
//! ```
//!
//! in the dual, one coordinate `αᵢ ∈ [0, C·cᵢ]` at a time (Hsieh et al.,
//! ICML 2008 — the algorithm behind liblinear). Unlike stochastic
//! subgradient methods this has no learning-rate schedule, converges in a
//! few dozen passes even on the ill-conditioned degree-4 polynomial
//! features, and *warm-starts*: keeping the `α` vector lets stage 2 of
//! the ECRIPSE flow absorb freshly simulated labels at a fraction of the
//! initial training cost.
//!
//! The bias is handled by feature augmentation (`x̃ = [x, 1]`), the
//! standard liblinear treatment.

use crate::bank::RowBank;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters for [`LinearSvm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmOptions {
    /// Misclassification cost `C`.
    pub cost: f64,
    /// Maximum passes over the training set for an initial (cold) fit.
    pub max_epochs: usize,
    /// Maximum passes for a warm-started incremental update, where the
    /// retained `α` vector already solves the bulk of the problem and a
    /// short correction pass suffices. Retraining cost is linear in this
    /// knob, and it sits on the estimator's simulation-free floor (one
    /// forced retrain per particle-filter batch).
    #[serde(default = "default_incremental_epochs")]
    pub incremental_epochs: usize,
    /// Stop when the largest projected-gradient violation in a pass
    /// drops below this.
    pub tolerance: f64,
    /// Cost multiplier for positive (failure) examples, to counter class
    /// imbalance. `1.0` = unweighted.
    pub positive_weight: f64,
}

fn default_incremental_epochs() -> usize {
    20
}

impl Default for SvmOptions {
    fn default() -> Self {
        Self {
            cost: 10.0,
            max_epochs: 100,
            incremental_epochs: default_incremental_epochs(),
            tolerance: 1e-4,
            positive_weight: 1.0,
        }
    }
}

impl SvmOptions {
    fn validate(&self) {
        assert!(self.cost > 0.0, "cost must be positive");
        assert!(self.max_epochs > 0, "need at least one epoch");
        assert!(
            self.incremental_epochs > 0,
            "need at least one incremental epoch"
        );
        assert!(self.tolerance > 0.0, "tolerance must be positive");
        assert!(
            self.positive_weight > 0.0,
            "positive weight must be positive"
        );
    }
}

/// Rows whose dot products the training kernel computes together.
const LANES: usize = 4;

/// A trained linear decision function `f(x) = w·x + b`, retaining its
/// dual variables for warm-started incremental training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    alphas: Vec<f64>,
}

impl LinearSvm {
    /// Trains on the rows of `bank` and their labels (`true` = positive
    /// class = failure).
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty or the options are invalid.
    pub fn train<R: Rng + ?Sized>(rng: &mut R, bank: &RowBank, options: &SvmOptions) -> Self {
        let mut svm = Self {
            weights: vec![0.0; bank.dim()],
            bias: 0.0,
            alphas: Vec::new(),
        };
        svm.continue_training(rng, bank, options);
        svm
    }

    /// Warm-started dual coordinate descent over the *full* current
    /// training bank. `bank` must hold every label from previous calls,
    /// in the same order, followed by any new ones (new labels start at
    /// `α = 0`) — exactly how [`crate::classifier::SvmClassifier`]
    /// maintains its label bank. Every label has its own `α`, also when
    /// it shares its stored row with another label.
    ///
    /// Each visit of label `i` needs `w·xᵢ` against the current `w`, and
    /// most visits (about 78 % on the estimator's banks) leave `w`
    /// unchanged. The kernel therefore computes the dot products of the
    /// next four labels of the shuffled order together, as independent
    /// accumulators, and consumes them in order until a label changes
    /// `w`; the remaining lanes are stale and are recomputed from the
    /// next label. Each lane adds its products in feature order from
    /// `-0.0`, as `Iterator::sum` does, so every dot product, and so
    /// every model, is bit-identical to the one-row-at-a-time loop. The
    /// shuffled order carries each label's stored row with it, so a
    /// visit loads no extra index.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty, shrank, has another dimension, or
    /// the options are invalid.
    pub fn continue_training<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        bank: &RowBank,
        options: &SvmOptions,
    ) {
        options.validate();
        assert!(!bank.is_empty(), "empty training set");
        assert!(
            self.alphas.len() <= bank.len(),
            "training bank shrank between calls"
        );
        assert_eq!(bank.dim(), self.weights.len(), "feature dimension mismatch");
        // A cold fit gets the full epoch budget; a warm-started update
        // (retained dual variables) only needs a short correction pass.
        let epochs = if self.alphas.is_empty() {
            options.max_epochs
        } else {
            options.incremental_epochs
        };
        self.alphas.resize(bank.len(), 0.0);
        // Per-class upper bound of `α`.
        let cap_pos = options.cost * options.positive_weight;
        let cap_neg = options.cost;

        // Each label travels with its stored row. The shuffle's swaps
        // do not depend on the element type, so the labels are visited
        // in the same order as a shuffle of the bare label indices.
        let mut order: Vec<(usize, usize)> = bank.rows().iter().copied().enumerate().collect();
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut max_violation = 0.0_f64;
            let mut start = 0;
            while start < order.len() {
                let end = order.len().min(start + LANES);
                let lanes = &order[start..end];
                let dots = dot_lanes(&self.weights, bank, lanes);
                let mut next = end;
                for (k, &(i, row)) in lanes.iter().enumerate() {
                    let (y, cap) = if bank.label(i) {
                        (1.0, cap_pos)
                    } else {
                        (-1.0, cap_neg)
                    };
                    let grad = y * (dots[k] + self.bias) - 1.0;
                    let alpha = self.alphas[i];
                    // Projected gradient.
                    let pg = if alpha <= 0.0 {
                        grad.min(0.0)
                    } else if alpha >= cap {
                        grad.max(0.0)
                    } else {
                        grad
                    };
                    if pg.abs() < 1e-14 {
                        continue;
                    }
                    max_violation = max_violation.max(pg.abs());
                    let new_alpha = (alpha - grad / bank.qdiag(i)).clamp(0.0, cap);
                    let delta = (new_alpha - alpha) * y;
                    if delta != 0.0 {
                        for (w, v) in self.weights.iter_mut().zip(bank.row(row)) {
                            *w += delta * v;
                        }
                        self.bias += delta;
                        self.alphas[i] = new_alpha;
                        // `w` moved: the later lanes are stale.
                        next = start + k + 1;
                        break;
                    }
                }
                start = next;
            }
            if max_violation < options.tolerance {
                break;
            }
        }
    }

    /// The raw decision value `w·x + b`; its sign is the predicted class.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match.
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        decision_value(&self.weights, self.bias, x)
    }

    /// Predicted class: `true` = positive (failure).
    pub fn predict(&self, x: &[f64]) -> bool {
        self.decision_value(x) >= 0.0
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// `‖w‖`, the scale [`Self::geometric_margin`] divides by.
    pub fn weight_norm(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Number of support vectors (samples with `α > 0`).
    pub fn n_support_vectors(&self) -> usize {
        self.alphas.iter().filter(|a| **a > 0.0).count()
    }

    /// Decision value normalised by `‖w‖` — the geometric margin used for
    /// the uncertainty band (scale-free, so one threshold works across
    /// retraining rounds).
    pub fn geometric_margin(&self, x: &[f64]) -> f64 {
        let norm = self.weight_norm();
        if norm < 1e-300 {
            0.0
        } else {
            self.decision_value(x) / norm
        }
    }
}

/// `w·x + b`, the one decision-value formula of the crate (shared with
/// [`crate::classifier::Decision`], so a frozen snapshot answers bit for
/// bit like the model it was taken from).
///
/// # Panics
///
/// Panics if the dimensions differ.
pub(crate) fn decision_value(w: &[f64], b: f64, x: &[f64]) -> f64 {
    assert_eq!(x.len(), w.len(), "feature dimension mismatch");
    w.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + b
}

/// `w·x` for the stored rows of up to [`LANES`] `(label, row)` pairs,
/// one independent accumulator per row, each summing in feature order
/// from `-0.0` (the additions of `Iterator::sum::<f64>`, so the bits
/// match). Missing lanes repeat the first row and are ignored by the
/// caller.
#[inline]
fn dot_lanes(w: &[f64], bank: &RowBank, lanes: &[(usize, usize)]) -> [f64; LANES] {
    let lane = |k: usize| bank.row(lanes.get(k).unwrap_or(&lanes[0]).1);
    let (x0, x1, x2, x3) = (lane(0), lane(1), lane(2), lane(3));
    let mut acc = [-0.0_f64; LANES];
    for ((((wj, a), b), c), d) in w.iter().zip(x0).zip(x1).zip(x2).zip(x3) {
        acc[0] += wj * a;
        acc[1] += wj * b;
        acc[2] += wj * c;
        acc[3] += wj * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linearly_separable(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        // True boundary: x₀ + 2x₁ − 0.5 = 0 with margin 0.2.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        while xs.len() < n {
            let x = vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)];
            let v: f64 = x[0] + 2.0 * x[1] - 0.5;
            if v.abs() < 0.2 {
                continue;
            }
            ys.push(v > 0.0);
            xs.push(x);
        }
        (xs, ys)
    }

    #[test]
    fn separates_linearly_separable_data() {
        let (xs, ys) = linearly_separable(400, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let svm = LinearSvm::train(
            &mut rng,
            &RowBank::from_rows(&xs, &ys),
            &SvmOptions::default(),
        );
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| svm.predict(x) == **y)
            .count();
        assert_eq!(correct, 400, "separable data must be fit exactly");
    }

    #[test]
    fn generalises_to_held_out_points() {
        let (xs, ys) = linearly_separable(400, 3);
        let (tx, ty) = linearly_separable(200, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let svm = LinearSvm::train(
            &mut rng,
            &RowBank::from_rows(&xs, &ys),
            &SvmOptions::default(),
        );
        let correct = tx
            .iter()
            .zip(&ty)
            .filter(|(x, y)| svm.predict(x) == **y)
            .count();
        assert!(correct >= 195, "held-out accuracy {}/200", correct);
    }

    #[test]
    fn dual_variables_stay_in_box() {
        let (xs, ys) = linearly_separable(200, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let opts = SvmOptions::default();
        let svm = LinearSvm::train(&mut rng, &RowBank::from_rows(&xs, &ys), &opts);
        for (a, y) in svm.alphas.iter().zip(&ys) {
            let cap = if *y {
                opts.cost * opts.positive_weight
            } else {
                opts.cost
            };
            assert!(*a >= 0.0 && *a <= cap + 1e-12);
        }
        // KKT: w must be representable from the support vectors.
        assert!(svm.n_support_vectors() > 0);
        let mut w_rec = [0.0; 2];
        for ((a, y), x) in svm.alphas.iter().zip(&ys).zip(&xs) {
            let s = if *y { *a } else { -*a };
            for (wr, xi) in w_rec.iter_mut().zip(x) {
                *wr += s * xi;
            }
        }
        for (wr, w) in w_rec.iter().zip(svm.weights()) {
            assert!((wr - w).abs() < 1e-9, "w {} vs Σαyx {}", w, wr);
        }
    }

    #[test]
    fn incremental_training_improves_on_new_region() {
        // Start with data from one half-plane only, then add the rest.
        let (xs, ys) = linearly_separable(500, 6);
        let first: Vec<usize> = (0..xs.len()).filter(|&i| xs[i][0] > 0.0).collect();
        let rest: Vec<usize> = (0..xs.len()).filter(|&i| xs[i][0] <= 0.0).collect();
        let mut bank_x: Vec<Vec<f64>> = first.iter().map(|&i| xs[i].clone()).collect();
        let mut bank_y: Vec<bool> = first.iter().map(|&i| ys[i]).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let opts = SvmOptions::default();
        let mut svm = LinearSvm::train(&mut rng, &RowBank::from_rows(&bank_x, &bank_y), &opts);
        let acc_before = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| svm.predict(x) == **y)
            .count();
        bank_x.extend(rest.iter().map(|&i| xs[i].clone()));
        bank_y.extend(rest.iter().map(|&i| ys[i]));
        svm.continue_training(&mut rng, &RowBank::from_rows(&bank_x, &bank_y), &opts);
        let acc_after = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| svm.predict(x) == **y)
            .count();
        assert!(
            acc_after >= acc_before,
            "incremental training regressed: {acc_before} → {acc_after}"
        );
        assert_eq!(acc_after, 500, "separable data must end up fit exactly");
    }

    #[test]
    fn positive_weight_biases_recall() {
        // Imbalanced overlapping classes: higher positive cost should
        // trade precision for recall.
        let mut rng = StdRng::seed_from_u64(8);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        use rand::Rng as _;
        for _ in 0..1000 {
            let pos = rng.gen::<f64>() < 0.05;
            let centre = if pos { 1.0 } else { -0.2 };
            xs.push(vec![centre + rng.gen_range(-1.0..1.0)]);
            ys.push(pos);
        }
        let recall = |svm: &LinearSvm| {
            let tp = xs
                .iter()
                .zip(&ys)
                .filter(|(x, y)| **y && svm.predict(x))
                .count();
            let p = ys.iter().filter(|y| **y).count();
            tp as f64 / p as f64
        };
        let mut rng1 = StdRng::seed_from_u64(9);
        let bank = RowBank::from_rows(&xs, &ys);
        let plain = LinearSvm::train(&mut rng1, &bank, &SvmOptions::default());
        let mut rng2 = StdRng::seed_from_u64(9);
        let weighted = LinearSvm::train(
            &mut rng2,
            &bank,
            &SvmOptions {
                positive_weight: 20.0,
                ..SvmOptions::default()
            },
        );
        assert!(
            recall(&weighted) > recall(&plain),
            "weighted recall {} should beat plain {}",
            recall(&weighted),
            recall(&plain)
        );
    }

    #[test]
    fn geometric_margin_sign_matches_decision() {
        let (xs, ys) = linearly_separable(200, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let svm = LinearSvm::train(
            &mut rng,
            &RowBank::from_rows(&xs, &ys),
            &SvmOptions::default(),
        );
        for x in xs.iter().take(20) {
            let gm = svm.geometric_margin(x);
            let dv = svm.decision_value(x);
            assert_eq!(gm > 0.0, dv > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = LinearSvm::train(&mut rng, &RowBank::new(2), &SvmOptions::default());
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn rejects_mismatched_labels() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = LinearSvm::train(
            &mut rng,
            &RowBank::from_rows(&[vec![1.0]], &[true, false]),
            &SvmOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "training bank shrank")]
    fn rejects_shrinking_bank() {
        let (xs, ys) = linearly_separable(50, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let mut svm = LinearSvm::train(
            &mut rng,
            &RowBank::from_rows(&xs, &ys),
            &SvmOptions::default(),
        );
        svm.continue_training(
            &mut rng,
            &RowBank::from_rows(&xs[..10], &ys[..10]),
            &SvmOptions::default(),
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-row-at-a-time dual coordinate descent the lane kernel
    /// replaced, kept as the bit-identity reference.
    fn reference_continue_training<R: Rng + ?Sized>(
        svm: &mut LinearSvm,
        rng: &mut R,
        xs: &[Vec<f64>],
        ys: &[bool],
        options: &SvmOptions,
    ) {
        let epochs = if svm.alphas.is_empty() {
            options.max_epochs
        } else {
            options.incremental_epochs
        };
        svm.alphas.resize(xs.len(), 0.0);
        let caps: Vec<f64> = ys
            .iter()
            .map(|y| {
                if *y {
                    options.cost * options.positive_weight
                } else {
                    options.cost
                }
            })
            .collect();
        let qdiag: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().map(|v| v * v).sum::<f64>() + 1.0)
            .collect();
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut max_violation = 0.0_f64;
            for &i in &order {
                let y = if ys[i] { 1.0 } else { -1.0 };
                let decision = svm
                    .weights
                    .iter()
                    .zip(&xs[i])
                    .map(|(w, v)| w * v)
                    .sum::<f64>()
                    + svm.bias;
                let grad = y * decision - 1.0;
                let alpha = svm.alphas[i];
                let pg = if alpha <= 0.0 {
                    grad.min(0.0)
                } else if alpha >= caps[i] {
                    grad.max(0.0)
                } else {
                    grad
                };
                if pg.abs() < 1e-14 {
                    continue;
                }
                max_violation = max_violation.max(pg.abs());
                let new_alpha = (alpha - grad / qdiag[i]).clamp(0.0, caps[i]);
                let delta = (new_alpha - alpha) * y;
                if delta != 0.0 {
                    for (w, v) in svm.weights.iter_mut().zip(&xs[i]) {
                        *w += delta * v;
                    }
                    svm.bias += delta;
                    svm.alphas[i] = new_alpha;
                }
            }
            if max_violation < options.tolerance {
                break;
            }
        }
    }

    /// Noisy, roughly linearly separable rows; about one feature in ten
    /// is an exact ±0 so all-zero products reach the accumulators.
    fn noisy_rows(rng: &mut StdRng, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..dim)
                .map(|_| match rng.gen_range(0..20) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect();
            let s: f64 = x.iter().enumerate().map(|(j, v)| v / (j + 1) as f64).sum();
            ys.push((s > 0.3) != (rng.gen_range(0..10) == 0));
            xs.push(x);
        }
        (xs, ys)
    }

    fn assert_same_bits(a: &LinearSvm, b: &LinearSvm) -> Result<(), TestCaseError> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a.weights), bits(&b.weights));
        prop_assert_eq!(a.bias.to_bits(), b.bias.to_bits());
        prop_assert_eq!(bits(&a.alphas), bits(&b.alphas));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The lane kernel over a block-chunked bank reproduces the
        /// scalar reference bit for bit through a cold fit and every warm
        /// increment, at bank sizes that are not multiples of the lane
        /// count and that cross block boundaries.
        #[test]
        fn prop_lane_kernel_is_bit_identical_to_the_scalar_reference(
            seed in 0u64..u64::MAX,
            dim in 1usize..24,
            cold in 1usize..500,
            increments in proptest::collection::vec(1usize..300, 3..5),
            weighted in proptest::bool::ANY,
            weight in 0.2f64..8.0,
        ) {
            let positive_weight = if weighted { weight } else { 1.0 };
            let opts = SvmOptions { positive_weight, ..SvmOptions::default() };
            let total = cold + increments.iter().sum::<usize>();
            let mut data_rng = StdRng::seed_from_u64(seed);
            let (xs, ys) = noisy_rows(&mut data_rng, total, dim);
            let mut bank = RowBank::from_rows(&xs[..cold], &ys[..cold]);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
            let mut ref_rng = rng.clone();
            let svm_new = LinearSvm::train(&mut rng, &bank, &opts);
            let mut svm_ref = LinearSvm { weights: vec![0.0; dim], bias: 0.0, alphas: Vec::new() };
            reference_continue_training(&mut svm_ref, &mut ref_rng, &xs[..cold], &ys[..cold], &opts);
            assert_same_bits(&svm_new, &svm_ref)?;
            let mut svm_new = svm_new;
            let mut len = cold;
            for add in increments {
                for i in len..len + add {
                    bank.push(&xs[i], ys[i]);
                }
                len += add;
                svm_new.continue_training(&mut rng, &bank, &opts);
                reference_continue_training(&mut svm_ref, &mut ref_rng, &xs[..len], &ys[..len], &opts);
                assert_same_bits(&svm_new, &svm_ref)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// A bank whose repeated samples share one stored row trains bit
        /// for bit like a bank holding every repeat as a physical copy,
        /// and like the scalar reference, through a cold fit and every
        /// warm increment. A repeat may carry another label than the
        /// sample it repeats.
        #[test]
        fn prop_shared_rows_train_like_physical_copies(
            seed in 0u64..u64::MAX,
            dim in 1usize..24,
            cold in 1usize..300,
            increments in proptest::collection::vec(1usize..200, 2..4),
            repeat_share in 0.0f64..0.8,
        ) {
            let opts = SvmOptions::default();
            let total = cold + increments.iter().sum::<usize>();
            let mut data_rng = StdRng::seed_from_u64(seed);
            let (mut xs, ys) = noisy_rows(&mut data_rng, total, dim);
            // `source[j]` is the earlier label whose sample label `j` repeats.
            let source: Vec<Option<usize>> = (0..total)
                .map(|j| (j > 0 && data_rng.gen_bool(repeat_share)).then(|| data_rng.gen_range(0..j)))
                .collect();
            for (j, p) in source.iter().enumerate() {
                if let Some(p) = *p {
                    xs[j] = xs[p].clone();
                }
            }
            let mut shared = RowBank::new(dim);
            let mut copies = RowBank::new(dim);
            let mut row_of = Vec::with_capacity(total);
            let mut fill = |shared: &mut RowBank, copies: &mut RowBank, range: std::ops::Range<usize>| {
                for j in range {
                    let row = match source[j] {
                        Some(p) => {
                            shared.push_repeat(row_of[p], ys[j]);
                            row_of[p]
                        }
                        None => shared.push(&xs[j], ys[j]),
                    };
                    row_of.push(row);
                    copies.push(&xs[j], ys[j]);
                }
            };
            fill(&mut shared, &mut copies, 0..cold);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51ed);
            let mut copies_rng = rng.clone();
            let mut ref_rng = rng.clone();
            let mut svm = LinearSvm::train(&mut rng, &shared, &opts);
            let mut svm_copies = LinearSvm::train(&mut copies_rng, &copies, &opts);
            let mut svm_ref = LinearSvm { weights: vec![0.0; dim], bias: 0.0, alphas: Vec::new() };
            reference_continue_training(&mut svm_ref, &mut ref_rng, &xs[..cold], &ys[..cold], &opts);
            assert_same_bits(&svm, &svm_copies)?;
            assert_same_bits(&svm, &svm_ref)?;
            let mut len = cold;
            for add in increments {
                fill(&mut shared, &mut copies, len..len + add);
                len += add;
                svm.continue_training(&mut rng, &shared, &opts);
                svm_copies.continue_training(&mut copies_rng, &copies, &opts);
                reference_continue_training(&mut svm_ref, &mut ref_rng, &xs[..len], &ys[..len], &opts);
                assert_same_bits(&svm, &svm_copies)?;
                assert_same_bits(&svm, &svm_ref)?;
            }
            let distinct = source.iter().filter(|p| p.is_none()).count();
            prop_assert_eq!((shared.len(), shared.n_rows()), (total, distinct));
            prop_assert_eq!(copies.n_rows(), total);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// After training on any labelled data, the dual variables stay
        /// in their box and the primal weights equal Σ αᵢ yᵢ xᵢ.
        #[test]
        fn prop_kkt_box_and_representation(
            raw in proptest::collection::vec(
                (proptest::collection::vec(-3.0f64..3.0, 3), proptest::bool::ANY),
                8..40,
            ),
            seed in 0u64..1000,
        ) {
            let xs: Vec<Vec<f64>> = raw.iter().map(|(x, _)| x.clone()).collect();
            let ys: Vec<bool> = raw.iter().map(|(_, y)| *y).collect();
            let opts = SvmOptions { max_epochs: 40, ..SvmOptions::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let svm = LinearSvm::train(&mut rng, &RowBank::from_rows(&xs, &ys), &opts);
            let mut w = [0.0; 3];
            let mut b = 0.0;
            for ((a, y), x) in svm.alphas.iter().zip(&ys).zip(&xs) {
                let cap = if *y { opts.cost * opts.positive_weight } else { opts.cost };
                prop_assert!(*a >= -1e-12 && *a <= cap + 1e-9);
                let s = if *y { *a } else { -*a };
                for (wi, xi) in w.iter_mut().zip(x) {
                    *wi += s * xi;
                }
                b += s;
            }
            for (wi, wv) in w.iter().zip(svm.weights()) {
                prop_assert!((wi - wv).abs() < 1e-6);
            }
            prop_assert!((b - svm.bias()).abs() < 1e-6);
        }
    }
}
