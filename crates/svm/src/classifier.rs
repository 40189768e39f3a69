//! The assembled classification pipeline:
//! polynomial features → frozen standardiser → linear SVM, with
//! incremental retraining and a margin-based uncertainty band.
//!
//! Usage in the ECRIPSE flow:
//!
//! * **Stage 1** (particle-filter iterations): train on `K` labelled
//!   samples, classify the remaining `N·M − K` freely — a rough decision
//!   surface is enough, because it only shapes the alternative
//!   distribution, not the estimate (paper Sec. III-B, step 3).
//! * **Stage 2** (importance sampling): samples whose geometric margin
//!   falls inside the uncertainty band are *not* trusted; the caller
//!   simulates them and feeds the labels back through
//!   [`SvmClassifier::add_labelled`], which warm-starts dual coordinate
//!   descent from the current model (paper Sec. III-B, step 5).

use crate::bank::RowBank;
use crate::features::PolynomialFeatures;
use crate::linear::{decision_value, LinearSvm, SvmOptions};
use crate::scale::StandardScaler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the classifier pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Polynomial degree of the feature transform (the paper uses 4).
    pub degree: u32,
    /// Dual-coordinate-descent hyper-parameters.
    pub svm: SvmOptions,
    /// Geometric-margin half-width of the uncertainty band; samples with
    /// `|margin| < uncertain_band` should be verified by simulation.
    pub uncertain_band: f64,
    /// Maximum number of labelled samples retained for (re)training;
    /// once the bank is full, further labels are ignored. Bounds the
    /// warm-started retraining cost of long importance-sampling runs.
    pub max_bank: usize,
    /// RNG seed for the (stochastic) trainer, so classification flows are
    /// reproducible.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            degree: 4,
            svm: SvmOptions::default(),
            uncertain_band: 0.15,
            max_bank: 20_000,
            seed: 0x5eed_c1a5,
        }
    }
}

/// Error returned when a classifier cannot be trained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// All training labels belong to one class; no separating surface is
    /// defined.
    SingleClass,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyTrainingSet => write!(f, "empty training set"),
            TrainError::SingleClass => {
                write!(
                    f,
                    "training set contains a single class; cannot fit a separator"
                )
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// A classifier's decision function, frozen: the polynomial features,
/// the scaler, `w`, `b`, `‖w‖` and the uncertainty band — no label bank
/// and no dual variables.
///
/// [`SvmClassifier::predict_with_margin`] answers through the
/// classifier's own `Decision`, so a clone taken with
/// [`SvmClassifier::decision`] answers bit for bit like the classifier
/// did at that moment, and keeps doing so while the classifier
/// retrains.
#[derive(Debug, Clone)]
pub struct Decision {
    features: PolynomialFeatures,
    scaler: StandardScaler,
    w: Vec<f64>,
    b: f64,
    /// `‖w‖`, kept with `w` so a query costs one dot product.
    w_norm: f64,
    band: f64,
}

impl Decision {
    fn new(
        features: PolynomialFeatures,
        scaler: StandardScaler,
        svm: &LinearSvm,
        band: f64,
    ) -> Self {
        Self {
            features,
            scaler,
            w: svm.weights().to_vec(),
            b: svm.bias(),
            w_norm: svm.weight_norm(),
            band,
        }
    }

    /// Takes the retrained model's `w`, `b` and `‖w‖`.
    fn refresh(&mut self, svm: &LinearSvm) {
        self.w.clone_from_slice(svm.weights());
        self.b = svm.bias();
        self.w_norm = svm.weight_norm();
    }

    /// Transforms a raw sample into the scaled feature space.
    fn featurise(&self, x: &[f64]) -> Vec<f64> {
        let mut f = self.features.transform(x);
        self.scaler.transform_in_place(&mut f);
        f
    }

    /// Predicted class (`true` = failure) and geometric margin of a raw
    /// sample, from one featurisation and one decision value.
    pub fn predict_with_margin(&self, x: &[f64]) -> (bool, f64) {
        let dv = decision_value(&self.w, self.b, &self.featurise(x));
        let margin = if self.w_norm < 1e-300 {
            0.0
        } else {
            dv / self.w_norm
        };
        (dv >= 0.0, margin)
    }

    /// Whether a raw sample falls inside the uncertainty band
    /// ([`SvmConfig::uncertain_band`]).
    pub fn is_uncertain(&self, x: &[f64]) -> bool {
        self.predict_with_margin(x).1.abs() < self.band
    }
}

/// The trained pipeline.
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    config: SvmConfig,
    /// The decision function of `svm`, refreshed after every (re)train.
    decision: Decision,
    svm: LinearSvm,
    rng: StdRng,
    /// All labelled data seen so far (features pre-transformed and
    /// scaled); dual coordinate descent warm-starts over this bank when
    /// new labels arrive, so old knowledge is never lost.
    bank: RowBank,
}

impl SvmClassifier {
    /// Fits the pipeline on raw variability-space samples (`true` =
    /// failure).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the set is empty or single-class.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent dimensions.
    pub fn fit(config: &SvmConfig, xs: &[Vec<f64>], ys: &[bool]) -> Result<Self, TrainError> {
        if xs.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        assert_eq!(xs.len(), ys.len(), "label count mismatch");
        if ys.iter().all(|y| *y) || ys.iter().all(|y| !*y) {
            return Err(TrainError::SingleClass);
        }
        let features = PolynomialFeatures::new(xs[0].len(), config.degree);
        let mut raw: Vec<Vec<f64>> = xs.iter().map(|x| features.transform(x)).collect();
        let scaler = StandardScaler::fit(&raw);
        let mut bank = RowBank::new(features.n_features());
        for (r, y) in raw.iter_mut().zip(ys) {
            scaler.transform_in_place(r);
            bank.push(r, *y);
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let svm = LinearSvm::train(&mut rng, &bank, &config.svm);
        Ok(Self {
            config: *config,
            decision: Decision::new(features, scaler, &svm, config.uncertain_band),
            svm,
            rng,
            bank,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SvmConfig {
        &self.config
    }

    /// Number of labelled samples the classifier has absorbed.
    pub fn n_training_samples(&self) -> usize {
        self.bank.len()
    }

    /// The current decision function; clone it for a snapshot that
    /// outlives the next retrain.
    pub fn decision(&self) -> &Decision {
        &self.decision
    }

    /// Transforms a raw sample into the scaled feature space.
    fn featurise(&self, x: &[f64]) -> Vec<f64> {
        self.decision.featurise(x)
    }

    /// Predicted class for a raw sample (`true` = failure).
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_with_margin(x).0
    }

    /// Geometric margin of a raw sample (signed distance to the decision
    /// surface in scaled feature space).
    pub fn margin(&self, x: &[f64]) -> f64 {
        self.predict_with_margin(x).1
    }

    /// Predicted class and geometric margin from one featurisation and
    /// one decision value ([`Decision::predict_with_margin`]);
    /// bit-identical to [`LinearSvm::predict`] and
    /// [`LinearSvm::geometric_margin`] on the scaled features.
    pub fn predict_with_margin(&self, x: &[f64]) -> (bool, f64) {
        self.decision.predict_with_margin(x)
    }

    /// Whether a sample falls inside the uncertainty band and should be
    /// verified with a transistor-level simulation.
    pub fn is_uncertain(&self, x: &[f64]) -> bool {
        self.margin(x).abs() < self.config.uncertain_band
    }

    /// Whether the label bank has reached its configured cap (further
    /// labels will be ignored — callers can skip simulating for training
    /// purposes once this returns `true`).
    pub fn is_bank_full(&self) -> bool {
        self.bank.len() >= self.config.max_bank
    }

    /// Adds freshly simulated labels and continues training (rehearsing
    /// the full bank so old knowledge is retained). No-op on empty input
    /// or when the bank cap is reached.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or dimensions are inconsistent.
    pub fn add_labelled(&mut self, xs: &[Vec<f64>], ys: &[bool]) {
        assert_eq!(xs.len(), ys.len(), "label count mismatch");
        if xs.is_empty() || self.is_bank_full() {
            return;
        }
        let room = self.config.max_bank - self.bank.len();
        let take = room.min(xs.len());
        for (x, y) in xs[..take].iter().zip(ys) {
            let f = self.featurise(x);
            self.bank.push(&f, *y);
        }
        // Warm-started dual coordinate descent over the enlarged bank:
        // existing dual variables are kept, new samples enter at α = 0,
        // so this is much cheaper than retraining from scratch.
        self.svm
            .continue_training(&mut self.rng, &self.bank, &self.config.svm);
        self.decision.refresh(&self.svm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Spherical failure region: ‖x‖ > r fails — mimics the geometry of
    /// an SRAM failure boundary (far from origin), quadratically
    /// separable.
    fn sphere_data(n: usize, dim: usize, r: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            ys.push(norm > r);
            xs.push(x);
        }
        (xs, ys)
    }

    #[test]
    fn learns_spherical_boundary_with_degree_two() {
        let (xs, ys) = sphere_data(600, 3, 1.8, 1);
        let cfg = SvmConfig {
            degree: 2,
            ..SvmConfig::default()
        };
        let clf = SvmClassifier::fit(&cfg, &xs, &ys).expect("two classes present");
        let (tx, ty) = sphere_data(300, 3, 1.8, 2);
        let correct = tx
            .iter()
            .zip(&ty)
            .filter(|(x, y)| clf.predict(x) == **y)
            .count();
        assert!(correct >= 270, "held-out accuracy {correct}/300");
    }

    #[test]
    fn degree_four_matches_the_paper_pipeline() {
        let (xs, ys) = sphere_data(800, 6, 2.6, 3);
        let clf = SvmClassifier::fit(&SvmConfig::default(), &xs, &ys).expect("two classes");
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| clf.predict(x) == **y)
            .count();
        assert!(
            correct as f64 >= 0.9 * xs.len() as f64,
            "{correct}/{}",
            xs.len()
        );
    }

    #[test]
    fn uncertain_band_flags_points_near_boundary() {
        let (xs, ys) = sphere_data(600, 2, 1.5, 4);
        let cfg = SvmConfig {
            degree: 2,
            ..SvmConfig::default()
        };
        let clf = SvmClassifier::fit(&cfg, &xs, &ys).expect("two classes");
        // Points well inside and well outside should be confident;
        // a point right on the boundary should be less confident than
        // either.
        let near = clf.margin(&[1.5, 0.0]).abs();
        let inside = clf.margin(&[0.1, 0.0]).abs();
        let outside = clf.margin(&[2.6, 0.0]).abs();
        assert!(near < inside, "near {near} vs inside {inside}");
        assert!(near < outside, "near {near} vs outside {outside}");
    }

    #[test]
    fn incremental_labels_refine_the_boundary() {
        // Initial training with few samples → sloppy boundary; feeding
        // back boundary-region labels must improve accuracy there.
        let (xs, ys) = sphere_data(80, 2, 1.5, 5);
        let cfg = SvmConfig {
            degree: 2,
            ..SvmConfig::default()
        };
        let mut clf = SvmClassifier::fit(&cfg, &xs, &ys).expect("two classes");
        // Boundary-region evaluation set.
        let mut rng = StdRng::seed_from_u64(6);
        let ring: Vec<Vec<f64>> = (0..400)
            .map(|_| {
                let t: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let r: f64 = rng.gen_range(1.2..1.8);
                vec![r * t.cos(), r * t.sin()]
            })
            .collect();
        let ring_labels: Vec<bool> = ring
            .iter()
            .map(|x| x.iter().map(|v| v * v).sum::<f64>().sqrt() > 1.5)
            .collect();
        let acc = |c: &SvmClassifier| {
            ring.iter()
                .zip(&ring_labels)
                .filter(|(x, y)| c.predict(x) == **y)
                .count()
        };
        let before = acc(&clf);
        clf.add_labelled(&ring[..200], &ring_labels[..200]);
        let after = acc(&clf);
        assert!(
            after + 10 >= before,
            "incremental update should not collapse accuracy: {before} → {after}"
        );
        assert!(clf.n_training_samples() == 280);
    }

    /// Every query path must equal the uncached decision value and
    /// geometric margin of the current model, bit for bit.
    fn assert_queries_match_uncached(clf: &SvmClassifier, probes: &[Vec<f64>]) {
        for x in probes {
            let f = clf.featurise(x);
            let dv = clf.svm.decision_value(&f);
            let gm = clf.svm.geometric_margin(&f);
            let (y, m) = clf.predict_with_margin(x);
            assert_eq!(y, dv >= 0.0);
            assert_eq!(y, clf.svm.predict(&f));
            assert_eq!(m.to_bits(), gm.to_bits());
            assert_eq!(clf.predict(x), y);
            assert_eq!(clf.margin(x).to_bits(), gm.to_bits());
            assert_eq!(clf.is_uncertain(x), gm.abs() < clf.config.uncertain_band);
        }
    }

    #[test]
    fn cached_norm_answers_match_the_uncached_model_through_retrains() {
        let (xs, ys) = sphere_data(300, 3, 1.8, 8);
        let (probes, _) = sphere_data(200, 3, 1.8, 9);
        let cfg = SvmConfig {
            degree: 3,
            max_bank: 700,
            ..SvmConfig::default()
        };
        let mut clf = SvmClassifier::fit(&cfg, &xs, &ys).expect("two classes");
        assert_queries_match_uncached(&clf, &probes);
        for round in 0..4u64 {
            // 150 labels a round: the third round is cut at the 700-row
            // cap and the fourth is ignored.
            let (nx, ny) = sphere_data(150, 3, 1.8, 10 + round);
            clf.add_labelled(&nx, &ny);
            assert_queries_match_uncached(&clf, &probes);
        }
        assert!(clf.is_bank_full());
        assert_eq!(clf.n_training_samples(), 700);
        // Labels past the cap change nothing.
        let (nx, ny) = sphere_data(50, 3, 1.8, 20);
        clf.add_labelled(&nx, &ny);
        assert_eq!(clf.n_training_samples(), 700);
        assert_queries_match_uncached(&clf, &probes);
    }

    #[test]
    fn frozen_decisions_answer_like_the_classifier_they_were_taken_from() {
        let (xs, ys) = sphere_data(300, 3, 1.8, 30);
        let (probes, _) = sphere_data(200, 3, 1.8, 31);
        let cfg = SvmConfig {
            degree: 3,
            ..SvmConfig::default()
        };
        let mut clf = SvmClassifier::fit(&cfg, &xs, &ys).expect("two classes");
        let answers = |f: &dyn Fn(&[f64]) -> (bool, f64)| -> Vec<(bool, u64)> {
            probes
                .iter()
                .map(|x| {
                    let (y, m) = f(x);
                    (y, m.to_bits())
                })
                .collect()
        };
        let before = clf.decision().clone();
        let live_before = answers(&|x| clf.predict_with_margin(x));
        assert_eq!(answers(&|x| before.predict_with_margin(x)), live_before);

        let (nx, ny) = sphere_data(150, 3, 1.8, 32);
        clf.add_labelled(&nx, &ny);
        let live_after = answers(&|x| clf.predict_with_margin(x));
        assert_ne!(live_after, live_before, "the retrain must move the model");
        let after = clf.decision().clone();
        assert_eq!(answers(&|x| after.predict_with_margin(x)), live_after);
        // The snapshot taken before the retrain still answers as before.
        assert_eq!(answers(&|x| before.predict_with_margin(x)), live_before);
        for x in &probes {
            assert_eq!(after.is_uncertain(x), clf.is_uncertain(x));
        }
    }

    #[test]
    fn single_class_is_rejected() {
        let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        assert_eq!(
            SvmClassifier::fit(&SvmConfig::default(), &xs, &[true, true]).err(),
            Some(TrainError::SingleClass)
        );
    }

    #[test]
    fn empty_set_is_rejected() {
        assert_eq!(
            SvmClassifier::fit(&SvmConfig::default(), &[], &[]).err(),
            Some(TrainError::EmptyTrainingSet)
        );
    }

    #[test]
    fn same_seed_same_model() {
        let (xs, ys) = sphere_data(300, 2, 1.5, 7);
        let cfg = SvmConfig {
            degree: 2,
            ..SvmConfig::default()
        };
        let a = SvmClassifier::fit(&cfg, &xs, &ys).expect("two classes");
        let b = SvmClassifier::fit(&cfg, &xs, &ys).expect("two classes");
        for x in xs.iter().take(50) {
            assert_eq!(a.margin(x), b.margin(x));
        }
    }
}
