//! Classifier-gated indicator evaluation.
//!
//! The oracle is the cost-control layer between the estimators and the
//! transistor-level testbench. It implements the paper's two policies:
//!
//! * **Rough** (stage 1, particle weighting): label a random subset of
//!   `K` samples per batch with real simulations, (re)train the
//!   classifier, and let it answer for everything else. Misclassified
//!   weights only distort the alternative distribution slightly — they
//!   never bias the final estimate (Sec. III-B, step 3).
//! * **Accurate** (stage 2, importance sampling): trust the classifier
//!   only outside its margin-based uncertainty band; simulate uncertain
//!   samples and feed the labels back as incremental training data
//!   (Sec. III-B, step 5).
//!
//! With the classifier disabled, both policies simulate everything —
//! which is exactly the "conventional" baseline of Fig. 6.

use crate::bench::Testbench;
use ecripse_svm::classifier::{Decision, SvmClassifier, SvmConfig, TrainError};
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Fewest queries one rayon task predicts; a prediction is a few
/// microseconds, so smaller tasks cost more to schedule than they save.
const PREDICT_MIN_LEN: usize = 256;

/// `(class, geometric margin)` of every sample, predicted in parallel and
/// returned in input order. Prediction is pure, so the result does not
/// depend on the thread count.
fn predict_all<'z>(
    clf: &SvmClassifier,
    zs: impl IndexedParallelIterator<Item = &'z Vec<f64>>,
) -> Vec<(bool, f64)> {
    zs.with_min_len(PREDICT_MIN_LEN)
        .map(|z| clf.predict_with_margin(z))
        .collect()
}

/// Oracle configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Classifier pipeline settings; `None` disables the classifier
    /// entirely (every query is simulated).
    pub svm: Option<SvmConfig>,
    /// Simulation budget per rough batch (the paper's `K`).
    pub k_train_per_batch: usize,
    /// Pending uncertain-sample labels are folded into the classifier
    /// once this many have accumulated (warm-started retraining is cheap
    /// but not free).
    pub retrain_threshold: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            svm: Some(SvmConfig::default()),
            k_train_per_batch: 256,
            retrain_threshold: 512,
        }
    }
}

/// Statistics the oracle keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Queries answered by the classifier.
    pub classified: u64,
    /// Queries answered by simulation.
    pub simulated: u64,
    /// Stage-2 simulations triggered by the uncertainty band.
    pub uncertain_simulated: u64,
    /// Retraining rounds performed.
    pub retrains: u64,
    /// Simulator queries served by the memo-cache (filled in by the run
    /// driver when a [`MemoBench`](crate::cache::MemoBench) is layered
    /// under the oracle; the oracle itself cannot see the cache).
    pub cache_hits: u64,
    /// Simulator queries that missed the memo-cache.
    pub cache_misses: u64,
    /// Extra evaluation attempts spent by the retry ladder (filled in by
    /// the run driver from the [`RetryBench`](crate::retry::RetryBench)
    /// layered under the cache).
    pub retries: u64,
    /// Samples that exhausted the retry ladder and received the
    /// conservative non-failing verdict (driver-filled, like `retries`).
    pub quarantined: u64,
    /// Newton evaluations behind this run's simulations — on the SRAM
    /// path, node-current evaluations of the transfer-curve solves, not
    /// matrix iterations (driver-filled from the bench's
    /// [`SolveEffort`](crate::bench::SolveEffort) delta).
    #[serde(default)]
    pub newton_iters: u64,
    /// Solver invocations — on the SRAM path, transfer-curve point
    /// solves; no matrix is factorised despite the name (driver-filled,
    /// like `newton_iters`).
    #[serde(default)]
    pub factorisations: u64,
    /// Always 0: no evaluation path seeds its curve solves any more. Kept
    /// so reports and wire documents that carry the field still parse.
    #[serde(default)]
    pub warm_start_seeds: u64,
}

impl OracleStats {
    /// Fraction of simulator queries served from the memo-cache, or
    /// `NaN` if the cache saw no traffic.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Near-hyperplane margin statistics of classifier-answered queries.
///
/// Every query the classifier answers carries a geometric margin — its
/// signed distance to the decision surface in scaled feature space. The
/// distribution of |margin| over *classified* queries shows how close
/// the oracle sails to the hyperplane: a small mean or minimum means
/// the uncertainty band ([`SvmConfig::uncertain_band`]) is doing real
/// work and misclassification risk is concentrated right at the
/// boundary. Simulated queries (including the uncertain ones the band
/// routes to the simulator) are *not* counted here; see
/// [`OracleStats::uncertain_simulated`] for those.
///
/// Accumulation happens in the serial routing passes of the oracle, so
/// the statistics are bit-identical at every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MarginStats {
    /// Queries answered by the classifier (margins observed).
    pub classified: u64,
    /// Sum of |margin| over classified queries.
    pub abs_sum: f64,
    /// Smallest |margin| seen on a classified query (`None` until the
    /// classifier answers its first query).
    pub min_abs: Option<f64>,
}

impl MarginStats {
    /// Records one classifier-answered query's geometric margin.
    fn record(&mut self, margin: f64) {
        let a = margin.abs();
        self.classified += 1;
        self.abs_sum += a;
        self.min_abs = Some(match self.min_abs {
            Some(m) if m <= a => m,
            _ => a,
        });
    }

    /// Mean |margin| of classified queries (0 when none were observed).
    pub fn mean_abs(&self) -> f64 {
        if self.classified == 0 {
            0.0
        } else {
            self.abs_sum / self.classified as f64
        }
    }
}

/// The classifier-gated oracle.
#[derive(Debug)]
pub struct ClassifierOracle<'a, B: Testbench> {
    bench: &'a B,
    config: OracleConfig,
    classifier: Option<SvmClassifier>,
    /// Labels accumulated before the classifier could be trained (e.g.
    /// while only one class had been observed).
    pretrain_x: Vec<Vec<f64>>,
    pretrain_y: Vec<bool>,
    /// Uncertain-sample labels awaiting the next retraining round.
    pending_x: Vec<Vec<f64>>,
    pending_y: Vec<bool>,
    /// The step an accurate batch deferred (see
    /// [`ClassifierOracle::evaluate_batch_accurate_deferred`]).
    owed: Option<Owed>,
    stats: OracleStats,
    margins: MarginStats,
}

/// What [`ClassifierOracle::finish_accurate_batch`] still has to run
/// for the last accurate batch that simulated anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owed {
    /// Fold the pending labels in once the threshold is reached.
    Retrain,
    /// Try to train the first classifier from the pre-training bank.
    InitialTraining,
}

impl<'a, B: Testbench> ClassifierOracle<'a, B> {
    /// Creates an oracle over the given (counted) testbench.
    pub fn new(bench: &'a B, config: OracleConfig) -> Self {
        Self {
            bench,
            config,
            classifier: None,
            pretrain_x: Vec::new(),
            pretrain_y: Vec::new(),
            pending_x: Vec::new(),
            pending_y: Vec::new(),
            owed: None,
            stats: OracleStats::default(),
            margins: MarginStats::default(),
        }
    }

    /// Usage statistics.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// Margin statistics of classifier-answered queries.
    pub fn margin_stats(&self) -> &MarginStats {
        &self.margins
    }

    /// Whether a classifier has been successfully trained.
    pub fn has_classifier(&self) -> bool {
        self.classifier.is_some()
    }

    /// Labels in the classifier's training bank and the feature rows
    /// stored for them (`(0, 0)` before the first training).
    pub fn bank_size(&self) -> (usize, usize) {
        self.classifier.as_ref().map_or((0, 0), |clf| {
            (clf.n_training_samples(), clf.n_stored_rows())
        })
    }

    /// The current classifier's decision function, if one is trained;
    /// clone it for a snapshot that survives the next retrain.
    pub fn decision(&self) -> Option<&Decision> {
        self.classifier.as_ref().map(SvmClassifier::decision)
    }

    /// Whether [`Self::finish_accurate_batch`] will retrain the
    /// classifier (as opposed to doing nothing, or attempting the first
    /// training).
    pub fn owes_retrain(&self) -> bool {
        self.owed == Some(Owed::Retrain)
            && !self.pending_x.is_empty()
            && self.pending_x.len() >= self.config.retrain_threshold
    }

    /// Simulates a batch with one `fails_batch` call (parallel for
    /// circuit benches) and records the labels, in input order, for
    /// (future) training.
    fn simulate_batch_and_record(&mut self, zs: &[Vec<f64>]) -> Vec<bool> {
        let ys = self.bench.fails_batch(zs);
        self.stats.simulated += zs.len() as u64;
        if self.config.svm.is_some() {
            match &self.classifier {
                Some(clf) if clf.is_bank_full() => {
                    // The classifier has stopped learning; skip the
                    // bookkeeping.
                }
                Some(_) => {
                    for (z, y) in zs.iter().zip(&ys) {
                        self.pending_x.push(z.clone());
                        self.pending_y.push(*y);
                    }
                }
                None => {
                    for (z, y) in zs.iter().zip(&ys) {
                        self.pretrain_x.push(z.clone());
                        self.pretrain_y.push(*y);
                    }
                }
            }
        }
        ys
    }

    /// Attempts to train the classifier from the pre-training bank.
    fn try_initial_training(&mut self) {
        let Some(svm_config) = self.config.svm else {
            return;
        };
        if self.classifier.is_some() || self.pretrain_x.is_empty() {
            return;
        }
        match SvmClassifier::fit(&svm_config, &self.pretrain_x, &self.pretrain_y) {
            Ok(clf) => {
                self.classifier = Some(clf);
                self.stats.retrains += 1;
                self.pretrain_x.clear();
                self.pretrain_y.clear();
            }
            Err(TrainError::SingleClass) | Err(TrainError::EmptyTrainingSet) => {
                // Keep accumulating; a later batch will contain both
                // classes.
            }
        }
    }

    /// Folds pending uncertain-sample labels into the classifier if the
    /// threshold is reached (or `force` is set).
    fn maybe_retrain(&mut self, force: bool) {
        if self.pending_x.is_empty() {
            return;
        }
        let Some(clf) = self.classifier.as_mut() else {
            return;
        };
        if force || self.pending_x.len() >= self.config.retrain_threshold {
            clf.add_labelled(&self.pending_x, &self.pending_y);
            self.stats.retrains += 1;
            self.pending_x.clear();
            self.pending_y.clear();
        }
    }

    /// Stage-1 policy: evaluates a whole batch, spending at most
    /// `k_train_per_batch` simulations on randomly chosen members and
    /// classifying the rest.
    pub fn evaluate_batch_rough<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        zs: &[Vec<f64>],
    ) -> Vec<bool> {
        self.finish_accurate_batch();
        if self.config.svm.is_none() {
            return self.simulate_batch_and_record(zs);
        }
        let mut out = vec![false; zs.len()];
        let mut indices: Vec<usize> = (0..zs.len()).collect();
        indices.shuffle(rng);
        let k = self.config.k_train_per_batch.min(zs.len());
        let (train_idx, rest_idx) = indices.split_at(k);
        let train_zs: Vec<Vec<f64>> = train_idx.iter().map(|&i| zs[i].clone()).collect();
        let train_ys = self.simulate_batch_and_record(&train_zs);
        for (&i, y) in train_idx.iter().zip(&train_ys) {
            out[i] = *y;
        }
        self.try_initial_training();
        self.maybe_retrain(true);
        match &self.classifier {
            Some(clf) => {
                let predicted = predict_all(clf, rest_idx.par_iter().map(|&i| &zs[i]));
                for (&i, (y, margin)) in rest_idx.iter().zip(predicted) {
                    out[i] = y;
                    self.stats.classified += 1;
                    self.margins.record(margin);
                }
            }
            None => {
                // Classifier still unavailable (single-class batch):
                // simulate the remainder to keep the weights exact.
                let rest_zs: Vec<Vec<f64>> = rest_idx.iter().map(|&i| zs[i].clone()).collect();
                let rest_ys = self.simulate_batch_and_record(&rest_zs);
                for (&i, y) in rest_idx.iter().zip(&rest_ys) {
                    out[i] = *y;
                }
            }
        }
        out
    }

    /// Stage-2 policy: every sample is routed by the classifier state
    /// *at batch entry*. Confident samples are classified; uncertain (or
    /// unclassifiable) ones are simulated in a single `fails_batch` call
    /// and their labels kept for training. Verdicts inside the
    /// uncertainty band are therefore exact. Predictions run in parallel,
    /// but the routing is a serial pass in input order, so results do not
    /// depend on the thread count.
    ///
    /// The retrain (or first training) the labels call for is deferred:
    /// the caller runs it with [`Self::finish_accurate_batch`], and may do
    /// other work in between — the stage-2 sampler draws and simulates
    /// the next chunk ahead while the retrain runs. Every entry point
    /// finishes an owed step first, so nothing is ever skipped.
    pub fn evaluate_batch_accurate_deferred(&mut self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.finish_accurate_batch();
        let mut out = vec![false; zs.len()];
        let mut sim_idx: Vec<usize> = Vec::new();
        let owed = match &self.classifier {
            Some(clf) => {
                let band = clf.config().uncertain_band;
                let predicted = predict_all(clf, zs.par_iter());
                for (i, (y, margin)) in predicted.into_iter().enumerate() {
                    if margin.abs() < band {
                        sim_idx.push(i);
                    } else {
                        out[i] = y;
                        self.stats.classified += 1;
                        self.margins.record(margin);
                    }
                }
                self.stats.uncertain_simulated += sim_idx.len() as u64;
                Owed::Retrain
            }
            None => {
                sim_idx.extend(0..zs.len());
                Owed::InitialTraining
            }
        };
        if sim_idx.is_empty() {
            return out;
        }
        let sim_zs: Vec<Vec<f64>> = sim_idx.iter().map(|&i| zs[i].clone()).collect();
        let ys = self.simulate_batch_and_record(&sim_zs);
        for (&i, y) in sim_idx.iter().zip(&ys) {
            out[i] = *y;
        }
        self.owed = Some(owed);
        out
    }

    /// Runs the step the last deferred accurate batch owes, if any: the
    /// threshold-gated retrain, or the first training attempt when that
    /// batch had no classifier to route with.
    pub fn finish_accurate_batch(&mut self) {
        match self.owed.take() {
            Some(Owed::Retrain) => self.maybe_retrain(false),
            Some(Owed::InitialTraining) => self.try_initial_training(),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{LinearBench, SimCounter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch_around_boundary(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| vec![rng.gen_range(1.0..5.0), rng.gen_range(-2.0..2.0)])
            .collect()
    }

    /// One stage-2 batch with the step it owes run straight after, as
    /// the stage-2 sampler does for every chunk.
    fn accurate<B: Testbench>(oracle: &mut ClassifierOracle<'_, B>, zs: &[Vec<f64>]) -> Vec<bool> {
        let out = oracle.evaluate_batch_accurate_deferred(zs);
        oracle.finish_accurate_batch();
        out
    }

    #[test]
    fn disabled_classifier_simulates_everything() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let zs = batch_around_boundary(100, 2);
        let out = oracle.evaluate_batch_rough(&mut rng, &zs);
        assert_eq!(counter.simulations(), 100);
        assert_eq!(oracle.stats().classified, 0);
        // Verdicts must be exact.
        for (z, y) in zs.iter().zip(&out) {
            assert_eq!(*y, counter.inner().fails(z));
        }
    }

    #[test]
    fn rough_batches_cap_simulations_at_k() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let cfg = OracleConfig {
            k_train_per_batch: 64,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let zs = batch_around_boundary(1000, 4);
        let _ = oracle.evaluate_batch_rough(&mut rng, &zs);
        // The boundary at 3 splits this batch, so training succeeds from
        // the first 64 labels and the rest is classified.
        assert_eq!(counter.simulations(), 64);
        assert_eq!(oracle.stats().classified, 1000 - 64);
        assert!(oracle.has_classifier());
    }

    #[test]
    fn rough_verdicts_are_mostly_correct() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let cfg = OracleConfig {
            k_train_per_batch: 200,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let zs = batch_around_boundary(1200, 6);
        let out = oracle.evaluate_batch_rough(&mut rng, &zs);
        let correct = zs
            .iter()
            .zip(&out)
            .filter(|(z, y)| counter.inner().fails(z) == **y)
            .count();
        assert!(correct as f64 > 0.95 * zs.len() as f64, "{correct}/1200");
    }

    #[test]
    fn single_class_batches_fall_back_to_simulation() {
        // Batch entirely on the passing side: classifier cannot train.
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 100.0));
        let mut oracle = ClassifierOracle::new(&counter, OracleConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let zs = batch_around_boundary(300, 8);
        let out = oracle.evaluate_batch_rough(&mut rng, &zs);
        assert!(out.iter().all(|y| !y));
        assert_eq!(counter.simulations(), 300, "everything must be simulated");
        assert!(!oracle.has_classifier());
    }

    #[test]
    fn accurate_policy_simulates_uncertain_samples() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let mut oracle = ClassifierOracle::new(&counter, OracleConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        // Train the classifier first via one rough batch.
        let zs = batch_around_boundary(800, 10);
        let _ = oracle.evaluate_batch_rough(&mut rng, &zs);
        assert!(oracle.has_classifier());
        let sims_before = counter.simulations();
        // Far from the boundary: classifier answers.
        let y_far = accurate(&mut oracle, &[vec![10.0, 0.0]]);
        assert!(y_far[0]);
        assert_eq!(counter.simulations(), sims_before);
        // On the boundary: must be simulated.
        let _ = accurate(&mut oracle, &[vec![3.0, 0.0]]);
        assert_eq!(counter.simulations(), sims_before + 1);
        assert_eq!(oracle.stats().uncertain_simulated, 1);
    }

    #[test]
    fn accurate_verdicts_are_exact_near_boundary() {
        // Every sample inside the band is simulated, so verdicts there
        // carry no classifier error at all.
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let mut oracle = ClassifierOracle::new(&counter, OracleConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let zs = batch_around_boundary(800, 12);
        let _ = oracle.evaluate_batch_rough(&mut rng, &zs);
        for dx in [-0.02, -0.01, 0.01, 0.02] {
            let z = vec![3.0 + dx, 0.0];
            if oracle
                .classifier
                .as_ref()
                .expect("trained")
                .is_uncertain(&z)
            {
                let fails = counter.inner().fails(&z);
                assert_eq!(accurate(&mut oracle, &[z]), [fails]);
            }
        }
    }

    #[test]
    fn accurate_batches_classify_far_and_simulate_near_samples() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let mut oracle = ClassifierOracle::new(&counter, OracleConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let zs = batch_around_boundary(800, 10);
        let _ = oracle.evaluate_batch_rough(&mut rng, &zs);
        assert!(oracle.has_classifier());
        let sims_before = counter.simulations();
        // Two far points (classified) and the exact boundary point
        // (inside the uncertainty band, simulated) in one batch; same
        // classifier state as `accurate_policy_simulates_uncertain_samples`.
        let batch = vec![vec![10.0, 0.0], vec![3.0, 0.0], vec![-5.0, 0.0]];
        let out = accurate(&mut oracle, &batch);
        assert!(out[0]);
        assert!(!out[2]);
        assert_eq!(out[1], counter.inner().fails(&batch[1]));
        assert_eq!(counter.simulations(), sims_before + 1);
        assert_eq!(oracle.stats().uncertain_simulated, 1);
        assert_eq!(oracle.stats().classified, 800 - 256 + 2);
    }

    #[test]
    fn deferred_batches_owe_their_retrain_until_finished() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let cfg = OracleConfig {
            retrain_threshold: 1,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = oracle.evaluate_batch_rough(&mut rng, &batch_around_boundary(800, 10));
        let retrains = oracle.stats().retrains;
        let probe = vec![3.1, 0.2];
        let before = oracle.decision().expect("trained").clone();

        let _ = oracle.evaluate_batch_accurate_deferred(&[vec![3.0, 0.0], vec![10.0, 0.0]]);
        assert!(oracle.owes_retrain());
        assert_eq!(oracle.stats().retrains, retrains, "deferred, not run");
        oracle.finish_accurate_batch();
        assert!(!oracle.owes_retrain());
        assert_eq!(oracle.stats().retrains, retrains + 1);
        let after = oracle.decision().expect("trained");
        assert_ne!(
            before.predict_with_margin(&probe).1.to_bits(),
            after.predict_with_margin(&probe).1.to_bits(),
            "the snapshot keeps the pre-retrain model"
        );

        // A batch that simulates nothing owes nothing, and any entry
        // point runs an owed step before its own work.
        let _ = oracle.evaluate_batch_accurate_deferred(&[vec![10.0, 0.0]]);
        assert!(!oracle.owes_retrain());
        let _ = oracle.evaluate_batch_accurate_deferred(&[vec![3.0, 0.0]]);
        let _ = oracle.evaluate_batch_accurate_deferred(&[vec![10.0, 0.0]]);
        assert_eq!(oracle.stats().retrains, retrains + 2);
        // A rough batch folds its own labels in with a forced retrain;
        // the owed one runs before it, so that is two rounds, not one.
        let _ = oracle.evaluate_batch_accurate_deferred(&batch_around_boundary(200, 12));
        assert!(oracle.owes_retrain());
        let _ = oracle.evaluate_batch_rough(&mut rng, &batch_around_boundary(300, 11));
        assert!(!oracle.owes_retrain());
        assert_eq!(oracle.stats().retrains, retrains + 4);
    }

    #[test]
    fn batch_routing_is_identical_at_one_and_four_threads() {
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            pool.install(|| {
                let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.3], 3.0));
                let cfg = OracleConfig {
                    retrain_threshold: 64,
                    ..OracleConfig::default()
                };
                let mut oracle = ClassifierOracle::new(&counter, cfg);
                let mut rng = StdRng::seed_from_u64(31);
                let mut verdicts = Vec::new();
                for round in 0..3 {
                    let rough = batch_around_boundary(2000, 40 + round);
                    verdicts.push(oracle.evaluate_batch_rough(&mut rng, &rough));
                    let batch = batch_around_boundary(3000, 50 + round);
                    verdicts.push(accurate(&mut oracle, &batch));
                }
                (verdicts, *oracle.stats(), *oracle.margin_stats())
            })
        };
        let (verdicts_1, stats_1, margins_1) = run(1);
        let (verdicts_4, stats_4, margins_4) = run(4);
        assert!(stats_1.classified > 0 && stats_1.uncertain_simulated > 0);
        assert!(stats_1.retrains > 3, "accurate batches must retrain");
        assert_eq!(verdicts_1, verdicts_4);
        assert_eq!(stats_1, stats_4);
        assert_eq!(margins_1.classified, margins_4.classified);
        assert_eq!(margins_1.abs_sum.to_bits(), margins_4.abs_sum.to_bits());
        assert_eq!(
            margins_1.min_abs.map(f64::to_bits),
            margins_4.min_abs.map(f64::to_bits)
        );
    }

    #[test]
    fn margin_stats_track_classified_queries() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let mut oracle = ClassifierOracle::new(&counter, OracleConfig::default());
        let mut rng = StdRng::seed_from_u64(21);
        let zs = batch_around_boundary(800, 22);
        let _ = oracle.evaluate_batch_rough(&mut rng, &zs);
        assert!(oracle.has_classifier());
        let m = *oracle.margin_stats();
        assert_eq!(
            m.classified,
            oracle.stats().classified,
            "every classified query must contribute a margin"
        );
        assert!(m.mean_abs() > 0.0);
        let min = m.min_abs.expect("margins observed");
        assert!(min >= 0.0 && min <= m.mean_abs());
        // A far-away accurate query adds one more margin observation.
        let _ = accurate(&mut oracle, &[vec![10.0, 0.0]]);
        assert_eq!(oracle.margin_stats().classified, m.classified + 1);
    }

    #[test]
    fn margin_stats_are_empty_without_classifier() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let cfg = OracleConfig {
            svm: None,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let mut rng = StdRng::seed_from_u64(23);
        let _ = oracle.evaluate_batch_rough(&mut rng, &batch_around_boundary(50, 24));
        let m = oracle.margin_stats();
        assert_eq!(m.classified, 0);
        assert_eq!(m.mean_abs(), 0.0);
        assert!(m.min_abs.is_none());
    }

    #[test]
    fn pending_labels_trigger_retraining() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 3.0));
        let cfg = OracleConfig {
            retrain_threshold: 4,
            ..OracleConfig::default()
        };
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let mut rng = StdRng::seed_from_u64(13);
        let zs = batch_around_boundary(800, 14);
        let _ = oracle.evaluate_batch_rough(&mut rng, &zs);
        let retrains_before = oracle.stats().retrains;
        // Feed many uncertain (boundary) samples.
        let mut rng2 = StdRng::seed_from_u64(15);
        for _ in 0..40 {
            let z = vec![3.0 + rng2.gen_range(-0.05..0.05), rng2.gen_range(-1.0..1.0)];
            let _ = accurate(&mut oracle, &[z]);
        }
        assert!(
            oracle.stats().retrains > retrains_before,
            "uncertain labels should have triggered retraining"
        );
    }
}
