//! Classifier-gated indicator evaluation.
//!
//! The oracle is the cost-control layer between the estimators and the
//! transistor-level testbench. It implements the paper's two policies:
//!
//! * **Rough** (stage 1, particle weighting): label a random subset of
//!   `K` samples per batch with real simulations, learn their labels at
//!   once, and let the classifier answer for everything else. Misclassified
//!   weights only distort the alternative distribution slightly — they
//!   never bias the final estimate (Sec. III-B, step 3).
//! * **Accurate** (stage 2, importance sampling): trust the classifier
//!   only outside its margin-based uncertainty band; simulate uncertain
//!   samples and feed the labels back as incremental training data
//!   (Sec. III-B, step 5). The caller runs that learning step with
//!   [`ClassifierOracle::learn_while`] after each batch, and may do other
//!   work beside a retrain.
//!
//! Both policies queue the labels they simulate, and one learning step
//! consumes the queue: without a classifier it fits the first one (the
//! labels stay queued while they hold a single class), with one it folds
//! them in incrementally — every batch in stage 1, once
//! [`OracleConfig::retrain_threshold`] labels have accumulated in stage 2.
//!
//! With the classifier disabled, both policies simulate everything —
//! which is exactly the "conventional" baseline of Fig. 6.

use crate::bench::Testbench;
use ecripse_svm::classifier::{Decision, SvmClassifier, SvmConfig, TrainError};
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

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
    /// Simulator queries served by the memo-cache (filled in by the run's
    /// [`Simulator`](crate::simulate::Simulator); the oracle itself
    /// cannot see the cache).
    pub cache_hits: u64,
    /// Simulator queries that missed the memo-cache (simulator-filled,
    /// like `cache_hits`).
    pub cache_misses: u64,
    /// Extra evaluation attempts spent by the retry ladder
    /// (simulator-filled, like `cache_hits`).
    pub retries: u64,
    /// Samples that exhausted the retry ladder and received the
    /// conservative non-failing verdict (simulator-filled, like
    /// `cache_hits`).
    pub quarantined: u64,
    /// Newton evaluations behind this run's simulations — on the SRAM
    /// path, node-current evaluations of the transfer-curve solves, not
    /// matrix iterations (simulator-filled from the bench's
    /// [`SolveEffort`](crate::bench::SolveEffort) delta). It counts the
    /// effort behind the verdicts: a half-cell curve the SRAM bench takes
    /// from its curve store counts its original solve's evaluations, so
    /// the total is the same whether a curve was solved or reused.
    #[serde(default)]
    pub newton_iters: u64,
    /// Solver invocations — on the SRAM path, transfer-curve point
    /// solves, counted whether a curve was solved or reused, like
    /// `newton_iters`; no matrix is factorised despite the name
    /// (simulator-filled, like `newton_iters`).
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
    /// Simulated labels the classifier has not learned yet: the first
    /// training set until a fit succeeds (e.g. while only one class has
    /// been observed), the next incremental batch afterwards.
    unlearned_x: Vec<Vec<f64>>,
    unlearned_y: Vec<bool>,
    stats: OracleStats,
    margins: MarginStats,
}

impl<'a, B: Testbench> ClassifierOracle<'a, B> {
    /// Creates an oracle over the given testbench: in production, the
    /// [`Simulator`](crate::simulate::Simulator) that bills its queries.
    pub fn new(bench: &'a B, config: OracleConfig) -> Self {
        Self {
            bench,
            config,
            classifier: None,
            unlearned_x: Vec::new(),
            unlearned_y: Vec::new(),
            stats: OracleStats::default(),
            margins: MarginStats::default(),
        }
    }

    /// The testbench the oracle simulates on, for as long as it lives.
    pub fn bench(&self) -> &'a B {
        self.bench
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

    /// Simulates a batch with one `fails_batch` call (parallel for
    /// circuit benches) and queues the labels, in input order, for the
    /// next learning step.
    fn simulate_batch_and_record(&mut self, zs: &[Vec<f64>]) -> Vec<bool> {
        let ys = self.bench.fails_batch(zs);
        self.stats.simulated += zs.len() as u64;
        // A full bank has stopped learning; skip the bookkeeping.
        let learning = self.config.svm.is_some()
            && !self
                .classifier
                .as_ref()
                .is_some_and(SvmClassifier::is_bank_full);
        if learning {
            self.unlearned_x.extend_from_slice(zs);
            self.unlearned_y.extend_from_slice(&ys);
        }
        ys
    }

    /// One learning step from the unlearned labels. Without a classifier
    /// it fits the first one, keeping the labels queued if they hold a
    /// single class; with one it folds them in once `retrain_threshold`
    /// have accumulated, or at once when `force` is set.
    fn learn(&mut self, force: bool) {
        if self.unlearned_x.is_empty() {
            return;
        }
        match (&mut self.classifier, self.config.svm) {
            (Some(clf), _) => {
                if !force && self.unlearned_x.len() < self.config.retrain_threshold {
                    return;
                }
                clf.add_labelled(&self.unlearned_x, &self.unlearned_y);
            }
            (None, Some(svm_config)) => {
                match SvmClassifier::fit(&svm_config, &self.unlearned_x, &self.unlearned_y) {
                    Ok(clf) => self.classifier = Some(clf),
                    // Keep accumulating; a later batch will contain both
                    // classes.
                    Err(TrainError::SingleClass | TrainError::EmptyTrainingSet) => return,
                }
            }
            (None, None) => return,
        }
        self.stats.retrains += 1;
        self.unlearned_x.clear();
        self.unlearned_y.clear();
    }

    /// Runs the learning step the queued stage-2 labels call for while
    /// `meanwhile` does the caller's other work, and returns what
    /// `meanwhile` returns.
    ///
    /// When the step retrains an existing classifier and the rayon pool
    /// has more than one thread, the retrain runs on a scoped thread and
    /// `meanwhile` runs beside it with the pre-retrain decision function
    /// and a flag raised once the retrain is done; the stage-2 sampler
    /// uses them to have the simulator evaluate ahead the next chunk's
    /// likely-uncertain points ([`crate::simulate`]). Otherwise
    /// `meanwhile` gets `None` and runs before the step. The oracle ends
    /// in the same state either way.
    pub fn learn_while<T>(
        &mut self,
        meanwhile: impl FnOnce(Option<(&Decision, &AtomicBool)>) -> T,
    ) -> T {
        let due = self.unlearned_x.len() >= self.config.retrain_threshold.max(1);
        let snapshot = match &self.classifier {
            Some(clf) if due && rayon::current_num_threads() > 1 => clf.decision().clone(),
            _ => {
                let out = meanwhile(None);
                self.learn(false);
                return out;
            }
        };
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let learner = scope.spawn(|| {
                self.learn(false);
                done.store(true, Ordering::Release);
            });
            let out = meanwhile(Some((&snapshot, &done)));
            if let Err(panic) = learner.join() {
                std::panic::resume_unwind(panic);
            }
            out
        })
    }

    /// Stage-1 policy: evaluates a whole batch, spending at most
    /// `k_train_per_batch` simulations on randomly chosen members,
    /// learning their labels at once, and classifying the rest.
    pub fn evaluate_batch_rough<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        zs: &[Vec<f64>],
    ) -> Vec<bool> {
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
        self.learn(true);
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

    /// Stage-2 policy: every sample is routed by the classifier as it
    /// stands. Confident samples are classified; uncertain (or
    /// unclassifiable) ones are simulated in a single `fails_batch` call
    /// and their labels queued for learning. Verdicts inside the
    /// uncertainty band are therefore exact. Predictions run in parallel,
    /// but the routing is a serial pass in input order, so results do not
    /// depend on the thread count.
    ///
    /// Nothing is learned here: the caller runs the step with
    /// [`Self::learn_while`] after each batch.
    pub fn evaluate_batch_accurate(&mut self, zs: &[Vec<f64>]) -> Vec<bool> {
        let mut out = vec![false; zs.len()];
        let sim_idx: Vec<usize> = match &self.classifier {
            Some(clf) => {
                let band = clf.config().uncertain_band;
                let mut sim_idx = Vec::new();
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
                sim_idx
            }
            None => (0..zs.len()).collect(),
        };
        if sim_idx.is_empty() {
            return out;
        }
        let sim_zs: Vec<Vec<f64>> = sim_idx.iter().map(|&i| zs[i].clone()).collect();
        let ys = self.simulate_batch_and_record(&sim_zs);
        for (&i, y) in sim_idx.iter().zip(&ys) {
            out[i] = *y;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::LinearBench;
    use crate::simulate::Simulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch_around_boundary(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| vec![rng.gen_range(1.0..5.0), rng.gen_range(-2.0..2.0)])
            .collect()
    }

    /// One stage-2 batch with its learning step run straight after, as
    /// the stage-2 sampler does for every chunk.
    fn accurate<B: Testbench>(oracle: &mut ClassifierOracle<'_, B>, zs: &[Vec<f64>]) -> Vec<bool> {
        let out = oracle.evaluate_batch_accurate(zs);
        oracle.learn_while(|_| ());
        out
    }

    #[test]
    fn disabled_classifier_simulates_everything() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
            assert_eq!(*y, bench.fails(z));
        }
    }

    #[test]
    fn rough_batches_cap_simulations_at_k() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
            .filter(|(z, y)| bench.fails(z) == **y)
            .count();
        assert!(correct as f64 > 0.95 * zs.len() as f64, "{correct}/1200");
    }

    #[test]
    fn single_class_batches_fall_back_to_simulation() {
        // Batch entirely on the passing side: classifier cannot train.
        let bench = LinearBench::new(vec![1.0, 0.0], 100.0);
        let counter = Simulator::unmemoised(&bench);
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
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
                let fails = bench.fails(&z);
                assert_eq!(accurate(&mut oracle, &[z]), [fails]);
            }
        }
    }

    #[test]
    fn accurate_batches_classify_far_and_simulate_near_samples() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
        assert_eq!(out[1], bench.fails(&batch[1]));
        assert_eq!(counter.simulations(), sims_before + 1);
        assert_eq!(oracle.stats().uncertain_simulated, 1);
        assert_eq!(oracle.stats().classified, 800 - 256 + 2);
    }

    /// Runs one learning step on a pool of `threads`. Returns the margin
    /// bits the snapshot `meanwhile` got gives `probe` (`None` if it got
    /// none) and how far `retrains` advanced.
    fn learn_on<B: Testbench>(
        oracle: &mut ClassifierOracle<'_, B>,
        threads: usize,
        probe: &[f64],
    ) -> (Option<u64>, u64) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let retrains = oracle.stats().retrains;
        let snapshot = pool.install(|| {
            oracle.learn_while(|retraining| {
                retraining.map(|(decision, _)| decision.predict_with_margin(probe).1.to_bits())
            })
        });
        (snapshot, oracle.stats().retrains - retrains)
    }

    #[test]
    fn learn_while_overlaps_only_a_due_retrain_on_a_pool() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
        let cfg = OracleConfig {
            retrain_threshold: 2,
            ..OracleConfig::default()
        };
        let probe = [3.1, 0.2];

        // The first training is a step, but not a retrain to overlap.
        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let _ = oracle.evaluate_batch_accurate(&batch_around_boundary(200, 10));
        assert!(!oracle.has_classifier());
        assert_eq!(learn_on(&mut oracle, 2, &probe), (None, 1));
        assert!(oracle.has_classifier());

        let mut oracle = ClassifierOracle::new(&counter, cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = oracle.evaluate_batch_rough(&mut rng, &batch_around_boundary(800, 10));
        let margin_bits = |oracle: &ClassifierOracle<'_, _>| {
            let clf = oracle.classifier.as_ref().expect("trained");
            clf.predict_with_margin(&probe).1.to_bits()
        };
        // `n` points the current classifier finds uncertain.
        let uncertain = |oracle: &ClassifierOracle<'_, _>, n: usize| {
            let clf = oracle.classifier.as_ref().expect("trained");
            let near = (0..400).map(|i| vec![2.8 + 0.001 * i as f64, 0.0]);
            let zs: Vec<Vec<f64>> = near.filter(|z| clf.is_uncertain(z)).take(n).collect();
            assert_eq!(zs.len(), n, "the band is too narrow");
            zs
        };
        // Nothing queued, then one label below the threshold: no step.
        let _ = oracle.evaluate_batch_accurate(&[vec![10.0, 0.0]]);
        assert_eq!(learn_on(&mut oracle, 2, &probe), (None, 0));
        let _ = oracle.evaluate_batch_accurate(&uncertain(&oracle, 1));
        assert_eq!(learn_on(&mut oracle, 2, &probe), (None, 0));

        // The threshold is reached: on two threads the retrain overlaps
        // `meanwhile`, which sees the pre-retrain decision.
        let _ = oracle.evaluate_batch_accurate(&uncertain(&oracle, 1));
        assert_eq!(oracle.stats().uncertain_simulated, 2);
        let before = margin_bits(&oracle);
        assert_eq!(learn_on(&mut oracle, 2, &probe), (Some(before), 1));
        assert_ne!(margin_bits(&oracle), before, "the retrain ran");

        // The same due retrain on one thread runs after `meanwhile`.
        let _ = oracle.evaluate_batch_accurate(&uncertain(&oracle, 2));
        assert_eq!(oracle.stats().uncertain_simulated, 4);
        let before = margin_bits(&oracle);
        assert_eq!(learn_on(&mut oracle, 1, &probe), (None, 1));
        assert_ne!(margin_bits(&oracle), before, "the retrain ran");
        assert_eq!(learn_on(&mut oracle, 2, &probe), (None, 0));
    }

    #[test]
    fn batch_routing_is_identical_at_one_and_four_threads() {
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            pool.install(|| {
                let bench = LinearBench::new(vec![1.0, 0.3], 3.0);
                let counter = Simulator::unmemoised(&bench);
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
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let counter = Simulator::unmemoised(&bench);
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
