//! The simulation pipeline.
//!
//! Every transistor-level simulation that is billed goes through a
//! [`Simulator`]: an estimate's boundary search and its later stages
//! (one instance each), and each of the paper's baselines. Its batch
//! path does, in order:
//!
//! 1. **memo routing** — a serial pass over the batch answers repeats
//!    from a private [`VerdictStore`] and deduplicates the rest, counting
//!    hits and misses (see [`crate::cache`]);
//! 2. **prefetch-table hits** — misses already evaluated ahead of need
//!    are answered from the table, and their effort receipts booked;
//! 3. **attempt 0** — the remaining misses go to the bench as one
//!    [`Testbench::try_fails_batch`]. Every miss is billed as one
//!    simulation, whether the table or the bench answered it;
//! 4. **the retry ladder** — failed evaluations climb
//!    [`Testbench::try_fails_attempt`] in parallel (for the SRAM bench,
//!    progressively finer butterfly grids). Each rung is one retry and
//!    one billed simulation;
//! 5. **quarantine** — a sample that exhausts the ladder gets the
//!    conservative verdict `false` (not a failure, so it can never
//!    inflate the estimate) and is counted;
//! 6. **store** — the verdict goes into the memo, so a quarantined
//!    sample is paid for once.
//!
//! Hits never reach the bench and are not billed. Every call that does
//! reach it — an attempt-0 batch or a rung — is timed and reported to the
//! observer as a [`SimBatchStats`]; the timing is observation only.
//! Every counter is an atomic with `Relaxed` ordering: the memo routing
//! is serial and the ladder's increments commute, so verdicts and totals
//! are identical at every thread count.
//!
//! # Simulating ahead of need
//!
//! In stage 2 the oracle simulates every sample inside the classifier's
//! uncertainty band, then retrains on the new labels before the next
//! chunk is routed. The retrain is serial, so on a multi-core pool the
//! other cores would sit idle through it. Instead, the importance
//! sampler draws the next chunk during the retrain, routes it with a
//! snapshot of the pre-retrain [`Decision`], and
//! [`prefetch`](Simulator::prefetch)es the samples that snapshot finds
//! uncertain into the table that step 2 answers from. No result can
//! change:
//!
//! - a verdict is a pure function of the point, so an answer from the
//!   table is the answer the simulator would give;
//! - a prefetched evaluation runs on a private effort ledger
//!   ([`Testbench::evaluate_detached`]), and its receipt is booked only
//!   when the evaluation is consumed;
//! - the table answers only attempt-0 evaluations of memo misses, so
//!   simulation counts, retries and quarantines are made by the same
//!   requests as without it;
//! - each round replaces the table, so an entry never consumed is never
//!   booked.

use crate::bench::{EffortSnapshot, EvalError, SolveEffort, Testbench};
use crate::cache::{MemoCacheConfig, VerdictStore, MODE_PLAIN};
use crate::observe::{NullObserver, Observer, SimBatchStats};
use crate::oracle::OracleStats;
use crate::retry::RetryPolicy;
use ecripse_svm::classifier::Decision;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A prefetched attempt-0 outcome and the effort receipt it will book.
type Receipted = (Result<bool, EvalError>, EffortSnapshot);

/// A point's exact bit pattern: the prefetch-table key. A hit must be
/// the very point that was evaluated, not one within some quantum of it.
fn key(z: &[f64]) -> Vec<u64> {
    z.iter().map(|v| v.to_bits()).collect()
}

/// The simulation pipeline over a raw bench: memo, prefetch table,
/// attempt-0 batch, retry ladder and quarantine, with their counters.
/// See the module docs.
///
/// It never evaluates detached (the [`Testbench::evaluate_detached`]
/// default), so nothing is prefetched past it.
pub struct Simulator<'a, B> {
    bench: &'a B,
    observer: &'a dyn Observer,
    store: VerdictStore,
    memo: bool,
    retry: RetryPolicy,
    table: Mutex<HashMap<Vec<u64>, Receipted>>,
    effort_start: SolveEffort,
    simulations: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
    /// Table entries consumed since the current round started.
    consumed: AtomicU64,
}

impl<'a, B: Testbench> Simulator<'a, B> {
    /// A pipeline over `bench` with an empty memo (on `cache`'s grid,
    /// answering nothing when `cache.enabled` is off), an empty prefetch
    /// table and zeroed counters. Every call that reaches `bench` is
    /// reported to `observer` as a [`SimBatchStats`].
    ///
    /// # Panics
    ///
    /// Panics if `cache.quantum` is not positive or `cache.shards` is
    /// zero.
    pub fn new(
        bench: &'a B,
        observer: &'a dyn Observer,
        cache: MemoCacheConfig,
        retry: RetryPolicy,
    ) -> Self {
        Self {
            bench,
            observer,
            store: VerdictStore::new(cache),
            memo: cache.enabled,
            retry,
            table: Mutex::new(HashMap::new()),
            effort_start: bench.solve_effort(),
            simulations: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
        }
    }

    /// A pipeline that bills every query: the memo off, the default
    /// retry ladder and no observer. Each of the paper's baselines bills
    /// through one, so its count is the queries it makes.
    pub(crate) fn unmemoised(bench: &'a B) -> Self {
        let cache = MemoCacheConfig {
            enabled: false,
            ..MemoCacheConfig::default()
        };
        Self::new(bench, &NullObserver, cache, RetryPolicy::default())
    }

    /// Simulations billed so far: attempt-0 evaluations of memo misses
    /// plus every retry rung.
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// `f`'s result, with its wall time reported to the observer as one
    /// call of `batch` samples.
    fn timed<T>(&self, batch: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.observer.sim_batch_finished(&SimBatchStats {
            batch: batch as u64,
            wall_seconds: start.elapsed().as_secs_f64(),
        });
        out
    }

    /// Attempt 0 of `zs` as one timed batch to the bench.
    fn batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        self.timed(zs.len(), || self.bench.try_fails_batch(zs))
    }

    /// `stats` with this pipeline's counters filled in: memo hits and
    /// misses, retries, quarantines, and the solver effort booked on the
    /// bench since this simulator was built.
    pub fn oracle_stats(&self, stats: &OracleStats) -> OracleStats {
        let effort = self.bench.solve_effort().delta(&self.effort_start);
        OracleStats {
            cache_hits: self.store.hits(),
            cache_misses: self.store.misses(),
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            newton_iters: effort.newton_iters,
            factorisations: effort.factorisations,
            ..*stats
        }
    }

    /// Starts a round: replaces the prefetch table with detached
    /// evaluations of the `points` that `decision` finds uncertain and
    /// the memo does not hold, walked in input order and skipping exact
    /// duplicates, until `done` is raised. Returns how many points were
    /// evaluated.
    ///
    /// Nothing is booked and no counter moves here; see the module docs.
    /// A bench that cannot evaluate detached gets an empty table.
    pub fn prefetch(&self, points: &[Vec<f64>], decision: &Decision, done: &AtomicBool) -> u64 {
        self.consumed.store(0, Ordering::Relaxed);
        let mut fresh = HashMap::new();
        for z in points {
            if done.load(Ordering::Acquire) {
                break;
            }
            if !decision.is_uncertain(z) || (self.memo && self.store.holds(0, MODE_PLAIN, z)) {
                continue;
            }
            let k = key(z);
            if fresh.contains_key(&k) {
                continue;
            }
            let Some(receipted) = self.bench.evaluate_detached(z) else {
                break;
            };
            fresh.insert(k, receipted);
        }
        let evaluated = fresh.len() as u64;
        *self.table.lock() = fresh;
        evaluated
    }

    /// Ends the round: drops the table entries nobody consumed, unbooked,
    /// and returns how many were consumed.
    pub fn end_round(&self) -> u64 {
        self.table.lock().clear();
        self.consumed.swap(0, Ordering::Relaxed)
    }

    /// Steps 2–5 for the memo misses `zs`: one verdict per point, in
    /// order.
    fn simulate(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.simulations
            .fetch_add(zs.len() as u64, Ordering::Relaxed);
        let first = self.attempt_zero(zs);
        // Only the failures climb, each independently; the counters
        // commute and the collect keeps input order, so the parallel
        // climb is schedule-independent.
        let failed: Vec<usize> = (0..first.len()).filter(|&i| first[i].is_err()).collect();
        let climbed: Vec<bool> = failed
            .par_iter()
            .map(|&i| self.climb(&zs[i], first[i].clone()))
            .collect();
        let mut verdicts: Vec<bool> = first
            .iter()
            .map(|outcome| outcome.as_ref().is_ok_and(|&v| v))
            .collect();
        for (i, verdict) in failed.into_iter().zip(climbed) {
            verdicts[i] = verdict;
        }
        verdicts
    }

    /// Attempt 0 of `zs`: prefetch-table hits (booking their receipts),
    /// and the misses as one timed batch to the bench.
    fn attempt_zero(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        let taken: Vec<Option<Result<bool, EvalError>>> = {
            let mut table = self.table.lock();
            if table.is_empty() {
                drop(table);
                return self.batch(zs);
            }
            zs.iter()
                .map(|z| {
                    let (outcome, receipt) = table.remove(&key(z))?;
                    self.bench.book(&receipt);
                    Some(outcome)
                })
                .collect()
        };
        let misses: Vec<Vec<f64>> = zs
            .iter()
            .zip(&taken)
            .filter(|(_, hit)| hit.is_none())
            .map(|(z, _)| z.clone())
            .collect();
        self.consumed
            .fetch_add((zs.len() - misses.len()) as u64, Ordering::Relaxed);
        let mut fresh = if misses.is_empty() {
            Vec::new()
        } else {
            self.batch(&misses)
        }
        .into_iter();
        taken
            .into_iter()
            .filter_map(|hit| hit.or_else(|| fresh.next()))
            .collect()
    }

    /// Climbs the ladder from attempt 1, given the outcome of attempt 0,
    /// and quarantines an exhausted ladder with the verdict `false`.
    fn climb(&self, z: &[f64], first: Result<bool, EvalError>) -> bool {
        let mut outcome = first;
        for attempt in 1..self.retry.attempts() {
            match outcome {
                // Retrying a malformed input is futile: the ladder only
                // helps with numerically marginal evaluations.
                Ok(_) | Err(EvalError::DimensionMismatch { .. }) => break,
                Err(_) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.simulations.fetch_add(1, Ordering::Relaxed);
                    outcome = self.timed(1, || self.bench.try_fails_attempt(z, attempt));
                }
            }
        }
        outcome.unwrap_or_else(|_| {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            false
        })
    }
}

impl<B: Testbench> Testbench for Simulator<'_, B> {
    fn dim(&self) -> usize {
        self.bench.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.fails_batch(&[z.to_vec()])[0]
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        if self.memo {
            self.store
                .memo_batch(0, MODE_PLAIN, zs, |misses| self.simulate(misses))
        } else {
            self.simulate(zs)
        }
    }

    fn solve_effort(&self) -> SolveEffort {
        self.bench.solve_effort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_svm::classifier::{SvmClassifier, SvmConfig};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    fn simulator<B: Testbench>(bench: &B, policy: RetryPolicy) -> Simulator<'_, B> {
        Simulator::new(bench, &NullObserver, MemoCacheConfig::default(), policy)
    }

    fn memo_off() -> MemoCacheConfig {
        MemoCacheConfig {
            enabled: false,
            ..MemoCacheConfig::default()
        }
    }

    /// `(retries, quarantined)` so far.
    fn ladder<B: Testbench>(sim: &Simulator<'_, B>) -> (u64, u64) {
        let stats = sim.oracle_stats(&OracleStats::default());
        (stats.retries, stats.quarantined)
    }

    /// A bench whose samples with `z[0] < 0` fail evaluation until the
    /// given attempt index, and whose samples with `z[0] > 9000` never
    /// evaluate at all.
    struct Flaky {
        heal_at: usize,
        calls: AtomicUsize,
    }

    impl Flaky {
        fn new(heal_at: usize) -> Self {
            Self {
                heal_at,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl Testbench for Flaky {
        fn dim(&self) -> usize {
            1
        }

        fn fails(&self, z: &[f64]) -> bool {
            z[0] > 1.0
        }

        fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if z[0] > 9000.0 || (z[0] < 0.0 && attempt < self.heal_at) {
                return Err(EvalError::NonFinite { context: "flaky" });
            }
            Ok(self.fails(z))
        }
    }

    #[test]
    fn healthy_samples_take_one_attempt_and_no_retries() {
        let bench = Flaky::new(1);
        let sim = simulator(&bench, RetryPolicy::default());
        assert!(sim.fails(&[2.0]));
        assert!(!sim.fails(&[0.5]));
        assert_eq!(ladder(&sim), (0, 0));
        assert_eq!(bench.calls.load(Ordering::Relaxed), 2);
        assert_eq!(sim.simulations(), 2);
    }

    #[test]
    fn transient_failures_heal_and_count_retries() {
        let bench = Flaky::new(2);
        let sim = simulator(&bench, RetryPolicy { max_attempts: 3 });
        assert!(!sim.fails(&[-0.5]));
        assert_eq!(
            ladder(&sim),
            (2, 0),
            "healed on attempt 2 → two extra rungs"
        );
        assert_eq!(sim.simulations(), 3, "every rung is a simulation");
    }

    #[test]
    fn permanent_failures_are_quarantined_conservatively() {
        let bench = Flaky::new(usize::MAX);
        let sim = simulator(&bench, RetryPolicy { max_attempts: 3 });
        assert!(
            !sim.fails(&[-1.0]),
            "quarantined verdict is `not a failure`"
        );
        assert_eq!(ladder(&sim), (2, 1));
        // The memo stores the quarantined verdict: it is paid for once.
        assert!(!sim.fails(&[-1.0]));
        assert_eq!(ladder(&sim), (2, 1));
        assert_eq!(sim.simulations(), 3);
        // Without the memo every query climbs the whole ladder again.
        let sim = Simulator::new(
            &bench,
            &NullObserver,
            memo_off(),
            RetryPolicy { max_attempts: 3 },
        );
        assert!(!sim.fails(&[-1.0]));
        assert!(!sim.fails(&[-1.0]));
        assert_eq!(
            ladder(&sim),
            (4, 2),
            "two exhausted ladders x two extra rungs"
        );
    }

    #[test]
    fn dimension_errors_are_not_retried() {
        struct WrongDim;
        impl Testbench for WrongDim {
            fn dim(&self) -> usize {
                6
            }
            fn fails(&self, _z: &[f64]) -> bool {
                false
            }
            fn try_fails_attempt(&self, _z: &[f64], _attempt: usize) -> Result<bool, EvalError> {
                Err(EvalError::DimensionMismatch {
                    expected: 6,
                    got: 5,
                })
            }
        }
        let sim = simulator(&WrongDim, RetryPolicy { max_attempts: 5 });
        assert!(!sim.fails(&[0.0; 5]));
        assert_eq!(
            ladder(&sim),
            (0, 1),
            "caller bugs do not burn ladder attempts"
        );
    }

    #[test]
    fn batch_counters_are_thread_count_independent() {
        let zs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![if i % 3 == 0 { -0.5 } else { 1.5 }])
            .collect();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            pool.install(|| {
                let bench = Flaky::new(1);
                let sim = Simulator::new(
                    &bench,
                    &NullObserver,
                    memo_off(),
                    RetryPolicy { max_attempts: 3 },
                );
                let verdicts = sim.fails_batch(&zs);
                (verdicts, ladder(&sim), sim.simulations())
            })
        };
        let serial = run(1);
        assert_eq!(run(4), serial);
        let (_, (retries, quarantined), _) = serial;
        assert_eq!(quarantined, 0);
        assert!(retries > 0, "every third sample needed one retry");
    }

    /// Records every batch its `try_fails_batch` receives.
    #[derive(Default)]
    struct BatchRecorder {
        batches: Mutex<Vec<Vec<Vec<f64>>>>,
    }

    impl Testbench for BatchRecorder {
        fn dim(&self) -> usize {
            2
        }

        fn fails(&self, z: &[f64]) -> bool {
            z[0] + z[1] > 1.0
        }

        fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
            if z[0] < 0.0 && attempt == 0 {
                return Err(EvalError::NonFinite {
                    context: "recorder",
                });
            }
            Ok(self.fails(z))
        }

        fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
            self.batches.lock().push(zs.to_vec());
            zs.par_iter()
                .map(|z| self.try_fails_attempt(z, 0))
                .collect()
        }
    }

    #[test]
    fn attempt_zero_reaches_the_bench_as_the_whole_batch() {
        // A store below the simulator (a shared `MemoBench`) routes a
        // batch by what it holds when the batch arrives, so attempt 0
        // must reach the bench as the caller's whole slice on any pool;
        // only failures climb.
        let first: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.7).sin() * 3.0, (i as f64 * 1.3).cos() * 3.0])
            .collect();
        let second: Vec<Vec<f64>> = first.iter().map(|z| vec![z[0] + 0.05, z[1]]).collect();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            let bench = BatchRecorder::default();
            let sim = simulator(&bench, RetryPolicy::default());
            let verdicts: Vec<Vec<bool>> = [&first, &second]
                .iter()
                .map(|zs| pool.install(|| sim.fails_batch(zs)))
                .collect();
            let counters = ladder(&sim);
            drop(sim);
            (verdicts, bench.batches.into_inner(), counters)
        };
        let serial = run(1);
        assert_eq!(serial.1, vec![first.clone(), second.clone()]);
        assert!(serial.2 .0 > 0, "some samples must climb the ladder");
        assert_eq!(serial.2 .1, 0);
        assert_eq!(run(4), serial);
    }

    #[test]
    fn zero_attempts_policy_still_evaluates_once() {
        let bench = Flaky::new(1);
        let sim = simulator(&bench, RetryPolicy { max_attempts: 0 });
        assert!(sim.fails(&[2.0]));
        assert!(!sim.fails(&[-0.5]), "no rung to climb: quarantined");
        assert_eq!(ladder(&sim), (0, 1));
        assert_eq!(bench.calls.load(Ordering::Relaxed), 2);
    }

    /// A synthetic bench with an effort ledger that can evaluate
    /// detached. `fails` is `z₀ + z₁ > 2.5`; points with `z₀ = 0` fail
    /// evaluation below attempt 2, and points with `z₁ = 0` never
    /// evaluate (so the ladder quarantines them). Each evaluation costs
    /// an amount that depends on the point and the attempt.
    #[derive(Default)]
    struct Receipts {
        newton: AtomicU64,
        solves: AtomicU64,
    }

    impl Receipts {
        fn evaluate(z: &[f64], attempt: usize) -> Receipted {
            let receipt = EffortSnapshot {
                newton_iters: 7 + (z[0] * 4.0) as u64 + 3 * attempt as u64,
                curve_solves: 1 + (z[1] * 2.0) as u64,
                coarse_accepts: 1,
                escalations: attempt as u64,
            };
            let outcome = if z[1] == 0.0 || (z[0] == 0.0 && attempt < 2) {
                Err(EvalError::NonFinite { context: "marked" })
            } else {
                Ok(z[0] + z[1] > 2.5)
            };
            (outcome, receipt)
        }
    }

    impl Testbench for Receipts {
        fn dim(&self) -> usize {
            2
        }

        fn fails(&self, z: &[f64]) -> bool {
            self.try_fails(z).unwrap_or(false)
        }

        fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
            let (outcome, receipt) = Self::evaluate(z, attempt);
            self.book(&receipt);
            outcome
        }

        fn solve_effort(&self) -> SolveEffort {
            SolveEffort {
                newton_iters: self.newton.load(Ordering::Relaxed),
                factorisations: self.solves.load(Ordering::Relaxed),
            }
        }

        fn evaluate_detached(&self, z: &[f64]) -> Option<Receipted> {
            Some(Self::evaluate(z, 0))
        }

        fn book(&self, receipt: &EffortSnapshot) {
            self.newton
                .fetch_add(receipt.newton_iters, Ordering::Relaxed);
            self.solves
                .fetch_add(receipt.curve_solves, Ordering::Relaxed);
        }
    }

    /// A decision function that finds every point uncertain, so a round
    /// prefetches exactly the points it is given.
    fn everything_uncertain() -> Decision {
        let xs = vec![
            vec![0.0, 0.0],
            vec![3.0, 3.0],
            vec![0.5, 0.0],
            vec![2.5, 3.0],
        ];
        let cfg = SvmConfig {
            degree: 1,
            uncertain_band: f64::INFINITY,
            ..SvmConfig::default()
        };
        let clf = SvmClassifier::fit(&cfg, &xs, &[false, true, false, true]).expect("two classes");
        clf.decision().clone()
    }

    fn grid(points: &[(u32, u32)]) -> Vec<Vec<f64>> {
        points
            .iter()
            .map(|&(i, j)| vec![f64::from(i) * 0.5, f64::from(j) * 0.5])
            .collect()
    }

    /// One round: a batch (or one query at a time), plus the points
    /// prefetched ahead of it and whether `done` was already raised.
    type Round = (Vec<(u32, u32)>, Vec<(u32, u32)>, bool, bool);

    /// Everything the determinism contract covers, after each round:
    /// verdicts, solver effort, simulations and the filled-in stats
    /// (memo traffic, retries, quarantines).
    type Observed = (Vec<Vec<bool>>, SolveEffort, u64, OracleStats);

    fn run(rounds: &[Round], memo_on: bool, prefetching: bool) -> (Observed, u64) {
        let raw = Receipts::default();
        let cache = MemoCacheConfig {
            enabled: memo_on,
            ..MemoCacheConfig::default()
        };
        let sim = Simulator::new(&raw, &NullObserver, cache, RetryPolicy::default());
        let decision = everything_uncertain();
        let mut verdicts = Vec::new();
        let mut consumed = 0;
        for (batch, ahead, done, one_at_a_time) in rounds {
            if prefetching {
                let done = AtomicBool::new(*done);
                sim.prefetch(&grid(ahead), &decision, &done);
            }
            let zs = grid(batch);
            verdicts.push(if *one_at_a_time {
                zs.iter().map(|z| sim.fails(z)).collect()
            } else {
                sim.fails_batch(&zs)
            });
            consumed += sim.end_round();
            assert!(
                sim.table.lock().is_empty(),
                "a round leaves no entry behind"
            );
        }
        let observed = (
            verdicts,
            raw.solve_effort(),
            sim.simulations(),
            sim.oracle_stats(&OracleStats::default()),
        );
        (observed, consumed)
    }

    #[test]
    fn a_shared_store_is_never_prefetched_past() {
        // A verdict evaluated detached below the store would bypass it:
        // never stored, never answered from it. So the store wrapper
        // keeps the no-detached default and prefetch finds nothing to do.
        let raw = Receipts::default();
        let z = [1.0, 2.0];
        assert!(raw.evaluate_detached(&z).is_some());
        let store = std::sync::Arc::new(VerdictStore::new(MemoCacheConfig::default()));
        let shared = crate::cache::MemoBench::shared(&raw, 7, store, true);
        assert!(shared.evaluate_detached(&z).is_none());
        let sim = simulator(&shared, RetryPolicy::default());
        let done = AtomicBool::new(false);
        let ahead = grid(&[(1, 1), (2, 3), (5, 5)]);
        assert_eq!(sim.prefetch(&ahead, &everything_uncertain(), &done), 0);
        // Nor is a simulator prefetched past.
        assert!(sim.evaluate_detached(&z).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Whatever was prefetched — points outside the batch,
        /// duplicates, points whose evaluation fails, or nothing at all —
        /// verdicts, solver effort, simulations, retries, quarantines
        /// and memo traffic equal a run without prefetch.
        #[test]
        fn prop_prefetching_changes_no_result_or_counter(
            rounds in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..6, 0u32..6), 0..24),
                    proptest::collection::vec((0u32..6, 0u32..6), 0..24),
                    proptest::bool::ANY,
                    proptest::bool::ANY,
                ),
                1..5,
            ),
            memo_on in proptest::bool::ANY,
        ) {
            let (without, _) = run(&rounds, memo_on, false);
            let (with, consumed) = run(&rounds, memo_on, true);
            prop_assert!(consumed <= without.2, "consumed {} of {} simulations", consumed, without.2);
            prop_assert_eq!(with, without);
        }
    }

    #[test]
    fn consumed_entries_replace_critical_path_evaluations() {
        let raw = Receipts::default();
        let sim = simulator(&raw, RetryPolicy::default());
        let ahead = grid(&[(1, 1), (2, 3), (2, 3), (5, 5)]);
        let done = AtomicBool::new(false);
        let evaluated = sim.prefetch(&ahead, &everything_uncertain(), &done);
        assert_eq!(evaluated, 3, "the exact duplicate is evaluated once");
        assert_eq!(
            raw.solve_effort(),
            SolveEffort::default(),
            "nothing booked yet"
        );
        let _ = sim.fails_batch(&grid(&[(2, 3), (1, 1), (4, 1)]));
        assert_eq!(sim.end_round(), 2);
        assert_eq!(sim.simulations(), 3);
        // A point the memo already holds is not worth doing ahead, and a
        // raised `done` stops the walk before the first evaluation.
        let evaluated = sim.prefetch(&grid(&[(1, 1), (3, 3)]), &everything_uncertain(), &done);
        assert_eq!(evaluated, 1);
        done.store(true, Ordering::Release);
        let evaluated = sim.prefetch(&grid(&[(3, 3)]), &everything_uncertain(), &done);
        assert_eq!(evaluated, 0);
        assert_eq!(sim.end_round(), 0);
    }
}
