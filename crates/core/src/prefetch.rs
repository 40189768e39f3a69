//! Simulating ahead of need while the classifier retrains.
//!
//! In stage 2 the oracle simulates every sample inside the classifier's
//! uncertainty band, then retrains on the new labels before the next
//! chunk is routed. The retrain is serial, so on a multi-core pool the
//! other cores would sit idle through it. Instead, the importance
//! sampler draws the next chunk during the retrain, routes it with a
//! snapshot of the pre-retrain [`Decision`], and simulates the samples
//! that snapshot finds uncertain into [`PrefetchBench`]'s table. When
//! the retrained classifier routes the chunk for real, every attempt-0
//! evaluation already in the table is answered from it.
//!
//! Why no result can change:
//!
//! - a verdict is a pure function of the point, so an answer from the
//!   table is the answer the simulator would give;
//! - a prefetched evaluation runs on a private effort ledger
//!   ([`Testbench::evaluate_detached`]), and its receipt is booked only
//!   when the evaluation is consumed;
//! - the layer sits *below* [`SimCounter`](crate::bench::SimCounter) and
//!   the retry ladder, so simulation counts, retries and quarantines are
//!   made by the same requests as without it;
//! - each round replaces the table, so an entry never consumed is never
//!   booked.

use crate::bench::{EffortSnapshot, EvalError, SolveEffort, Testbench};
use crate::cache::MemoBench;
use ecripse_svm::classifier::Decision;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A prefetched attempt-0 outcome and the effort receipt it will book.
type Receipted = (Result<bool, EvalError>, EffortSnapshot);

/// A point's exact bit pattern: the table key. A hit must be the very
/// point that was evaluated, not one within some quantum of it.
fn key(z: &[f64]) -> Vec<u64> {
    z.iter().map(|v| v.to_bits()).collect()
}

/// Answers attempt-0 evaluations from a table of outcomes simulated
/// ahead of need, and passes everything else to the wrapped bench.
///
/// Layer it between the simulation counter and the raw bench
/// (`SimCounter → PrefetchBench → bench`), so every answer from the
/// table is still counted as the simulation it stands for.
#[derive(Debug)]
pub struct PrefetchBench<B> {
    inner: B,
    table: Mutex<HashMap<Vec<u64>, Receipted>>,
    /// Table entries consumed since the current round started.
    consumed: AtomicU64,
}

impl<B: Testbench> PrefetchBench<B> {
    /// Wraps a bench with an empty table.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            table: Mutex::new(HashMap::new()),
            consumed: AtomicU64::new(0),
        }
    }

    /// Starts a round: replaces the table with detached evaluations of
    /// the `points` that `decision` finds uncertain and `memo` does not
    /// hold, walked in input order and skipping exact duplicates, until
    /// `done` is raised. Returns how many points were evaluated.
    ///
    /// Nothing is booked and no counter moves here; see the module docs.
    /// A bench that cannot evaluate detached gets an empty table.
    pub fn prefetch<M: Testbench>(
        &self,
        points: &[Vec<f64>],
        decision: &Decision,
        memo: &MemoBench<M>,
        done: &AtomicBool,
    ) -> u64 {
        self.consumed.store(0, Ordering::Relaxed);
        let mut fresh = HashMap::new();
        for z in points {
            if done.load(Ordering::Acquire) {
                break;
            }
            if !decision.is_uncertain(z) || memo.contains(z) {
                continue;
            }
            let k = key(z);
            if fresh.contains_key(&k) {
                continue;
            }
            let Some(receipted) = self.inner.evaluate_detached(z) else {
                break;
            };
            fresh.insert(k, receipted);
        }
        let evaluated = fresh.len() as u64;
        *self.table.lock() = fresh;
        evaluated
    }

    /// Ends the round: drops the entries nobody consumed, unbooked, and
    /// returns how many were consumed.
    pub fn end_round(&self) -> u64 {
        self.table.lock().clear();
        self.consumed.swap(0, Ordering::Relaxed)
    }

    /// Takes `z`'s table entry, if any, booking its receipt.
    fn take(
        table: &mut HashMap<Vec<u64>, Receipted>,
        inner: &B,
        z: &[f64],
    ) -> Option<Result<bool, EvalError>> {
        let (outcome, receipt) = table.remove(&key(z))?;
        inner.book(&receipt);
        Some(outcome)
    }

    fn try_take(&self, z: &[f64]) -> Option<Result<bool, EvalError>> {
        let mut table = self.table.lock();
        let outcome = Self::take(&mut table, &self.inner, z)?;
        self.consumed.fetch_add(1, Ordering::Relaxed);
        Some(outcome)
    }
}

impl<B: Testbench> Testbench for PrefetchBench<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.inner.fails(z)
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.inner.fails_batch(zs)
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.try_take(z).unwrap_or_else(|| self.inner.try_fails(z))
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        if attempt == 0 {
            if let Some(outcome) = self.try_take(z) {
                return outcome;
            }
        }
        self.inner.try_fails_attempt(z, attempt)
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        // Hits come from the table; the misses go down as one batch.
        let taken: Vec<Option<Result<bool, EvalError>>> = {
            let mut table = self.table.lock();
            if table.is_empty() {
                drop(table);
                return self.inner.try_fails_batch(zs);
            }
            zs.iter()
                .map(|z| Self::take(&mut table, &self.inner, z))
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
            self.inner.try_fails_batch(&misses)
        }
        .into_iter();
        let outcomes: Vec<_> = taken
            .into_iter()
            .filter_map(|hit| hit.or_else(|| fresh.next()))
            .collect();
        debug_assert_eq!(outcomes.len(), zs.len(), "one outcome per point");
        outcomes
    }

    fn solve_effort(&self) -> SolveEffort {
        self.inner.solve_effort()
    }
}

/// The stage-2 loop's handle on the prefetch layer. Implemented for a
/// [`PrefetchBench`] paired with the memo-cache above it (whose held
/// points never reach the simulator), so the loop stays generic over the
/// bench stack only through its oracle.
pub(crate) trait Lookahead {
    /// See [`PrefetchBench::prefetch`].
    fn prefetch(&self, points: &[Vec<f64>], decision: &Decision, done: &AtomicBool) -> u64;
    /// See [`PrefetchBench::end_round`].
    fn end_round(&self) -> u64;
}

impl<B: Testbench, M: Testbench> Lookahead for (&PrefetchBench<B>, &MemoBench<M>) {
    fn prefetch(&self, points: &[Vec<f64>], decision: &Decision, done: &AtomicBool) -> u64 {
        self.0.prefetch(points, decision, self.1, done)
    }

    fn end_round(&self) -> u64 {
        self.0.end_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::SimCounter;
    use crate::cache::MemoCacheConfig;
    use crate::retry::{RetryBench, RetryPolicy};
    use ecripse_svm::classifier::{SvmClassifier, SvmConfig};
    use proptest::prelude::*;

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

    /// Everything the determinism contract covers, after each round.
    type Observed = (Vec<Vec<bool>>, SolveEffort, u64, u64, u64, u64, u64);

    fn run(rounds: &[Round], memo_on: bool, prefetching: bool) -> (Observed, u64) {
        let raw = Receipts::default();
        let prefetch = PrefetchBench::new(&raw);
        let counter = SimCounter::new(&prefetch);
        let retrying = RetryBench::new(&counter, RetryPolicy::default());
        let memo = MemoBench::new(
            &retrying,
            MemoCacheConfig {
                enabled: memo_on,
                ..MemoCacheConfig::default()
            },
        );
        let decision = everything_uncertain();
        let mut verdicts = Vec::new();
        let mut consumed = 0;
        for (batch, ahead, done, one_at_a_time) in rounds {
            if prefetching {
                let done = AtomicBool::new(*done);
                prefetch.prefetch(&grid(ahead), &decision, &memo, &done);
            }
            let zs = grid(batch);
            verdicts.push(if *one_at_a_time {
                zs.iter().map(|z| memo.fails(z)).collect()
            } else {
                memo.fails_batch(&zs)
            });
            consumed += prefetch.end_round();
            assert!(
                prefetch.table.lock().is_empty(),
                "a round leaves no entry behind"
            );
        }
        let observed = (
            verdicts,
            raw.solve_effort(),
            counter.simulations(),
            retrying.retries(),
            retrying.quarantined(),
            memo.hits(),
            memo.misses(),
        );
        (observed, consumed)
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
        let prefetch = PrefetchBench::new(&raw);
        let counter = SimCounter::new(&prefetch);
        let retrying = RetryBench::new(&counter, RetryPolicy::default());
        let memo = MemoBench::new(&retrying, MemoCacheConfig::default());
        let ahead = grid(&[(1, 1), (2, 3), (2, 3), (5, 5)]);
        let done = AtomicBool::new(false);
        let evaluated = prefetch.prefetch(&ahead, &everything_uncertain(), &memo, &done);
        assert_eq!(evaluated, 3, "the exact duplicate is evaluated once");
        assert_eq!(
            raw.solve_effort(),
            SolveEffort::default(),
            "nothing booked yet"
        );
        let _ = memo.fails_batch(&grid(&[(2, 3), (1, 1), (4, 1)]));
        assert_eq!(prefetch.end_round(), 2);
        assert_eq!(counter.simulations(), 3);
        // A point the memo already holds is not worth doing ahead, and a
        // raised `done` stops the walk before the first evaluation.
        let evaluated = prefetch.prefetch(
            &grid(&[(1, 1), (3, 3)]),
            &everything_uncertain(),
            &memo,
            &done,
        );
        assert_eq!(evaluated, 1);
        done.store(true, Ordering::Release);
        let evaluated = prefetch.prefetch(&grid(&[(3, 3)]), &everything_uncertain(), &memo, &done);
        assert_eq!(evaluated, 0);
        assert_eq!(prefetch.end_round(), 0);
    }
}
