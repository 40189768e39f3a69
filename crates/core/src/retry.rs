//! Per-sample retry ladder and quarantine accounting.
//!
//! The circuit-level testbench can legitimately fail to evaluate a
//! sample: the DC solve may not converge at a pathological corner, or a
//! butterfly curve may come back non-finite. Before this layer existed
//! such samples either panicked the whole run or were silently
//! mislabelled. [`RetryBench`] wraps any [`Testbench`] and, for each
//! failing sample, climbs the bench's retry ladder
//! ([`Testbench::try_fails_attempt`] — for the SRAM bench that means
//! progressively finer butterfly grids). Samples that
//! exhaust the ladder are *quarantined*: they receive the conservative
//! verdict `false` (not a failure — so they can never inflate the
//! failure-probability estimate) and are counted, so every run report
//! states exactly how many verdicts are untrustworthy.
//!
//! Both counters are atomics with `Relaxed` ordering: increments commute,
//! so the totals are independent of how a parallel batch was split
//! across threads — the same argument that keeps [`SimCounter`]
//! deterministic.
//!
//! [`SimCounter`]: crate::bench::SimCounter

use crate::bench::{EvalError, Testbench};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// How persistently a failed evaluation is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total evaluation attempts per sample (first try included). `1`
    /// disables retries; `0` is treated as `1`.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, straight to
    /// quarantine on failure).
    pub fn none() -> Self {
        Self { max_attempts: 1 }
    }

    fn attempts(&self) -> usize {
        self.max_attempts.max(1)
    }
}

/// Wraps a bench with the retry ladder and a quarantine bucket.
///
/// The wrapper exposes the plain [`Testbench`] interface, so it slots
/// between the simulation counter and the memo-cache without the rest
/// of the pipeline knowing evaluation can fail:
///
/// * [`Testbench::try_fails`] climbs the ladder and returns the last
///   error once the attempts are exhausted;
/// * [`Testbench::fails`] does the same but converts exhaustion into the
///   conservative verdict `false`, incrementing the quarantine counter.
#[derive(Debug)]
pub struct RetryBench<B> {
    inner: B,
    policy: RetryPolicy,
    retries: AtomicU64,
    quarantined: AtomicU64,
}

impl<B: Testbench> RetryBench<B> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: B, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Extra attempts spent beyond the first, summed over all samples.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Samples that exhausted the ladder and received the conservative
    /// `false` verdict.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// The wrapped bench.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn climb(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.climb_from(z, self.inner.try_fails_attempt(z, 0))
    }

    /// Climbs the ladder from attempt 1, given the outcome of attempt 0.
    /// Every extra attempt counts as one retry.
    fn climb_from(&self, z: &[f64], first: Result<bool, EvalError>) -> Result<bool, EvalError> {
        let mut outcome = first;
        for attempt in 1..self.policy.attempts() {
            match outcome {
                // Retrying a malformed input is futile: the ladder only
                // helps with numerically marginal evaluations.
                Ok(_) | Err(EvalError::DimensionMismatch { .. }) => return outcome,
                Err(_) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    outcome = self.inner.try_fails_attempt(z, attempt);
                }
            }
        }
        outcome
    }

    /// The verdict of a climbed sample; an exhausted ladder is
    /// quarantined with the conservative verdict `false`.
    fn verdict_or_quarantine(&self, outcome: Result<bool, EvalError>) -> bool {
        outcome.unwrap_or_else(|_| {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            false
        })
    }
}

impl<B: Testbench> Testbench for RetryBench<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.verdict_or_quarantine(self.climb(z))
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.try_fails_batch(zs)
            .into_iter()
            .map(|outcome| self.verdict_or_quarantine(outcome))
            .collect()
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.climb(z)
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        // Attempt 0 goes to the inner bench as one batch, so a caching
        // layer below sees the whole batch and routes it
        // deterministically. Only the failures climb, each independently;
        // the counters commute, so the parallel climb keeps totals and
        // verdicts (order-preserving collect) independent of the
        // schedule.
        let mut outcomes = self.inner.try_fails_batch(zs);
        let failed: Vec<usize> = (0..outcomes.len())
            .filter(|&i| outcomes[i].is_err())
            .collect();
        let climbed: Vec<Result<bool, EvalError>> = failed
            .par_iter()
            .map(|&i| self.climb_from(&zs[i], outcomes[i].clone()))
            .collect();
        for (i, outcome) in failed.into_iter().zip(climbed) {
            outcomes[i] = outcome;
        }
        outcomes
    }

    fn solve_effort(&self) -> crate::bench::SolveEffort {
        self.inner.solve_effort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        let r = RetryBench::new(Flaky::new(1), RetryPolicy::default());
        assert!(r.fails(&[2.0]));
        assert!(!r.fails(&[0.5]));
        assert_eq!(r.retries(), 0);
        assert_eq!(r.quarantined(), 0);
        assert_eq!(r.inner().calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn transient_failures_heal_and_count_retries() {
        let r = RetryBench::new(Flaky::new(2), RetryPolicy { max_attempts: 3 });
        assert_eq!(r.try_fails(&[-0.5]), Ok(false));
        assert_eq!(r.retries(), 2, "healed on attempt 2 → two extra rungs");
        assert_eq!(r.quarantined(), 0);
    }

    #[test]
    fn permanent_failures_are_quarantined_conservatively() {
        let r = RetryBench::new(Flaky::new(usize::MAX), RetryPolicy { max_attempts: 3 });
        assert!(matches!(
            r.try_fails(&[-1.0]),
            Err(EvalError::NonFinite { .. })
        ));
        assert_eq!(r.quarantined(), 0, "try_fails never quarantines");
        assert!(!r.fails(&[-1.0]), "quarantined verdict is `not a failure`");
        assert_eq!(r.quarantined(), 1);
        assert_eq!(r.retries(), 4, "two exhausted ladders x two extra rungs");
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
        let r = RetryBench::new(WrongDim, RetryPolicy { max_attempts: 5 });
        assert!(matches!(
            r.try_fails(&[0.0; 5]),
            Err(EvalError::DimensionMismatch { .. })
        ));
        assert_eq!(r.retries(), 0, "caller bugs do not burn ladder attempts");
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
                let r = RetryBench::new(Flaky::new(1), RetryPolicy { max_attempts: 3 });
                let verdicts = r.fails_batch(&zs);
                (verdicts, r.retries(), r.quarantined())
            })
        };
        let (v1, r1, q1) = run(1);
        let (v4, r4, q4) = run(4);
        assert_eq!(v1, v4);
        assert_eq!(r1, r4);
        assert_eq!(q1, q4);
        assert_eq!(q1, 0);
        assert!(r1 > 0, "every third sample needed one retry");
    }

    /// Records every batch its `try_fails_batch` receives.
    #[derive(Default)]
    struct BatchRecorder {
        batches: parking_lot::Mutex<Vec<Vec<Vec<f64>>>>,
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
    fn attempt_zero_reaches_the_inner_bench_as_the_whole_batch() {
        // A caching layer below the ladder routes a batch by what its
        // store holds when the batch arrives, so attempt 0 must reach it
        // as the caller's whole slice on any pool; only failures climb.
        let first: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.7).sin() * 3.0, (i as f64 * 1.3).cos() * 3.0])
            .collect();
        let second: Vec<Vec<f64>> = first.iter().map(|z| vec![z[0] + 0.05, z[1]]).collect();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            let r = RetryBench::new(BatchRecorder::default(), RetryPolicy::default());
            let verdicts: Vec<Vec<bool>> = [&first, &second]
                .iter()
                .map(|zs| pool.install(|| r.fails_batch(zs)))
                .collect();
            let batches = r.inner().batches.lock().clone();
            (verdicts, batches, r.retries(), r.quarantined())
        };
        let serial = run(1);
        assert_eq!(serial.1, vec![first.clone(), second.clone()]);
        assert!(serial.2 > 0, "some samples must climb the ladder");
        assert_eq!(serial.3, 0);
        assert_eq!(run(4), serial);
    }

    #[test]
    fn zero_attempts_policy_still_evaluates_once() {
        let r = RetryBench::new(Flaky::new(0), RetryPolicy { max_attempts: 0 });
        assert_eq!(r.try_fails(&[2.0]), Ok(true));
    }
}
