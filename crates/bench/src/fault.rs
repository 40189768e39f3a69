//! Deterministic fault injection for exercising the fault-tolerance
//! stack under test.
//!
//! [`FaultyBench`] wraps any [`Testbench`] and makes its *fallible*
//! evaluation path fail on a deterministic, sample-addressed subset of
//! inputs: whether a sample is faulted depends only on the FNV-1a hash
//! of its coordinate bits and the configured salt — never on call order,
//! thread count or wall clock. That makes fault-injection tests exactly
//! reproducible: the same samples fault on every run, on any machine.
//!
//! Injected faults are visible only through `try_fails*`; the
//! infallible [`Testbench::fails`] path keeps returning the wrapped
//! bench's ground truth. A retry ladder above the wrapper therefore
//! heals transient faults back to exactly the fault-free verdicts, which
//! is the property the integration suite pins down.

use ecripse_core::bench::Testbench;
use ecripse_core::sweep::SweepBench;
use ecripse_core::EvalError;
use ecripse_spice::solver::SolveError;
use ecripse_stats::{fnv1a, FNV_OFFSET};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What and how often [`FaultyBench`] injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Fraction of samples (by hash) whose evaluation fails with a
    /// solver-style [`EvalError::Solve`].
    pub solver_failure_rate: f64,
    /// Fraction of samples whose evaluation surfaces a non-finite
    /// result ([`EvalError::NonFinite`]). Stacked after
    /// `solver_failure_rate` in the hash interval, so the two fault
    /// populations never overlap.
    pub nan_rate: f64,
    /// Faulted samples fail while the retry attempt index is below this
    /// bound. `1` models transient glitches a single retry heals;
    /// [`usize::MAX`] models permanently unsolvable samples.
    pub transient_attempts: usize,
    /// Artificial latency added to each injected fault, for exercising
    /// timeout/throughput behaviour. Zero (the default) keeps tests
    /// fast.
    pub latency_us: u64,
    /// Salt mixed into the sample hash, so independent tests fault
    /// disjoint sample subsets.
    pub salt: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            solver_failure_rate: 0.0,
            nan_rate: 0.0,
            transient_attempts: 1,
            latency_us: 0,
            salt: 0,
        }
    }
}

impl FaultConfig {
    /// Every evaluation fails, on every attempt: a permanently
    /// unsolvable bench (what a poisoned sweep point uses).
    pub fn total_failure() -> Self {
        Self {
            solver_failure_rate: 1.0,
            transient_attempts: usize::MAX,
            ..Self::default()
        }
    }
}

/// A deterministic fault-injecting wrapper around a [`Testbench`].
#[derive(Debug, Clone)]
pub struct FaultyBench<B> {
    inner: B,
    config: FaultConfig,
    /// Duty ratios (bit-exact) whose [`SweepBench::at_alpha`] bench is
    /// replaced by a totally failing one.
    poisoned_alphas: Vec<f64>,
    /// Shared across clones (including per-α sweep clones), so a sweep
    /// reports one total injection count.
    injected: Arc<AtomicU64>,
}

impl<B> FaultyBench<B> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: B, config: FaultConfig) -> Self {
        Self {
            inner,
            config,
            poisoned_alphas: Vec::new(),
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Marks a duty ratio as unsolvable: the bench handed out by
    /// [`SweepBench::at_alpha`] for exactly this `α` fails every
    /// evaluation permanently. Used to test per-point failure isolation
    /// (`--keep-going`).
    #[must_use]
    pub fn poison_alpha(mut self, alpha: f64) -> Self {
        self.poisoned_alphas.push(alpha);
        self
    }

    /// Number of faults injected so far (shared across clones).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The wrapped bench.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The fault destiny of a sample: `None` when it evaluates cleanly,
    /// otherwise the error it is assigned. Pure function of the sample
    /// bits, the salt and the rates.
    fn fault_for(&self, z: &[f64]) -> Option<EvalError> {
        let total = self.config.solver_failure_rate + self.config.nan_rate;
        if total <= 0.0 {
            return None;
        }
        let mut hash = FNV_OFFSET ^ self.config.salt;
        for v in z {
            hash = fnv1a(hash, &v.to_bits().to_le_bytes());
        }
        // Map the top 53 bits onto [0, 1).
        let u = (hash >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.config.solver_failure_rate {
            Some(EvalError::Solve(SolveError::NoConvergence {
                best_residual: 1.0,
            }))
        } else if u < total {
            Some(EvalError::NonFinite {
                context: "injected fault",
            })
        } else {
            None
        }
    }

    fn inject(&self, fault: EvalError) -> EvalError {
        self.injected.fetch_add(1, Ordering::Relaxed);
        if self.config.latency_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.config.latency_us));
        }
        fault
    }
}

impl<B: Testbench> Testbench for FaultyBench<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// The infallible path stays fault-free ground truth, so runs over
    /// the wrapper can be compared verdict-for-verdict against the
    /// unwrapped bench.
    fn fails(&self, z: &[f64]) -> bool {
        self.inner.fails(z)
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.try_fails_attempt(z, 0)
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        if attempt < self.config.transient_attempts {
            if let Some(fault) = self.fault_for(z) {
                return Err(self.inject(fault));
            }
        }
        self.inner.try_fails_attempt(z, attempt)
    }
}

impl<B: SweepBench> SweepBench for FaultyBench<B> {
    fn sigmas(&self) -> [f64; 6] {
        self.inner.sigmas()
    }

    fn at_alpha(&self, alpha: f64) -> Self {
        let config = if self.poisoned_alphas.contains(&alpha) {
            FaultConfig {
                salt: self.config.salt,
                ..FaultConfig::total_failure()
            }
        } else {
            self.config
        };
        Self {
            inner: self.inner.at_alpha(alpha),
            config,
            poisoned_alphas: self.poisoned_alphas.clone(),
            injected: Arc::clone(&self.injected),
        }
    }

    fn with_private_ledger<T>(&self, point: impl FnOnce(&Self) -> T) -> T {
        self.inner.with_private_ledger(|inner| {
            point(&Self {
                inner: inner.clone(),
                config: self.config,
                poisoned_alphas: self.poisoned_alphas.clone(),
                injected: Arc::clone(&self.injected),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_core::bench::LinearBench;

    fn bench() -> LinearBench {
        LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.0)
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let faulty = FaultyBench::new(bench(), FaultConfig::default());
        for i in 0..50 {
            let z = vec![i as f64 / 10.0, 0.0, 0.0, 0.0, 0.0, 0.0];
            assert_eq!(faulty.try_fails(&z), Ok(faulty.fails(&z)));
        }
        assert_eq!(faulty.injected(), 0);
    }

    #[test]
    fn fault_selection_is_deterministic_and_rate_accurate() {
        let config = FaultConfig {
            solver_failure_rate: 0.2,
            nan_rate: 0.1,
            ..FaultConfig::default()
        };
        let faulty = FaultyBench::new(bench(), config);
        let mut faulted = 0;
        let n = 2000;
        for i in 0..n {
            let z = vec![i as f64 / 100.0, 0.5, -0.5, 0.0, 1.0, -1.0];
            let first = faulty.try_fails(&z);
            let second = faulty.try_fails(&z);
            assert_eq!(first, second, "fault destiny must be per-sample stable");
            if first.is_err() {
                faulted += 1;
            }
        }
        let rate = f64::from(faulted) / f64::from(n);
        assert!(
            (rate - 0.3).abs() < 0.05,
            "expected ~30% faulted, got {rate}"
        );
    }

    #[test]
    fn transient_faults_clear_after_the_configured_attempt() {
        let config = FaultConfig {
            solver_failure_rate: 1.0,
            transient_attempts: 2,
            ..FaultConfig::default()
        };
        let faulty = FaultyBench::new(bench(), config);
        let z = vec![3.5, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!(faulty.try_fails_attempt(&z, 0).is_err());
        assert!(faulty.try_fails_attempt(&z, 1).is_err());
        assert_eq!(faulty.try_fails_attempt(&z, 2), Ok(true));
        assert_eq!(faulty.injected(), 2);
    }

    #[test]
    fn salts_select_disjoint_fault_sets() {
        let mk = |salt| {
            FaultyBench::new(
                bench(),
                FaultConfig {
                    solver_failure_rate: 0.3,
                    salt,
                    ..FaultConfig::default()
                },
            )
        };
        let (a, b) = (mk(1), mk(2));
        let differs = (0..200).any(|i| {
            let z = vec![i as f64 / 10.0, 0.0, 0.0, 0.0, 0.0, 0.0];
            a.try_fails(&z).is_err() != b.try_fails(&z).is_err()
        });
        assert!(differs, "different salts must fault different samples");
    }

    #[test]
    fn poisoned_alpha_bench_always_fails() {
        let faulty = FaultyBench::new(bench(), FaultConfig::default()).poison_alpha(0.5);
        let healthy = faulty.at_alpha(0.2);
        let poisoned = faulty.at_alpha(0.5);
        let z = vec![0.0; 6];
        assert!(healthy.try_fails(&z).is_ok());
        for attempt in 0..10 {
            assert!(poisoned.try_fails_attempt(&z, attempt).is_err());
        }
        // Ground truth stays intact even on the poisoned clone.
        assert!(!poisoned.fails(&z));
    }

    #[test]
    fn clones_share_the_injection_counter() {
        let config = FaultConfig {
            solver_failure_rate: 1.0,
            ..FaultConfig::default()
        };
        let faulty = FaultyBench::new(bench(), config);
        let clone = faulty.at_alpha(0.3);
        let z = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let _ = faulty.try_fails(&z);
        let _ = clone.try_fails(&z);
        assert_eq!(faulty.injected(), 2);
    }
}
