//! The retry policy for unevaluable simulations.
//!
//! The circuit-level testbench can legitimately fail to evaluate a
//! sample: its bracketed transfer-curve solve always returns, but a
//! butterfly curve may come back non-finite or too degenerate for margin
//! extraction. The per-run
//! [`Simulator`](crate::simulate::Simulator) climbs the bench's retry
//! ladder ([`Testbench::try_fails_attempt`] — for the SRAM bench that
//! means progressively finer butterfly grids) for each failing sample,
//! up to [`RetryPolicy::max_attempts`]. Samples that exhaust the ladder
//! are *quarantined*: they receive the conservative verdict `false` (not
//! a failure — so they can never inflate the failure-probability
//! estimate) and are counted, so every run report states exactly how
//! many verdicts are untrustworthy.
//!
//! [`Testbench::try_fails_attempt`]: crate::bench::Testbench::try_fails_attempt

use serde::{Deserialize, Serialize};

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
    pub(crate) fn attempts(&self) -> usize {
        self.max_attempts.max(1)
    }
}
