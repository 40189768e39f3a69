//! The benchmark's probe on the `spice` layer.
//!
//! [`Timed<B>`] wraps a testbench and records one [`Call`] per call that
//! reaches the circuit simulator. It is installed where the program
//! builds its benches: passed straight to `Ecripse` for library jobs, and
//! returned by the `Server::bind_with` factory for served and shard jobs.
//! The server wraps the factory's bench in its verdict store, so the
//! probe sits below the store and sees only real simulations.
//!
//! The server calls its factory once per job, so every job gets its own
//! [`CallLog`]; sweep points share their job's log through `at_alpha`.
//! A log records the node and the moment it was created, which is how
//! [`crate::layers`] matches it to the job span the program reports.

use ecripse_core::bench::{EvalError, SolveEffort, Testbench};
use ecripse_core::sweep::SweepBench;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// Unix seconds now: the clock the program's own trace spans use.
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// One call into the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Unix seconds at entry.
    pub start: f64,
    /// Unix seconds at return.
    pub end: f64,
    /// Samples the call evaluated.
    pub samples: u64,
    /// Samples the simulator could not evaluate.
    pub errors: u64,
}

/// Every call one bench (and its clones) made.
#[derive(Debug)]
pub struct CallLog {
    /// The node the bench was built for (`library`, `serve`, `w1`, ...).
    pub node: String,
    /// Unix seconds when the program built the bench.
    pub created: f64,
    calls: Mutex<Vec<Call>>,
}

impl CallLog {
    /// A log with fixed contents.
    #[cfg(test)]
    pub fn fixed(node: &str, created: f64, calls: Vec<Call>) -> Self {
        Self {
            node: node.to_string(),
            created,
            calls: Mutex::new(calls),
        }
    }

    /// A copy of the calls recorded so far.
    pub fn calls(&self) -> Vec<Call> {
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The set of logs of one traced pass, shared by every bench it builds.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    logs: Arc<Mutex<Vec<Arc<CallLog>>>>,
}

impl Probe {
    /// Wraps `inner` with a fresh log for `node`.
    pub fn wrap<B>(&self, inner: B, node: &str) -> Timed<B> {
        let log = Arc::new(CallLog {
            node: node.to_string(),
            created: unix_now(),
            calls: Mutex::new(Vec::new()),
        });
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&log));
        Timed { inner, log }
    }

    /// Every log created so far, in creation order.
    pub fn logs(&self) -> Vec<Arc<CallLog>> {
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A bench that records a [`Call`] for every evaluation it forwards.
#[derive(Debug, Clone)]
pub struct Timed<B> {
    inner: B,
    log: Arc<CallLog>,
}

impl<B> Timed<B> {
    fn timed<T>(&self, samples: usize, errors: impl Fn(&T) -> usize, f: impl FnOnce() -> T) -> T {
        let start = unix_now();
        let out = f();
        let call = Call {
            start,
            end: unix_now(),
            samples: samples as u64,
            errors: errors(&out) as u64,
        };
        self.log
            .calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(call);
        out
    }
}

fn no_errors<T>(_: &T) -> usize {
    0
}

fn single_error(out: &Result<bool, EvalError>) -> usize {
    usize::from(out.is_err())
}

fn batch_errors(out: &[Result<bool, EvalError>]) -> usize {
    out.iter().filter(|v| v.is_err()).count()
}

impl<B: Testbench> Testbench for Timed<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.timed(1, no_errors, || self.inner.fails(z))
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.timed(zs.len(), no_errors, || self.inner.fails_batch(zs))
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.timed(1, single_error, || self.inner.try_fails(z))
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        self.timed(1, single_error, || self.inner.try_fails_attempt(z, attempt))
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        self.timed(
            zs.len(),
            |out: &Vec<_>| batch_errors(out),
            || self.inner.try_fails_batch(zs),
        )
    }

    fn solve_effort(&self) -> SolveEffort {
        self.inner.solve_effort()
    }
}

impl<B: SweepBench> SweepBench for Timed<B> {
    fn sigmas(&self) -> [f64; 6] {
        self.inner.sigmas()
    }

    fn at_alpha(&self, alpha: f64) -> Self {
        Self {
            inner: self.inner.at_alpha(alpha),
            log: Arc::clone(&self.log),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_core::bench::LinearBench;

    #[test]
    fn records_one_call_per_forwarded_evaluation_and_keeps_verdicts() {
        let probe = Probe::default();
        let raw = LinearBench::new(vec![1.0, 0.0], 1.0);
        let timed = probe.wrap(raw.clone(), "library");
        let zs = vec![vec![2.0, 0.0], vec![0.0, 0.0], vec![1.5, 3.0]];
        assert_eq!(timed.fails_batch(&zs), raw.fails_batch(&zs));
        assert_eq!(timed.try_fails(&[2.0, 0.0]), Ok(true));
        let logs = probe.logs();
        assert_eq!(logs.len(), 1);
        let calls = logs[0].calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].samples, 3);
        assert_eq!(calls[1].samples, 1);
        assert!(calls.iter().all(|c| c.end >= c.start && c.errors == 0));
    }
}
