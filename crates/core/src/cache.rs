//! One verdict memo in front of the transistor-level simulator.
//!
//! The estimators repeatedly evaluate the indicator at *exactly* the
//! same total-shift vectors: RTN shifts are drawn from a finite set of
//! quantised trap amplitudes, sweep drivers revisit bias points with the
//! shared initial particles, and a resident service sees the same jobs
//! resubmitted. [`MemoBench`] intercepts those repeats before they reach
//! the circuit solver, answering them from a [`VerdictStore`].
//!
//! The store serves two owners:
//!
//! - **per run**: the [`Simulator`](crate::simulate::Simulator) of an
//!   estimate keeps a private store (tag 0) in front of its retry
//!   ladder, so a quarantined verdict is paid for once per unique
//!   sample. Its hits and misses are the run's
//!   `OracleStats::cache_hits`/`cache_misses`;
//! - **per process** ([`MemoBench::shared`]): one store shared by every
//!   job of a resident service, wrapping the *raw* bench below the
//!   simulator. The simulator then sees exactly the query stream of a
//!   direct run, so reports stay bit-identical and only wall-clock time
//!   changes when the store is warm.
//!
//! Keys are `(tag, mode, quantised query)`. The query is quantised onto
//! a fixed grid (`quantum` whitened sigmas per axis), so floating-point
//! noise below the grid resolution maps to the same entry. The tag
//! separates cells and bias points within a shared store (a private
//! store uses tag 0), and [`SweepBench::at_alpha`] folds the duty ratio
//! into it, so a bench that specialises per point is never served
//! another point's verdict. The mode separates the evaluation entry
//! points: [`Testbench::fails`], [`Testbench::try_fails`] and each rung
//! of [`Testbench::try_fails_attempt`]. On the SRAM benches `fails`,
//! `try_fails` and attempt 0 are one evaluation; the modes stay because
//! the persisted snapshot key carries them. Errors are never stored — a
//! transient failure must stay retryable.
//!
//! The map is split into shards, each behind its own
//! [`parking_lot::RwLock`], so parallel workers rarely contend.
//!
//! Determinism contract: hit/miss accounting is computed *serially* from
//! the query order before any parallel evaluation happens, and repeated
//! keys inside one batch are deduplicated so the underlying bench sees
//! each unique point exactly once. Counters and verdicts are therefore
//! identical at every thread count.

use crate::bench::{EvalError, SolveEffort, Testbench};
use crate::sweep::SweepBench;
use ecripse_stats::{fnv1a, FNV_OFFSET};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Mode of [`Testbench::fails`] and [`Testbench::fails_batch`].
pub(crate) const MODE_PLAIN: u16 = 0;
/// Mode of [`Testbench::try_fails`].
const MODE_TRY: u16 = 1;
/// Mode of attempt 0 of [`Testbench::try_fails_attempt`]; attempt `k`
/// maps to `MODE_ATTEMPT_BASE + k` (saturated), keeping escalated-effort
/// verdicts apart from first-try ones.
const MODE_ATTEMPT_BASE: u16 = 2;

/// A store key: `(tag, mode, quantised query)`.
type Key = (u64, u16, Vec<i64>);

/// Memo-cache settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoCacheConfig {
    /// Master switch; when off, [`MemoBench`] is a transparent
    /// pass-through and counts nothing.
    pub enabled: bool,
    /// Quantisation step of the cache key grid, in whitened-sigma units.
    /// Queries closer than half a quantum per axis share an entry; keep
    /// this far below the simulator's physically meaningful resolution.
    pub quantum: f64,
    /// Number of independently locked shards.
    pub shards: usize,
}

impl Default for MemoCacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            quantum: 1e-9,
            shards: 16,
        }
    }
}

/// FNV-1a digest of a sequence of words. Services derive bench tags from
/// the operating point with this, and [`SweepBench::at_alpha`] folds the
/// duty ratio into a [`MemoBench`]'s tag with it.
pub fn tag_for(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a(h, &p.to_le_bytes()))
}

/// A sharded map of verdicts keyed by `(tag, mode, quantised query)`,
/// with hit/miss counters. See the module docs.
#[derive(Debug)]
pub struct VerdictStore {
    quantum: f64,
    shards: Vec<RwLock<HashMap<Key, bool>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerdictStore {
    /// An empty store on `config`'s grid quantum and shard count; the
    /// `enabled` flag belongs to the [`MemoBench`] wrapping it.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not positive or `shards` is zero.
    pub fn new(config: MemoCacheConfig) -> Self {
        assert!(
            config.quantum > 0.0 && config.quantum.is_finite(),
            "cache quantum must be positive and finite"
        );
        assert!(config.shards > 0, "need at least one cache shard");
        Self {
            quantum: config.quantum,
            shards: (0..config.shards)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The key grid's quantisation step.
    pub fn quantum(&self) -> f64 {
        self.quantum
    }

    /// Queries answered from the store (including within-batch repeats
    /// of a point evaluated earlier in the same batch).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that reached the underlying bench.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction so far, `None` before any traffic.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.hits();
        let total = hits + self.misses();
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Stored verdicts across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every stored verdict as `(tag, mode, quantised key, verdict)`,
    /// sorted by key, so equal contents list identically.
    pub fn entries(&self) -> Vec<(u64, u16, Vec<i64>, bool)> {
        let mut entries: Vec<_> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .iter()
                    .map(|((tag, mode, key), verdict)| (*tag, *mode, key.clone(), *verdict))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Stores a verdict under an already quantised key, counting
    /// nothing (snapshot restore).
    pub fn insert(&self, tag: u64, mode: u16, key: Vec<i64>, verdict: bool) {
        self.put((tag, mode, key), verdict);
    }

    fn key(&self, tag: u64, mode: u16, z: &[f64]) -> Key {
        let quantised = z.iter().map(|v| (v / self.quantum).round() as i64);
        (tag, mode, quantised.collect())
    }

    fn shard_of(&self, key: &Key) -> usize {
        let words = [key.0, u64::from(key.1)];
        let words = words.into_iter().chain(key.2.iter().map(|v| *v as u64));
        let h = words.fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));
        (h % self.shards.len() as u64) as usize
    }

    fn get(&self, key: &Key) -> Option<bool> {
        self.shards[self.shard_of(key)].read().get(key).copied()
    }

    fn put(&self, key: Key, verdict: bool) {
        self.shards[self.shard_of(&key)]
            .write()
            .insert(key, verdict);
    }

    fn count(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Whether a query at `z` under `(tag, mode)` would be answered from
    /// the store. Counts nothing: hits and misses stay what the served
    /// queries made them.
    pub(crate) fn holds(&self, tag: u64, mode: u16, z: &[f64]) -> bool {
        self.get(&self.key(tag, mode, z)).is_some()
    }

    /// A batch under `(tag, mode)`: a serial routing pass resolves stored
    /// verdicts and deduplicates the rest, so the (possibly parallel)
    /// `eval` sees each unique point once and the counters are
    /// schedule-independent. A batch whose every point hits never calls
    /// `eval`.
    pub(crate) fn memo_batch<T: Outcome>(
        &self,
        tag: u64,
        mode: u16,
        zs: &[Vec<f64>],
        eval: impl FnOnce(&[Vec<f64>]) -> Vec<T>,
    ) -> Vec<T> {
        if zs.is_empty() {
            return eval(zs);
        }
        let keys: Vec<Key> = zs.iter().map(|z| self.key(tag, mode, z)).collect();
        let mut first_seen: HashMap<&Key, usize> = HashMap::new();
        let mut eval_points: Vec<Vec<f64>> = Vec::new();
        let mut routes: Vec<Result<bool, usize>> = Vec::with_capacity(zs.len());
        for (z, key) in zs.iter().zip(&keys) {
            if let Some(verdict) = self.get(key) {
                routes.push(Ok(verdict));
            } else if let Some(&slot) = first_seen.get(key) {
                routes.push(Err(slot));
            } else {
                let slot = eval_points.len();
                first_seen.insert(key, slot);
                eval_points.push(z.clone());
                routes.push(Err(slot));
            }
        }
        let misses = eval_points.len() as u64;
        self.count(zs.len() as u64 - misses, misses);
        let fresh = if eval_points.is_empty() {
            Vec::new()
        } else {
            eval(&eval_points)
        };
        for (key, slot) in first_seen {
            if let Some(verdict) = fresh[slot].verdict() {
                self.put(key.clone(), verdict);
            }
        }
        routes
            .into_iter()
            .map(|route| match route {
                Ok(verdict) => T::from_verdict(verdict),
                Err(slot) => fresh[slot].clone(),
            })
            .collect()
    }
}

/// What an evaluation path returns: a plain verdict, or a fallible one
/// whose errors are passed on but never stored.
pub(crate) trait Outcome: Clone {
    fn verdict(&self) -> Option<bool>;
    fn from_verdict(verdict: bool) -> Self;
}

impl Outcome for bool {
    fn verdict(&self) -> Option<bool> {
        Some(*self)
    }

    fn from_verdict(verdict: bool) -> Self {
        verdict
    }
}

impl Outcome for Result<bool, EvalError> {
    fn verdict(&self) -> Option<bool> {
        self.as_ref().ok().copied()
    }

    fn from_verdict(verdict: bool) -> Self {
        Ok(verdict)
    }
}

/// A bench wrapper answering repeated queries from a shared
/// [`VerdictStore`]. It goes below the per-run
/// [`Simulator`](crate::simulate::Simulator), on the raw bench; see the
/// module docs.
///
/// It never evaluates detached (the [`Testbench::evaluate_detached`]
/// default): a verdict prefetched past the store would bypass it, never
/// reaching the store nor being answered from it.
#[derive(Debug, Clone)]
pub struct MemoBench<B> {
    inner: B,
    tag: u64,
    store: Arc<VerdictStore>,
    enabled: bool,
}

impl<B> MemoBench<B> {
    /// Wraps `inner`, keying its verdicts under `tag` in a store that
    /// other wrappers may share. With `enabled` off the wrapper is a
    /// transparent pass-through and counts nothing.
    pub fn shared(inner: B, tag: u64, store: Arc<VerdictStore>, enabled: bool) -> Self {
        Self {
            inner,
            tag,
            store,
            enabled,
        }
    }

    /// The wrapped bench.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The store behind this wrapper.
    pub fn store(&self) -> &VerdictStore {
        &self.store
    }

    /// One query: answered from the store, or evaluated and stored.
    fn memo_one<T: Outcome>(&self, mode: u16, z: &[f64], eval: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return eval();
        }
        let key = self.store.key(self.tag, mode, z);
        if let Some(verdict) = self.store.get(&key) {
            self.store.count(1, 0);
            return T::from_verdict(verdict);
        }
        self.store.count(0, 1);
        let outcome = eval();
        if let Some(verdict) = outcome.verdict() {
            self.store.put(key, verdict);
        }
        outcome
    }

    /// A batch through the store (see [`VerdictStore::memo_batch`]).
    fn memo_batch<T: Outcome>(
        &self,
        mode: u16,
        zs: &[Vec<f64>],
        eval: impl FnOnce(&[Vec<f64>]) -> Vec<T>,
    ) -> Vec<T> {
        if !self.enabled {
            return eval(zs);
        }
        self.store.memo_batch(self.tag, mode, zs, eval)
    }
}

fn attempt_mode(attempt: usize) -> u16 {
    MODE_ATTEMPT_BASE.saturating_add(attempt.min(usize::from(u16::MAX - MODE_ATTEMPT_BASE)) as u16)
}

impl<B: Testbench> Testbench for MemoBench<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.memo_one(MODE_PLAIN, z, || self.inner.fails(z))
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.memo_batch(MODE_PLAIN, zs, |points| self.inner.fails_batch(points))
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.memo_one(MODE_TRY, z, || self.inner.try_fails(z))
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        self.memo_one(attempt_mode(attempt), z, || {
            self.inner.try_fails_attempt(z, attempt)
        })
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        // A batch is the retry ladder's attempt 0 (see
        // `Testbench::try_fails_batch`), so its verdicts share the
        // attempt-0 namespace with `try_fails_attempt(z, 0)`.
        self.memo_batch(attempt_mode(0), zs, |points| {
            self.inner.try_fails_batch(points)
        })
    }

    fn solve_effort(&self) -> SolveEffort {
        self.inner.solve_effort()
    }
}

impl<B: SweepBench> SweepBench for MemoBench<B> {
    fn sigmas(&self) -> [f64; 6] {
        self.inner.sigmas()
    }

    fn at_alpha(&self, alpha: f64) -> Self {
        Self {
            inner: self.inner.at_alpha(alpha),
            // Fold α into the tag: benches may specialise per point.
            tag: tag_for(&[self.tag, alpha.to_bits()]),
            store: Arc::clone(&self.store),
            enabled: self.enabled,
        }
    }

    fn with_private_ledger<T>(&self, point: impl FnOnce(&Self) -> T) -> T {
        self.inner.with_private_ledger(|inner| {
            point(&Self {
                inner: inner.clone(),
                tag: self.tag,
                store: Arc::clone(&self.store),
                enabled: self.enabled,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::LinearBench;
    use crate::simulate::Simulator;

    /// A wrapper over a private, empty store (tag 0).
    fn private<B>(inner: B, config: MemoCacheConfig) -> MemoBench<B> {
        let store = Arc::new(VerdictStore::new(config));
        MemoBench::shared(inner, 0, store, config.enabled)
    }

    fn disabled() -> MemoCacheConfig {
        MemoCacheConfig {
            enabled: false,
            ..MemoCacheConfig::default()
        }
    }

    #[test]
    fn repeated_queries_hit() {
        let bench = LinearBench::new(vec![1.0, 0.0], 2.0);
        let counter = Simulator::unmemoised(&bench);
        let cache = private(&counter, MemoCacheConfig::default());
        let first = cache.fails(&[3.0, 0.0]);
        assert!(first);
        assert_eq!(cache.fails(&[3.0, 0.0]), first);
        assert!(!cache.fails(&[0.0, 0.0]));
        assert_eq!(cache.store().hits(), 1);
        assert_eq!(cache.store().misses(), 2);
        assert_eq!(counter.simulations(), 2, "hits must not reach the bench");
        assert_eq!(cache.store().len(), 2);
    }

    #[test]
    fn batch_dedup_evaluates_unique_points_once() {
        let bench = LinearBench::new(vec![1.0], 0.5);
        let counter = Simulator::unmemoised(&bench);
        let cache = private(&counter, MemoCacheConfig::default());
        let zs = vec![vec![1.0], vec![-1.0], vec![1.0], vec![1.0], vec![0.0]];
        let out = cache.fails_batch(&zs);
        assert_eq!(out, vec![true, false, true, true, false]);
        assert_eq!(out, bench.fails_batch(&zs));
        assert_eq!(counter.simulations(), 3, "three unique points");
        assert_eq!(cache.store().hits(), 2);
        assert_eq!(cache.store().misses(), 3);
        // A second identical batch is served entirely from the cache,
        // without an (empty) batch reaching the bench.
        let again = cache.fails_batch(&zs);
        assert_eq!(again, out);
        assert_eq!(counter.simulations(), 3);
        assert_eq!(cache.store().hits(), 7);
        // The fallible batch (attempt-0 mode) agrees element-wise.
        let tried: Vec<bool> = cache
            .try_fails_batch(&zs)
            .into_iter()
            .map(|r| r.expect("linear bench is total"))
            .collect();
        assert_eq!(tried, out);
        assert_eq!(cache.store().misses(), 6, "a new mode, three unique points");
    }

    #[test]
    fn modes_tags_and_alphas_are_separate_namespaces() {
        let store = Arc::new(VerdictStore::new(MemoCacheConfig::default()));
        let bench = LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2.0);
        let a = MemoBench::shared(bench.clone(), 1, Arc::clone(&store), true);
        let b = MemoBench::shared(bench, 2, Arc::clone(&store), true);
        let z = vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let _ = a.fails(&z);
        let _ = b.fails(&z); // Different tag: no cross-talk.
        let _ = a.try_fails(&z); // Different mode: separate entry.
        let _ = a.try_fails_attempt(&z, 1); // Different attempt rung.
        let _ = a.at_alpha(0.5).fails(&z); // Per-α verdicts are namespaced.
        assert_eq!(store.hits(), 0);
        assert_eq!(store.misses(), 5);
        assert_eq!(store.len(), 5);
        let _ = a.at_alpha(0.5).fails(&z);
        assert_eq!(store.hits(), 1, "the same α maps to the same tag");
        assert_eq!(a.at_alpha(0.5).sigmas(), a.sigmas());
    }

    #[test]
    fn quantisation_merges_sub_grid_noise() {
        let bench = LinearBench::new(vec![1.0], 2.0);
        let counter = Simulator::unmemoised(&bench);
        let cfg = MemoCacheConfig {
            quantum: 1e-6,
            ..MemoCacheConfig::default()
        };
        let cache = private(&counter, cfg);
        let _ = cache.fails(&[3.0]);
        let _ = cache.fails(&[3.0 + 1e-9]);
        assert_eq!(
            cache.store().hits(),
            1,
            "sub-quantum perturbation shares the entry"
        );
        assert_eq!(counter.simulations(), 1);
    }

    #[test]
    fn holds_sees_cached_keys_without_counting() {
        let bench = LinearBench::new(vec![1.0], 2.0);
        let counter = Simulator::unmemoised(&bench);
        let cfg = MemoCacheConfig {
            quantum: 1e-6,
            ..MemoCacheConfig::default()
        };
        let cache = private(&counter, cfg);
        let holds = |z: &[f64]| cache.store().holds(0, MODE_PLAIN, z);
        assert!(!holds(&[3.0]));
        let _ = cache.fails(&[3.0]);
        assert!(holds(&[3.0]));
        assert!(holds(&[3.0 + 1e-9]), "same quantised key");
        assert!(!holds(&[4.0]));
        assert_eq!((cache.store().hits(), cache.store().misses()), (0, 1));
        let off = private(&counter, disabled());
        let _ = off.fails(&[3.0]);
        assert!(
            !off.store().holds(0, MODE_PLAIN, &[3.0]),
            "a disabled cache holds nothing"
        );
    }

    #[test]
    fn disabled_cache_is_transparent() {
        let bench = LinearBench::new(vec![1.0], 0.0);
        let counter = Simulator::unmemoised(&bench);
        let cache = private(&counter, disabled());
        let _ = cache.fails(&[1.0]);
        let _ = cache.fails(&[1.0]);
        let _ = cache.fails_batch(&[vec![1.0], vec![1.0]]);
        let _ = cache.try_fails_batch(&[vec![1.0]]);
        assert_eq!(counter.simulations(), 5);
        assert_eq!(cache.store().hits() + cache.store().misses(), 0);
        assert!(cache.store().is_empty());
        assert_eq!(cache.store().hit_rate(), None);
    }

    #[test]
    #[should_panic(expected = "cache quantum must be positive")]
    fn rejects_nonpositive_quantum() {
        let bench = LinearBench::new(vec![1.0], 0.0);
        let _ = private(
            bench,
            MemoCacheConfig {
                quantum: 0.0,
                ..MemoCacheConfig::default()
            },
        );
    }
}
