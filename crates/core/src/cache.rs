//! A sharded memoisation cache in front of the transistor-level
//! simulator.
//!
//! The estimators repeatedly evaluate the indicator at *exactly* the
//! same total-shift vectors: RTN shifts are drawn from a finite set of
//! quantised trap amplitudes, sweep drivers revisit bias points with the
//! shared initial particles, and the bench binaries re-run identical
//! workloads back to back. [`MemoBench`] intercepts those repeats before
//! they reach the circuit solver.
//!
//! Keys are the query vectors quantised onto a fixed grid (`quantum`
//! volts-in-sigma per axis), so floating-point noise below the grid
//! resolution maps to the same entry. The map is split into shards, each
//! behind its own [`parking_lot::RwLock`], so parallel `fails_batch`
//! workers rarely contend.
//!
//! Determinism contract: hit/miss accounting is computed *serially* from
//! the query order before any parallel evaluation happens, and repeated
//! keys inside one batch are deduplicated so the underlying bench sees
//! each unique point exactly once. Counters and verdicts are therefore
//! identical at every thread count.

use crate::bench::Testbench;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A caching wrapper around a testbench.
///
/// Layer it *outside* the [`SimCounter`](crate::bench::SimCounter), i.e.
/// `oracle → MemoBench → SimCounter → bench`, so that cache hits are not
/// billed as transistor-level simulations.
#[derive(Debug)]
pub struct MemoBench<B> {
    inner: B,
    config: MemoCacheConfig,
    shards: Vec<RwLock<HashMap<Vec<i64>, bool>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<B: Testbench> MemoBench<B> {
    /// Wraps a bench with an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not positive or `shards` is zero.
    pub fn new(inner: B, config: MemoCacheConfig) -> Self {
        assert!(
            config.quantum > 0.0 && config.quantum.is_finite(),
            "cache quantum must be positive and finite"
        );
        assert!(config.shards > 0, "need at least one cache shard");
        let shards = (0..config.shards)
            .map(|_| RwLock::new(HashMap::new()))
            .collect();
        Self {
            inner,
            config,
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped bench.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Queries answered from the cache (including within-batch repeats
    /// of a point evaluated earlier in the same batch).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that reached the underlying bench.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a query at `z` would be answered from the cache. Counts
    /// nothing: hits and misses stay what the served queries made them.
    pub fn contains(&self, z: &[f64]) -> bool {
        self.config.enabled && self.lookup(&self.quantise(z)).is_some()
    }

    /// Drops all cached verdicts and zeroes the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    fn quantise(&self, z: &[f64]) -> Vec<i64> {
        z.iter()
            .map(|v| (v / self.config.quantum).round() as i64)
            .collect()
    }

    fn shard_of(&self, key: &[i64]) -> usize {
        // FNV-1a over the quantised coordinates.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in key {
            h ^= *v as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn lookup(&self, key: &[i64]) -> Option<bool> {
        self.shards[self.shard_of(key)].read().get(key).copied()
    }

    fn insert(&self, key: Vec<i64>, verdict: bool) {
        self.shards[self.shard_of(&key)]
            .write()
            .insert(key, verdict);
    }
}

impl<B: Testbench> Testbench for MemoBench<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        if !self.config.enabled {
            return self.inner.fails(z);
        }
        let key = self.quantise(z);
        if let Some(verdict) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = self.inner.fails(z);
        self.insert(key, verdict);
        verdict
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        if !self.config.enabled || zs.is_empty() {
            return self.inner.fails_batch(zs);
        }
        // Serial routing pass: resolve cached verdicts and deduplicate
        // the rest, so the (possibly parallel) inner batch sees each
        // unique point once and the counters are schedule-independent.
        let keys: Vec<Vec<i64>> = zs.iter().map(|z| self.quantise(z)).collect();
        let mut first_seen: HashMap<&[i64], usize> = HashMap::new();
        let mut eval_points: Vec<Vec<f64>> = Vec::new();
        let mut routes: Vec<Result<bool, usize>> = Vec::with_capacity(zs.len());
        let mut hits = 0u64;
        for (z, key) in zs.iter().zip(&keys) {
            if let Some(verdict) = self.lookup(key) {
                hits += 1;
                routes.push(Ok(verdict));
            } else if let Some(&slot) = first_seen.get(key.as_slice()) {
                hits += 1;
                routes.push(Err(slot));
            } else {
                let slot = eval_points.len();
                first_seen.insert(key.as_slice(), slot);
                eval_points.push(z.clone());
                routes.push(Err(slot));
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(eval_points.len() as u64, Ordering::Relaxed);
        let verdicts = if eval_points.is_empty() {
            Vec::new()
        } else {
            self.inner.fails_batch(&eval_points)
        };
        for (key, &slot) in &first_seen {
            self.insert(key.to_vec(), verdicts[slot]);
        }
        routes
            .into_iter()
            .map(|route| match route {
                Ok(verdict) => verdict,
                Err(slot) => verdicts[slot],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{LinearBench, SimCounter};

    fn disabled() -> MemoCacheConfig {
        MemoCacheConfig {
            enabled: false,
            ..MemoCacheConfig::default()
        }
    }

    #[test]
    fn repeated_queries_hit() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0, 0.0], 2.0));
        let cache = MemoBench::new(&counter, MemoCacheConfig::default());
        assert!(cache.fails(&[3.0, 0.0]));
        assert!(cache.fails(&[3.0, 0.0]));
        assert!(!cache.fails(&[0.0, 0.0]));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(counter.simulations(), 2, "hits must not reach the bench");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn batch_dedup_evaluates_unique_points_once() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0], 0.5));
        let cache = MemoBench::new(&counter, MemoCacheConfig::default());
        let zs = vec![vec![1.0], vec![-1.0], vec![1.0], vec![1.0], vec![0.0]];
        let out = cache.fails_batch(&zs);
        assert_eq!(out, vec![true, false, true, true, false]);
        assert_eq!(counter.simulations(), 3, "three unique points");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 3);
        // A second identical batch is served entirely from the cache.
        let again = cache.fails_batch(&zs);
        assert_eq!(again, out);
        assert_eq!(counter.simulations(), 3);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn quantisation_merges_sub_grid_noise() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0], 2.0));
        let cfg = MemoCacheConfig {
            quantum: 1e-6,
            ..MemoCacheConfig::default()
        };
        let cache = MemoBench::new(&counter, cfg);
        let _ = cache.fails(&[3.0]);
        let _ = cache.fails(&[3.0 + 1e-9]);
        assert_eq!(cache.hits(), 1, "sub-quantum perturbation shares the entry");
        assert_eq!(counter.simulations(), 1);
    }

    #[test]
    fn contains_sees_cached_keys_without_counting() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0], 2.0));
        let cfg = MemoCacheConfig {
            quantum: 1e-6,
            ..MemoCacheConfig::default()
        };
        let cache = MemoBench::new(&counter, cfg);
        assert!(!cache.contains(&[3.0]));
        let _ = cache.fails(&[3.0]);
        assert!(cache.contains(&[3.0]));
        assert!(cache.contains(&[3.0 + 1e-9]), "same quantised key");
        assert!(!cache.contains(&[4.0]));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let off = MemoBench::new(&counter, disabled());
        let _ = off.fails(&[3.0]);
        assert!(!off.contains(&[3.0]), "a disabled cache holds nothing");
    }

    #[test]
    fn disabled_cache_is_transparent() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0], 0.0));
        let cache = MemoBench::new(&counter, disabled());
        let _ = cache.fails(&[1.0]);
        let _ = cache.fails(&[1.0]);
        let _ = cache.fails_batch(&[vec![1.0], vec![1.0]]);
        assert_eq!(counter.simulations(), 4);
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let counter = SimCounter::new(LinearBench::new(vec![1.0], 0.0));
        let cache = MemoBench::new(&counter, MemoCacheConfig::default());
        let _ = cache.fails(&[1.0]);
        let _ = cache.fails(&[1.0]);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        let _ = cache.fails(&[1.0]);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    #[should_panic(expected = "cache quantum must be positive")]
    fn rejects_nonpositive_quantum() {
        let bench = LinearBench::new(vec![1.0], 0.0);
        let _ = MemoBench::new(
            bench,
            MemoCacheConfig {
                quantum: 0.0,
                ..MemoCacheConfig::default()
            },
        );
    }
}
