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

use crate::bench::{EvalError, SeedableBench, SolveEffort, Testbench};
use parking_lot::RwLock;
use rayon::prelude::*;
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

/// Two-tier warm-start cache settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmCacheConfig {
    /// Master switch; when off, [`WarmBench`] is a transparent
    /// pass-through and counts nothing.
    pub enabled: bool,
    /// Exact-tier key grid, in whitened-sigma units (see
    /// [`MemoCacheConfig::quantum`]).
    pub quantum: f64,
    /// Neighbour-tier bucket width in whitened-sigma units. One seed is
    /// kept per bucket (first-wins), so this also bounds the store.
    pub bucket: f64,
    /// Maximum Euclidean distance (whitened sigma) between a query and a
    /// stored operating point for its seed to be offered.
    pub max_distance: f64,
    /// Number of independently locked shards per tier.
    pub shards: usize,
}

impl Default for WarmCacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            quantum: 1e-9,
            bucket: 1.0,
            max_distance: 2.0,
            shards: 16,
        }
    }
}

/// Point-in-time counters of a [`WarmBench`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmCacheStats {
    /// Queries answered from the exact verdict tier (including
    /// within-batch repeats).
    pub exact_hits: u64,
    /// Evaluations warm-started by a neighbour's seed.
    pub seeded: u64,
    /// Evaluations with no usable neighbour.
    pub cold: u64,
    /// Entries in the exact verdict tier.
    pub exact_entries: u64,
    /// Occupied buckets in the neighbour tier.
    pub seed_buckets: u64,
}

/// One neighbour-tier shard: bucket key → (stored operating point, its
/// reusable evaluation by-product).
type SeedShard<S> = RwLock<HashMap<Vec<i64>, (Vec<f64>, S)>>;

/// A two-tier warm-start cache around a [`SeedableBench`].
///
/// Tier 1 is an exact verdict memo keyed by the quantised query (like
/// [`MemoBench`]). Tier 2 buckets evaluated operating points on a coarse
/// grid in whitened space and offers the *closest* stored point's
/// evaluation by-product as a warm-start seed for new queries — seeds
/// accelerate the inner solves but never change a verdict (the
/// [`SeedableBench`] contract), so results are bit-identical to the cold
/// path.
///
/// Layer it *below* the counters, i.e. directly around the raw circuit
/// bench (`… → SimCounter → TimingBench → WarmBench → bench`): exact
/// hits then short-circuit real solver work while the simulation counts
/// billed above stay invariant, which keeps every determinism report
/// comparable across cache configurations.
///
/// Determinism contract: routing, seed choice and counter accounting are
/// all computed *serially* from the query order (seeds offered to a
/// batch come from the pre-batch store; new seeds are inserted serially
/// in input order afterwards), so verdicts and reports are identical at
/// every thread count.
#[derive(Debug)]
pub struct WarmBench<B: SeedableBench> {
    inner: B,
    config: WarmCacheConfig,
    exact: Vec<RwLock<HashMap<Vec<i64>, bool>>>,
    seeds: Vec<SeedShard<B::Seed>>,
    exact_hits: AtomicU64,
    seeded: AtomicU64,
    cold: AtomicU64,
}

impl<B: SeedableBench> WarmBench<B> {
    /// Wraps a bench with empty tiers.
    ///
    /// # Panics
    ///
    /// Panics if `quantum`, `bucket` or `max_distance` is not positive
    /// and finite, or `shards` is zero.
    pub fn new(inner: B, config: WarmCacheConfig) -> Self {
        assert!(
            config.quantum > 0.0 && config.quantum.is_finite(),
            "cache quantum must be positive and finite"
        );
        assert!(
            config.bucket > 0.0 && config.bucket.is_finite(),
            "seed bucket must be positive and finite"
        );
        assert!(
            config.max_distance > 0.0 && config.max_distance.is_finite(),
            "seed distance must be positive and finite"
        );
        assert!(config.shards > 0, "need at least one cache shard");
        let exact = (0..config.shards)
            .map(|_| RwLock::new(HashMap::new()))
            .collect();
        let seeds = (0..config.shards)
            .map(|_| RwLock::new(HashMap::new()))
            .collect();
        Self {
            inner,
            config,
            exact,
            seeds,
            exact_hits: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
            cold: AtomicU64::new(0),
        }
    }

    /// The wrapped bench.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The configuration in use.
    pub fn config(&self) -> &WarmCacheConfig {
        &self.config
    }

    /// Current counters and store sizes.
    pub fn stats(&self) -> WarmCacheStats {
        WarmCacheStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            seeded: self.seeded.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            exact_entries: self.exact.iter().map(|s| s.read().len() as u64).sum(),
            seed_buckets: self.seeds.iter().map(|s| s.read().len() as u64).sum(),
        }
    }

    /// Drops both tiers and zeroes the counters.
    pub fn clear(&self) {
        for shard in &self.exact {
            shard.write().clear();
        }
        for shard in &self.seeds {
            shard.write().clear();
        }
        self.exact_hits.store(0, Ordering::Relaxed);
        self.seeded.store(0, Ordering::Relaxed);
        self.cold.store(0, Ordering::Relaxed);
    }

    fn quantise(&self, z: &[f64]) -> Vec<i64> {
        z.iter()
            .map(|v| (v / self.config.quantum).round() as i64)
            .collect()
    }

    fn bucket_of(&self, z: &[f64]) -> Vec<i64> {
        z.iter()
            .map(|v| (v / self.config.bucket).floor() as i64)
            .collect()
    }

    fn shard_of(key: &[i64], shards: usize) -> usize {
        // FNV-1a over the quantised coordinates.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in key {
            h ^= *v as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % shards as u64) as usize
    }

    fn lookup_exact(&self, key: &[i64]) -> Option<bool> {
        self.exact[Self::shard_of(key, self.exact.len())]
            .read()
            .get(key)
            .copied()
    }

    fn insert_exact(&self, key: Vec<i64>, verdict: bool) {
        self.exact[Self::shard_of(&key, self.exact.len())]
            .write()
            .insert(key, verdict);
    }

    /// The closest stored seed within `max_distance` of `z`, searching
    /// the query's bucket and the 2^d − 1 buckets sharing the grid
    /// corner nearest to `z`: a near neighbour can sit just across any
    /// bucket face, and a handful of map probes is free next to a
    /// transistor-level solve. Probe order and the strict nearest-wins
    /// comparison are fixed by the query alone, so the choice is
    /// schedule-independent. Dimensions above [`Self::MAX_PROBE_DIM`]
    /// fall back to probing the query's own bucket only.
    fn lookup_seed(&self, z: &[f64]) -> Option<B::Seed> {
        let base = self.bucket_of(z);
        let d = base.len();
        if d > Self::MAX_PROBE_DIM {
            return self.probe_bucket(&base, z).map(|(_, seed)| seed);
        }
        // Per axis, the neighbouring bucket on the side of the nearest
        // grid plane: toward +1 when the query sits in the upper half of
        // its bucket, −1 otherwise.
        let step: Vec<i64> = z
            .iter()
            .zip(&base)
            .map(|(v, b)| {
                let frac = v / self.config.bucket - *b as f64;
                if frac >= 0.5 {
                    1
                } else {
                    -1
                }
            })
            .collect();
        let mut best: Option<(f64, B::Seed)> = None;
        let mut bucket = base.clone();
        for corner in 0u32..(1u32 << d) {
            for (i, slot) in bucket.iter_mut().enumerate() {
                *slot = base[i] + if corner >> i & 1 == 1 { step[i] } else { 0 };
            }
            if let Some((dist2, seed)) = self.probe_bucket(&bucket, z) {
                if best.as_ref().is_none_or(|(b, _)| dist2 < *b) {
                    best = Some((dist2, seed));
                }
            }
        }
        best.map(|(_, seed)| seed)
    }

    /// Dimension cap for the corner-neighbourhood probe (2^d lookups).
    const MAX_PROBE_DIM: usize = 12;

    /// One bucket lookup: the stored seed and its squared distance to
    /// `z`, if the bucket is occupied and the point is within
    /// `max_distance`.
    fn probe_bucket(&self, bucket: &[i64], z: &[f64]) -> Option<(f64, B::Seed)> {
        let shard = self.seeds[Self::shard_of(bucket, self.seeds.len())].read();
        let (point, seed) = shard.get(bucket)?;
        let dist2: f64 = point.iter().zip(z).map(|(p, q)| (p - q) * (p - q)).sum();
        (dist2 <= self.config.max_distance * self.config.max_distance)
            .then(|| (dist2, seed.clone()))
    }

    /// First-wins seed insertion: an occupied bucket keeps its original
    /// seed, so the store is insertion-order deterministic and bounded.
    fn insert_seed(&self, z: &[f64], seed: B::Seed) {
        let bucket = self.bucket_of(z);
        self.seeds[Self::shard_of(&bucket, self.seeds.len())]
            .write()
            .entry(bucket)
            .or_insert_with(|| (z.to_vec(), seed));
    }

    /// Single-point evaluation through both tiers.
    fn eval_one(&self, z: &[f64]) -> Result<bool, EvalError> {
        let key = self.quantise(z);
        if let Some(verdict) = self.lookup_exact(&key) {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(verdict);
        }
        let seed = self.lookup_seed(z);
        if seed.is_some() {
            self.seeded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cold.fetch_add(1, Ordering::Relaxed);
        }
        let (verdict, produced) = self.inner.try_fails_seeded(z, seed.as_ref())?;
        self.insert_exact(key, verdict);
        if let Some(produced) = produced {
            self.insert_seed(z, produced);
        }
        Ok(verdict)
    }

    /// Batch evaluation with serial routing, shared by the infallible
    /// and fallible entry points.
    fn eval_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        // Serial routing pass over the pre-batch store: resolve exact
        // hits, deduplicate repeats, and pick each miss's seed *before*
        // any parallel work, so accounting and seed choice are
        // schedule-independent.
        let keys: Vec<Vec<i64>> = zs.iter().map(|z| self.quantise(z)).collect();
        let mut first_seen: HashMap<&[i64], usize> = HashMap::new();
        let mut eval_points: Vec<(Vec<f64>, Option<B::Seed>)> = Vec::new();
        let mut routes: Vec<Result<bool, usize>> = Vec::with_capacity(zs.len());
        let mut exact_hits = 0u64;
        let mut seeded = 0u64;
        let mut cold = 0u64;
        for (z, key) in zs.iter().zip(&keys) {
            if let Some(verdict) = self.lookup_exact(key) {
                exact_hits += 1;
                routes.push(Ok(verdict));
            } else if let Some(&slot) = first_seen.get(key.as_slice()) {
                exact_hits += 1;
                routes.push(Err(slot));
            } else {
                let slot = eval_points.len();
                first_seen.insert(key.as_slice(), slot);
                let seed = self.lookup_seed(z);
                if seed.is_some() {
                    seeded += 1;
                } else {
                    cold += 1;
                }
                eval_points.push((z.clone(), seed));
                routes.push(Err(slot));
            }
        }
        self.exact_hits.fetch_add(exact_hits, Ordering::Relaxed);
        self.seeded.fetch_add(seeded, Ordering::Relaxed);
        self.cold.fetch_add(cold, Ordering::Relaxed);
        type SeededVerdicts<S> = Vec<Result<(bool, Option<S>), EvalError>>;
        let results: SeededVerdicts<B::Seed> = eval_points
            .par_iter()
            .map(|(z, seed)| self.inner.try_fails_seeded(z, seed.as_ref()))
            .collect();
        // Serial insertion in input order: errors are never cached, and
        // seed buckets fill first-wins, so the post-batch store is
        // independent of the parallel schedule.
        for (key, &slot) in &first_seen {
            if let Ok((verdict, _)) = &results[slot] {
                self.insert_exact(key.to_vec(), *verdict);
            }
        }
        for (slot, (z, _)) in eval_points.iter().enumerate() {
            if let Ok((_, Some(seed))) = &results[slot] {
                self.insert_seed(z, seed.clone());
            }
        }
        routes
            .into_iter()
            .map(|route| match route {
                Ok(verdict) => Ok(verdict),
                Err(slot) => results[slot]
                    .as_ref()
                    .map(|(v, _)| *v)
                    .map_err(Clone::clone),
            })
            .collect()
    }
}

impl<B: SeedableBench> Testbench for WarmBench<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        if !self.config.enabled {
            return self.inner.fails(z);
        }
        match self.eval_one(z) {
            Ok(verdict) => verdict,
            Err(e) => panic!("warm-cached evaluation failed: {e}"),
        }
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        if !self.config.enabled || zs.is_empty() {
            return self.inner.fails_batch(zs);
        }
        self.eval_batch(zs)
            .into_iter()
            .map(|r| match r {
                Ok(verdict) => verdict,
                Err(e) => panic!("warm-cached evaluation failed: {e}"),
            })
            .collect()
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        if !self.config.enabled {
            return self.inner.try_fails(z);
        }
        self.eval_one(z)
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        if attempt == 0 {
            return self.try_fails(z);
        }
        // Escalated retries may evaluate on a different grid; their
        // verdicts bypass both tiers so the cache only ever holds
        // plain-path results.
        self.inner.try_fails_attempt(z, attempt)
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        if !self.config.enabled || zs.is_empty() {
            return self.inner.try_fails_batch(zs);
        }
        self.eval_batch(zs)
    }

    fn solve_effort(&self) -> SolveEffort {
        self.inner.solve_effort()
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

    /// A cheap seedable bench: verdicts come from a [`LinearBench`],
    /// seeds are the evaluated point itself, and the counters expose how
    /// many evaluations ran and how many of those saw a seed.
    #[derive(Debug)]
    struct SeedySynthetic {
        inner: LinearBench,
        evals: AtomicU64,
        seeds_seen: AtomicU64,
        last_seed: RwLock<Option<Vec<f64>>>,
    }

    impl SeedySynthetic {
        fn new(inner: LinearBench) -> Self {
            Self {
                inner,
                evals: AtomicU64::new(0),
                seeds_seen: AtomicU64::new(0),
                last_seed: RwLock::new(None),
            }
        }
    }

    impl Testbench for SeedySynthetic {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn fails(&self, z: &[f64]) -> bool {
            self.evals.fetch_add(1, Ordering::Relaxed);
            self.inner.fails(z)
        }
    }

    impl SeedableBench for SeedySynthetic {
        type Seed = Vec<f64>;

        fn try_fails_seeded(
            &self,
            z: &[f64],
            seed: Option<&Vec<f64>>,
        ) -> Result<(bool, Option<Vec<f64>>), EvalError> {
            self.evals.fetch_add(1, Ordering::Relaxed);
            if let Some(seed) = seed {
                self.seeds_seen.fetch_add(1, Ordering::Relaxed);
                *self.last_seed.write() = Some(seed.clone());
            }
            Ok((self.inner.fails(z), Some(z.to_vec())))
        }
    }

    #[test]
    fn warm_exact_tier_short_circuits_repeats() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0, 0.0], 2.0));
        let warm = WarmBench::new(&bench, WarmCacheConfig::default());
        assert!(warm.fails(&[3.0, 0.0]));
        assert!(warm.fails(&[3.0, 0.0]));
        assert_eq!(bench.evals.load(Ordering::Relaxed), 1);
        let stats = warm.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.cold, 1);
        assert_eq!(stats.exact_entries, 1);
    }

    #[test]
    fn warm_neighbour_tier_seeds_nearby_queries() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0, 0.0], 2.0));
        let warm = WarmBench::new(&bench, WarmCacheConfig::default());
        let _ = warm.fails(&[0.1, 0.1]);
        let _ = warm.fails(&[0.3, 0.2]); // same bucket, well within range
        let _ = warm.fails(&[7.3, -7.2]); // far away: different bucket
        assert_eq!(bench.seeds_seen.load(Ordering::Relaxed), 1);
        let stats = warm.stats();
        assert_eq!(stats.seeded, 1);
        assert_eq!(stats.cold, 2);
        assert_eq!(stats.seed_buckets, 2, "first-wins, one seed per bucket");
    }

    #[test]
    fn warm_seed_crosses_bucket_boundaries() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0, 0.0], 2.0));
        let warm = WarmBench::new(&bench, WarmCacheConfig::default());
        // 0.2σ apart but straddling the bucket-1.0 plane at 1.0 on the
        // first axis: the corner probe must still offer the seed.
        let _ = warm.fails(&[0.9, 0.5]);
        let _ = warm.fails(&[1.1, 0.5]);
        assert_eq!(bench.seeds_seen.load(Ordering::Relaxed), 1);
        assert_eq!(warm.stats().seeded, 1, "adjacent-bucket neighbour missed");
    }

    #[test]
    fn warm_seed_prefers_the_nearest_stored_point() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0], 2.0));
        let warm = WarmBench::new(&bench, WarmCacheConfig::default());
        let _ = warm.fails(&[0.2]); // bucket 0
        let _ = warm.fails(&[1.8]); // bucket 1
                                    // Query at 1.3 probes buckets 0 and 1; both stored points are in
                                    // range and the bucket-1 point (distance 0.5) must win over the
                                    // bucket-0 one (distance 1.1).
        let _ = warm.fails(&[1.3]);
        assert_eq!(bench.last_seed.read().as_deref(), Some(&[1.8][..]));
    }

    #[test]
    fn warm_seed_respects_max_distance() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0], 2.0));
        let config = WarmCacheConfig {
            bucket: 10.0,
            max_distance: 1.0,
            ..WarmCacheConfig::default()
        };
        let warm = WarmBench::new(&bench, config);
        let _ = warm.fails(&[0.5]);
        let _ = warm.fails(&[4.5]); // same (huge) bucket but 4σ away
        assert_eq!(warm.stats().seeded, 0, "distant seed must not be offered");
    }

    #[test]
    fn warm_batch_routing_matches_elementwise_and_any_thread_count() {
        let truth = LinearBench::new(vec![1.0, -1.0], 1.0);
        // First batch populates both tiers; the second revisits one point
        // exactly (exact hit), perturbs the rest within their buckets
        // (seeded), and the seed store is only consulted between batches.
        let first: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let a = (i as f64 * 0.7).sin() * 3.0;
                let b = (i as f64 * 1.3).cos() * 3.0;
                vec![a, b]
            })
            .chain(std::iter::once(vec![0.7, -0.7])) // duplicate in-batch
            .chain(std::iter::once(vec![0.7, -0.7]))
            .collect();
        let second: Vec<Vec<f64>> = first
            .iter()
            .take(12)
            .map(|z| vec![z[0] + 0.05, z[1] - 0.05])
            .chain(std::iter::once(vec![0.7, -0.7]))
            .collect();
        let expect = |zs: &[Vec<f64>]| -> Vec<bool> { zs.iter().map(|z| truth.fails(z)).collect() };
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let bench = SeedySynthetic::new(truth.clone());
            let warm = WarmBench::new(&bench, WarmCacheConfig::default());
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let out1 = pool.install(|| warm.fails_batch(&first));
            let out2 = pool.install(|| warm.fails_batch(&second));
            assert_eq!(
                out1,
                expect(&first),
                "verdicts drifted at {threads} threads"
            );
            assert_eq!(
                out2,
                expect(&second),
                "verdicts drifted at {threads} threads"
            );
            reports.push((warm.stats(), bench.evals.load(Ordering::Relaxed)));
        }
        assert_eq!(
            reports[0], reports[1],
            "accounting must be thread-count independent"
        );
        let (stats, evals) = reports[0];
        assert!(stats.exact_hits >= 2, "duplicate and revisit must hit");
        assert_eq!(stats.seeded + stats.cold, evals);
        assert!(stats.seeded > 0, "neighbour tier never engaged");
    }

    #[test]
    fn retry_ladder_hands_the_warm_cache_whole_batches() {
        use crate::retry::{RetryBench, RetryPolicy};
        let truth = LinearBench::new(vec![1.0, -1.0], 1.0);
        let first: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.7).sin() * 3.0, (i as f64 * 1.3).cos() * 3.0])
            .collect();
        let second: Vec<Vec<f64>> = first.iter().map(|z| vec![z[0] + 0.05, z[1]]).collect();
        // The warm cache's seed choice depends on what its store holds
        // when a point is evaluated. Through the retry layer it must see
        // the same two batches a direct caller hands it, on any pool.
        let run = |threads: usize, through_retry: bool| {
            let bench = SeedySynthetic::new(truth.clone());
            let warm = WarmBench::new(&bench, WarmCacheConfig::default());
            let retrying = RetryBench::new(&warm, RetryPolicy::default());
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let verdicts: Vec<Vec<bool>> = [&first, &second]
                .iter()
                .map(|zs| {
                    pool.install(|| {
                        if through_retry {
                            retrying.fails_batch(zs)
                        } else {
                            warm.fails_batch(zs)
                        }
                    })
                })
                .collect();
            (verdicts, warm.stats(), bench.evals.load(Ordering::Relaxed))
        };
        let direct = run(1, false);
        assert_eq!(run(1, true), direct);
        assert_eq!(run(4, true), direct);
        assert!(direct.1.seeded > 0, "neighbour tier never engaged");
    }

    #[test]
    fn warm_disabled_is_transparent() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0], 0.0));
        let warm = WarmBench::new(
            &bench,
            WarmCacheConfig {
                enabled: false,
                ..WarmCacheConfig::default()
            },
        );
        let _ = warm.fails(&[1.0]);
        let _ = warm.fails(&[1.0]);
        let stats = warm.stats();
        assert_eq!(stats.exact_hits + stats.seeded + stats.cold, 0);
        assert_eq!(stats.exact_entries, 0);
    }

    #[test]
    fn warm_clear_resets_both_tiers() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0], 0.0));
        let warm = WarmBench::new(&bench, WarmCacheConfig::default());
        let _ = warm.fails(&[1.0]);
        warm.clear();
        let stats = warm.stats();
        assert_eq!(stats, WarmCacheStats::default());
        let _ = warm.fails(&[1.0]);
        assert_eq!(warm.stats().cold, 1);
    }

    #[test]
    fn warm_escalated_retries_bypass_the_cache() {
        let bench = SeedySynthetic::new(LinearBench::new(vec![1.0], 0.5));
        let warm = WarmBench::new(&bench, WarmCacheConfig::default());
        assert_eq!(warm.try_fails_attempt(&[1.0], 1), Ok(true));
        let stats = warm.stats();
        assert_eq!(stats.exact_entries, 0, "escalations must not be cached");
        assert_eq!(stats.exact_hits + stats.seeded + stats.cold, 0);
    }
}
