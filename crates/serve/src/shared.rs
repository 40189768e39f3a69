//! The process-wide verdict cache shared by every worker.
//!
//! The per-run memo-cache ([`MemoBench`](ecripse_core::cache::MemoBench))
//! dies with its run; a resident service wants repeated jobs against the
//! same cell to get cheaper over time. But a cache *inside* the per-run
//! pipeline would change the run's hit/miss/simulation counters and
//! break the service's bit-identity promise. The resolution is layering:
//! [`SharedBench`] wraps the **raw** bench, *below* every counting layer
//! ([`SimCounter`](ecripse_core::bench::SimCounter), retry ladder,
//! per-run memo-cache, oracle). Those layers observe exactly the query
//! stream of a direct run — same counters, same verdicts, same reports —
//! while a warm [`VerdictCache`] quietly answers repeats without
//! touching the circuit solver. Only wall-clock time changes.
//!
//! Keys are `(bench tag, evaluation mode, quantised query)`: the tag
//! separates cells/bias points (and duty ratios — `at_alpha` folds `α`
//! into the tag so fault-injection benches that specialise per point can
//! never be served another point's verdict), and the mode separates the
//! infallible, fallible and per-attempt evaluation paths, which the SRAM
//! benches implement with different grid resolutions. Errors are never
//! cached — a transient failure must stay retryable.

use ecripse_core::bench::{EvalError, SolveEffort, Testbench};
use ecripse_core::cache::MemoCacheConfig;
use ecripse_core::sweep::SweepBench;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Evaluation mode of the infallible [`Testbench::fails`] path.
const MODE_PLAIN: u16 = 0;
/// Evaluation mode of [`Testbench::try_fails`].
const MODE_TRY: u16 = 1;
/// Base mode of [`Testbench::try_fails_attempt`]; attempt `k` maps to
/// `MODE_ATTEMPT_BASE + k` (saturated), keeping escalated-effort
/// verdicts separate from first-try ones.
const MODE_ATTEMPT_BASE: u16 = 2;

type CacheKey = (u64, u16, Vec<i64>);

/// A sharded, process-lifetime verdict store.
#[derive(Debug)]
pub struct VerdictCache {
    quantum: f64,
    scope: String,
    shards: Vec<RwLock<HashMap<CacheKey, bool>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerdictCache {
    /// An empty, unscoped cache. The [`MemoCacheConfig`] is reused for
    /// its grid quantum and shard count; its `enabled` flag is handled
    /// by the [`SharedBench`] wrapper, not here.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not positive or `shards` is zero.
    pub fn new(config: MemoCacheConfig) -> Self {
        Self::with_scope(config, "")
    }

    /// An empty cache whose snapshot fingerprint additionally binds to
    /// `scope` — an opaque key-space discriminator. The server passes
    /// the scenario-registry digest here, so a snapshot persisted under
    /// one registry (or one scenario semantics version) is *rejected*,
    /// not misapplied, by a process running another.
    ///
    /// # Panics
    ///
    /// See [`VerdictCache::new`].
    pub fn with_scope(config: MemoCacheConfig, scope: &str) -> Self {
        assert!(
            config.quantum > 0.0 && config.quantum.is_finite(),
            "cache quantum must be positive and finite"
        );
        assert!(config.shards > 0, "need at least one cache shard");
        Self {
            quantum: config.quantum,
            scope: scope.to_owned(),
            shards: (0..config.shards)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Queries answered without touching the underlying bench.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that reached the underlying bench.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Verdicts currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit fraction since startup, `None` before any traffic.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.hits();
        let total = hits + self.misses();
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Drops every verdict and zeroes the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    fn quantise(&self, z: &[f64]) -> Vec<i64> {
        z.iter()
            .map(|v| (v / self.quantum).round() as i64)
            .collect()
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = fnv1a_u64(0xcbf2_9ce4_8422_2325, key.0);
        h = fnv1a_u64(h, u64::from(key.1));
        for v in &key.2 {
            h = fnv1a_u64(h, *v as u64);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn lookup(&self, key: &CacheKey) -> Option<bool> {
        self.shards[self.shard_of(key)].read().get(key).copied()
    }

    fn insert(&self, key: CacheKey, verdict: bool) {
        self.shards[self.shard_of(&key)]
            .write()
            .insert(key, verdict);
    }

    /// Compatibility fingerprint of this cache's key space: any change
    /// to the snapshot schema, the quantisation grid or the scope (the
    /// server's scenario-registry digest) invalidates persisted verdicts
    /// (a verdict keyed on a different grid or computed by a different
    /// indicator set would be silently wrong, not just stale).
    pub fn fingerprint(&self) -> String {
        let mut hash = fnv1a_u64(0xcbf2_9ce4_8422_2325, u64::from(CACHE_SNAPSHOT_VERSION));
        hash = fnv1a_u64(hash, self.quantum.to_bits());
        for b in self.scope.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// Persists every resident verdict to `path` atomically (`.tmp`
    /// sibling + rename, the sweep-checkpoint discipline) and returns
    /// the number of entries written. Entries are sorted by key so the
    /// file is byte-identical for identical cache contents.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failures,
    /// [`SnapshotError::Malformed`] if serialisation fails.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        let mut entries: Vec<SnapshotEntry> = Vec::new();
        for shard in &self.shards {
            for ((tag, mode, key), verdict) in shard.read().iter() {
                entries.push(SnapshotEntry {
                    // Full-range u64 tags would lose precision as JSON
                    // numbers; hex strings round-trip exactly.
                    tag: format!("{tag:016x}"),
                    mode: *mode,
                    key: key.clone(),
                    verdict: *verdict,
                });
            }
        }
        entries.sort_by(|a, b| (&a.tag, a.mode, &a.key).cmp(&(&b.tag, b.mode, &b.key)));
        let count = entries.len();
        let snapshot = CacheSnapshot {
            schema_version: CACHE_SNAPSHOT_VERSION,
            fingerprint: self.fingerprint(),
            entries,
        };
        let json = serde_json::to_string(&snapshot)
            .map_err(|e| SnapshotError::Malformed(format!("serialise snapshot: {e}")))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json.as_bytes()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Ok(count)
    }

    /// Loads a snapshot previously written by [`Self::save_snapshot`]
    /// into this cache and returns the number of entries restored. The
    /// schema version is validated first, then the fingerprint; a
    /// mismatch on either leaves the cache untouched — stale verdicts
    /// are worse than a cold start.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read (including a
    /// simple not-found on first boot), [`SnapshotError::Malformed`] on
    /// parse failures, [`SnapshotError::SchemaVersion`] /
    /// [`SnapshotError::Fingerprint`] on compatibility mismatches.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let snapshot: CacheSnapshot =
            serde_json::from_str(&text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        if snapshot.schema_version != CACHE_SNAPSHOT_VERSION {
            return Err(SnapshotError::SchemaVersion {
                found: snapshot.schema_version,
                expected: CACHE_SNAPSHOT_VERSION,
            });
        }
        let expected = self.fingerprint();
        if snapshot.fingerprint != expected {
            return Err(SnapshotError::Fingerprint {
                found: snapshot.fingerprint,
                expected,
            });
        }
        let mut count = 0usize;
        for entry in snapshot.entries {
            let tag = u64::from_str_radix(&entry.tag, 16)
                .map_err(|e| SnapshotError::Malformed(format!("tag {:?}: {e}", entry.tag)))?;
            self.insert((tag, entry.mode, entry.key), entry.verdict);
            count += 1;
        }
        Ok(count)
    }
}

/// Schema version of the on-disk verdict snapshot; bump on any change to
/// [`CacheSnapshot`]'s layout or key semantics.
///
/// Version history:
/// * 1 — initial snapshot format;
/// * 2 — scenario-aware key space: the fingerprint binds to the cache
///   scope (the scenario-registry digest) and operating-point tags are
///   salted with the job's scenario, so v1 snapshots — written when
///   every verdict implicitly meant `read-snm` — are retired rather
///   than misread.
pub const CACHE_SNAPSHOT_VERSION: u32 = 2;

/// One persisted verdict (the cache key with a hex-encoded tag).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SnapshotEntry {
    tag: String,
    mode: u16,
    key: Vec<i64>,
    verdict: bool,
}

/// The on-disk form of a [`VerdictCache`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    schema_version: u32,
    fingerprint: String,
    entries: Vec<SnapshotEntry>,
}

/// Why a snapshot could not be saved or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (including not-found on first boot).
    Io(String),
    /// The file is not a valid snapshot.
    Malformed(String),
    /// The snapshot was written by an incompatible schema.
    SchemaVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The snapshot's key space differs from this cache's (e.g. another
    /// quantisation grid).
    Fingerprint {
        /// Fingerprint found in the file.
        found: String,
        /// Fingerprint of this cache.
        expected: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot io: {e}"),
            Self::Malformed(e) => write!(f, "snapshot malformed: {e}"),
            Self::SchemaVersion { found, expected } => {
                write!(f, "snapshot schema v{found}, this build writes v{expected}")
            }
            Self::Fingerprint { found, expected } => {
                write!(
                    f,
                    "snapshot fingerprint {found} does not match cache {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn fnv1a_u64(mut hash: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a digest of a sequence of words — the service derives bench
/// tags from the supply voltage (and, via `at_alpha`, the duty ratio)
/// with this.
pub fn tag_for(parts: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        hash = fnv1a_u64(hash, *p);
    }
    hash
}

/// A bench wrapper backed by a [`VerdictCache`].
///
/// Layer it at the very *bottom* of the evaluation stack (it is the
/// bench handed to [`Ecripse::new`](ecripse_core::ecripse::Ecripse)),
/// never above the counting layers — see the module docs.
#[derive(Debug)]
pub struct SharedBench<B> {
    inner: B,
    tag: u64,
    cache: Arc<VerdictCache>,
    enabled: bool,
}

impl<B> SharedBench<B> {
    /// Wraps `inner`, keying its verdicts under `tag`. With `enabled`
    /// off the wrapper is a transparent pass-through.
    pub fn new(inner: B, tag: u64, cache: Arc<VerdictCache>, enabled: bool) -> Self {
        Self {
            inner,
            tag,
            cache,
            enabled,
        }
    }

    /// The wrapped bench.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Clone> Clone for SharedBench<B> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            tag: self.tag,
            cache: Arc::clone(&self.cache),
            enabled: self.enabled,
        }
    }
}

impl<B: Testbench> SharedBench<B> {
    fn key(&self, mode: u16, z: &[f64]) -> CacheKey {
        (self.tag, mode, self.cache.quantise(z))
    }

    fn attempt_mode(attempt: usize) -> u16 {
        MODE_ATTEMPT_BASE
            .saturating_add(attempt.min(usize::from(u16::MAX - MODE_ATTEMPT_BASE)) as u16)
    }

    fn cached_try(
        &self,
        mode: u16,
        z: &[f64],
        eval: impl FnOnce() -> Result<bool, EvalError>,
    ) -> Result<bool, EvalError> {
        if !self.enabled {
            return eval();
        }
        let key = self.key(mode, z);
        if let Some(verdict) = self.cache.lookup(&key) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(verdict);
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = eval()?;
        self.cache.insert(key, verdict);
        Ok(verdict)
    }
}

impl<B: Testbench> Testbench for SharedBench<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        if !self.enabled {
            return self.inner.fails(z);
        }
        let key = self.key(MODE_PLAIN, z);
        if let Some(verdict) = self.cache.lookup(&key) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = self.inner.fails(z);
        self.cache.insert(key, verdict);
        verdict
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        if !self.enabled || zs.is_empty() {
            return self.inner.fails_batch(zs);
        }
        // Serial routing (the memo-cache idiom): resolve cached
        // verdicts, deduplicate the rest, evaluate each unique point
        // once through the (possibly parallel) inner batch.
        let keys: Vec<CacheKey> = zs.iter().map(|z| self.key(MODE_PLAIN, z)).collect();
        let mut first_seen: HashMap<&CacheKey, usize> = HashMap::new();
        let mut eval_points: Vec<Vec<f64>> = Vec::new();
        let mut routes: Vec<Result<bool, usize>> = Vec::with_capacity(zs.len());
        let mut hits = 0u64;
        for (z, key) in zs.iter().zip(&keys) {
            if let Some(verdict) = self.cache.lookup(key) {
                hits += 1;
                routes.push(Ok(verdict));
            } else if let Some(&slot) = first_seen.get(key) {
                hits += 1;
                routes.push(Err(slot));
            } else {
                let slot = eval_points.len();
                first_seen.insert(key, slot);
                eval_points.push(z.clone());
                routes.push(Err(slot));
            }
        }
        self.cache.hits.fetch_add(hits, Ordering::Relaxed);
        self.cache
            .misses
            .fetch_add(eval_points.len() as u64, Ordering::Relaxed);
        let fresh = self.inner.fails_batch(&eval_points);
        for (key, verdict) in keys
            .iter()
            .zip(&routes)
            .filter_map(|(key, route)| route.err().map(|slot| (key, fresh[slot])))
        {
            self.cache.insert(key.clone(), verdict);
        }
        routes
            .into_iter()
            .map(|route| route.unwrap_or_else(|slot| fresh[slot]))
            .collect()
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.cached_try(MODE_TRY, z, || self.inner.try_fails(z))
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        self.cached_try(Self::attempt_mode(attempt), z, || {
            self.inner.try_fails_attempt(z, attempt)
        })
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        if !self.enabled || zs.is_empty() {
            return self.inner.try_fails_batch(zs);
        }
        // A batch is the retry ladder's attempt 0 (see
        // `Testbench::try_fails_batch`), so its verdicts share the
        // attempt-0 namespace with `try_fails_attempt(z, 0)`.
        let mode = Self::attempt_mode(0);
        let keys: Vec<CacheKey> = zs.iter().map(|z| self.key(mode, z)).collect();
        let mut first_seen: HashMap<&CacheKey, usize> = HashMap::new();
        let mut eval_points: Vec<Vec<f64>> = Vec::new();
        let mut routes: Vec<Result<bool, usize>> = Vec::with_capacity(zs.len());
        let mut hits = 0u64;
        for (z, key) in zs.iter().zip(&keys) {
            if let Some(verdict) = self.cache.lookup(key) {
                hits += 1;
                routes.push(Ok(verdict));
            } else if let Some(&slot) = first_seen.get(key) {
                hits += 1;
                routes.push(Err(slot));
            } else {
                let slot = eval_points.len();
                first_seen.insert(key, slot);
                eval_points.push(z.clone());
                routes.push(Err(slot));
            }
        }
        self.cache.hits.fetch_add(hits, Ordering::Relaxed);
        self.cache
            .misses
            .fetch_add(eval_points.len() as u64, Ordering::Relaxed);
        let fresh = self.inner.try_fails_batch(&eval_points);
        for (key, outcome) in keys
            .iter()
            .zip(&routes)
            .filter_map(|(key, route)| route.err().map(|slot| (key, &fresh[slot])))
        {
            if let Ok(verdict) = outcome {
                self.cache.insert(key.clone(), *verdict);
            }
        }
        routes
            .into_iter()
            .map(|route| match route {
                Ok(verdict) => Ok(verdict),
                Err(slot) => fresh[slot].clone(),
            })
            .collect()
    }

    fn solve_effort(&self) -> SolveEffort {
        self.inner.solve_effort()
    }
}

impl<B: SweepBench> SweepBench for SharedBench<B> {
    fn sigmas(&self) -> [f64; 6] {
        self.inner.sigmas()
    }

    fn at_alpha(&self, alpha: f64) -> Self {
        Self {
            inner: self.inner.at_alpha(alpha),
            // Fold α into the tag: benches may specialise per point.
            tag: tag_for(&[self.tag, alpha.to_bits()]),
            cache: Arc::clone(&self.cache),
            enabled: self.enabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_core::bench::LinearBench;

    fn bench() -> LinearBench {
        LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2.0)
    }

    fn cache() -> Arc<VerdictCache> {
        Arc::new(VerdictCache::new(MemoCacheConfig::default()))
    }

    #[test]
    fn verdicts_are_cached_and_identical() {
        let cache = cache();
        let shared = SharedBench::new(bench(), 7, Arc::clone(&cache), true);
        let z = vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let first = shared.fails(&z);
        let second = shared.fails(&z);
        assert_eq!(first, second);
        assert_eq!(first, bench().fails(&z));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn batches_deduplicate_and_match_elementwise() {
        let cache = cache();
        let shared = SharedBench::new(bench(), 7, Arc::clone(&cache), true);
        let zs: Vec<Vec<f64>> = vec![
            vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        let got = shared.fails_batch(&zs);
        assert_eq!(got, bench().fails_batch(&zs));
        // Two unique points evaluated, the repeat served from cache.
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 1);
        let tried: Vec<bool> = shared
            .try_fails_batch(&zs)
            .into_iter()
            .map(|r| r.expect("linear bench is total"))
            .collect();
        assert_eq!(tried, got);
    }

    #[test]
    fn modes_and_tags_are_separate_namespaces() {
        let cache = cache();
        let a = SharedBench::new(bench(), 1, Arc::clone(&cache), true);
        let b = SharedBench::new(bench(), 2, Arc::clone(&cache), true);
        let z = vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let _ = a.fails(&z);
        let _ = b.fails(&z); // Different tag: no cross-talk.
        let _ = a.try_fails(&z); // Different mode: separate entry.
        let _ = a.try_fails_attempt(&z, 1); // Different attempt rung.
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn disabled_wrapper_is_a_pure_passthrough() {
        let cache = cache();
        let shared = SharedBench::new(bench(), 7, Arc::clone(&cache), false);
        let z = vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let _ = shared.fails(&z);
        let _ = shared.fails(&z);
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.hit_rate(), None);
    }

    #[test]
    fn at_alpha_changes_the_tag() {
        let cache = cache();
        let shared = SharedBench::new(bench(), 7, Arc::clone(&cache), true);
        let z = vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let _ = shared.fails(&z);
        let _ = shared.at_alpha(0.5).fails(&z);
        assert_eq!(cache.misses(), 2, "per-α verdicts are namespaced");
        assert_eq!(shared.at_alpha(0.5).sigmas(), shared.sigmas());
    }

    /// A bench that counts real evaluations, to prove restored verdicts
    /// are served without touching the inner model.
    struct CountingBench {
        inner: LinearBench,
        evals: AtomicU64,
    }

    impl Testbench for CountingBench {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn fails(&self, z: &[f64]) -> bool {
            self.evals.fetch_add(1, Ordering::Relaxed);
            self.inner.fails(z)
        }
    }

    fn snapshot_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ecripse-snapshot-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("verdicts.json")
    }

    #[test]
    fn snapshot_roundtrip_serves_verdicts_without_reevaluation() {
        let path = snapshot_path("roundtrip");
        let store = cache();
        let shared = SharedBench::new(bench(), 7, Arc::clone(&store), true);
        let hot = vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let cold = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let expected_hot = shared.fails(&hot);
        let expected_cold = shared.try_fails(&cold).expect("linear bench is total");
        let saved = store.save_snapshot(&path).expect("save snapshot");
        assert_eq!(saved, 2);

        // A fresh process: new cache, counting inner bench.
        let restored = cache();
        let loaded = restored.load_snapshot(&path).expect("load snapshot");
        assert_eq!(loaded, saved);
        let counting = CountingBench {
            inner: bench(),
            evals: AtomicU64::new(0),
        };
        let warm = SharedBench::new(counting, 7, Arc::clone(&restored), true);
        assert_eq!(warm.fails(&hot), expected_hot);
        assert_eq!(
            warm.try_fails(&cold).expect("linear bench is total"),
            expected_cold
        );
        assert_eq!(
            warm.inner().evals.load(Ordering::Relaxed),
            0,
            "restored verdicts must be served from the store"
        );
        assert_eq!(restored.hits(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshots_are_deterministic_bytes() {
        let path_a = snapshot_path("bytes-a");
        let path_b = snapshot_path("bytes-b");
        let cache_a = cache();
        let cache_b = cache();
        // Populate in different orders; the sorted snapshot is identical.
        let zs: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![f64::from(i), 0.0, 0.0, 0.0, 0.0, 0.0])
            .collect();
        let shared_a = SharedBench::new(bench(), 7, Arc::clone(&cache_a), true);
        let shared_b = SharedBench::new(bench(), 7, Arc::clone(&cache_b), true);
        for z in &zs {
            let _ = shared_a.fails(z);
        }
        for z in zs.iter().rev() {
            let _ = shared_b.fails(z);
        }
        cache_a.save_snapshot(&path_a).expect("save a");
        cache_b.save_snapshot(&path_b).expect("save b");
        let bytes_a = std::fs::read(&path_a).expect("read a");
        let bytes_b = std::fs::read(&path_b).expect("read b");
        assert_eq!(bytes_a, bytes_b);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn corrupted_snapshot_is_rejected_and_leaves_cache_empty() {
        let path = snapshot_path("corrupt");
        std::fs::write(&path, b"{ this is not json").expect("write corrupt file");
        let cache = cache();
        let err = cache.load_snapshot(&path).expect_err("corrupt must fail");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err}");
        assert!(cache.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantum_mismatch_is_rejected_by_fingerprint() {
        let path = snapshot_path("quantum");
        let coarse = cache();
        let shared = SharedBench::new(bench(), 7, Arc::clone(&coarse), true);
        let _ = shared.fails(&[3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        coarse.save_snapshot(&path).expect("save snapshot");

        let mut other_grid = MemoCacheConfig::default();
        other_grid.quantum *= 10.0;
        let fine = Arc::new(VerdictCache::new(other_grid));
        let err = fine
            .load_snapshot(&path)
            .expect_err("grid mismatch must fail");
        assert!(
            matches!(err, SnapshotError::Fingerprint { .. }),
            "got {err}"
        );
        assert!(fine.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scope_mismatch_is_rejected_by_fingerprint() {
        let path = snapshot_path("scope");
        let read_scope = Arc::new(VerdictCache::with_scope(
            MemoCacheConfig::default(),
            "registry-v1",
        ));
        let shared = SharedBench::new(bench(), 7, Arc::clone(&read_scope), true);
        let _ = shared.fails(&[3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        read_scope.save_snapshot(&path).expect("save snapshot");

        let other_scope = Arc::new(VerdictCache::with_scope(
            MemoCacheConfig::default(),
            "registry-v2",
        ));
        let err = other_scope
            .load_snapshot(&path)
            .expect_err("scope mismatch must fail");
        assert!(
            matches!(err, SnapshotError::Fingerprint { .. }),
            "got {err}"
        );
        assert!(other_scope.is_empty(), "ignored, not misapplied");
        // The matching scope still restores.
        let same = Arc::new(VerdictCache::with_scope(
            MemoCacheConfig::default(),
            "registry-v1",
        ));
        assert_eq!(same.load_snapshot(&path).expect("same scope loads"), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let path = snapshot_path("version");
        let cache = cache();
        cache.save_snapshot(&path).expect("save snapshot");
        let text = std::fs::read_to_string(&path).expect("read snapshot");
        let bumped = text.replace(
            &format!("\"schema_version\":{CACHE_SNAPSHOT_VERSION}"),
            &format!("\"schema_version\":{}", CACHE_SNAPSHOT_VERSION + 1),
        );
        assert_ne!(text, bumped, "version field must be present to rewrite");
        std::fs::write(&path, bumped).expect("rewrite snapshot");
        let err = cache
            .load_snapshot(&path)
            .expect_err("future schema must fail");
        assert!(
            matches!(
                err,
                SnapshotError::SchemaVersion { found, expected }
                    if found == CACHE_SNAPSHOT_VERSION + 1 && expected == CACHE_SNAPSHOT_VERSION
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_is_an_io_error() {
        let cache = cache();
        let err = cache
            .load_snapshot(Path::new("/nonexistent/ecripse-verdicts.json"))
            .expect_err("missing file must fail");
        assert!(matches!(err, SnapshotError::Io(_)), "got {err}");
    }
}
