//! Persisting the process-wide verdict store across restarts.
//!
//! A resident service answers repeated queries from one
//! [`VerdictStore`] shared by every job, through a
//! [`MemoBench::shared`](ecripse_core::cache::MemoBench::shared) wrapper
//! at the very bottom of each job's bench stack (see
//! [`ecripse_core::cache`]). This module saves that store to disk on
//! shutdown and restores it at boot, so a restarted process starts warm.
//!
//! A snapshot is bound to its key space by a fingerprint over the schema
//! version, the grid quantum and a *scope* — an opaque key-space
//! discriminator. The server passes the scenario-registry digest as the
//! scope, so a snapshot persisted under one registry (or one scenario
//! semantics version) is *rejected*, not misapplied, by a process running
//! another. Stale verdicts are worse than a cold start.

use ecripse_core::cache::{tag_for, VerdictStore};
use ecripse_core::sweep::write_atomically;
use ecripse_stats::fnv1a;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Compatibility fingerprint of `store`'s key space under `scope`: any
/// change to the snapshot schema, the quantisation grid or the scope
/// invalidates persisted verdicts (a verdict keyed on a different grid
/// or computed by a different indicator set would be silently wrong,
/// not just stale).
pub fn fingerprint(store: &VerdictStore, scope: &str) -> String {
    let hash = tag_for(&[u64::from(CACHE_SNAPSHOT_VERSION), store.quantum().to_bits()]);
    let hash = fnv1a(hash, scope.as_bytes());
    format!("{hash:016x}")
}

/// Persists every verdict in `store` to `path` atomically (`.tmp`
/// sibling + rename, the sweep-checkpoint discipline) and returns the
/// number of entries written. Entries are sorted by key so the file is
/// byte-identical for identical store contents.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failures,
/// [`SnapshotError::Malformed`] if serialisation fails.
pub fn save_snapshot(
    store: &VerdictStore,
    scope: &str,
    path: &Path,
) -> Result<usize, SnapshotError> {
    let entries: Vec<SnapshotEntry> = store
        .entries()
        .into_iter()
        .map(|(tag, mode, key, verdict)| SnapshotEntry {
            // Full-range u64 tags would lose precision as JSON numbers;
            // hex strings round-trip exactly.
            tag: format!("{tag:016x}"),
            mode,
            key,
            verdict,
        })
        .collect();
    let count = entries.len();
    let snapshot = CacheSnapshot {
        schema_version: CACHE_SNAPSHOT_VERSION,
        fingerprint: fingerprint(store, scope),
        entries,
    };
    let json = serde_json::to_string(&snapshot)
        .map_err(|e| SnapshotError::Malformed(format!("serialise snapshot: {e}")))?;
    write_atomically(path, json.as_bytes()).map_err(|e| SnapshotError::Io(e.to_string()))?;
    Ok(count)
}

/// Loads a snapshot written by [`save_snapshot`] into `store` and
/// returns the number of entries restored. Restoring is all or nothing:
/// the schema version, the fingerprint and every entry are checked
/// before the first verdict is inserted, so any error leaves the store
/// untouched.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read (including a simple
/// not-found on first boot), [`SnapshotError::Malformed`] on parse
/// failures, [`SnapshotError::SchemaVersion`] /
/// [`SnapshotError::Fingerprint`] on compatibility mismatches.
pub fn load_snapshot(
    store: &VerdictStore,
    scope: &str,
    path: &Path,
) -> Result<usize, SnapshotError> {
    let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    let snapshot: CacheSnapshot =
        serde_json::from_str(&text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
    if snapshot.schema_version != CACHE_SNAPSHOT_VERSION {
        return Err(SnapshotError::SchemaVersion {
            found: snapshot.schema_version,
            expected: CACHE_SNAPSHOT_VERSION,
        });
    }
    let expected = fingerprint(store, scope);
    if snapshot.fingerprint != expected {
        return Err(SnapshotError::Fingerprint {
            found: snapshot.fingerprint,
            expected,
        });
    }
    let entries = snapshot
        .entries
        .into_iter()
        .map(|entry| {
            let tag = u64::from_str_radix(&entry.tag, 16)
                .map_err(|e| SnapshotError::Malformed(format!("tag {:?}: {e}", entry.tag)))?;
            Ok((tag, entry.mode, entry.key, entry.verdict))
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let count = entries.len();
    for (tag, mode, key, verdict) in entries {
        store.insert(tag, mode, key, verdict);
    }
    Ok(count)
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

/// The on-disk form of a [`VerdictStore`].
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
    /// The snapshot's key space differs from the store's (e.g. another
    /// quantisation grid or scope).
    Fingerprint {
        /// Fingerprint found in the file.
        found: String,
        /// Fingerprint of the store and scope.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_core::bench::{LinearBench, Testbench};
    use ecripse_core::cache::{MemoBench, MemoCacheConfig};
    use ecripse_core::{NullObserver, RetryPolicy, Simulator};
    use std::sync::Arc;

    fn bench() -> LinearBench {
        LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2.0)
    }

    fn store() -> Arc<VerdictStore> {
        Arc::new(VerdictStore::new(MemoCacheConfig::default()))
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
        let store = store();
        let shared = MemoBench::shared(bench(), 7, Arc::clone(&store), true);
        let hot = vec![3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let cold = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let expected_hot = shared.fails(&hot);
        let expected_cold = shared.try_fails(&cold).expect("linear bench is total");
        let saved = save_snapshot(&store, "", &path).expect("save snapshot");
        assert_eq!(saved, 2);

        // A fresh process: new store, counted inner bench.
        let restored = self::store();
        let loaded = load_snapshot(&restored, "", &path).expect("load snapshot");
        assert_eq!(loaded, saved);
        assert_eq!(
            restored.hits() + restored.misses(),
            0,
            "restoring counts nothing"
        );
        let raw = bench();
        let memo_off = MemoCacheConfig {
            enabled: false,
            ..MemoCacheConfig::default()
        };
        let billed = Simulator::new(&raw, &NullObserver, memo_off, RetryPolicy::default());
        let warm = MemoBench::shared(&billed, 7, Arc::clone(&restored), true);
        assert_eq!(warm.fails(&hot), expected_hot);
        assert_eq!(
            warm.try_fails(&cold).expect("linear bench is total"),
            expected_cold
        );
        assert_eq!(
            billed.simulations(),
            0,
            "restored verdicts must be served from the store"
        );
        assert_eq!(restored.hits(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// The file a two-entry store saves under scope `registry-v1` on the
    /// default grid, as written by the snapshot format's v2 encoding.
    /// Existing `--cache-store` files must keep loading, so neither the
    /// fingerprint nor the entry encoding may change under schema v2.
    const PINNED_SNAPSHOT: &str = concat!(
        r#"{"schema_version":2,"fingerprint":"7aded614ef81b5e3","entries":["#,
        r#"{"tag":"0000000000000007","mode":0,"key":[3000000000,0,0,0,0,0],"verdict":true},"#,
        r#"{"tag":"fedcba9876543210","mode":1,"key":[500000000,-1250000000,0,0,0,0],"verdict":false}]}"#
    );

    #[test]
    fn snapshot_bytes_match_the_pinned_v2_encoding() {
        let path = snapshot_path("pinned");
        // Populated in either order, the sorted file is the same bytes.
        for reversed in [false, true] {
            let store = store();
            let a = MemoBench::shared(bench(), 7, Arc::clone(&store), true);
            let b = MemoBench::shared(bench(), 0xfedc_ba98_7654_3210, Arc::clone(&store), true);
            let hot = || assert!(a.fails(&[3.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
            let cold = || assert_eq!(b.try_fails(&[0.5, -1.25, 0.0, 0.0, 0.0, 0.0]), Ok(false));
            if reversed {
                cold();
                hot();
            } else {
                hot();
                cold();
            }
            save_snapshot(&store, "registry-v1", &path).expect("save snapshot");
            let text = std::fs::read_to_string(&path).expect("read snapshot");
            assert_eq!(text, PINNED_SNAPSHOT);
            let restored = self::store();
            assert_eq!(load_snapshot(&restored, "registry-v1", &path), Ok(2));
            assert_eq!(restored.entries(), store.entries());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_snapshot_is_rejected_and_leaves_store_empty() {
        let path = snapshot_path("corrupt");
        std::fs::write(&path, b"{ this is not json").expect("write corrupt file");
        let store = store();
        let err = load_snapshot(&store, "", &path).expect_err("corrupt must fail");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err}");
        assert!(store.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bad_entry_rejects_the_whole_snapshot() {
        let path = snapshot_path("bad-entry");
        let text = PINNED_SNAPSHOT.replace("\"fedcba9876543210\"", "\"zz\"");
        assert_ne!(
            text, PINNED_SNAPSHOT,
            "second tag must be present to corrupt"
        );
        std::fs::write(&path, text).expect("write snapshot");
        let store = store();
        let err = load_snapshot(&store, "registry-v1", &path).expect_err("bad tag must fail");
        assert!(matches!(err, SnapshotError::Malformed(_)), "got {err}");
        assert!(
            store.is_empty(),
            "the valid first entry must not be restored"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantum_mismatch_is_rejected_by_fingerprint() {
        let path = snapshot_path("quantum");
        let coarse = store();
        let shared = MemoBench::shared(bench(), 7, Arc::clone(&coarse), true);
        let _ = shared.fails(&[3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        save_snapshot(&coarse, "", &path).expect("save snapshot");

        let mut other_grid = MemoCacheConfig::default();
        other_grid.quantum *= 10.0;
        let fine = VerdictStore::new(other_grid);
        let err = load_snapshot(&fine, "", &path).expect_err("grid mismatch must fail");
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
        let read_scope = store();
        let shared = MemoBench::shared(bench(), 7, Arc::clone(&read_scope), true);
        let _ = shared.fails(&[3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        save_snapshot(&read_scope, "registry-v1", &path).expect("save snapshot");

        let other_scope = store();
        let err = load_snapshot(&other_scope, "registry-v2", &path)
            .expect_err("scope mismatch must fail");
        assert!(
            matches!(err, SnapshotError::Fingerprint { .. }),
            "got {err}"
        );
        assert!(other_scope.is_empty(), "ignored, not misapplied");
        // The matching scope still restores.
        let same = store();
        assert_eq!(
            load_snapshot(&same, "registry-v1", &path).expect("same scope loads"),
            1
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let path = snapshot_path("version");
        let store = store();
        save_snapshot(&store, "", &path).expect("save snapshot");
        let text = std::fs::read_to_string(&path).expect("read snapshot");
        let bumped = text.replace(
            &format!("\"schema_version\":{CACHE_SNAPSHOT_VERSION}"),
            &format!("\"schema_version\":{}", CACHE_SNAPSHOT_VERSION + 1),
        );
        assert_ne!(text, bumped, "version field must be present to rewrite");
        std::fs::write(&path, bumped).expect("rewrite snapshot");
        let err = load_snapshot(&store, "", &path).expect_err("future schema must fail");
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
        let store = store();
        let err = load_snapshot(&store, "", Path::new("/nonexistent/ecripse-verdicts.json"))
            .expect_err("missing file must fail");
        assert!(matches!(err, SnapshotError::Io(_)), "got {err}");
    }
}
