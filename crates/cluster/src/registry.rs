//! The coordinator's worker registry: who is in the cluster, and who
//! is still breathing.
//!
//! Workers are plain `ecripse-serve` processes that dial in (see
//! [`mod@crate::join`]): they `POST /v1/cluster/register` once and then
//! heartbeat at the interval the coordinator hands back. The registry
//! is the single source of truth for liveness — a worker whose last
//! heartbeat is older than the configured timeout is marked dead by
//! the reaper, its unfinished shards are reassigned to survivors, and
//! a later register from the same name revives it (a restarted worker
//! resumes its journaled shards via the shard idempotency keys, so the
//! revival is safe).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One registered worker.
#[derive(Debug, Clone)]
pub struct WorkerEntry {
    /// Address the coordinator dials for shard submissions.
    pub addr: String,
    /// When the last register or heartbeat arrived.
    pub last_seen: Instant,
    /// `false` once the reaper declared the worker dead.
    pub alive: bool,
}

/// Thread-safe name → worker map.
#[derive(Debug, Default)]
pub struct WorkerRegistry {
    workers: Mutex<HashMap<String, WorkerEntry>>,
}

impl WorkerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or revives) `name` at `addr`. Returns `true` when the
    /// name was new or previously dead — i.e. the cluster gained
    /// capacity.
    pub fn register(&self, name: &str, addr: &str, now: Instant) -> bool {
        let mut workers = self.workers.lock();
        let revived = workers.get(name).is_none_or(|w| !w.alive);
        workers.insert(
            name.to_string(),
            WorkerEntry {
                addr: addr.to_string(),
                last_seen: now,
                alive: true,
            },
        );
        revived
    }

    /// Refreshes `name`'s heartbeat. Returns `false` for an unknown or
    /// dead worker — the caller answers `404` so the worker re-registers
    /// instead of heartbeating into the void.
    pub fn heartbeat(&self, name: &str, now: Instant) -> bool {
        let mut workers = self.workers.lock();
        match workers.get_mut(name) {
            Some(entry) if entry.alive => {
                entry.last_seen = now;
                true
            }
            _ => false,
        }
    }

    /// Marks every worker whose last heartbeat is older than `timeout`
    /// dead, returning the names that died in this pass.
    pub fn reap(&self, now: Instant, timeout: Duration) -> Vec<String> {
        let mut workers = self.workers.lock();
        let mut died = Vec::new();
        for (name, entry) in workers.iter_mut() {
            if entry.alive && now.duration_since(entry.last_seen) > timeout {
                entry.alive = false;
                died.push(name.clone());
            }
        }
        died.sort_unstable();
        died
    }

    /// `(name, addr)` of every live worker, sorted by name so shard
    /// placement is deterministic.
    pub fn alive(&self) -> Vec<(String, String)> {
        let workers = self.workers.lock();
        let mut alive: Vec<(String, String)> = workers
            .iter()
            .filter(|(_, entry)| entry.alive)
            .map(|(name, entry)| (name.clone(), entry.addr.clone()))
            .collect();
        alive.sort_unstable();
        alive
    }

    /// Whether `name` is currently registered and alive.
    pub fn is_alive(&self, name: &str) -> bool {
        self.workers.lock().get(name).is_some_and(|w| w.alive)
    }

    /// Snapshot of every worker (for `GET /v1/cluster/workers`), sorted
    /// by name.
    pub fn snapshot(&self, now: Instant) -> Vec<(String, WorkerEntry, Duration)> {
        let workers = self.workers.lock();
        let mut all: Vec<(String, WorkerEntry, Duration)> = workers
            .iter()
            .map(|(name, entry)| {
                (
                    name.clone(),
                    entry.clone(),
                    now.saturating_duration_since(entry.last_seen),
                )
            })
            .collect();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_heartbeat_reap_revive() {
        let registry = WorkerRegistry::new();
        let t0 = Instant::now();
        assert!(registry.register("w1", "127.0.0.1:1", t0));
        assert!(
            !registry.register("w1", "127.0.0.1:1", t0),
            "re-register of a live worker adds no capacity"
        );
        assert!(registry.heartbeat("w1", t0 + Duration::from_millis(100)));
        assert!(
            !registry.heartbeat("ghost", t0),
            "unknown workers must re-register"
        );

        // Silence past the timeout kills it; heartbeats stop landing.
        let died = registry.reap(t0 + Duration::from_secs(10), Duration::from_secs(1));
        assert_eq!(died, vec!["w1".to_string()]);
        assert!(!registry.is_alive("w1"));
        assert!(!registry.heartbeat("w1", t0 + Duration::from_secs(10)));
        assert!(registry.alive().is_empty());
        // A second reap pass reports nothing new.
        assert!(registry
            .reap(t0 + Duration::from_secs(20), Duration::from_secs(1))
            .is_empty());

        // Re-register revives (the restarted-worker path).
        assert!(registry.register("w1", "127.0.0.1:2", t0 + Duration::from_secs(11)));
        assert!(registry.is_alive("w1"));
        assert_eq!(
            registry.alive(),
            [("w1".to_string(), "127.0.0.1:2".to_string())]
        );
    }

    #[test]
    fn alive_listing_is_sorted() {
        let registry = WorkerRegistry::new();
        let now = Instant::now();
        registry.register("zeta", "a:1", now);
        registry.register("alpha", "a:2", now);
        registry.register("mid", "a:3", now);
        let names: Vec<String> = registry.alive().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }
}
