//! Wire types for the coordinator's cluster-management endpoints.
//!
//! The *job* wire protocol is exactly `ecripse-serve`'s
//! ([`SubmitRequest`](ecripse_serve::protocol::SubmitRequest) and
//! friends, gated by the same
//! [`PROTOCOL_VERSION`](ecripse_serve::protocol::PROTOCOL_VERSION)) —
//! a client cannot tell a coordinator from a single server. The types
//! here cover only what the cluster adds: worker registration,
//! heartbeats, the worker listing and the coordinator's own metrics
//! document.

use ecripse_serve::protocol::Metrics;
use serde::{Deserialize, Serialize};

/// `POST /v1/cluster/register` body: a worker announcing itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterRequest {
    /// Must equal the serve wire protocol version — a worker speaking a
    /// different protocol would hand back undecodable shard reports.
    pub protocol: u32,
    /// Stable worker name. Re-registering the same name revives a dead
    /// entry (the restarted-worker path); two concurrent workers must
    /// not share one.
    pub name: String,
    /// Address the coordinator dials for shard submissions
    /// (`host:port` of the worker's serve socket).
    pub addr: String,
}

/// `POST /v1/cluster/register` response: the cadence the coordinator
/// expects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterResponse {
    /// Protocol version the coordinator speaks.
    pub protocol: u32,
    /// How often the worker should heartbeat.
    pub heartbeat_interval_ms: u64,
    /// Silence longer than this marks the worker dead.
    pub timeout_ms: u64,
}

/// `POST /v1/cluster/heartbeat` body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatRequest {
    /// The registered worker name. An unknown (or reaped) name is
    /// answered `404` so the worker re-registers.
    pub name: String,
}

/// One worker in the `GET /v1/cluster/workers` listing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerView {
    /// Registered name.
    pub name: String,
    /// Dial address.
    pub addr: String,
    /// Whether the reaper still considers it alive.
    pub alive: bool,
    /// Milliseconds since its last register/heartbeat.
    pub last_seen_ms: u64,
}

/// The `GET /v1/cluster/workers` body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterWorkers {
    /// Every known worker, dead or alive, sorted by name.
    pub workers: Vec<WorkerView>,
}

/// One worker's scraped serve metrics inside the federated view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerMetricsView {
    /// The worker's registered name.
    pub worker: String,
    /// The worker's own `GET /metrics` document, verbatim.
    pub metrics: Metrics,
}

/// Min/max/sum of one serve scalar across the scraped workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRollup {
    /// The serve metric the rollup covers (e.g. `queue_depth`).
    pub name: String,
    /// Smallest per-worker value.
    pub min: f64,
    /// Largest per-worker value.
    pub max: f64,
    /// Sum over every scraped worker.
    pub sum: f64,
}

/// The coordinator's `GET /metrics` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMetrics {
    /// Workers currently alive.
    pub workers_alive: u64,
    /// Workers ever declared dead by the reaper (revivals do not
    /// subtract — this counts death events).
    pub workers_dead_total: u64,
    /// Jobs ever accepted by the coordinator.
    pub jobs_submitted: u64,
    /// Jobs whose merged result completed.
    pub jobs_completed: u64,
    /// Jobs that ended in failure.
    pub jobs_failed: u64,
    /// Jobs cancelled through the coordinator.
    pub jobs_cancelled: u64,
    /// Jobs that ran out of their deadline budget.
    pub jobs_deadline_exceeded: u64,
    /// Submissions answered from the idempotency map.
    pub idempotent_hits: u64,
    /// Sweep shards dispatched to workers (re-dispatches included).
    pub shards_dispatched_total: u64,
    /// Shards that had to be reassigned off a dead worker.
    pub shards_reassigned_total: u64,
    /// Shards whose results were merged.
    pub shards_completed_total: u64,
    /// Estimate dispatches to a worker (re-dispatches included).
    pub estimates_forwarded_total: u64,
    /// Seconds since the coordinator bound its socket.
    pub uptime_seconds: f64,
    /// Per-worker serve metrics gathered by the on-demand federation
    /// scrape behind `GET /metrics`. Empty when no worker answered, in
    /// the in-process [`Coordinator::metrics`](crate::Coordinator::metrics)
    /// snapshot (which skips the scrape), and in pre-PR-10 documents.
    #[serde(default)]
    pub workers: Vec<WorkerMetricsView>,
    /// Min/max/sum rollups of a few serve scalars across the scraped
    /// workers; empty whenever `workers` is.
    #[serde(default)]
    pub rollups: Vec<MetricRollup>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_types_round_trip() {
        let register = RegisterRequest {
            protocol: 1,
            name: "w1".into(),
            addr: "127.0.0.1:7878".into(),
        };
        let json = serde_json::to_string(&register).expect("serialise");
        let back: RegisterRequest = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, register);

        let listing = ClusterWorkers {
            workers: vec![WorkerView {
                name: "w1".into(),
                addr: "127.0.0.1:7878".into(),
                alive: true,
                last_seen_ms: 12,
            }],
        };
        let json = serde_json::to_string(&listing).expect("serialise");
        let back: ClusterWorkers = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, listing);

        let metrics = ClusterMetrics {
            workers_alive: 2,
            workers_dead_total: 1,
            jobs_submitted: 5,
            jobs_completed: 3,
            jobs_failed: 0,
            jobs_cancelled: 1,
            jobs_deadline_exceeded: 1,
            idempotent_hits: 2,
            shards_dispatched_total: 9,
            shards_reassigned_total: 2,
            shards_completed_total: 7,
            estimates_forwarded_total: 1,
            uptime_seconds: 0.5,
            workers: Vec::new(),
            rollups: vec![MetricRollup {
                name: "queue_depth".into(),
                min: 0.0,
                max: 3.0,
                sum: 3.0,
            }],
        };
        let json = serde_json::to_string(&metrics).expect("serialise");
        let back: ClusterMetrics = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, metrics);
    }

    /// A pre-PR-10 coordinator metrics document — no `workers`, no
    /// `rollups` — must still parse, with the federation fields
    /// defaulting to empty.
    #[test]
    fn pre_federation_metrics_still_parse() {
        let modern = ClusterMetrics {
            workers_alive: 1,
            workers_dead_total: 0,
            jobs_submitted: 2,
            jobs_completed: 2,
            jobs_failed: 0,
            jobs_cancelled: 0,
            jobs_deadline_exceeded: 0,
            idempotent_hits: 0,
            shards_dispatched_total: 4,
            shards_reassigned_total: 0,
            shards_completed_total: 4,
            estimates_forwarded_total: 0,
            uptime_seconds: 1.5,
            workers: Vec::new(),
            rollups: Vec::new(),
        };
        let json = serde_json::to_string(&modern).expect("serialise");
        let mut value: serde::json::Value = serde_json::from_str(&json).expect("parse");
        if let serde::json::Value::Object(entries) = &mut value {
            entries.retain(|(key, _)| key != "workers" && key != "rollups");
        }
        let stripped = serde_json::to_string(&value).expect("re-serialise");
        let back: ClusterMetrics =
            serde_json::from_str(&stripped).expect("old wire body must parse");
        assert!(back.workers.is_empty());
        assert!(back.rollups.is_empty());
        assert_eq!(back, modern);
    }
}
