//! ECRIPSE *cluster*: many serve processes behind one job protocol.
//!
//! PR 8's serving layer made a single warm process crash-safe; this
//! crate scales it out without changing a byte of the client-facing
//! wire protocol. A **coordinator** fronts a fleet of plain
//! `ecripse-serve` **workers**:
//!
//! * [`registry`] — the worker liveness registry fed by registrations
//!   and heartbeats, reaped on silence;
//! * [`protocol`] — the cluster-management wire types (register,
//!   heartbeat, worker listing, coordinator metrics); *job* traffic is
//!   exactly [`ecripse_serve::protocol`];
//! * [`join`](mod@join) — the worker-side register-and-heartbeat loop behind
//!   `ecripse-cli serve --join ADDR`;
//! * [`coordinator`] — the front door: accepts ordinary
//!   [`SubmitRequest`](ecripse_serve::protocol::SubmitRequest)s, cuts
//!   sweeps into contiguous shards dealt round-robin over the live
//!   workers, reassigns shards off dead workers under
//!   stable idempotency keys, and merges shard reports into a result
//!   **bit-identical** to a single-process run (via
//!   [`merge_sweep_shards`](ecripse_core::sweep::merge_sweep_shards)).
//!
//! # Determinism contract
//!
//! Sharding never changes numbers. Every shard carries its points'
//! *global* grid indices, so each worker derives exactly the per-point
//! seeds a single full-grid run would; the merge is keyed by those
//! indices and cross-checks the shared RDF-only reference
//! bit-for-bit. Worker death, reassignment and restarts only move
//! where the work runs — the merged report (timings aside) is the one
//! the single process would have produced.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coordinator;
pub mod join;
pub mod protocol;
pub mod registry;

pub use coordinator::{ClusterConfig, Coordinator};
pub use join::{join, JoinConfig, JoinHandle};
pub use protocol::{
    ClusterMetrics, ClusterWorkers, HeartbeatRequest, MetricRollup, RegisterRequest,
    RegisterResponse, WorkerMetricsView, WorkerView,
};
pub use registry::{WorkerEntry, WorkerRegistry};
