//! ECRIPSE estimation *service*: a job queue over HTTP.
//!
//! Every other entry point in the workspace is one-shot — a CLI
//! invocation or a library call pays the full warm-up cost (classifier
//! training, memo-cache population) on every run and then throws the
//! warm state away. Yield studies are not one-shot: they are thousands
//! of cell/corner/duty-ratio queries against one shared model. This
//! crate keeps a warm process resident and feeds it a stream of
//! estimation jobs:
//!
//! * [`protocol`] — the versioned JSON wire types ([`SubmitRequest`],
//!   [`JobStatus`], [`JobReport`] embedding the schema-v2
//!   [`RunReport`](ecripse_core::observe::RunReport), [`Metrics`], …);
//! * [`http`] — a deliberately minimal hand-rolled HTTP/1.1 layer over
//!   `std::net` (the build is hermetic: no third-party server stack);
//! * [`shared`] — snapshot I/O for the process-wide verdict store every
//!   worker shares (a core
//!   [`VerdictStore`](ecripse_core::cache::VerdictStore), layered
//!   *under* the per-run pipeline so served runs stay bit-identical to
//!   direct library calls), so a restarted process starts warm;
//! * [`jobs`] — the job table this server and the cluster coordinator
//!   share: one admission, one status/report/cancel read;
//! * [`journal`] — the checksummed, fsync'd write-ahead job journal
//!   that makes accepted jobs survive a `kill -9`;
//! * [`server`] — the bounded job queue, fixed worker pool,
//!   backpressure (`429` + `Retry-After`), deadlines + cancellation,
//!   crash recovery and graceful drain;
//! * [`client`] — a small blocking client used by `ecripse-cli submit`
//!   and the integration tests, with optional retry/backoff.
//!
//! # Determinism contract
//!
//! A served job runs the *exact* pipeline of the equivalent direct call
//! — same config, same seed, same bench layering on top. The shared
//! cache sits *below* the per-run counting layers, so even the
//! simulation counters in the returned [`JobReport`] match a direct
//! run's report bit-for-bit (wall-clock timings aside); only the time
//! spent changes when the cache is warm.
//!
//! # Example
//!
//! ```no_run
//! use ecripse_serve::{Server, ServeConfig, Client};
//! use ecripse_serve::protocol::{JobSpec, SubmitRequest};
//! use ecripse_core::EcripseConfig;
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let client = Client::new(server.local_addr().to_string());
//! let req = SubmitRequest::new(EcripseConfig::default(), JobSpec::rdf_only(1.0));
//! let status = client.submit(&req)?;
//! let report = client.wait_for_report(status.id, std::time::Duration::from_secs(600))?;
//! println!("{:?}", report.estimate.map(|e| e.p_fail));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod shared;

pub use client::{BackoffPolicy, Client, ClientError};
pub use journal::{Journal, JournalKind, JournalRecord};
pub use protocol::{
    ApiError, EstimateOutcome, Health, JobKind, JobProgress, JobReport, JobSpec, JobState,
    JobStatus, JobTrace, Metrics, Readiness, SubmitRequest, SweepOutcome, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, ShutdownSummary};
pub use shared::{SnapshotError, CACHE_SNAPSHOT_VERSION};
