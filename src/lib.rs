//! # ECRIPSE — RTN-aware SRAM failure-probability estimation
//!
//! A from-scratch Rust reproduction of *"ECRIPSE: An Efficient Method for
//! Calculating RTN-Induced Failure Probability of an SRAM Cell"* (Awano,
//! Hiromoto & Sato, DATE 2015), including every substrate the paper
//! depends on:
//!
//! * [`spice`] — a miniature DC circuit simulator (EKV-style MOSFET
//!   model, safeguarded 1-D Newton transfer-curve solves) with a 6T SRAM
//!   cell, butterfly curves and Seevinck noise-margin extraction;
//! * [`rtn`] — the random-telegraph-noise model: trap time constants,
//!   duty-ratio mixing, Poisson defect occupancy, telegraph traces;
//! * [`svm`] — the simulation-skipping classifier: polynomial features +
//!   linear SVM trained by dual coordinate descent, with incremental
//!   updates and a margin-based uncertainty band;
//! * [`stats`] — samplers, Gaussian mixtures, whitening, estimators and
//!   resampling;
//! * [`core`] — the ECRIPSE algorithm itself (particle-filter importance
//!   sampling, two-stage Monte Carlo, bias-condition sweeps), the
//!   paper's baselines (naive MC, sequential importance sampling,
//!   mean-shift IS, statistical blockade) and an observability layer
//!   that turns every run into a structured
//!   [`RunReport`](ecripse_core::observe::RunReport);
//! * [`serve`] — a job-queue estimation service over plain TCP: a
//!   bounded queue, a fixed worker pool sharing one process-wide
//!   verdict cache, a versioned JSON wire protocol and a blocking
//!   client. Served runs are bit-identical to direct library calls;
//! * [`cluster`] — scale-out on top of [`serve`]: a coordinator that
//!   speaks the same job protocol, deals contiguous sweep shards
//!   round-robin over the registered workers, reassigns shards off dead
//!   workers (heartbeats + idempotency keys) and merges shard reports
//!   into a result bit-identical to a single-process run.
//!
//! ## Quick start
//!
//! ```no_run
//! use ecripse::prelude::*;
//!
//! // Failure probability of the paper's cell, process variation only.
//! let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
//! let result = Ecripse::new(EcripseConfig::default(), bench).estimate()?;
//! println!("P_fail = {:.3e} ± {:.2e}", result.p_fail, result.ci95_half_width);
//!
//! // Now with RTN at duty ratio α = 0.3.
//! let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
//! let rtn = SramRtn::paper_model(0.3, bench.sigmas());
//! let result = Ecripse::with_rtn(EcripseConfig::default(), bench, rtn).estimate()?;
//! println!("with RTN: {:.3e}", result.p_fail);
//! # Ok::<(), ecripse::core::ecripse::EstimateError>(())
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and substitutions, and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use ecripse_cluster as cluster;
pub use ecripse_core as core;
pub use ecripse_rtn as rtn;
pub use ecripse_serve as serve;
pub use ecripse_spice as spice;
pub use ecripse_stats as stats;
pub use ecripse_svm as svm;

/// The items most users need, in one import.
pub mod prelude {
    pub use ecripse_cluster::{ClusterConfig, Coordinator, JoinConfig, WorkerRegistry};
    pub use ecripse_core::baseline::{
        gibbs_is, mean_shift_is, naive_monte_carlo, statistical_blockade, BlockadeConfig,
        GibbsConfig, MeanShiftConfig, NaiveConfig, SequentialImportanceSampling,
    };
    pub use ecripse_core::bench::Testbench;
    pub use ecripse_core::cache::{MemoBench, MemoCacheConfig, VerdictStore};
    pub use ecripse_core::ecripse::{
        Ecripse, EcripseConfig, EcripseResult, EstimateError, RunOptions,
    };
    pub use ecripse_core::observe::{
        MultiObserver, NullObserver, Observer, ProgressObserver, RunRecorder, RunReport,
    };
    pub use ecripse_core::retry::RetryPolicy;
    pub use ecripse_core::rtn_source::{NoRtn, RtnSource, SramRtn};
    pub use ecripse_core::scenario::{registry, Scenario, ScenarioInfo, SramScenarioBench};
    pub use ecripse_core::sweep::{
        merge_sweep_shards, CheckpointError, DutySweep, MergeError, PointOutcome, ResumableSweep,
        SweepBench, SweepError, SweepOptions, SweepPoint, SweepReports, SweepResult, SweepShard,
    };
    pub use ecripse_core::telemetry::{
        Counter, Gauge, Histogram, MetricsRegistry, SpanCollector, SpanRecord, TelemetryObserver,
        TraceContext,
    };
    pub use ecripse_rtn::model::RtnCellModel;
    pub use ecripse_serve::{
        BackoffPolicy, Client, ClientError, JobSpec, JobState, JobTrace, Readiness, ServeConfig,
        Server, SubmitRequest,
    };
    pub use ecripse_spice::error::EvalError;
    pub use ecripse_spice::sram::{CellDevice, Sram6T};
    pub use ecripse_spice::testbench::ReadStabilityBench;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        assert_eq!(ecripse_core::bench::Testbench::dim(&bench), 6);
        let _ = EcripseConfig::default();
        let _ = NaiveConfig::default();
        assert!(VerdictStore::new(MemoCacheConfig::default()).is_empty());
    }
}
