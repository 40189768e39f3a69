//! ECRIPSE — efficient calculation of RTN-induced SRAM failure
//! probability (reproduction of Awano, Hiromoto & Sato, DATE 2015).
//!
//! The estimation problem: a 6T SRAM cell fails a read when its noise
//! margin goes negative. Threshold-voltage variation has two sources —
//! static process variation (RDF, a 6-D standard normal after whitening)
//! and random telegraph noise (RTN, quantised Poisson shifts whose
//! statistics depend on the cell's data duty ratio `α`). The failure
//! probability (Eqs. 11–13)
//!
//! ```text
//! P_fail = ∫ P_fail^RTN(x) · P_RDF(x) dx,
//! P_fail^RTN(x) = ∫ I(x, x_RTN) · P_RTN(x_RTN) dx_RTN
//! ```
//!
//! sits at ~1e-4 and below, far outside naive Monte Carlo's reach, and
//! must be evaluated for *many* duty ratios. ECRIPSE combines:
//!
//! 1. an ensemble of **particle filters** that track the optimal
//!    alternative distribution `Q_opt ∝ P_fail^RTN(x)·P(x)`
//!    ([`particle`], [`ensemble`], initialised by spherical bisection in
//!    [`initial`]);
//! 2. a **polynomial-feature linear SVM** that answers most indicator
//!    queries without a transistor-level simulation ([`oracle`]);
//! 3. a **two-stage Monte Carlo** flow — cheap distribution estimation,
//!    then importance sampling from the particle mixture
//!    ([`importance`], orchestrated in [`ecripse`]);
//! 4. **shared initial particles** across bias conditions ([`sweep`]);
//! 5. an **observability layer** — stage events, per-iteration filter
//!    health and structured [`observe::RunReport`]s ([`observe`]).
//!
//! Evaluation is batch-first and parallel: testbenches expose
//! [`bench::Testbench::fails_batch`], a sharded memo-cache ([`cache`])
//! deduplicates simulator queries, and the ensemble, stage-2 sampler and
//! duty sweep fan work out across `EcripseConfig::threads` workers with
//! bit-identical results for every thread count.
//!
//! Estimation is fault-tolerant end to end: unevaluable samples climb a
//! per-sample retry ladder and land in a quarantine bucket ([`retry`]),
//! degenerate particle filters are re-seeded from surviving filters
//! ([`ensemble`]), and duty sweeps checkpoint per-point progress to disk
//! and resume bit-identically ([`sweep`]). Every recovery event is
//! counted in the run report.
//!
//! Baselines from the paper's evaluation live in [`baseline`]: naive
//! Monte Carlo, the sequential-importance-sampling method of Katayama et
//! al. (the paper's reference \[8\]), mean-shift importance sampling, and
//! statistical blockade.
//!
//! # Example
//!
//! ```no_run
//! use ecripse_core::scenario::{Scenario, SramScenarioBench};
//! use ecripse_core::ecripse::{Ecripse, EcripseConfig};
//!
//! // RDF-only failure probability of the paper's cell.
//! let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
//! let run = Ecripse::new(EcripseConfig::default(), bench);
//! let result = run.estimate()?;
//! println!(
//!     "P_fail = {:.3e} ± {:.3e} using {} simulations",
//!     result.p_fail,
//!     result.ci95_half_width,
//!     result.simulations
//! );
//! # Ok::<(), ecripse_core::ecripse::EstimateError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod bench;
pub mod cache;
pub mod ecripse;
pub mod ensemble;
pub mod importance;
pub mod initial;
pub mod observe;
pub mod oracle;
pub mod particle;
pub mod prefetch;
pub mod retry;
pub mod rtn_source;
pub mod scenario;
pub mod sweep;
pub mod telemetry;
pub mod trace;

pub use bench::{EvalError, SimCounter, SolveEffort, Testbench};
pub use cache::{MemoBench, MemoCacheConfig};
pub use ecripse::{Ecripse, EcripseConfig, EcripseResult};
pub use observe::{
    MultiObserver, NullObserver, Observer, ProgressObserver, RunRecorder, RunReport,
};
pub use retry::{RetryBench, RetryPolicy};
pub use rtn_source::{NoRtn, RtnSource, SramRtn};
pub use scenario::{registry, registry_digest, Scenario, ScenarioInfo, SramScenarioBench};
pub use sweep::{
    CheckpointError, DutySweep, PointOutcome, ResumableSweep, SweepBench, SweepError, SweepOptions,
    SweepPoint, SweepReports,
};
pub use telemetry::{
    escape_label_value, Counter, Gauge, Histogram, MemorySink, MetricsRegistry, RotatingFileSink,
    SpanCollector, SpanRecord, SpanStore, TelemetryObserver, TraceContext, TraceSink, Tracer,
};
pub use trace::{ConvergenceTrace, TracePoint};
