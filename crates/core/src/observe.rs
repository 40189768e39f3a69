//! Observability: pipeline stage events and structured run reports.
//!
//! An ECRIPSE run used to be a black box — the only visible outputs were
//! the final estimate and a handful of totals. This module turns the
//! two-stage flow (Algorithm 1) into an *instrumented* pipeline: every
//! stage reports into an [`Observer`], and the default collecting
//! implementation ([`RunRecorder`]) aggregates those events into a
//! serde-serialisable [`RunReport`] with per-stage wall-clock timings,
//! oracle/cache counters, per-iteration particle-filter health metrics
//! and stage-2 convergence points.
//!
//! The event stream covers:
//!
//! * the initial boundary search (step 1) — particles found and
//!   simulations spent ([`BoundaryStats`]);
//! * every particle-filter iteration (steps 2–4) — per-filter effective
//!   sample size, resample outcomes, zero-weight candidate counts,
//!   pooled-cloud spread and the oracle/cache activity attributable to
//!   the iteration ([`IterationStats`]);
//! * oracle routing — classifier-vs-simulator decisions, retrain events
//!   and near-hyperplane margin statistics ([`OracleStats`],
//!   [`MarginStats`]);
//! * memo-cache hit/miss traffic ([`OracleDelta`]);
//! * stage-2 importance-sampling chunks (step 5) — running estimate, CI
//!   and simulations-per-sample cost ([`ChunkStats`]).
//!
//! # Determinism contract
//!
//! Counters, estimates and particle statistics are derived from the
//! deterministic evaluation pipeline, so two runs with the same
//! configuration and seed produce **bit-identical reports at every
//! thread count — apart from the wall-clock timing fields**. Use
//! [`RunReport::strip_timings`] before comparing reports structurally;
//! `tests/observability.rs` enforces this contract.
//!
//! # Example
//!
//! ```no_run
//! use ecripse_core::scenario::{Scenario, SramScenarioBench};
//! use ecripse_core::ecripse::{Ecripse, EcripseConfig};
//!
//! let bench = SramScenarioBench::paper_cell(Scenario::ReadSnm);
//! let run = Ecripse::new(EcripseConfig::default(), bench);
//! let (result, report) = run.estimate_report()?;
//! println!("P_fail = {:.3e}", result.p_fail);
//! for stage in &report.stages {
//!     println!(
//!         "{:<20} {:>8.2} s  {:>8} sims",
//!         stage.stage.name(),
//!         stage.wall_seconds,
//!         stage.simulations
//!     );
//! }
//! # Ok::<(), ecripse_core::ecripse::EstimateError>(())
//! ```

use crate::oracle::{MarginStats, OracleStats};
use crate::scenario::Scenario;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Schema version stamped into every [`RunReport`] so downstream
/// tooling (regression trackers, dashboards) can detect layout changes.
///
/// Version history:
/// * 1 — initial observability layer;
/// * 2 — fault-tolerance counters (retry-ladder retries, quarantined
///   samples, re-seeded filters).
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// The three pipeline stages of Algorithm 1.
///
/// Serialises as its stable snake_case [`name`](Stage::name) (the
/// vendored serde derive has no `rename_all`, so the impls are manual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Step 1: spherical-bisection boundary search.
    BoundarySearch,
    /// Steps 2–4: the particle-filter ensemble iterations.
    ParticleFilter,
    /// Step 5: importance sampling from the pooled mixture (Eqs. 18–19).
    ImportanceSampling,
}

impl Stage {
    /// Stable snake_case name (matches the serialised form).
    pub fn name(self) -> &'static str {
        match self {
            Stage::BoundarySearch => "boundary_search",
            Stage::ParticleFilter => "particle_filter",
            Stage::ImportanceSampling => "importance_sampling",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for Stage {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::String(self.name().to_owned())
    }
}

impl Deserialize for Stage {
    fn from_value(value: &serde::json::Value) -> Option<Self> {
        match value.as_str()? {
            "boundary_search" => Some(Stage::BoundarySearch),
            "particle_filter" => Some(Stage::ParticleFilter),
            "importance_sampling" => Some(Stage::ImportanceSampling),
            _ => None,
        }
    }
}

/// Wall-clock and cost accounting for one completed stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Elapsed wall-clock seconds (a **timing field**: excluded from the
    /// cross-thread-count determinism contract).
    pub wall_seconds: f64,
    /// Transistor-level simulations spent during the stage.
    pub simulations: u64,
}

/// Outcome of the initial boundary search (Algorithm 1, step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundaryStats {
    /// Boundary particles found.
    pub particles: usize,
    /// Indicator evaluations spent finding them.
    pub simulations: u64,
}

/// Oracle and memo-cache activity over one slice of the pipeline
/// (typically a single particle-filter iteration), computed as the
/// difference of two [`OracleStats`] snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleDelta {
    /// Queries answered by simulation.
    pub simulated: u64,
    /// Queries answered by the classifier.
    pub classified: u64,
    /// Stage-2 simulations triggered by the uncertainty band.
    pub uncertain_simulated: u64,
    /// Retraining rounds performed.
    pub retrains: u64,
    /// Simulator queries served from the memo-cache.
    pub cache_hits: u64,
    /// Simulator queries that missed the memo-cache.
    pub cache_misses: u64,
    /// Extra retry-ladder attempts spent on marginal samples.
    pub retries: u64,
    /// Samples quarantined after exhausting the retry ladder.
    pub quarantined: u64,
}

impl OracleDelta {
    /// The activity between two snapshots (`after` minus `before`).
    pub fn between(before: &OracleStats, after: &OracleStats) -> Self {
        Self {
            simulated: after.simulated - before.simulated,
            classified: after.classified - before.classified,
            uncertain_simulated: after.uncertain_simulated - before.uncertain_simulated,
            retrains: after.retrains - before.retrains,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            retries: after.retries - before.retries,
            quarantined: after.quarantined - before.quarantined,
        }
    }
}

/// Health metrics of one particle-filter ensemble iteration
/// (Algorithm 1, steps 2–4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Candidates weighed across all filters.
    pub candidates: usize,
    /// Candidates whose Eq. 16 weight was exactly zero.
    pub zero_weight_candidates: usize,
    /// Effective sample size of each filter's candidate weights, in
    /// filter order (`N_eff = (Σw)² / Σw²`; 0 when all weights vanish).
    pub ess: Vec<f64>,
    /// Filters that resampled successfully this iteration.
    pub filters_resampled: usize,
    /// Filters whose weights degenerated and were re-seeded from the
    /// surviving filters (self-healing; 0 in a healthy iteration).
    pub filters_reseeded: usize,
    /// Total filters in the ensemble.
    pub filters_total: usize,
    /// RMS distance of the pooled particles from their centroid — a
    /// scalar proxy for how spread the alternative distribution is.
    pub spread: f64,
    /// Oracle and cache activity attributable to this iteration.
    pub oracle: OracleDelta,
}

/// One stage-2 importance-sampling chunk (the estimator processes
/// samples in fixed-size batches; each batch emits one of these).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkStats {
    /// Importance samples consumed so far (cumulative).
    pub samples: u64,
    /// Samples contributed by this chunk.
    pub chunk_samples: u64,
    /// Running Eq. 19 estimate after this chunk.
    pub estimate: f64,
    /// Running 95 % CI half-width after this chunk.
    pub ci95_half_width: f64,
    /// Transistor-level simulations spent so far (cumulative, including
    /// earlier stages).
    pub simulations: u64,
    /// Simulations spent on this chunk alone.
    pub chunk_simulations: u64,
}

impl ChunkStats {
    /// Simulations per importance sample within this chunk — the cost
    /// density the classifier is supposed to push toward zero.
    pub fn sims_per_sample(&self) -> f64 {
        if self.chunk_samples == 0 {
            0.0
        } else {
            self.chunk_simulations as f64 / self.chunk_samples as f64
        }
    }

    /// The relative error after this chunk (CI half-width / estimate;
    /// infinite when the estimate is zero).
    pub fn relative_error(&self) -> f64 {
        if self.estimate > 0.0 {
            self.ci95_half_width / self.estimate
        } else {
            f64::INFINITY
        }
    }
}

/// Timing of one raw simulator batch, delivered to
/// [`Observer::sim_batch_finished`].
///
/// Unlike every other payload in this module, batch events may arrive
/// **concurrently** (parallel sweep points share one observer) and in a
/// thread-count-dependent order, and they carry wall-clock time — so
/// they are never folded into a [`RunReport`]. They exist to feed
/// latency histograms (see [`crate::telemetry::TelemetryObserver`]).
///
/// Only batches on the critical path are timed: evaluations simulated
/// ahead of need ([`crate::prefetch`]) run outside any batch and are
/// reported through [`PrefetchStats`] instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBatchStats {
    /// Samples evaluated by the batch.
    pub batch: u64,
    /// Wall-clock seconds the batch took (a **timing quantity**:
    /// excluded from the determinism contract).
    pub wall_seconds: f64,
}

/// Work done ahead of one stage-2 chunk while the classifier retrained
/// (see [`crate::prefetch`]), delivered to
/// [`Observer::prefetch_finished`] once the chunk has been routed.
///
/// Timing-class, like [`SimBatchStats`]: how far the walk got depends on
/// how long the retrain took, so these counts vary run to run and with
/// the thread count (a one-thread pool never prefetches). They are never
/// folded into a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchStats {
    /// Points simulated ahead.
    pub evaluated: u64,
    /// Of those, the ones the routed chunk consumed; each stands for a
    /// simulation no critical-path batch ran.
    pub consumed: u64,
    /// Wall-clock seconds of the walk (a **timing quantity**).
    pub wall_seconds: f64,
}

/// Final figures of a completed run, delivered to
/// [`Observer::run_finished`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// The failure-probability estimate (Eq. 19).
    pub p_fail: f64,
    /// 95 % confidence half-width.
    pub ci95_half_width: f64,
    /// Total transistor-level simulations.
    pub simulations: u64,
    /// Importance samples drawn in stage 2.
    pub is_samples: u64,
    /// Effective sample size of the importance weights.
    pub effective_sample_size: f64,
    /// Final oracle counters (cache fields included).
    pub oracle: OracleStats,
    /// Near-hyperplane margin statistics of classifier-answered queries.
    pub margins: MarginStats,
}

/// A sink for pipeline events.
///
/// All methods have empty default bodies, so an implementation only
/// overrides what it cares about. Events are emitted serially by the run
/// orchestrator in a deterministic order; implementations must be `Sync`
/// because one observer may be shared by concurrently running sweep
/// points.
pub trait Observer: Sync {
    /// A run is starting with this seed and worker-thread setting.
    fn run_started(&self, _seed: u64, _threads: usize) {}
    /// The run evaluates this registered scenario (emitted right after
    /// [`run_started`](Observer::run_started)).
    fn scenario_selected(&self, _scenario: Scenario) {}
    /// A pipeline stage is starting.
    fn stage_started(&self, _stage: Stage) {}
    /// A pipeline stage finished with this timing/cost accounting.
    fn stage_finished(&self, _stage: Stage, _timing: &StageTiming) {}
    /// The initial boundary search completed.
    fn boundary_found(&self, _stats: &BoundaryStats) {}
    /// One particle-filter ensemble iteration completed.
    fn iteration_finished(&self, _stats: &IterationStats) {}
    /// One stage-2 importance-sampling chunk completed.
    fn chunk_finished(&self, _chunk: &ChunkStats) {}
    /// One raw simulator batch was evaluated. Unlike the other events
    /// this one may fire concurrently and in thread-count-dependent
    /// order (see [`SimBatchStats`]); implementations that fold events
    /// into deterministic reports must ignore it.
    fn sim_batch_finished(&self, _stats: &SimBatchStats) {}
    /// A stage-2 chunk consumed the work done ahead of it. Timing-class,
    /// like [`sim_batch_finished`](Observer::sim_batch_finished) (see
    /// [`PrefetchStats`]); implementations that fold events into
    /// deterministic reports must ignore it.
    fn prefetch_finished(&self, _stats: &PrefetchStats) {}
    /// The run completed with these final figures.
    fn run_finished(&self, _summary: &RunSummary) {}
}

/// The do-nothing observer used by the plain (un-instrumented) entry
/// points; the compiler erases the calls entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Fans every event out to several observers, in order (e.g. a
/// [`RunRecorder`] plus a [`ProgressObserver`]).
#[derive(Default)]
pub struct MultiObserver<'a> {
    observers: Vec<&'a dyn Observer>,
}

impl<'a> MultiObserver<'a> {
    /// An empty fan-out (events go nowhere until observers are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observer to the fan-out list.
    pub fn push(&mut self, observer: &'a dyn Observer) {
        self.observers.push(observer);
    }

    /// Number of registered observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// Whether no observers are registered.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl Observer for MultiObserver<'_> {
    fn run_started(&self, seed: u64, threads: usize) {
        for o in &self.observers {
            o.run_started(seed, threads);
        }
    }

    fn scenario_selected(&self, scenario: Scenario) {
        for o in &self.observers {
            o.scenario_selected(scenario);
        }
    }

    fn stage_started(&self, stage: Stage) {
        for o in &self.observers {
            o.stage_started(stage);
        }
    }

    fn stage_finished(&self, stage: Stage, timing: &StageTiming) {
        for o in &self.observers {
            o.stage_finished(stage, timing);
        }
    }

    fn boundary_found(&self, stats: &BoundaryStats) {
        for o in &self.observers {
            o.boundary_found(stats);
        }
    }

    fn iteration_finished(&self, stats: &IterationStats) {
        for o in &self.observers {
            o.iteration_finished(stats);
        }
    }

    fn chunk_finished(&self, chunk: &ChunkStats) {
        for o in &self.observers {
            o.chunk_finished(chunk);
        }
    }

    fn sim_batch_finished(&self, stats: &SimBatchStats) {
        for o in &self.observers {
            o.sim_batch_finished(stats);
        }
    }

    fn prefetch_finished(&self, stats: &PrefetchStats) {
        for o in &self.observers {
            o.prefetch_finished(stats);
        }
    }

    fn run_finished(&self, summary: &RunSummary) {
        for o in &self.observers {
            o.run_finished(summary);
        }
    }
}

/// Per-stage entry of a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Which stage this entry describes.
    pub stage: Stage,
    /// Wall-clock seconds spent (a **timing field**; zeroed by
    /// [`RunReport::strip_timings`]).
    pub wall_seconds: f64,
    /// Transistor-level simulations spent during the stage.
    pub simulations: u64,
}

/// The structured, serialisable record of one ECRIPSE run.
///
/// Produced by [`RunRecorder`]; emitted as JSON by `ecripse-cli
/// --report <path>`, the duty-sweep driver
/// ([`DutySweep::run_with_reports`](crate::sweep::DutySweep::run_with_reports))
/// and the experiment binaries. The full field-by-field schema is
/// documented in `DESIGN.md` § "Observability layer".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Layout version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// RNG seed of the run.
    pub seed: u64,
    /// The registered scenario the run estimated (default `read-snm`,
    /// so PR-6-era reports parse unchanged).
    #[serde(default)]
    pub scenario: Scenario,
    /// Configured worker-thread count (0 = one per core). Reports are
    /// bit-identical across thread counts apart from timing fields.
    pub threads: usize,
    /// Per-stage wall-clock and simulation accounting, in execution
    /// order.
    pub stages: Vec<StageReport>,
    /// Initial boundary-search outcome (absent when a pre-computed
    /// particle set was supplied).
    pub boundary: Option<BoundaryStats>,
    /// Per-iteration particle-filter health metrics.
    pub iterations: Vec<IterationStats>,
    /// Stage-2 convergence points, one per importance-sampling chunk.
    pub stage2_chunks: Vec<ChunkStats>,
    /// Final failure-probability estimate.
    pub p_fail: f64,
    /// Final 95 % CI half-width.
    pub ci95_half_width: f64,
    /// Total transistor-level simulations.
    pub simulations: u64,
    /// Importance samples drawn in stage 2.
    pub is_samples: u64,
    /// Effective sample size of the importance weights.
    pub effective_sample_size: f64,
    /// Final oracle counters (cache hit/miss included).
    pub oracle: OracleStats,
    /// Near-hyperplane margin statistics of classifier-answered queries.
    pub margins: MarginStats,
}

impl Default for RunReport {
    fn default() -> Self {
        Self {
            schema_version: REPORT_SCHEMA_VERSION,
            seed: 0,
            scenario: Scenario::default(),
            threads: 0,
            stages: Vec::new(),
            boundary: None,
            iterations: Vec::new(),
            stage2_chunks: Vec::new(),
            p_fail: 0.0,
            ci95_half_width: 0.0,
            simulations: 0,
            is_samples: 0,
            effective_sample_size: 0.0,
            oracle: OracleStats::default(),
            margins: MarginStats::default(),
        }
    }
}

impl RunReport {
    /// Total wall-clock seconds across the recorded stages.
    pub fn total_wall_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_seconds).sum()
    }

    /// Zeroes every wall-clock field, leaving only the deterministic
    /// content. Two stripped reports from identical configurations are
    /// bit-identical at every thread count.
    pub fn strip_timings(&mut self) {
        for stage in &mut self.stages {
            stage.wall_seconds = 0.0;
        }
    }

    /// Serialises the report as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_json<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        w.write_all(json.as_bytes())?;
        w.write_all(b"\n")
    }
}

/// The default collecting [`Observer`]: accumulates every event into a
/// [`RunReport`].
///
/// Interior mutability (a mutex) lets the recorder be driven through
/// `&self`, as the [`Observer`] trait requires; contention is nil
/// because events are emitted serially per run.
#[derive(Debug, Default)]
pub struct RunRecorder {
    state: Mutex<RunReport>,
}

impl RunRecorder {
    /// A fresh recorder with an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the report collected so far (complete once the run's
    /// entry point has returned).
    pub fn report(&self) -> RunReport {
        self.state.lock().clone()
    }

    /// Consumes the recorder, returning the collected report without a
    /// clone.
    pub fn into_report(self) -> RunReport {
        self.state.into_inner()
    }
}

impl Observer for RunRecorder {
    fn run_started(&self, seed: u64, threads: usize) {
        let mut r = self.state.lock();
        r.seed = seed;
        r.threads = threads;
    }

    fn scenario_selected(&self, scenario: Scenario) {
        self.state.lock().scenario = scenario;
    }

    fn stage_finished(&self, stage: Stage, timing: &StageTiming) {
        self.state.lock().stages.push(StageReport {
            stage,
            wall_seconds: timing.wall_seconds,
            simulations: timing.simulations,
        });
    }

    fn boundary_found(&self, stats: &BoundaryStats) {
        self.state.lock().boundary = Some(*stats);
    }

    fn iteration_finished(&self, stats: &IterationStats) {
        self.state.lock().iterations.push(stats.clone());
    }

    fn chunk_finished(&self, chunk: &ChunkStats) {
        self.state.lock().stage2_chunks.push(*chunk);
    }

    fn run_finished(&self, summary: &RunSummary) {
        let mut r = self.state.lock();
        r.p_fail = summary.p_fail;
        r.ci95_half_width = summary.ci95_half_width;
        r.simulations = summary.simulations;
        r.is_samples = summary.is_samples;
        r.effective_sample_size = summary.effective_sample_size;
        r.oracle = summary.oracle;
        r.margins = summary.margins;
    }
}

/// The opt-in human-readable progress mode: prints one line per event to
/// stderr (enabled by `ecripse-cli --progress`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgressObserver;

impl ProgressObserver {
    /// A progress printer writing to stderr.
    pub fn new() -> Self {
        Self
    }
}

impl Observer for ProgressObserver {
    fn run_started(&self, seed: u64, threads: usize) {
        let t = if threads == 0 {
            "all cores".to_string()
        } else {
            format!("{threads} threads")
        };
        eprintln!("[ecripse] run started (seed {seed:#x}, {t})");
    }

    fn scenario_selected(&self, scenario: Scenario) {
        eprintln!("[ecripse] scenario: {scenario}");
    }

    fn boundary_found(&self, stats: &BoundaryStats) {
        eprintln!(
            "[ecripse] boundary search: {} particles in {} sims",
            stats.particles, stats.simulations
        );
    }

    fn iteration_finished(&self, stats: &IterationStats) {
        let ess_min = stats.ess.iter().copied().fold(f64::INFINITY, f64::min);
        let ess_mean = if stats.ess.is_empty() {
            0.0
        } else {
            stats.ess.iter().sum::<f64>() / stats.ess.len() as f64
        };
        eprintln!(
            "[ecripse] filter iter {:>2}: ess min {:.1} / mean {:.1}, \
             {}/{} resampled, spread {:.3}, +{} sims (+{} cached)",
            stats.iteration,
            if ess_min.is_finite() { ess_min } else { 0.0 },
            ess_mean,
            stats.filters_resampled,
            stats.filters_total,
            stats.spread,
            stats.oracle.cache_misses,
            stats.oracle.cache_hits,
        );
        if stats.filters_reseeded > 0 {
            eprintln!(
                "[ecripse]   self-heal: {} filter(s) re-seeded from survivors",
                stats.filters_reseeded
            );
        }
        if stats.oracle.retries > 0 || stats.oracle.quarantined > 0 {
            eprintln!(
                "[ecripse]   retry ladder: +{} retries, {} quarantined",
                stats.oracle.retries, stats.oracle.quarantined
            );
        }
    }

    fn chunk_finished(&self, chunk: &ChunkStats) {
        eprintln!(
            "[ecripse] stage2 {:>8} samples: p = {:.3e} ± {:.1e} \
             ({:.2} sims/sample, {} total sims)",
            chunk.samples,
            chunk.estimate,
            chunk.ci95_half_width,
            chunk.sims_per_sample(),
            chunk.simulations,
        );
    }

    fn stage_finished(&self, stage: Stage, timing: &StageTiming) {
        eprintln!(
            "[ecripse] {} finished in {:.2} s ({} sims)",
            stage.name(),
            timing.wall_seconds,
            timing.simulations
        );
    }

    fn run_finished(&self, summary: &RunSummary) {
        eprintln!(
            "[ecripse] done: P_fail = {:.4e} ± {:.2e}, {} sims, {} IS samples, \
             {} classified / {} simulated",
            summary.p_fail,
            summary.ci95_half_width,
            summary.simulations,
            summary.is_samples,
            summary.oracle.classified,
            summary.oracle.simulated,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            seed: 42,
            scenario: Scenario::HoldSnm,
            threads: 2,
            stages: vec![
                StageReport {
                    stage: Stage::BoundarySearch,
                    wall_seconds: 0.5,
                    simulations: 800,
                },
                StageReport {
                    stage: Stage::ParticleFilter,
                    wall_seconds: 1.25,
                    simulations: 2560,
                },
                StageReport {
                    stage: Stage::ImportanceSampling,
                    wall_seconds: 2.0,
                    simulations: 400,
                },
            ],
            boundary: Some(BoundaryStats {
                particles: 64,
                simulations: 800,
            }),
            iterations: vec![IterationStats {
                iteration: 0,
                candidates: 400,
                zero_weight_candidates: 12,
                ess: vec![80.0, 75.5, 90.25, 61.0],
                filters_resampled: 4,
                filters_reseeded: 1,
                filters_total: 4,
                spread: 1.25,
                oracle: OracleDelta {
                    simulated: 256,
                    classified: 144,
                    uncertain_simulated: 0,
                    retrains: 1,
                    cache_hits: 10,
                    cache_misses: 246,
                    retries: 3,
                    quarantined: 1,
                },
            }],
            stage2_chunks: vec![ChunkStats {
                samples: 256,
                chunk_samples: 256,
                estimate: 1.25e-4,
                ci95_half_width: 2.5e-5,
                simulations: 3600,
                chunk_simulations: 40,
            }],
            p_fail: 1.25e-4,
            ci95_half_width: 2.5e-5,
            simulations: 3760,
            is_samples: 256,
            effective_sample_size: 120.5,
            oracle: OracleStats::default(),
            margins: MarginStats::default(),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = serde_json::to_string(&report).expect("serialise");
        let back: RunReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, report);
    }

    #[test]
    fn strip_timings_only_zeroes_wall_clock() {
        let mut report = sample_report();
        let sims_before: Vec<u64> = report.stages.iter().map(|s| s.simulations).collect();
        report.strip_timings();
        assert!(report.stages.iter().all(|s| s.wall_seconds == 0.0));
        let sims_after: Vec<u64> = report.stages.iter().map(|s| s.simulations).collect();
        assert_eq!(sims_before, sims_after);
        assert_eq!(report.total_wall_seconds(), 0.0);
    }

    #[test]
    fn recorder_collects_all_event_kinds() {
        let rec = RunRecorder::new();
        rec.run_started(7, 3);
        rec.boundary_found(&BoundaryStats {
            particles: 10,
            simulations: 100,
        });
        rec.stage_finished(
            Stage::BoundarySearch,
            &StageTiming {
                wall_seconds: 0.1,
                simulations: 100,
            },
        );
        rec.iteration_finished(&sample_report().iterations[0]);
        rec.chunk_finished(&sample_report().stage2_chunks[0]);
        rec.run_finished(&RunSummary {
            p_fail: 1e-4,
            ci95_half_width: 1e-5,
            simulations: 500,
            is_samples: 256,
            effective_sample_size: 33.0,
            oracle: OracleStats::default(),
            margins: MarginStats::default(),
        });
        let report = rec.into_report();
        assert_eq!(report.seed, 7);
        assert_eq!(report.threads, 3);
        assert_eq!(report.boundary.expect("recorded").particles, 10);
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(report.stage2_chunks.len(), 1);
        assert_eq!(report.p_fail, 1e-4);
        assert_eq!(report.simulations, 500);
    }

    #[test]
    fn oracle_delta_subtracts_snapshots() {
        let before = OracleStats {
            classified: 10,
            simulated: 5,
            uncertain_simulated: 1,
            retrains: 1,
            cache_hits: 2,
            cache_misses: 3,
            retries: 1,
            quarantined: 0,
            ..OracleStats::default()
        };
        let after = OracleStats {
            classified: 30,
            simulated: 9,
            uncertain_simulated: 4,
            retrains: 2,
            cache_hits: 8,
            cache_misses: 5,
            retries: 4,
            quarantined: 2,
            ..OracleStats::default()
        };
        let d = OracleDelta::between(&before, &after);
        assert_eq!(d.classified, 20);
        assert_eq!(d.simulated, 4);
        assert_eq!(d.uncertain_simulated, 3);
        assert_eq!(d.retrains, 1);
        assert_eq!(d.cache_hits, 6);
        assert_eq!(d.cache_misses, 2);
        assert_eq!(d.retries, 3);
        assert_eq!(d.quarantined, 2);
    }

    #[test]
    fn chunk_cost_density_and_relative_error() {
        let c = ChunkStats {
            samples: 512,
            chunk_samples: 256,
            estimate: 2e-4,
            ci95_half_width: 1e-5,
            simulations: 1000,
            chunk_simulations: 64,
        };
        assert!((c.sims_per_sample() - 0.25).abs() < 1e-12);
        assert!((c.relative_error() - 0.05).abs() < 1e-12);
        let zero = ChunkStats {
            estimate: 0.0,
            chunk_samples: 0,
            ..c
        };
        assert_eq!(zero.sims_per_sample(), 0.0);
        assert!(zero.relative_error().is_infinite());
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = RunRecorder::new();
        let b = RunRecorder::new();
        let mut multi = MultiObserver::new();
        assert!(multi.is_empty());
        multi.push(&a);
        multi.push(&b);
        assert_eq!(multi.len(), 2);
        multi.run_started(9, 1);
        assert_eq!(a.report().seed, 9);
        assert_eq!(b.report().seed, 9);
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::BoundarySearch.name(), "boundary_search");
        assert_eq!(Stage::ParticleFilter.to_string(), "particle_filter");
        let json = serde_json::to_string(&Stage::ImportanceSampling).expect("serialise");
        assert_eq!(json, "\"importance_sampling\"");
    }
}
