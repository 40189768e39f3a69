//! The duty-ratio sweep driver behind Fig. 8.
//!
//! RTN statistics depend on the gate-bias duty ratio `α`, so the failure
//! probability must be evaluated across a sweep of bias conditions. The
//! key cost optimisation from the paper: the initial boundary particles
//! are computed **once** (for the RDF-only indicator) and shared by every
//! bias point — the failure boundary's *location* barely moves with `α`,
//! only the weighting on top of it does.
//!
//! Long sweeps are *resumable*: [`DutySweep::run_with`] writes a
//! versioned JSON checkpoint after the shared initialisation, after the
//! RDF-only reference and after every completed point, and a later
//! invocation with [`SweepOptions::resume`] reloads whatever is already
//! done. Per-point seeds are split from the base seed by index, so a
//! resumed sweep is bit-identical to an uninterrupted one. With
//! [`SweepOptions::keep_going`] a point that fails estimation no longer
//! aborts the sweep — the failure is reported per point instead.

use crate::bench::{LinearBench, Testbench};
use crate::ecripse::{run_in_pool, Ecripse, EcripseConfig, EstimateError, RunOptions};
use crate::initial::InitialParticles;
use crate::observe::{
    BoundaryStats, MultiObserver, NullObserver, Observer, RunRecorder, RunReport, Stage,
    StageTiming,
};
use crate::rtn_source::SramRtn;
use crate::scenario::SramScenarioBench;
use ecripse_stats::{fnv1a, FNV_OFFSET};
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One sweep point's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Duty ratio `α`.
    pub alpha: f64,
    /// Failure probability with RTN at this duty.
    pub p_fail: f64,
    /// 95 % CI half-width.
    pub ci95_half_width: f64,
    /// Transistor-level simulations spent on this point (excluding the
    /// shared initialisation).
    pub simulations: u64,
}

/// Full sweep outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Per-α results in sweep order.
    pub points: Vec<SweepPoint>,
    /// The RDF-only failure probability (the "without RTN" reference the
    /// paper quotes as 1.33e-4).
    pub p_fail_rdf_only: f64,
    /// CI half-width of the RDF-only estimate.
    pub rdf_only_ci95: f64,
    /// Simulations spent on the shared initialisation.
    pub init_simulations: u64,
    /// Total simulations across everything.
    pub total_simulations: u64,
}

impl SweepResult {
    /// The worst (largest) failure probability across the sweep.
    pub fn worst(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.p_fail.total_cmp(&b.p_fail))
    }

    /// The best (smallest) failure probability across the sweep.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.p_fail.total_cmp(&b.p_fail))
    }

    /// RTN degradation factor: worst-case `P_fail` over the RDF-only
    /// value (the paper's "six times" headline).
    pub fn rtn_degradation_factor(&self) -> f64 {
        match self.worst() {
            Some(w) if self.p_fail_rdf_only > 0.0 => w.p_fail / self.p_fail_rdf_only,
            _ => f64::NAN,
        }
    }

    /// Writes the sweep as CSV (`alpha,p_fail,ci,simulations`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "alpha,p_fail,ci95_half_width,simulations")?;
        for p in &self.points {
            writeln!(
                w,
                "{},{:e},{:e},{}",
                p.alpha, p.p_fail, p.ci95_half_width, p.simulations
            )?;
        }
        Ok(())
    }
}

/// Structured run reports of an observed sweep, one per pipeline run
/// (see [`ResumableSweep::into_parts`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReports {
    /// Report of the RDF-only reference run. Its `boundary` entry also
    /// covers the shared initialisation cost amortised across the sweep.
    pub rdf_only: RunReport,
    /// One report per duty-ratio point, in sweep order.
    pub points: Vec<RunReport>,
}

/// A testbench that can be swept over duty ratios.
///
/// Beyond the plain [`Testbench`] evaluation the sweep driver needs the
/// per-device sigmas (to build each point's RTN model) and — for fault
/// injection and other per-point specialisation — the ability to derive
/// the bench instance used at a particular `α`.
pub trait SweepBench: Testbench + Clone + Send + Sync {
    /// Per-device threshold-shift sigmas \[V\] defining the whitening.
    fn sigmas(&self) -> [f64; 6];

    /// The bench instance evaluated at duty ratio `alpha`. The default
    /// is a plain clone (the indicator does not depend on `α`; only the
    /// RTN statistics do). Fault-injection wrappers override this to
    /// poison specific sweep points.
    fn at_alpha(&self, alpha: f64) -> Self {
        let _ = alpha;
        self.clone()
    }

    /// Runs `point` on a copy of this bench that counts its solver
    /// effort on a private ledger, then books that ledger's total into
    /// this bench's own. The sweep runs each point this way, so a
    /// point's `newton_iters` and `factorisations` are its own however
    /// many points run at once, and the shared ledger ends with the same
    /// total. The default runs `point` on this bench itself, which is
    /// right for a bench without an inner solver; wrappers forward to
    /// the bench they wrap.
    fn with_private_ledger<T>(&self, point: impl FnOnce(&Self) -> T) -> T {
        point(self)
    }
}

/// Synthetic 6-D sweep vehicle for tests: the RTN model still comes from
/// the paper cell's sigma scale, but the indicator is the exact linear
/// bench. Only meaningful for 6-dimensional instances.
impl SweepBench for LinearBench {
    fn sigmas(&self) -> [f64; 6] {
        [0.025; 6]
    }
}

/// Schema version of the on-disk sweep checkpoint.
pub const SWEEP_CHECKPOINT_VERSION: u32 = 1;

/// The RDF-only reference stored in a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointReference {
    /// RDF-only failure probability.
    pub p_fail: f64,
    /// Its CI half-width.
    pub ci95_half_width: f64,
    /// Simulations spent on the reference run (initialisation excluded).
    pub simulations: u64,
    /// The reference run's structured report.
    pub report: RunReport,
}

/// One completed sweep point stored in a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointPoint {
    /// The point's result.
    pub point: SweepPoint,
    /// The point's structured report.
    pub report: RunReport,
}

/// The versioned on-disk snapshot of a partially completed sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Layout version ([`SWEEP_CHECKPOINT_VERSION`]).
    pub schema_version: u32,
    /// FNV-1a digest of the sweep's identity (configuration with the
    /// thread count zeroed, duty grid, bench sigmas), rendered as hex —
    /// JSON numbers only round-trip 53 bits. A resume against a
    /// different sweep is rejected instead of silently mixing results.
    pub fingerprint: String,
    /// The duty grid the checkpoint belongs to.
    pub alphas: Vec<f64>,
    /// Shared initial particles, once computed.
    pub init: Option<InitialParticles>,
    /// RDF-only reference, once computed.
    pub rdf_only: Option<CheckpointReference>,
    /// Per-point slots in sweep order (`None` = not yet completed).
    pub points: Vec<Option<CheckpointPoint>>,
}

/// Why a checkpoint could not be used or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The file exists but is not a valid checkpoint.
    Corrupt(String),
    /// The checkpoint was written by an incompatible schema.
    SchemaVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The checkpoint belongs to a different sweep (configuration, duty
    /// grid or bench changed).
    Mismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::SchemaVersion { found, expected } => write!(
                f,
                "checkpoint schema version {found} is not the supported {expected}"
            ),
            CheckpointError::Mismatch => write!(
                f,
                "checkpoint belongs to a different sweep (config, duty grid or bench changed)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a resumable sweep aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The shared initialisation or the RDF-only reference failed.
    Init(EstimateError),
    /// A sweep point failed and [`SweepOptions::keep_going`] was off.
    Point {
        /// Index of the failing point in sweep order.
        index: usize,
        /// Its duty ratio.
        alpha: f64,
        /// The underlying estimation error.
        source: EstimateError,
    },
    /// The checkpoint file could not be used or written.
    Checkpoint(CheckpointError),
    /// A cooperative stop was requested ([`SweepOptions::stop`]):
    /// in-flight points were drained into the checkpoint and the
    /// remaining points were skipped. Resume with
    /// [`SweepOptions::resume`] to continue.
    Interrupted {
        /// Points completed so far (this run and earlier checkpointed
        /// runs combined).
        completed: usize,
        /// Points still pending when the stop was honoured.
        remaining: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Init(e) => write!(f, "sweep initialisation failed: {e}"),
            SweepError::Point {
                index,
                alpha,
                source,
            } => write!(f, "sweep point {index} (alpha = {alpha}) failed: {source}"),
            SweepError::Checkpoint(e) => write!(f, "{e}"),
            SweepError::Interrupted {
                completed,
                remaining,
            } => write!(
                f,
                "sweep interrupted: {completed} point(s) complete, {remaining} pending; \
                 checkpoint flushed — rerun with resume to continue"
            ),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Init(e) | SweepError::Point { source: e, .. } => Some(e),
            SweepError::Checkpoint(e) => Some(e),
            SweepError::Interrupted { .. } => None,
        }
    }
}

impl From<CheckpointError> for SweepError {
    fn from(e: CheckpointError) -> Self {
        SweepError::Checkpoint(e)
    }
}

/// How one [`DutySweep::run_with`] call runs. `Default` is a plain
/// [`DutySweep::run`]: no checkpoint, fail-fast, no observer, no stop
/// flag.
#[derive(Clone)]
pub struct SweepOptions<'a> {
    /// Checkpoint file updated after the initialisation, the RDF-only
    /// reference and every completed point (written atomically via a
    /// `.tmp` sibling). `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load previously completed work from the checkpoint file instead
    /// of recomputing it. Without a checkpoint path, or when no file
    /// exists yet, the sweep simply starts fresh.
    pub resume: bool,
    /// Keep estimating the remaining points when one fails; failures are
    /// reported per point in the [`ResumableSweep`].
    pub keep_going: bool,
    /// Receives every pipeline event of every point, on top of the
    /// internal per-point recorders that collect the checkpoint reports.
    pub observer: &'a dyn Observer,
    /// Cooperative stop flag (set it from a Ctrl-C handler or a service
    /// shutdown path), checked before each not-yet-completed point:
    /// points already in flight are *drained* — they finish and are
    /// written to the checkpoint — while pending points are skipped.
    /// When anything was skipped the run returns
    /// [`SweepError::Interrupted`] after one final checkpoint flush, so
    /// a later resume continues bit-identically from where the stop
    /// landed. A stop request that arrives after every point finished is
    /// a no-op and the sweep completes normally.
    pub stop: Option<&'a AtomicBool>,
}

impl Default for SweepOptions<'_> {
    fn default() -> Self {
        Self {
            checkpoint: None,
            resume: false,
            keep_going: false,
            observer: &NullObserver,
            stop: None,
        }
    }
}

/// Outcome of one sweep point under [`DutySweep::run_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Index in sweep order.
    pub index: usize,
    /// Duty ratio.
    pub alpha: f64,
    /// The point's result, or why its estimation failed.
    pub result: Result<SweepPoint, EstimateError>,
    /// Structured report (present for completed points).
    pub report: Option<RunReport>,
    /// Whether the point was loaded from the checkpoint instead of
    /// being computed this run.
    pub from_checkpoint: bool,
}

/// Result of a fault-tolerant sweep: per-point outcomes plus the shared
/// reference figures.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumableSweep {
    /// Per-point outcomes in sweep order.
    pub outcomes: Vec<PointOutcome>,
    /// RDF-only failure probability.
    pub p_fail_rdf_only: f64,
    /// Its CI half-width.
    pub rdf_only_ci95: f64,
    /// Simulations spent on the shared initialisation.
    pub init_simulations: u64,
    /// Total simulations across initialisation, reference and all
    /// completed points (checkpointed work included — it was paid for,
    /// just in an earlier process).
    pub total_simulations: u64,
    /// The RDF-only reference report.
    pub rdf_only_report: RunReport,
    /// How many points were served from the checkpoint.
    pub points_from_checkpoint: usize,
}

impl ResumableSweep {
    /// Number of points whose estimation failed.
    pub fn failed_points(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }

    /// Converts into the strict [`SweepResult`]/[`SweepReports`] pair,
    /// surfacing the first per-point failure in sweep order.
    ///
    /// # Errors
    ///
    /// The first failed point's [`SweepError::Point`].
    pub fn into_parts(self) -> Result<(SweepResult, SweepReports), SweepError> {
        let mut points = Vec::with_capacity(self.outcomes.len());
        let mut reports = Vec::with_capacity(self.outcomes.len());
        for outcome in self.outcomes {
            let point = outcome.result.map_err(|source| SweepError::Point {
                index: outcome.index,
                alpha: outcome.alpha,
                source,
            })?;
            points.push(point);
            reports.push(outcome.report.unwrap_or_default());
        }
        Ok((
            SweepResult {
                points,
                p_fail_rdf_only: self.p_fail_rdf_only,
                rdf_only_ci95: self.rdf_only_ci95,
                init_simulations: self.init_simulations,
                total_simulations: self.total_simulations,
            },
            SweepReports {
                rdf_only: self.rdf_only_report,
                points: reports,
            },
        ))
    }
}

/// The sweep driver, generic over the bench so fault-injection wrappers
/// and synthetic vehicles can be swept exactly like the paper cell.
#[derive(Debug, Clone)]
pub struct DutySweep<B: SweepBench = SramScenarioBench> {
    config: EcripseConfig,
    bench: B,
    alphas: Vec<f64>,
    /// Global point indices for a sharded sweep: entry `k` is the index
    /// this sweep's `alphas[k]` holds in the *full* grid. `None` means
    /// the sweep IS the full grid (index `k` is global index `k`).
    indices: Option<Vec<u64>>,
}

impl<B: SweepBench> DutySweep<B> {
    /// Creates a sweep over the given duty ratios.
    ///
    /// # Panics
    ///
    /// Panics if `alphas` is empty or any `α` is outside `[0, 1]`.
    pub fn new(config: EcripseConfig, bench: B, alphas: Vec<f64>) -> Self {
        assert!(!alphas.is_empty(), "empty duty-ratio sweep");
        assert!(
            alphas.iter().all(|a| (0.0..=1.0).contains(a)),
            "duty ratios must be in [0,1]"
        );
        Self {
            config,
            bench,
            alphas,
            indices: None,
        }
    }

    /// The paper's Fig. 8 grid: eleven points from 0.0 to 1.0.
    pub fn paper_grid(config: EcripseConfig, bench: B) -> Self {
        let alphas = (0..=10).map(|i| i as f64 / 10.0).collect();
        Self::new(config, bench, alphas)
    }

    /// Marks this sweep as a *shard* of a larger grid: `indices[k]` is
    /// the global index of `alphas[k]` in the full sweep. Per-point RNG
    /// seeds are split from the base seed by **global** index, so a
    /// shard computes bit-identically the points a single-process run of
    /// the full grid would — this is what lets a cluster coordinator
    /// scatter one sweep across workers and merge the shards back into
    /// the single-process result (see [`merge_sweep_shards`]).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not the same length as the duty grid or is
    /// not strictly increasing (shards are ordered slices by contract).
    pub fn with_point_indices(mut self, indices: Vec<u64>) -> Self {
        assert_eq!(
            indices.len(),
            self.alphas.len(),
            "one global index per duty point"
        );
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "shard indices must be strictly increasing"
        );
        self.indices = Some(indices);
        self
    }

    /// The duty ratios to sweep.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Runs the full sweep plus the RDF-only reference, sharing one
    /// initial particle set.
    ///
    /// # Errors
    ///
    /// [`SweepError::Init`] or the first failed point's
    /// [`SweepError::Point`].
    pub fn run(&self) -> Result<SweepResult, SweepError> {
        let (result, _) = self.run_with(&SweepOptions::default())?.into_parts()?;
        Ok(result)
    }

    /// The one sweep entry point: checkpointing, resume, per-point
    /// failure isolation, observation and cooperative stopping, as
    /// `options` direct. [`ResumableSweep::into_parts`] turns the outcome
    /// into the [`SweepResult`] plus one structured [`RunReport`] for the
    /// RDF-only reference and for every duty-ratio point; the per-point
    /// reports are collected independently, so they stay bit-identical
    /// across thread counts apart from their wall-clock timing fields.
    ///
    /// Per-point RNG seeds are split from the base seed by point index,
    /// so the estimates are independent of which points were loaded from
    /// a checkpoint: an interrupted-and-resumed sweep produces exactly
    /// the [`SweepResult`] of an uninterrupted one.
    ///
    /// Sweep points run in parallel, so [`SweepOptions::observer`]
    /// receives events from **several concurrent runs interleaved** (each
    /// point emits its own `run_started`…`run_finished` sequence).
    /// Observers that aggregate across runs — progress trackers,
    /// telemetry bridges — must accumulate rather than overwrite. The
    /// shared boundary search reports its own `stage_started`,
    /// `boundary_found` and `stage_finished` once, before the first run.
    /// Work loaded from a checkpoint — the boundary search or a point —
    /// emits no events (it happened in an earlier process).
    ///
    /// # Errors
    ///
    /// [`SweepError::Checkpoint`] when the checkpoint cannot be read
    /// (resume) or written; [`SweepError::Init`] when the shared
    /// initialisation or RDF-only reference fails; [`SweepError::Point`]
    /// when a point fails and [`SweepOptions::keep_going`] is off;
    /// [`SweepError::Interrupted`] when [`SweepOptions::stop`] cut the
    /// sweep short.
    pub fn run_with(&self, options: &SweepOptions<'_>) -> Result<ResumableSweep, SweepError> {
        let observer = options.observer;
        let fingerprint = self.fingerprint()?;
        let mut checkpoint = match (&options.checkpoint, options.resume) {
            (Some(path), true) if path.exists() => {
                let loaded = load_checkpoint(path)?;
                self.validate_checkpoint(&loaded, &fingerprint)?;
                loaded
            }
            _ => self.fresh_checkpoint(fingerprint),
        };

        // Shared initialisation (RDF-only indicator), possibly resumed.
        let rdf_run = Ecripse::new(self.config, self.bench.clone());
        let init_start = Instant::now();
        let (init, init_wall) = match checkpoint.init.take() {
            Some(init) => (init, 0.0),
            None => {
                let init = rdf_run.boundary_stage(observer).map_err(SweepError::Init)?;
                (init, init_start.elapsed().as_secs_f64())
            }
        };
        checkpoint.init = Some(init.clone());
        save_checkpoint(options.checkpoint.as_deref(), &checkpoint)?;
        let init_simulations = init.simulations;
        // Exclude the (already counted) init cost from per-point numbers.
        let amortised = InitialParticles {
            particles: init.particles.clone(),
            simulations: 0,
        };

        // RDF-only reference, possibly resumed. The boundary search
        // happened outside the estimator (it is shared by every point)
        // and reported only into `observer`, so its events are emitted
        // into the reference recorder by hand.
        let rdf_only = match checkpoint.rdf_only.take() {
            Some(reference) => reference,
            None => {
                let rdf_recorder = RunRecorder::new();
                rdf_recorder.stage_started(Stage::BoundarySearch);
                rdf_recorder.boundary_found(&BoundaryStats {
                    particles: init.particles.len(),
                    simulations: init_simulations,
                });
                rdf_recorder.stage_finished(
                    Stage::BoundarySearch,
                    &StageTiming {
                        wall_seconds: init_wall,
                        simulations: init_simulations,
                    },
                );
                let mut fanout = MultiObserver::new();
                fanout.push(&rdf_recorder);
                fanout.push(observer);
                let res = rdf_run
                    .estimate_with(&RunOptions {
                        observer: &fanout,
                        initial: Some(&amortised),
                        ..RunOptions::default()
                    })
                    .map_err(SweepError::Init)?;
                CheckpointReference {
                    p_fail: res.p_fail,
                    ci95_half_width: res.ci95_half_width,
                    simulations: res.simulations,
                    report: rdf_recorder.into_report(),
                }
            }
        };
        checkpoint.rdf_only = Some(rdf_only.clone());
        save_checkpoint(options.checkpoint.as_deref(), &checkpoint)?;

        let sigmas = self.bench.sigmas();
        // The α points are fully independent (per-point seeds are split
        // from the base seed by index), so the grid runs as a parallel
        // map. Completed points are checkpointed as they finish, under a
        // mutex so the file is written consistently; the first write
        // error is surfaced after the sweep.
        let save_error: Mutex<Option<CheckpointError>> = Mutex::new(None);
        let amortised = &amortised;
        // `None` marks a point skipped because the stop flag was raised
        // before it started; in-flight points drain to completion.
        let shared_checkpoint = Mutex::new(&mut checkpoint);
        let outcomes: Vec<Option<PointOutcome>> = run_in_pool(self.config.threads, || {
            self.alphas
                .par_iter()
                .enumerate()
                .map(|(k, &alpha)| {
                    if let Some(done) = shared_checkpoint.lock().points[k].clone() {
                        return Some(PointOutcome {
                            index: k,
                            alpha,
                            result: Ok(done.point),
                            report: Some(done.report),
                            from_checkpoint: true,
                        });
                    }
                    if options.stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                        return None;
                    }
                    let mut config = self.config;
                    // Decorrelate RNG streams across sweep points while
                    // keeping the whole sweep reproducible. A shard
                    // seeds by global index so it matches the point the
                    // full grid would compute at that position.
                    let global = self.indices.as_ref().map_or(k as u64, |ix| ix[k]);
                    config.seed = self.config.seed.wrapping_add(1 + global);
                    let rtn = SramRtn::paper_model(alpha, sigmas);
                    let recorder = RunRecorder::new();
                    let mut fanout = MultiObserver::new();
                    fanout.push(&recorder);
                    fanout.push(observer);
                    let result = self.bench.at_alpha(alpha).with_private_ledger(|bench| {
                        // No stop flag: a point that started drains to
                        // completion.
                        Ecripse::with_rtn(config, bench.clone(), rtn).estimate_with(&RunOptions {
                            observer: &fanout,
                            initial: Some(amortised),
                            ..RunOptions::default()
                        })
                    });
                    match result {
                        Ok(res) => {
                            let point = SweepPoint {
                                alpha,
                                p_fail: res.p_fail,
                                ci95_half_width: res.ci95_half_width,
                                simulations: res.simulations,
                            };
                            let report = recorder.into_report();
                            {
                                let mut ckpt = shared_checkpoint.lock();
                                ckpt.points[k] = Some(CheckpointPoint {
                                    point,
                                    report: report.clone(),
                                });
                                if let Err(e) =
                                    save_checkpoint(options.checkpoint.as_deref(), &ckpt)
                                {
                                    let mut slot = save_error.lock();
                                    if slot.is_none() {
                                        if let SweepError::Checkpoint(ce) = e {
                                            *slot = Some(ce);
                                        }
                                    }
                                }
                            }
                            Some(PointOutcome {
                                index: k,
                                alpha,
                                result: Ok(point),
                                report: Some(report),
                                from_checkpoint: false,
                            })
                        }
                        Err(e) => Some(PointOutcome {
                            index: k,
                            alpha,
                            result: Err(e),
                            report: None,
                            from_checkpoint: false,
                        }),
                    }
                })
                .collect()
        });

        // Release the `&mut checkpoint` borrow held by the mutex.
        let _ = shared_checkpoint.into_inner();
        if let Some(e) = save_error.into_inner() {
            return Err(SweepError::Checkpoint(e));
        }
        let skipped = outcomes.iter().filter(|o| o.is_none()).count();
        if skipped > 0 {
            // Make sure the drained state is on disk before reporting
            // the interrupt (per-point saves already ran, but a final
            // flush also covers the nothing-completed-yet case).
            save_checkpoint(options.checkpoint.as_deref(), &checkpoint)?;
            let completed = checkpoint.points.iter().filter(|p| p.is_some()).count();
            return Err(SweepError::Interrupted {
                completed,
                remaining: skipped,
            });
        }
        let outcomes: Vec<PointOutcome> = outcomes.into_iter().flatten().collect();
        if !options.keep_going {
            if let Some(failed) = outcomes.iter().find(|o| o.result.is_err()) {
                if let Err(source) = &failed.result {
                    return Err(SweepError::Point {
                        index: failed.index,
                        alpha: failed.alpha,
                        source: source.clone(),
                    });
                }
            }
        }

        let points_from_checkpoint = outcomes.iter().filter(|o| o.from_checkpoint).count();
        let total_simulations = init_simulations
            + rdf_only.simulations
            + outcomes
                .iter()
                .filter_map(|o| o.result.as_ref().ok().map(|p| p.simulations))
                .sum::<u64>();
        Ok(ResumableSweep {
            outcomes,
            p_fail_rdf_only: rdf_only.p_fail,
            rdf_only_ci95: rdf_only.ci95_half_width,
            init_simulations,
            total_simulations,
            rdf_only_report: rdf_only.report,
            points_from_checkpoint,
        })
    }

    /// Primes `path` with an empty checkpoint describing this sweep
    /// without running any estimation, so a later
    /// [`SweepOptions::resume`] run can pick the sweep up from scratch.
    /// An existing checkpoint that already belongs to this sweep is left
    /// untouched (partial progress is preserved); a missing file, a
    /// corrupt file or a foreign sweep's checkpoint is replaced by a
    /// fresh one.
    ///
    /// Returns `true` when a fresh checkpoint was written and `false`
    /// when a compatible one already existed.
    ///
    /// # Errors
    ///
    /// [`SweepError::Checkpoint`] when the sweep identity cannot be
    /// fingerprinted or the file cannot be written.
    pub fn ensure_checkpoint(&self, path: &Path) -> Result<bool, SweepError> {
        let fingerprint = self.fingerprint()?;
        if path.exists() {
            if let Ok(existing) = load_checkpoint(path) {
                if self.validate_checkpoint(&existing, &fingerprint).is_ok() {
                    return Ok(false);
                }
            }
        }
        save_checkpoint(Some(path), &self.fresh_checkpoint(fingerprint))?;
        Ok(true)
    }

    fn fresh_checkpoint(&self, fingerprint: String) -> SweepCheckpoint {
        SweepCheckpoint {
            schema_version: SWEEP_CHECKPOINT_VERSION,
            fingerprint,
            alphas: self.alphas.clone(),
            init: None,
            rdf_only: None,
            points: vec![None; self.alphas.len()],
        }
    }

    fn validate_checkpoint(
        &self,
        checkpoint: &SweepCheckpoint,
        fingerprint: &str,
    ) -> Result<(), CheckpointError> {
        if checkpoint.schema_version != SWEEP_CHECKPOINT_VERSION {
            return Err(CheckpointError::SchemaVersion {
                found: checkpoint.schema_version,
                expected: SWEEP_CHECKPOINT_VERSION,
            });
        }
        if checkpoint.fingerprint != fingerprint
            || checkpoint.alphas != self.alphas
            || checkpoint.points.len() != self.alphas.len()
        {
            return Err(CheckpointError::Mismatch);
        }
        Ok(())
    }

    /// FNV-1a digest of the sweep identity, hex-rendered. The thread
    /// count is zeroed first: it cannot change any estimate (the
    /// pipeline is bit-identical across thread counts), so it must not
    /// invalidate a checkpoint either.
    fn fingerprint(&self) -> Result<String, SweepError> {
        let mut config = self.config;
        config.threads = 0;
        let config_json = serde_json::to_string(&config)
            .map_err(|e| CheckpointError::Corrupt(format!("serialise config: {e}")))?;
        let alphas_json = serde_json::to_string(&self.alphas)
            .map_err(|e| CheckpointError::Corrupt(format!("serialise alphas: {e}")))?;
        let mut hash = fnv1a(FNV_OFFSET, config_json.as_bytes());
        hash = fnv1a(hash, alphas_json.as_bytes());
        for sigma in self.bench.sigmas() {
            hash = fnv1a(hash, &sigma.to_bits().to_le_bytes());
        }
        // Only a shard folds its global indices in: a full-grid sweep
        // keeps the pre-shard fingerprint, so existing checkpoints stay
        // valid — and a shard's checkpoint can never satisfy a resume of
        // the full grid (their per-point seeds differ).
        if let Some(indices) = &self.indices {
            let indices_json = serde_json::to_string(indices)
                .map_err(|e| CheckpointError::Corrupt(format!("serialise indices: {e}")))?;
            hash = fnv1a(hash, indices_json.as_bytes());
        }
        Ok(format!("{hash:016x}"))
    }
}

fn load_checkpoint(path: &Path) -> Result<SweepCheckpoint, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))
}

/// Writes the checkpoint with [`write_atomically`], so neither an
/// interrupt nor a crash mid-write can corrupt an existing checkpoint.
/// A `None` path disables checkpointing.
fn save_checkpoint(path: Option<&Path>, checkpoint: &SweepCheckpoint) -> Result<(), SweepError> {
    let Some(path) = path else { return Ok(()) };
    let json = serde_json::to_string_pretty(checkpoint)
        .map_err(|e| CheckpointError::Corrupt(format!("serialise checkpoint: {e}")))?;
    write_atomically(path, json.as_bytes())
        .map_err(|e| SweepError::Checkpoint(CheckpointError::Io(e.to_string())))
}

/// Replaces the file at `path` with `bytes`: writes a `.tmp` sibling,
/// syncs its data to disk, then renames it over `path`. A crash at any
/// point leaves the old file or the complete new one, never a torn or
/// empty one, and a failed write leaves the old file untouched. Sweep
/// checkpoints, verdict-store snapshots and journal compaction all
/// write through it.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    std::fs::rename(&tmp, path)
}

/// One worker's slice of a sharded sweep, ready for
/// [`merge_sweep_shards`]. Each shard ran the *same* base configuration
/// and seed over a subset of the duty grid (see
/// [`DutySweep::with_point_indices`]), so every shard carries its own
/// bit-identical copy of the shared initialisation and RDF-only
/// reference alongside its slice of the points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepShard {
    /// Global indices of this shard's points in the full duty grid —
    /// strictly increasing, aligned with `result.points` and
    /// `reports.points`.
    pub indices: Vec<u64>,
    /// The shard's sweep result.
    pub result: SweepResult,
    /// The shard's structured reports.
    pub reports: SweepReports,
}

/// Why a set of sweep shards could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shards were supplied, or the grid size is zero.
    NoShards,
    /// A shard's indices, points and reports disagree in length or
    /// ordering.
    Shape(String),
    /// A shard names a global index outside the full grid.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The full grid size.
        total: usize,
    },
    /// Two shards both claim the same global index.
    DuplicateIndex(u64),
    /// No shard covers this global index — the merge would silently
    /// drop a point.
    MissingIndex(u64),
    /// The shards' shared reference figures disagree, which means they
    /// did not run the same base configuration and seed.
    InconsistentReference(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "nothing to merge: no shards (or an empty grid)"),
            MergeError::Shape(e) => write!(f, "malformed shard: {e}"),
            MergeError::IndexOutOfRange { index, total } => {
                write!(f, "shard names point {index} of a {total}-point grid")
            }
            MergeError::DuplicateIndex(i) => write!(f, "point {i} is claimed by two shards"),
            MergeError::MissingIndex(i) => write!(f, "no shard covers point {i}"),
            MergeError::InconsistentReference(e) => {
                write!(f, "shards disagree on the shared reference: {e}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges shard results back into the [`SweepResult`]/[`SweepReports`]
/// pair a single-process run of the full grid would have produced —
/// bit-identical apart from wall-clock timings.
///
/// Merge order is keyed by **global point index**, never by arrival
/// order, so the output is deterministic no matter how the shards were
/// scheduled. The shared initialisation and RDF-only reference were
/// recomputed identically by every shard; they are counted **once** (as
/// in a single-process run) and asserted bit-equal across shards — a
/// disagreement means a worker ran a different configuration and the
/// merge refuses rather than publish a mixed result.
///
/// # Errors
///
/// [`MergeError`] when the shards do not tile the grid exactly once or
/// their shared reference figures disagree.
pub fn merge_sweep_shards(
    total_points: usize,
    shards: &[SweepShard],
) -> Result<(SweepResult, SweepReports), MergeError> {
    if shards.is_empty() || total_points == 0 {
        return Err(MergeError::NoShards);
    }
    for shard in shards {
        if shard.indices.len() != shard.result.points.len()
            || shard.indices.len() != shard.reports.points.len()
        {
            return Err(MergeError::Shape(format!(
                "{} indices vs {} points vs {} reports",
                shard.indices.len(),
                shard.result.points.len(),
                shard.reports.points.len()
            )));
        }
        if !shard.indices.windows(2).all(|w| w[0] < w[1]) {
            return Err(MergeError::Shape(
                "shard indices must be strictly increasing".into(),
            ));
        }
    }

    // The shared reference must be bit-equal everywhere (timings aside).
    let reference = &shards[0];
    let stripped_reference = {
        let mut report = reference.reports.rdf_only.clone();
        report.strip_timings();
        report
    };
    for shard in &shards[1..] {
        if shard.result.p_fail_rdf_only.to_bits() != reference.result.p_fail_rdf_only.to_bits()
            || shard.result.rdf_only_ci95.to_bits() != reference.result.rdf_only_ci95.to_bits()
        {
            return Err(MergeError::InconsistentReference(format!(
                "p_fail_rdf_only {:e} vs {:e}",
                shard.result.p_fail_rdf_only, reference.result.p_fail_rdf_only
            )));
        }
        if shard.result.init_simulations != reference.result.init_simulations {
            return Err(MergeError::InconsistentReference(format!(
                "init_simulations {} vs {}",
                shard.result.init_simulations, reference.result.init_simulations
            )));
        }
        let mut stripped = shard.reports.rdf_only.clone();
        stripped.strip_timings();
        if stripped != stripped_reference {
            return Err(MergeError::InconsistentReference(
                "rdf-only reports differ structurally".into(),
            ));
        }
    }

    let mut points: Vec<Option<SweepPoint>> = vec![None; total_points];
    let mut reports: Vec<Option<RunReport>> = vec![None; total_points];
    for shard in shards {
        for (k, &index) in shard.indices.iter().enumerate() {
            let slot = usize::try_from(index).unwrap_or(usize::MAX);
            if slot >= total_points {
                return Err(MergeError::IndexOutOfRange {
                    index,
                    total: total_points,
                });
            }
            if points[slot].is_some() {
                return Err(MergeError::DuplicateIndex(index));
            }
            points[slot] = Some(shard.result.points[k]);
            reports[slot] = Some(shard.reports.points[k].clone());
        }
    }
    if let Some(missing) = points.iter().position(|p| p.is_none()) {
        return Err(MergeError::MissingIndex(missing as u64));
    }
    let points: Vec<SweepPoint> = points.into_iter().flatten().collect();
    let reports: Vec<RunReport> = reports.into_iter().flatten().collect();

    // Every shard's total re-counts the shared initialisation and the
    // RDF-only reference it recomputed; the merged total counts both
    // once, exactly like a single-process run.
    let shard_point_sims: u64 = reference.result.points.iter().map(|p| p.simulations).sum();
    let rdf_only_sims = reference
        .result
        .total_simulations
        .saturating_sub(reference.result.init_simulations)
        .saturating_sub(shard_point_sims);
    let total_simulations = reference.result.init_simulations
        + rdf_only_sims
        + points.iter().map(|p| p.simulations).sum::<u64>();

    Ok((
        SweepResult {
            points,
            p_fail_rdf_only: reference.result.p_fail_rdf_only,
            rdf_only_ci95: reference.result.rdf_only_ci95,
            init_simulations: reference.result.init_simulations,
            total_simulations,
        },
        SweepReports {
            rdf_only: reference.reports.rdf_only.clone(),
            points: reports,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn atomic_writes_replace_the_file_or_leave_it_intact() {
        let dir = std::env::temp_dir().join(format!("ecripse-atomic-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("state.json");
        write_atomically(&path, b"old").expect("first write");
        write_atomically(&path, b"new").expect("second write");
        assert_eq!(std::fs::read(&path).expect("read"), b"new");
        assert!(
            !path.with_extension("tmp").exists(),
            "the .tmp sibling must be gone"
        );
        // A directory squatting on the .tmp path makes the write fail
        // before anything touches the file.
        std::fs::create_dir(path.with_extension("tmp")).expect("squat");
        assert!(write_atomically(&path, b"lost").is_err());
        assert_eq!(std::fs::read(&path).expect("read"), b"new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paper_grid_has_eleven_points() {
        let s = DutySweep::paper_grid(
            EcripseConfig::default(),
            SramScenarioBench::paper_cell(Scenario::ReadSnm),
        );
        assert_eq!(s.alphas().len(), 11);
        assert_eq!(s.alphas()[0], 0.0);
        assert_eq!(s.alphas()[10], 1.0);
    }

    #[test]
    #[should_panic(expected = "duty ratios must be in [0,1]")]
    fn rejects_out_of_range_alpha() {
        let _ = DutySweep::new(
            EcripseConfig::default(),
            SramScenarioBench::paper_cell(Scenario::ReadSnm),
            vec![0.5, 1.5],
        );
    }

    #[test]
    #[should_panic(expected = "empty duty-ratio sweep")]
    fn rejects_empty_sweep() {
        let _ = DutySweep::new(
            EcripseConfig::default(),
            SramScenarioBench::paper_cell(Scenario::ReadSnm),
            vec![],
        );
    }

    #[test]
    fn csv_output_shape() {
        let result = SweepResult {
            points: vec![SweepPoint {
                alpha: 0.5,
                p_fail: 8e-4,
                ci95_half_width: 5e-5,
                simulations: 1234,
            }],
            p_fail_rdf_only: 1.33e-4,
            rdf_only_ci95: 1e-5,
            init_simulations: 500,
            total_simulations: 2000,
        };
        let mut buf = Vec::new();
        result.write_csv(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.starts_with("alpha,"));
        assert!(text.contains("0.5,"));
        assert!((result.rtn_degradation_factor() - 8e-4 / 1.33e-4).abs() < 1e-9);
    }

    #[test]
    fn worst_and_best_points() {
        let mk = |alpha: f64, p: f64| SweepPoint {
            alpha,
            p_fail: p,
            ci95_half_width: 0.0,
            simulations: 0,
        };
        let result = SweepResult {
            points: vec![mk(0.0, 9e-4), mk(0.5, 5e-4), mk(1.0, 8.5e-4)],
            p_fail_rdf_only: 1.33e-4,
            rdf_only_ci95: 0.0,
            init_simulations: 0,
            total_simulations: 0,
        };
        assert_eq!(result.worst().expect("non-empty").alpha, 0.0);
        assert_eq!(result.best().expect("non-empty").alpha, 0.5);
    }

    fn test_sweep(seed: u64) -> DutySweep<LinearBench> {
        let config = EcripseConfig {
            seed,
            ..EcripseConfig::default()
        };
        let bench = LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5);
        DutySweep::new(config, bench, vec![0.0, 0.5, 1.0])
    }

    #[test]
    fn fingerprint_tracks_sweep_identity() {
        let a = test_sweep(1).fingerprint().expect("fingerprint");
        let same = test_sweep(1).fingerprint().expect("fingerprint");
        let other_seed = test_sweep(2).fingerprint().expect("fingerprint");
        assert_eq!(a, same, "identical sweeps share a fingerprint");
        assert_ne!(a, other_seed, "the seed is part of the sweep identity");
        // The thread count must NOT change the fingerprint.
        let mut threaded = test_sweep(1);
        threaded.config.threads = 7;
        assert_eq!(a, threaded.fingerprint().expect("fingerprint"));
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let sweep = test_sweep(3);
        let fp = sweep.fingerprint().expect("fingerprint");
        let mut ckpt = sweep.fresh_checkpoint(fp.clone());
        ckpt.init = Some(InitialParticles {
            particles: vec![vec![3.5, 0.0, 0.0, 0.0, 0.0, 0.0]],
            simulations: 120,
        });
        ckpt.points[1] = Some(CheckpointPoint {
            point: SweepPoint {
                alpha: 0.5,
                p_fail: 2e-4,
                ci95_half_width: 1e-5,
                simulations: 900,
            },
            report: RunReport::default(),
        });
        let json = serde_json::to_string(&ckpt).expect("serialise");
        let back: SweepCheckpoint = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, ckpt);
        sweep.validate_checkpoint(&back, &fp).expect("compatible");
    }

    #[test]
    fn incompatible_checkpoints_are_rejected() {
        let sweep = test_sweep(4);
        let fp = sweep.fingerprint().expect("fingerprint");
        let mut wrong_version = sweep.fresh_checkpoint(fp.clone());
        wrong_version.schema_version = SWEEP_CHECKPOINT_VERSION + 1;
        assert!(matches!(
            sweep.validate_checkpoint(&wrong_version, &fp),
            Err(CheckpointError::SchemaVersion { .. })
        ));
        let foreign = sweep.fresh_checkpoint(format!("not-{fp}"));
        assert!(matches!(
            sweep.validate_checkpoint(&foreign, &fp),
            Err(CheckpointError::Mismatch)
        ));
    }

    #[test]
    fn missing_checkpoint_file_is_an_io_error() {
        let err = load_checkpoint(Path::new("/nonexistent/ecripse-ckpt.json"));
        assert!(matches!(err, Err(CheckpointError::Io(_))));
    }

    #[test]
    fn sweep_error_messages_name_the_failing_point() {
        let e = SweepError::Point {
            index: 3,
            alpha: 0.3,
            source: EstimateError::Degenerate { iteration: 2 },
        };
        let text = e.to_string();
        assert!(text.contains("point 3"));
        assert!(text.contains("0.3"));
    }

    fn strip_reports(reports: &mut SweepReports) {
        reports.rdf_only.strip_timings();
        for report in &mut reports.points {
            report.strip_timings();
        }
    }

    fn run_shard(seed: u64, alphas: Vec<f64>, indices: Vec<u64>) -> SweepShard {
        let config = EcripseConfig {
            seed,
            ..EcripseConfig::default()
        };
        let bench = LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5);
        let (result, reports) = DutySweep::new(config, bench, alphas)
            .with_point_indices(indices.clone())
            .run_with(&SweepOptions::default())
            .and_then(ResumableSweep::into_parts)
            .expect("shard runs");
        SweepShard {
            indices,
            result,
            reports,
        }
    }

    /// The clustering contract end to end, in miniature: two shards of
    /// a 3-point grid, run independently with global indices, merge
    /// back to exactly the single-process full-grid run.
    #[test]
    fn merged_shards_are_bit_identical_to_the_full_grid() {
        let full = test_sweep(11);
        let (want_result, mut want_reports) = full
            .run_with(&SweepOptions::default())
            .and_then(ResumableSweep::into_parts)
            .expect("full grid runs");
        // Deliberately out of dispatch order: merge is keyed by index.
        let shards = vec![
            run_shard(11, vec![0.5], vec![1]),
            run_shard(11, vec![0.0, 1.0], vec![0, 2]),
        ];
        let (got_result, mut got_reports) = merge_sweep_shards(3, &shards).expect("shards merge");
        strip_reports(&mut want_reports);
        strip_reports(&mut got_reports);
        assert_eq!(got_result.points.len(), 3);
        for (got, want) in got_result.points.iter().zip(&want_result.points) {
            assert_eq!(got.alpha.to_bits(), want.alpha.to_bits());
            assert_eq!(got.p_fail.to_bits(), want.p_fail.to_bits());
            assert_eq!(
                got.ci95_half_width.to_bits(),
                want.ci95_half_width.to_bits()
            );
            assert_eq!(got.simulations, want.simulations);
        }
        // Timing-stripped, everything must match bit-for-bit.
        assert_eq!(got_result, want_result);
        assert_eq!(got_reports, want_reports);
    }

    #[test]
    fn merge_rejects_holes_duplicates_and_foreign_references() {
        let a = run_shard(11, vec![0.0, 1.0], vec![0, 2]);
        let b = run_shard(11, vec![0.5], vec![1]);
        assert_eq!(merge_sweep_shards(3, &[]), Err(MergeError::NoShards));
        assert_eq!(
            merge_sweep_shards(3, std::slice::from_ref(&a)),
            Err(MergeError::MissingIndex(1))
        );
        assert_eq!(
            merge_sweep_shards(3, &[a.clone(), b.clone(), b.clone()]),
            Err(MergeError::DuplicateIndex(1))
        );
        assert_eq!(
            merge_sweep_shards(2, &[a.clone(), b.clone()]),
            Err(MergeError::IndexOutOfRange { index: 2, total: 2 })
        );
        // A shard from a different seed recomputed a different shared
        // reference: the merge must refuse to mix them.
        let foreign = run_shard(12, vec![0.5], vec![1]);
        assert!(matches!(
            merge_sweep_shards(3, &[a.clone(), foreign]),
            Err(MergeError::InconsistentReference(_))
        ));
        // A malformed shard (indices out of step with points).
        let mut torn = b;
        torn.indices.push(2);
        assert!(matches!(
            merge_sweep_shards(3, &[a, torn]),
            Err(MergeError::Shape(_))
        ));
    }

    #[test]
    fn shard_fingerprints_differ_from_the_full_grid() {
        let full = test_sweep(1);
        let sharded = test_sweep(1).with_point_indices(vec![4, 7, 9]);
        assert_ne!(
            full.fingerprint().expect("fingerprint"),
            sharded.fingerprint().expect("fingerprint"),
            "a shard checkpoint must never satisfy a full-grid resume"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_shard_indices_are_rejected() {
        let _ = test_sweep(1).with_point_indices(vec![2, 1, 0]);
    }
}
