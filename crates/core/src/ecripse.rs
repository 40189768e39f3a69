//! The full ECRIPSE flow (Algorithm 1).
//!
//! ```text
//! (1) initial sample selection — spherical bisection onto the failure
//!     boundary (shared across bias conditions);
//! (2)–(4) particle-filter iterations: predict (Eq. 15), measure
//!     (Eq. 16, inner RTN MC of Eq. 17 answered mostly by the
//!     classifier), resample — independently per ensemble filter;
//! (5) importance sampling from the pooled particle mixture (Eqs. 18–19)
//!     with the accurate oracle policy.
//! ```
//!
//! Every transistor-level simulation is accounted through a
//! [`SimCounter`]; results carry the totals and optional convergence
//! traces so the Fig. 6/7 regenerators can plot estimate-vs-cost curves.

use crate::bench::{EffortSnapshot, EvalError, SimCounter, Testbench};
use crate::cache::{MemoBench, MemoCacheConfig};
use crate::ensemble::{EnsembleConfig, FilterEnsemble};
use crate::importance::{importance_stage_impl, ImportanceConfig};
use crate::initial::{
    find_boundary_particles, BoundaryNotFoundError, InitialParticles, InitialSearchConfig,
};
use crate::observe::{
    BoundaryStats, IterationStats, NullObserver, Observer, OracleDelta, RunRecorder, RunReport,
    RunSummary, SimBatchStats, Stage, StageTiming,
};
use crate::oracle::{ClassifierOracle, OracleConfig, OracleStats};
use crate::prefetch::PrefetchBench;
use crate::retry::{RetryBench, RetryPolicy};
use crate::rtn_source::{NoRtn, RtnSource};
use crate::scenario::Scenario;
use crate::trace::ConvergenceTrace;
use ecripse_stats::mvn::DiagGaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Full configuration of an ECRIPSE run.
///
/// `Default` gives the tuned values used throughout the evaluation. A
/// field-by-field reference — defaults, the paper's values where it
/// states them, and tuning guidance — is the "Configuration reference"
/// table in the repository `README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EcripseConfig {
    /// Which registered SRAM workload the run estimates (see
    /// [`crate::scenario`]). Purely declarative for the estimator — the
    /// caller builds the matching bench — but carried in configs,
    /// reports and the serve wire so a run's indicator is never
    /// ambiguous. Defaults to the paper's `read-snm`.
    #[serde(default)]
    pub scenario: Scenario,
    /// Step (1): boundary search settings.
    pub initial: InitialSearchConfig,
    /// Steps (2)–(4): particle-filter ensemble settings.
    pub ensemble: EnsembleConfig,
    /// Number of predict/measure/resample iterations (the paper uses 10).
    pub iterations: usize,
    /// Kernel width of the Eq. 18 alternative-distribution mixture.
    pub sigma_kernel: f64,
    /// Classifier policy settings.
    pub oracle: OracleConfig,
    /// Step (5): importance-sampling settings.
    pub importance: ImportanceConfig,
    /// RTN draws per particle during weight measurement (stage 1).
    pub m_rtn_stage1: usize,
    /// RNG seed; identical configurations and seeds reproduce bit-equal
    /// results.
    pub seed: u64,
    /// Record particle snapshots after each iteration (Fig. 4 data).
    pub record_particles: bool,
    /// Worker threads for batched simulation and the parallel ensemble;
    /// `0` means one per available core. Results are bit-identical for
    /// every value.
    pub threads: usize,
    /// Simulator memo-cache settings.
    pub cache: MemoCacheConfig,
    /// Per-sample retry ladder for unevaluable simulations (see
    /// [`crate::retry`]).
    pub retry: RetryPolicy,
}

impl Default for EcripseConfig {
    fn default() -> Self {
        Self {
            scenario: Scenario::default(),
            initial: InitialSearchConfig::default(),
            ensemble: EnsembleConfig::default(),
            iterations: 10,
            sigma_kernel: 0.8,
            oracle: OracleConfig::default(),
            importance: ImportanceConfig::default(),
            m_rtn_stage1: 10,
            seed: 0xec4155e,
            record_particles: false,
            threads: 0,
            cache: MemoCacheConfig::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Result of an ECRIPSE estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EcripseResult {
    /// The failure-probability estimate (Eq. 19).
    pub p_fail: f64,
    /// 95 % confidence half-width.
    pub ci95_half_width: f64,
    /// Total transistor-level simulations, including initialisation and
    /// classifier training labels.
    pub simulations: u64,
    /// Importance samples drawn in stage 2.
    pub is_samples: u64,
    /// Effective sample size of the importance weights.
    pub effective_sample_size: f64,
    /// Oracle behaviour statistics.
    pub oracle_stats: OracleStats,
    /// Stage-2 convergence trace (empty unless
    /// `importance.trace_every > 0`).
    pub trace: ConvergenceTrace,
    /// Particle snapshots per iteration when requested: `[iteration]
    /// [particle][dim]` (iteration 0 = initial seeds).
    pub particle_history: Vec<Vec<Vec<f64>>>,
}

impl EcripseResult {
    /// Relative error (CI half-width / estimate), the Fig. 6(b) metric.
    pub fn relative_error(&self) -> f64 {
        if self.p_fail > 0.0 {
            self.ci95_half_width / self.p_fail
        } else {
            f64::INFINITY
        }
    }
}

/// Errors an estimation run can surface.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// The initial boundary search failed.
    Boundary(BoundaryNotFoundError),
    /// Every particle filter lost all weight in some iteration and the
    /// run could not continue.
    Degenerate {
        /// Iteration at which the ensemble died.
        iteration: usize,
    },
    /// A cooperative stop flag cut the run short (cancellation or a
    /// deadline in the serving layer). Unlike a checkpointed sweep,
    /// a plain estimate holds no resumable state — rerunning the same
    /// config and seed reproduces the run bit-identically from scratch.
    Interrupted,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::Boundary(e) => write!(f, "{e}"),
            EstimateError::Degenerate { iteration } => {
                write!(f, "particle ensemble degenerated at iteration {iteration}")
            }
            EstimateError::Interrupted => write!(f, "estimation interrupted by stop flag"),
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<BoundaryNotFoundError> for EstimateError {
    fn from(e: BoundaryNotFoundError) -> Self {
        EstimateError::Boundary(e)
    }
}

/// An ECRIPSE estimator bound to a testbench and an RTN source.
#[derive(Debug, Clone)]
pub struct Ecripse<B, S = NoRtn> {
    config: EcripseConfig,
    bench: B,
    rtn: S,
}

impl<B: Testbench> Ecripse<B, NoRtn> {
    /// RDF-only estimator (no RTN), as in the Fig. 6 comparison.
    pub fn new(config: EcripseConfig, bench: B) -> Self {
        let dim = bench.dim();
        Self {
            config,
            bench,
            rtn: NoRtn::new(dim),
        }
    }
}

impl<B: Testbench, S: RtnSource> Ecripse<B, S> {
    /// Estimator with an explicit RTN source.
    ///
    /// # Panics
    ///
    /// Panics if the bench and RTN source dimensions disagree.
    pub fn with_rtn(config: EcripseConfig, bench: B, rtn: S) -> Self {
        assert_eq!(bench.dim(), rtn.dim(), "bench/RTN dimension mismatch");
        Self { config, bench, rtn }
    }

    /// The configuration.
    pub fn config(&self) -> &EcripseConfig {
        &self.config
    }

    /// The testbench.
    pub fn bench(&self) -> &B {
        &self.bench
    }

    /// Runs step (1) only — producing an initial particle set that can be
    /// shared across bias conditions via [`Self::estimate_with_initial`].
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::Boundary`] when the failure boundary is
    /// out of reach.
    pub fn find_initial_particles(&self) -> Result<InitialParticles, EstimateError> {
        self.find_initial_particles_observed(&NullObserver)
    }

    /// Step (1) with raw simulator-batch latencies reported into
    /// `observer` (the boundary-search events themselves are emitted by
    /// the estimation entry points, which know the stage framing). Runs
    /// in the configured thread pool, like every later stage.
    pub(crate) fn find_initial_particles_observed(
        &self,
        observer: &dyn Observer,
    ) -> Result<InitialParticles, EstimateError> {
        let timed = TimingBench {
            inner: &self.bench,
            observer,
        };
        let counter = SimCounter::new(&timed);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x1717);
        let init = run_in_pool(self.config.threads, || {
            find_boundary_particles(&counter, &mut rng, &self.config.initial)
        })?;
        Ok(init)
    }

    /// Full estimation: steps (1)–(5).
    ///
    /// # Errors
    ///
    /// See [`EstimateError`].
    pub fn estimate(&self) -> Result<EcripseResult, EstimateError> {
        self.estimate_observed(&NullObserver)
    }

    /// Like [`estimate`](Self::estimate), reporting every pipeline event
    /// into `observer` (see [`crate::observe`]). Observation never
    /// changes the numbers: the un-observed entry points are this one
    /// with a [`NullObserver`].
    ///
    /// # Errors
    ///
    /// See [`EstimateError`].
    pub fn estimate_observed(
        &self,
        observer: &dyn Observer,
    ) -> Result<EcripseResult, EstimateError> {
        observer.run_started(self.config.seed, self.config.threads);
        observer.scenario_selected(self.config.scenario);
        let init = self.boundary_stage(observer)?;
        self.run_stages(&init, None, None, observer)
    }

    /// Like [`estimate`](Self::estimate), honouring a cooperative stop
    /// flag: raise it from another thread (a cancel endpoint, a deadline
    /// watchdog, a Ctrl-C handler) and the run returns
    /// [`EstimateError::Interrupted`] at the next check point — between
    /// particle-filter iterations and at stage-2 batch boundaries — so
    /// in-flight simulation batches always finish cleanly.
    ///
    /// The checks never consume randomness: a run whose flag stays unset
    /// is bit-identical to [`estimate`](Self::estimate).
    ///
    /// # Errors
    ///
    /// See [`EstimateError`]; [`EstimateError::Interrupted`] when the
    /// flag cut the run short.
    pub fn estimate_interruptible(
        &self,
        stop: &std::sync::atomic::AtomicBool,
    ) -> Result<EcripseResult, EstimateError> {
        self.estimate_interruptible_observed(stop, &NullObserver)
    }

    /// Like [`estimate_interruptible`](Self::estimate_interruptible),
    /// reporting every pipeline event into `observer`.
    ///
    /// # Errors
    ///
    /// See [`estimate_interruptible`](Self::estimate_interruptible).
    pub fn estimate_interruptible_observed(
        &self,
        stop: &std::sync::atomic::AtomicBool,
        observer: &dyn Observer,
    ) -> Result<EcripseResult, EstimateError> {
        observer.run_started(self.config.seed, self.config.threads);
        observer.scenario_selected(self.config.scenario);
        if stop.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(EstimateError::Interrupted);
        }
        let init = self.boundary_stage(observer)?;
        self.run_stages(&init, None, Some(stop), observer)
    }

    /// Full estimation that also collects the structured [`RunReport`] —
    /// the one-call convenience over
    /// [`estimate_observed`](Self::estimate_observed) with a
    /// [`RunRecorder`].
    ///
    /// # Errors
    ///
    /// See [`EstimateError`].
    pub fn estimate_report(&self) -> Result<(EcripseResult, RunReport), EstimateError> {
        let recorder = RunRecorder::new();
        let result = self.estimate_observed(&recorder)?;
        Ok((result, recorder.into_report()))
    }

    /// Step (1) with boundary-search events reported into `observer`.
    fn boundary_stage(&self, observer: &dyn Observer) -> Result<InitialParticles, EstimateError> {
        observer.stage_started(Stage::BoundarySearch);
        let start = Instant::now();
        let init = self.find_initial_particles_observed(observer)?;
        observer.boundary_found(&BoundaryStats {
            particles: init.particles.len(),
            simulations: init.simulations,
        });
        observer.stage_finished(
            Stage::BoundarySearch,
            &StageTiming {
                wall_seconds: start.elapsed().as_secs_f64(),
                simulations: init.simulations,
            },
        );
        Ok(init)
    }

    /// Full estimation that keeps drawing stage-2 samples until the 95 %
    /// relative error reaches `target` — or until
    /// `config.importance.n_samples` is exhausted, whichever comes
    /// first. Check the returned result's
    /// [`relative_error`](EcripseResult::relative_error) to see whether
    /// the target was met within the budget.
    ///
    /// # Errors
    ///
    /// See [`EstimateError`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is not positive.
    pub fn estimate_to_tolerance(&self, target: f64) -> Result<EcripseResult, EstimateError> {
        self.estimate_to_tolerance_observed(target, &NullObserver)
    }

    /// Like [`estimate_to_tolerance`](Self::estimate_to_tolerance),
    /// reporting every pipeline event into `observer`.
    ///
    /// # Errors
    ///
    /// See [`EstimateError`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is not positive.
    pub fn estimate_to_tolerance_observed(
        &self,
        target: f64,
        observer: &dyn Observer,
    ) -> Result<EcripseResult, EstimateError> {
        assert!(target > 0.0, "relative-error target must be positive");
        observer.run_started(self.config.seed, self.config.threads);
        observer.scenario_selected(self.config.scenario);
        let init = self.boundary_stage(observer)?;
        self.run_stages(&init, Some(target), None, observer)
    }

    /// Steps (2)–(5) from a pre-computed initial particle set. The
    /// initial set's simulation cost is included in the result, matching
    /// the paper's accounting for the *first* bias condition; sweep
    /// drivers amortise it by passing the same set to every point and
    /// counting its cost once.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::Degenerate`] if the whole ensemble loses
    /// weight and never recovers.
    pub fn estimate_with_initial(
        &self,
        init: &InitialParticles,
    ) -> Result<EcripseResult, EstimateError> {
        self.estimate_with_initial_observed(init, &NullObserver)
    }

    /// Like [`estimate_with_initial`](Self::estimate_with_initial),
    /// reporting every pipeline event into `observer`. The report's
    /// `boundary` entry stays empty: the search ran (and was observed)
    /// wherever the shared initial set was produced.
    ///
    /// # Errors
    ///
    /// See [`EstimateError`].
    pub fn estimate_with_initial_observed(
        &self,
        init: &InitialParticles,
        observer: &dyn Observer,
    ) -> Result<EcripseResult, EstimateError> {
        observer.run_started(self.config.seed, self.config.threads);
        observer.scenario_selected(self.config.scenario);
        self.run_stages(init, None, None, observer)
    }

    /// Shared implementation of the staged flow with an optional stage-2
    /// early-stopping target and an optional cooperative stop flag.
    /// Installs the configured thread pool so every batched simulation
    /// below honours `config.threads`.
    fn run_stages(
        &self,
        init: &InitialParticles,
        stop_at_relative_error: Option<f64>,
        stop: Option<&std::sync::atomic::AtomicBool>,
        observer: &dyn Observer,
    ) -> Result<EcripseResult, EstimateError> {
        run_in_pool(self.config.threads, || {
            self.run_stages_in_pool(init, stop_at_relative_error, stop, observer)
        })
    }

    fn run_stages_in_pool(
        &self,
        init: &InitialParticles,
        stop_at_relative_error: Option<f64>,
        stop: Option<&std::sync::atomic::AtomicBool>,
        observer: &dyn Observer,
    ) -> Result<EcripseResult, EstimateError> {
        // Bench layering, innermost first: raw bench → batch timer
        // (wall-clock only; feeds latency histograms, never reports) →
        // prefetch table (stage-2 evaluations done ahead while the
        // classifier retrains; see `crate::prefetch`) → simulation
        // counter (every retry attempt is a real simulation and is
        // counted) → retry ladder with quarantine → memo-cache (so a
        // quarantined verdict is paid for once per unique sample) →
        // oracle.
        let timed = TimingBench {
            inner: &self.bench,
            observer,
        };
        let effort_start = self.bench.solve_effort();
        let prefetch = PrefetchBench::new(&timed);
        let counter = SimCounter::new(&prefetch);
        let retrying = RetryBench::new(&counter, self.config.retry);
        let cached = MemoBench::new(&retrying, self.config.cache);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut oracle = ClassifierOracle::new(&cached, self.config.oracle);
        let dim = self.bench.dim();
        let rdf = DiagGaussian::standard(dim);

        let mut ensemble =
            FilterEnsemble::from_seeds(&mut rng, self.config.ensemble, &init.particles);
        let mut history = Vec::new();
        if self.config.record_particles {
            history.push(ensemble.pooled_particles());
        }

        // Stage 1: particle-filter iterations.
        observer.stage_started(Stage::ParticleFilter);
        let pf_start = Instant::now();
        let pf_start_sims = counter.simulations();
        let m1 = self.config.m_rtn_stage1.max(1);
        for iteration in 0..self.config.iterations {
            // Cancellation is cooperative and checked only between
            // iterations: an in-flight predict/measure/resample step
            // always finishes, so the check never perturbs the RNG
            // stream of an uninterrupted run.
            if stop.is_some_and(|s| s.load(std::sync::atomic::Ordering::SeqCst)) {
                return Err(EstimateError::Interrupted);
            }
            let before = combined_stats(
                oracle.stats(),
                cached.hits(),
                cached.misses(),
                retrying.retries(),
                retrying.quarantined(),
            );
            let rtn = &self.rtn;
            let oracle_ref = &mut oracle;
            let step = ensemble.step(&mut rng, |rng, candidates| {
                weigh_candidates(oracle_ref, rtn, &rdf, candidates, m1, rng)
            });
            let step = match step {
                Ok(s) => s,
                Err(_) => return Err(EstimateError::Degenerate { iteration }),
            };
            let after = combined_stats(
                oracle.stats(),
                cached.hits(),
                cached.misses(),
                retrying.retries(),
                retrying.quarantined(),
            );
            observer.iteration_finished(&IterationStats {
                iteration,
                candidates: step.candidates,
                zero_weight_candidates: step.zero_weight_candidates,
                ess: step.ess,
                filters_resampled: step.filters_resampled,
                filters_reseeded: step.filters_reseeded,
                filters_total: self.config.ensemble.n_filters,
                spread: ensemble.spread(),
                oracle: OracleDelta::between(&before, &after),
            });
            if self.config.record_particles {
                history.push(ensemble.pooled_particles());
            }
        }
        observer.stage_finished(
            Stage::ParticleFilter,
            &StageTiming {
                wall_seconds: pf_start.elapsed().as_secs_f64(),
                simulations: counter.simulations() - pf_start_sims,
            },
        );

        // Stage 2: importance sampling from the pooled mixture.
        observer.stage_started(Stage::ImportanceSampling);
        let is_start = Instant::now();
        let is_start_sims = counter.simulations();
        let alternative = ensemble.as_mixture(self.config.sigma_kernel);
        let init_sims = init.simulations;
        let sim_count = || init_sims + counter.simulations();
        let (is, is_interrupted) = importance_stage_impl(
            &mut oracle,
            &self.rtn,
            &alternative,
            &self.config.importance,
            &mut rng,
            &sim_count,
            stop_at_relative_error,
            stop,
            observer,
            Some(&(&prefetch, &cached)),
        );
        observer.stage_finished(
            Stage::ImportanceSampling,
            &StageTiming {
                wall_seconds: is_start.elapsed().as_secs_f64(),
                simulations: counter.simulations() - is_start_sims,
            },
        );
        if is_interrupted {
            // A partial stage-2 estimate is statistically valid but not
            // what was asked for; cancellation discards it.
            return Err(EstimateError::Interrupted);
        }

        let mut oracle_stats = *oracle.stats();
        oracle_stats.cache_hits = cached.hits();
        oracle_stats.cache_misses = cached.misses();
        oracle_stats.retries = retrying.retries();
        oracle_stats.quarantined = retrying.quarantined();
        let effort = self.bench.solve_effort().delta(&effort_start);
        oracle_stats.newton_iters = effort.newton_iters;
        oracle_stats.factorisations = effort.factorisations;

        observer.run_finished(&RunSummary {
            p_fail: is.p_fail,
            ci95_half_width: is.ci95_half_width,
            simulations: init.simulations + counter.simulations(),
            is_samples: is.samples,
            effective_sample_size: is.effective_sample_size,
            oracle: oracle_stats,
            margins: *oracle.margin_stats(),
        });

        Ok(EcripseResult {
            p_fail: is.p_fail,
            ci95_half_width: is.ci95_half_width,
            simulations: init.simulations + counter.simulations(),
            is_samples: is.samples,
            effective_sample_size: is.effective_sample_size,
            oracle_stats,
            trace: is.trace,
            particle_history: history,
        })
    }
}

/// An [`OracleStats`] snapshot with the memo-cache and retry-ladder
/// counters filled in — the oracle's own copy lags those layers, which
/// own their accounting.
fn combined_stats(
    stats: &OracleStats,
    cache_hits: u64,
    cache_misses: u64,
    retries: u64,
    quarantined: u64,
) -> OracleStats {
    OracleStats {
        cache_hits,
        cache_misses,
        retries,
        quarantined,
        ..*stats
    }
}

/// Times every raw simulator batch and reports it to the observer as a
/// [`SimBatchStats`] event. Sits directly on top of the raw bench —
/// *below* the counting/retry/cache/prefetch layers — so it sees exactly
/// the batches that reach the simulator on the critical path (cache
/// hits and prefetch-table answers never arrive here, and detached
/// evaluations pass through untimed).
///
/// Strictly observation-only: verdicts pass through untouched and the
/// only payload is wall-clock time, so the determinism contract holds
/// with or without an observer attached.
struct TimingBench<'a, B> {
    inner: &'a B,
    observer: &'a dyn Observer,
}

impl<B: Testbench> TimingBench<'_, B> {
    fn timed<T>(&self, batch: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.observer.sim_batch_finished(&SimBatchStats {
            batch,
            wall_seconds: start.elapsed().as_secs_f64(),
        });
        out
    }
}

impl<B: Testbench> Testbench for TimingBench<'_, B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.timed(1, || self.inner.fails(z))
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.timed(zs.len() as u64, || self.inner.fails_batch(zs))
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.timed(1, || self.inner.try_fails(z))
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        self.timed(1, || self.inner.try_fails_attempt(z, attempt))
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        self.timed(zs.len() as u64, || self.inner.try_fails_batch(zs))
    }

    fn solve_effort(&self) -> crate::bench::SolveEffort {
        self.inner.solve_effort()
    }

    fn evaluate_detached(&self, z: &[f64]) -> Option<(Result<bool, EvalError>, EffortSnapshot)> {
        self.inner.evaluate_detached(z)
    }

    fn book(&self, receipt: &EffortSnapshot) {
        self.inner.book(receipt);
    }
}

/// Runs `f` inside a dedicated rayon pool with `threads` workers (`0` =
/// one per core). If the pool cannot be built — resource exhaustion,
/// sandboxed environments — the closure runs on the caller's thread
/// instead of aborting the whole estimation: results are bit-identical
/// either way, only the wall-clock differs.
pub(crate) fn run_in_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(pool) => pool.install(f),
        Err(_) => f(),
    }
}

/// Eq. 16 weights for a candidate batch: `P̂_fail^RTN(x)·P_RDF(x)`, with
/// the inner probability estimated through the rough oracle policy.
fn weigh_candidates<B, S, R>(
    oracle: &mut ClassifierOracle<'_, B>,
    rtn: &S,
    rdf: &DiagGaussian,
    candidates: &[Vec<f64>],
    m_rtn: usize,
    rng: &mut R,
) -> Vec<f64>
where
    B: Testbench,
    S: RtnSource,
    R: Rng + ?Sized,
{
    if rtn.is_null() {
        let verdicts = oracle.evaluate_batch_rough(rng, candidates);
        return candidates
            .iter()
            .zip(verdicts)
            .map(|(x, fail)| if fail { rdf.pdf(x) } else { 0.0 })
            .collect();
    }
    // Expand each candidate into M shifted copies, evaluate the whole
    // batch at once (so classifier training sees everything), then
    // average per candidate.
    let m = m_rtn.max(1);
    let mut zs = Vec::with_capacity(candidates.len() * m);
    for x in candidates {
        for _ in 0..m {
            let shift = rtn.sample_whitened(rng);
            zs.push(x.iter().zip(&shift).map(|(xi, si)| xi + si).collect());
        }
    }
    let verdicts = oracle.evaluate_batch_rough(rng, &zs);
    candidates
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let fails = verdicts[i * m..(i + 1) * m].iter().filter(|v| **v).count();
            (fails as f64 / m as f64) * rdf.pdf(x)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{LinearBench, TwoLobeBench};

    fn fast_config() -> EcripseConfig {
        EcripseConfig {
            scenario: Scenario::default(),
            initial: InitialSearchConfig {
                count: 24,
                r_max: 8.0,
                bisection_steps: 12,
                max_attempts: 4000,
            },
            ensemble: EnsembleConfig {
                n_filters: 3,
                filter: crate::particle::ParticleFilterConfig {
                    n_particles: 40,
                    sigma_prediction: 0.3,
                },
                max_reseeds: 3,
            },
            iterations: 6,
            sigma_kernel: 0.5,
            oracle: OracleConfig {
                svm: None,
                ..OracleConfig::default()
            },
            importance: ImportanceConfig {
                n_samples: 8000,
                m_rtn: 1,
                trace_every: 0,
            },
            m_rtn_stage1: 1,
            seed: 42,
            record_particles: false,
            threads: 0,
            cache: crate::cache::MemoCacheConfig::default(),
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn linear_ground_truth_without_classifier() {
        let bench = LinearBench::new(vec![0.6, -0.8, 0.0], 3.2);
        let exact = bench.exact_p_fail();
        let run = Ecripse::new(fast_config(), bench);
        let res = run.estimate().expect("estimation succeeds");
        assert!(
            ((res.p_fail - exact) / exact).abs() < 0.15,
            "estimate {:e} vs exact {:e} (rel err {:.3})",
            res.p_fail,
            exact,
            res.relative_error()
        );
        assert!(res.simulations > 0);
        // Note: `effective_sample_size` counts *all* weights, including
        // the huge-weight passing samples on the origin side of the
        // mixture, so it can be tiny even for healthy runs — it is a
        // diagnostic, not asserted here. The CI must cover the truth:
        assert!((res.p_fail - exact).abs() < 4.0 * res.ci95_half_width);
    }

    #[test]
    fn two_lobe_ground_truth_without_classifier() {
        let bench = TwoLobeBench::new(vec![1.0, 0.5, -0.2], 3.0);
        let exact = bench.exact_p_fail();
        let run = Ecripse::new(fast_config(), bench);
        let res = run.estimate().expect("estimation succeeds");
        assert!(
            ((res.p_fail - exact) / exact).abs() < 0.15,
            "estimate {:e} vs exact {:e}",
            res.p_fail,
            exact
        );
    }

    #[test]
    fn classifier_cuts_simulations_without_breaking_the_estimate() {
        let bench = LinearBench::new(vec![1.0, 0.0, 0.0], 3.3);
        let exact = bench.exact_p_fail();

        let plain = Ecripse::new(fast_config(), bench.clone())
            .estimate()
            .expect("plain run");

        let mut cfg = fast_config();
        cfg.oracle = OracleConfig::default();
        let clever = Ecripse::new(cfg, bench).estimate().expect("classifier run");

        assert!(
            ((clever.p_fail - exact) / exact).abs() < 0.2,
            "classifier estimate {:e} vs exact {:e}",
            clever.p_fail,
            exact
        );
        assert!(
            clever.simulations * 2 < plain.simulations,
            "classifier should at least halve simulations: {} vs {}",
            clever.simulations,
            plain.simulations
        );
        assert!(clever.oracle_stats.classified > 0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let a = Ecripse::new(fast_config(), bench.clone())
            .estimate()
            .expect("run a");
        let b = Ecripse::new(fast_config(), bench)
            .estimate()
            .expect("run b");
        assert_eq!(a.p_fail, b.p_fail);
        assert_eq!(a.simulations, b.simulations);
    }

    #[test]
    fn particle_history_is_recorded_when_requested() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let mut cfg = fast_config();
        cfg.record_particles = true;
        let res = Ecripse::new(cfg, bench).estimate().expect("run");
        // Initial + one snapshot per iteration.
        assert_eq!(res.particle_history.len(), 1 + fast_config().iterations);
        for snapshot in &res.particle_history {
            assert_eq!(snapshot.len(), 3 * 40);
        }
    }

    #[test]
    fn unreachable_boundary_propagates_error() {
        let bench = LinearBench::new(vec![1.0], 50.0);
        let mut cfg = fast_config();
        cfg.initial.max_attempts = 100;
        let err = Ecripse::new(cfg, bench).estimate().expect_err("must fail");
        assert!(matches!(err, EstimateError::Boundary(_)));
    }

    #[test]
    fn shared_initial_particles_are_reusable() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let exact = bench.exact_p_fail();
        let run = Ecripse::new(fast_config(), bench);
        let init = run.find_initial_particles().expect("boundary");
        let r1 = run.estimate_with_initial(&init).expect("first reuse");
        let r2 = run.estimate_with_initial(&init).expect("second reuse");
        assert_eq!(r1.p_fail, r2.p_fail, "same seed, same init, same result");
        assert!(((r1.p_fail - exact) / exact).abs() < 0.15);
    }
}

#[cfg(test)]
mod tolerance_tests {
    use super::*;
    use crate::bench::LinearBench;
    use crate::importance::ImportanceConfig;
    use crate::initial::InitialSearchConfig;

    fn cfg(cap: usize) -> EcripseConfig {
        EcripseConfig {
            initial: InitialSearchConfig {
                count: 24,
                ..InitialSearchConfig::default()
            },
            iterations: 5,
            oracle: crate::oracle::OracleConfig {
                svm: None,
                ..crate::oracle::OracleConfig::default()
            },
            importance: ImportanceConfig {
                n_samples: cap,
                m_rtn: 1,
                trace_every: 0,
            },
            m_rtn_stage1: 1,
            ..EcripseConfig::default()
        }
    }

    #[test]
    fn stops_when_target_is_met() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let run = Ecripse::new(cfg(200_000), bench);
        let res = run.estimate_to_tolerance(0.10).expect("run");
        assert!(
            res.relative_error() <= 0.10,
            "target missed: {}",
            res.relative_error()
        );
        // Early stopping must have kicked in well below the cap.
        assert!(
            res.is_samples < 100_000,
            "should stop early, used {} samples",
            res.is_samples
        );
    }

    #[test]
    fn budget_cap_is_respected_when_target_unreachable() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let run = Ecripse::new(cfg(2_000), bench);
        let res = run.estimate_to_tolerance(1e-4).expect("run");
        assert_eq!(res.is_samples, 2_000, "cap must bound the run");
        assert!(res.relative_error() > 1e-4);
    }

    #[test]
    fn tighter_targets_cost_more_samples() {
        let bench = LinearBench::new(vec![1.0, 0.0], 3.0);
        let run = Ecripse::new(cfg(400_000), bench);
        let loose = run.estimate_to_tolerance(0.2).expect("loose");
        let tight = run.estimate_to_tolerance(0.05).expect("tight");
        assert!(tight.is_samples > loose.is_samples);
    }

    #[test]
    #[should_panic(expected = "relative-error target must be positive")]
    fn rejects_nonpositive_target() {
        let bench = LinearBench::new(vec![1.0], 3.0);
        let _ = Ecripse::new(cfg(100), bench).estimate_to_tolerance(0.0);
    }
}
