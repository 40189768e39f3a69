//! The SRAM cell testbench — the workspace's "transistor-level
//! simulation".
//!
//! [`ReadStabilityBench`] maps a 6-component threshold-shift vector (one
//! ΔVth per cell device, canonical order of
//! [`crate::sram::CellDevice`]) to a cell margin. The historical — and
//! default — margin is the read noise margin: a sample *fails* when it
//! is negative, the indicator function `I(x)` of the paper (Sec. IV-A).
//! The same machinery exposes three sibling indicators over the same
//! variability space: hold (retention) stability, write margin, and the
//! power-up preference margin of a skew-designed PUF bit.
//!
//! Everything upstream (particle filters, classifiers, estimators) counts
//! invocations of this bench; it is deliberately the only expensive
//! operation in the workspace, just as SPICE runs are in the original
//! flow.

use crate::butterfly::{Butterfly, SampleEffort};
use crate::error::EvalError;
use crate::ptm::{paper_geometry, A_VTH_EFFECTIVE};
use crate::snm::{try_read_noise_margin, SnmReport};
use crate::sram::{BiasCondition, CellDevice, Sram6T};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of variability dimensions (one per cell transistor).
pub const DIM: usize = 6;

/// Adaptive butterfly-resolution policy for the *indicator* paths.
///
/// Far from the failure boundary only the margin's sign matters, so a
/// coarse, low-resolution butterfly decides most samples; whenever the
/// coarse margin lands inside `margin_threshold` of zero the bench
/// escalates to the exact fixed-resolution evaluation (bit-identical to
/// the non-adaptive path), preserving every verdict that could possibly
/// be grid-sensitive. Margin-returning APIs never use this policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Master switch for coarse-first indicator evaluation.
    pub enabled: bool,
    /// Grid points of the coarse screening butterfly.
    pub coarse_points: usize,
    /// Transfer-curve solver resolution of the coarse pass \[V\].
    pub coarse_resolution: f64,
    /// Coarse margins closer to zero than this escalate to the exact
    /// full-resolution evaluation \[V\]. Must comfortably exceed the
    /// worst coarse-vs-fine margin drift (see the calibration test).
    pub margin_threshold: f64,
    /// Seed gate \[V\]: when positive, a neighbouring operating point's
    /// curves supply the start points of the coarse pass's transfer-curve
    /// solves; zero disables seeding. The Newton solve needs no seed
    /// bracket, so only the sign is read; the field stays a width so
    /// existing configurations keep parsing.
    pub seed_band: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            coarse_points: 31,
            coarse_resolution: 3e-4,
            margin_threshold: 0.003,
            seed_band: 0.02,
        }
    }
}

/// Configuration of the read-stability bench.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchConfig {
    /// Supply voltage \[V\].
    pub vdd: f64,
    /// Butterfly sampling resolution (grid points per curve).
    pub grid_points: usize,
    /// Die-temperature offset from the 300 K technology cards \[K\].
    /// `0.0` (the default) leaves every device parameter bit-identical
    /// to the historical nominal-temperature bench.
    #[serde(default)]
    pub temperature_delta_c: f64,
    /// Coarse-first indicator evaluation policy.
    #[serde(default)]
    pub adaptive: AdaptiveConfig,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            vdd: crate::ptm::VDD_NOMINAL,
            grid_points: 61,
            temperature_delta_c: 0.0,
            adaptive: AdaptiveConfig::default(),
        }
    }
}

/// Shared solve-effort counters of a bench (and all its clones).
///
/// Counters are monotone and relaxed: they are read as before/after
/// deltas whose totals are schedule-independent, never as synchronisation.
#[derive(Debug, Default)]
pub struct SolveCounters {
    newton_iters: AtomicU64,
    curve_solves: AtomicU64,
    seeded_curves: AtomicU64,
    coarse_accepts: AtomicU64,
    escalations: AtomicU64,
}

impl SolveCounters {
    fn record(&self, effort: &SampleEffort) {
        self.newton_iters
            .fetch_add(effort.newton_iters, Ordering::Relaxed);
        self.curve_solves
            .fetch_add(effort.solves, Ordering::Relaxed);
        self.seeded_curves
            .fetch_add(effort.seeded_points, Ordering::Relaxed);
    }

    fn note_accept(&self) {
        self.coarse_accepts.fetch_add(1, Ordering::Relaxed);
    }

    fn note_escalation(&self) {
        self.escalations.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> EffortSnapshot {
        EffortSnapshot {
            newton_iters: self.newton_iters.load(Ordering::Relaxed),
            curve_solves: self.curve_solves.load(Ordering::Relaxed),
            seeded_curves: self.seeded_curves.load(Ordering::Relaxed),
            coarse_accepts: self.coarse_accepts.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`SolveCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EffortSnapshot {
    /// Total Newton iterations (node-current evaluations) of the 1-D
    /// transfer-curve solver.
    pub newton_iters: u64,
    /// Transfer-curve points solved — one per inner solver invocation.
    pub curve_solves: u64,
    /// Curve points whose solve started from a neighbour seed.
    pub seeded_curves: u64,
    /// Indicator evaluations decided by the coarse pass alone.
    pub coarse_accepts: u64,
    /// Indicator evaluations escalated to the exact full-resolution pass.
    pub escalations: u64,
}

/// Which scalar a butterfly's Seevinck report is collapsed to.
///
/// `Worst` is the classical noise margin (smaller lobe, signed);
/// `Preference` is the *lobe asymmetry* `snm_low − snm_high`, the
/// quantity that decides which state a skewed cell prefers on power-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MarginKind {
    Worst,
    Preference,
}

impl MarginKind {
    fn extract(self, report: &SnmReport) -> f64 {
        match self {
            MarginKind::Worst => report.rnm,
            MarginKind::Preference => report.snm_low - report.snm_high,
        }
    }

    /// Decisiveness threshold for the adaptive coarse pass. A preference
    /// margin is a *difference* of two lobes, so coarse-grid drift can be
    /// up to twice the per-lobe drift — the band doubles accordingly.
    fn decisive_threshold(self, base: f64) -> f64 {
        match self {
            MarginKind::Worst => base,
            MarginKind::Preference => 2.0 * base,
        }
    }
}

/// The read-stability testbench.
#[derive(Debug, Clone)]
pub struct ReadStabilityBench {
    cell: Sram6T,
    config: BenchConfig,
    counters: Arc<SolveCounters>,
}

impl PartialEq for ReadStabilityBench {
    fn eq(&self, other: &Self) -> bool {
        // Effort counters are observability state, not identity.
        self.cell == other.cell && self.config == other.config
    }
}

impl ReadStabilityBench {
    /// The paper's Table I cell at the nominal supply.
    pub fn paper_cell() -> Self {
        Self::with_config(BenchConfig::default())
    }

    /// The paper's cell at a custom supply (Fig. 7 uses 0.5 V).
    pub fn at_vdd(vdd: f64) -> Self {
        Self::with_config(BenchConfig {
            vdd,
            ..BenchConfig::default()
        })
    }

    /// Full configuration control.
    ///
    /// # Panics
    ///
    /// Panics if the supply is non-positive or the grid is degenerate.
    pub fn with_config(config: BenchConfig) -> Self {
        assert!(config.grid_points >= 2, "grid too coarse");
        assert!(
            config.temperature_delta_c.is_finite()
                && (-150.0..=200.0).contains(&config.temperature_delta_c),
            "temperature delta outside [-150, 200] K"
        );
        if config.adaptive.enabled {
            assert!(config.adaptive.coarse_points >= 2, "coarse grid too coarse");
            assert!(
                config.adaptive.coarse_resolution > 0.0 && config.adaptive.margin_threshold > 0.0,
                "adaptive knobs must be positive"
            );
            assert!(config.adaptive.seed_band >= 0.0, "negative seed band");
        }
        Self {
            cell: Sram6T::paper_cell_at(config.vdd)
                .with_temperature_delta(config.temperature_delta_c),
            config,
            counters: Arc::new(SolveCounters::default()),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// Cumulative solve effort of this bench and every clone of it (the
    /// counters live behind a shared [`Arc`], so thread-pool clones all
    /// feed one ledger).
    pub fn effort(&self) -> EffortSnapshot {
        self.counters.snapshot()
    }

    /// The underlying nominal cell.
    pub fn cell(&self) -> &Sram6T {
        &self.cell
    }

    /// Number of variability dimensions.
    pub fn dim(&self) -> usize {
        DIM
    }

    /// Per-device Pelgrom sigmas \[V\] in canonical device order, using
    /// the calibrated Pelgrom coefficient
    /// [`crate::ptm::A_VTH_EFFECTIVE`] constant.
    pub fn pelgrom_sigmas(&self) -> [f64; DIM] {
        CellDevice::ALL.map(|d| paper_geometry(d.role()).pelgrom_sigma(A_VTH_EFFECTIVE))
    }

    /// Validates a 6-component finite input vector.
    fn check_input(xs: &[f64], context: &'static str) -> Result<(), EvalError> {
        if xs.len() != DIM {
            return Err(EvalError::DimensionMismatch {
                expected: DIM,
                got: xs.len(),
            });
        }
        if xs.iter().any(|v| !v.is_finite()) {
            return Err(EvalError::NonFinite { context });
        }
        Ok(())
    }

    /// Shared fallible margin extraction under an arbitrary bias, at an
    /// arbitrary butterfly resolution. The grid override is the
    /// escalation knob of the bench-level retry ladder: a marginal
    /// operating point that defeats the default resolution often yields
    /// to a finer sweep (on top of the g-min / source-stepping ladder
    /// the DC solver already runs internally).
    fn try_margin_at(
        &self,
        delta_vth: &[f64],
        bias_of: impl Fn(&Sram6T) -> BiasCondition,
        grid_points: usize,
    ) -> Result<f64, EvalError> {
        Self::check_input(delta_vth, "threshold shifts")?;
        let cell = self.cell.with_delta_vth(delta_vth);
        let bias = bias_of(&cell);
        self.margin_kind_of(&cell, &bias, grid_points, MarginKind::Worst)
    }

    /// Exact full-resolution margin of a concrete skewed cell under a
    /// concrete bias — bit-identical to the historical fixed path, but
    /// routed through the counted sampler so effort ledgers stay honest.
    fn margin_kind_of(
        &self,
        cell: &Sram6T,
        bias: &BiasCondition,
        grid_points: usize,
        kind: MarginKind,
    ) -> Result<f64, EvalError> {
        let (butterfly, effort) =
            Butterfly::try_sample_seeded(cell, bias, grid_points, 1e-7, None)?;
        self.counters.record(&effort);
        let margin = kind.extract(&try_read_noise_margin(&butterfly)?);
        if !margin.is_finite() {
            return Err(EvalError::NonFinite {
                context: "extracted noise margin",
            });
        }
        Ok(margin)
    }

    /// Coarse-first, optionally neighbour-seeded indicator evaluation.
    ///
    /// The verdict contract: for every input on which both paths succeed,
    /// the returned boolean equals the fixed-resolution path's verdict —
    /// decisive coarse margins (beyond `margin_threshold`, chosen far
    /// above the coarse-vs-fine margin drift) share the exact sign, and
    /// indecisive ones re-evaluate through [`Self::margin_of`], which is
    /// bit-identical to the non-adaptive evaluation.
    fn indicator_seeded(
        &self,
        x: &[f64],
        bias_of: impl Fn(&Sram6T) -> BiasCondition,
        fails_when_positive: bool,
        seed: Option<&Butterfly>,
    ) -> Result<(bool, Option<Butterfly>), EvalError> {
        self.indicator_kind_seeded(
            x,
            bias_of,
            MarginKind::Worst,
            fails_when_positive,
            None,
            seed,
        )
    }

    /// The fully general indicator: any bias, any margin kind, and an
    /// optional fixed per-device skew \[V\] added on top of the sample's
    /// physical threshold shifts (the PUF design skew). `skew: None`
    /// leaves the physical vector bit-identical to the historical path.
    fn indicator_kind_seeded(
        &self,
        x: &[f64],
        bias_of: impl Fn(&Sram6T) -> BiasCondition,
        kind: MarginKind,
        fails_when_positive: bool,
        skew: Option<&[f64; DIM]>,
        seed: Option<&Butterfly>,
    ) -> Result<(bool, Option<Butterfly>), EvalError> {
        Self::check_input(x, "whitened sample")?;
        let mut dv = self.to_physical(x);
        if let Some(s) = skew {
            for i in 0..DIM {
                dv[i] += s[i];
            }
        }
        let cell = self.cell.with_delta_vth(&dv);
        let bias = bias_of(&cell);
        let verdict = |margin: f64| {
            if fails_when_positive {
                margin > 0.0
            } else {
                margin < 0.0
            }
        };
        let adaptive = self.config.adaptive;
        if adaptive.enabled {
            let coarse = Butterfly::try_sample_seeded(
                &cell,
                &bias,
                adaptive.coarse_points,
                adaptive.coarse_resolution,
                seed.filter(|_| adaptive.seed_band > 0.0),
            );
            if let Ok((coarse_bfly, effort)) = coarse {
                self.counters.record(&effort);
                if let Ok(report) = try_read_noise_margin(&coarse_bfly) {
                    let margin = kind.extract(&report);
                    if margin.is_finite()
                        && margin.abs() >= kind.decisive_threshold(adaptive.margin_threshold)
                    {
                        self.counters.note_accept();
                        return Ok((verdict(margin), Some(coarse_bfly)));
                    }
                }
                // Indecisive coarse margin: the exact path decides, but
                // the coarse curves still seed neighbouring samples.
                self.counters.note_escalation();
                let margin = self.margin_kind_of(&cell, &bias, self.config.grid_points, kind)?;
                return Ok((verdict(margin), Some(coarse_bfly)));
            }
            // The coarse pass failed outright; decide exactly, seedless.
            self.counters.note_escalation();
        }
        let margin = self.margin_kind_of(&cell, &bias, self.config.grid_points, kind)?;
        Ok((verdict(margin), None))
    }

    /// Whitened read-failure indicator with neighbour seeding: an
    /// optional previously computed [`Butterfly`] from a nearby operating
    /// point starts the coarse pass's transfer-curve solves, and the coarse
    /// butterfly computed here is handed back for caching. Verdicts are
    /// identical to [`Self::try_fails_whitened`]: decisive coarse
    /// margins share the exact path's sign by construction, and
    /// indecisive ones escalate to the bit-identical fixed-resolution
    /// evaluation, which is never seeded.
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_fails_whitened_seeded(
        &self,
        x: &[f64],
        seed: Option<&Butterfly>,
    ) -> Result<(bool, Option<Butterfly>), EvalError> {
        self.indicator_seeded(x, Sram6T::read_bias, false, seed)
    }

    /// Whitened write-failure indicator with neighbour seeding (see
    /// [`Self::try_fails_whitened_seeded`]).
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_write_fails_whitened_seeded(
        &self,
        x: &[f64],
        seed: Option<&Butterfly>,
    ) -> Result<(bool, Option<Butterfly>), EvalError> {
        self.indicator_seeded(x, Sram6T::write0_bias, true, seed)
    }

    /// Read noise margin \[V\] of the cell with the given per-device
    /// threshold shifts (volts, canonical order). Negative = read failure.
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`] (wrong dimension, non-finite input or
    /// operating point); see [`Self::try_read_noise_margin`] for the
    /// fallible variant.
    pub fn read_noise_margin(&self, delta_vth: &[f64]) -> f64 {
        match self.try_read_noise_margin(delta_vth) {
            Ok(m) => m,
            Err(e) => panic!("read-margin evaluation failed: {e}"),
        }
    }

    /// Fallible read noise margin: returns a typed [`EvalError`] instead
    /// of panicking on bad inputs or garbage operating points.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn try_read_noise_margin(&self, delta_vth: &[f64]) -> Result<f64, EvalError> {
        self.try_margin_at(delta_vth, Sram6T::read_bias, self.config.grid_points)
    }

    /// The paper's indicator function: `true` when the cell fails the
    /// read-stability specification (negative margin).
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`]; see [`Self::try_fails`].
    pub fn fails(&self, delta_vth: &[f64]) -> bool {
        self.read_noise_margin(delta_vth) < 0.0
    }

    /// Fallible indicator over physical threshold shifts.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn try_fails(&self, delta_vth: &[f64]) -> Result<bool, EvalError> {
        Ok(self.try_read_noise_margin(delta_vth)? < 0.0)
    }

    /// Convenience for whitened coordinates: scales a standard-normal
    /// vector by the Pelgrom sigmas before evaluating. This is the
    /// indicator `I(x)` over the *whitened* variability space used by all
    /// estimators.
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`] (wrong dimension, non-finite input);
    /// see [`Self::try_fails_whitened`] for the typed-error variant.
    pub fn fails_whitened(&self, x: &[f64]) -> bool {
        match self.try_fails_whitened(x) {
            Ok(v) => v,
            Err(e) => panic!("read-stability evaluation failed: {e}"),
        }
    }

    /// Fallible whitened read-failure indicator.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::DimensionMismatch`] when `x.len() != 6`,
    /// [`EvalError::NonFinite`] for NaN/infinite samples or operating
    /// points.
    pub fn try_fails_whitened(&self, x: &[f64]) -> Result<bool, EvalError> {
        self.try_fails_whitened_at(x, self.config.grid_points)
    }

    /// Whitened read-failure indicator at an explicit butterfly
    /// resolution — the entry point retry ladders escalate through.
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_fails_whitened_at(&self, x: &[f64], grid_points: usize) -> Result<bool, EvalError> {
        if self.config.adaptive.enabled && grid_points == self.config.grid_points {
            return self
                .indicator_seeded(x, Sram6T::read_bias, false, None)
                .map(|(fails, _)| fails);
        }
        Self::check_input(x, "whitened sample")?;
        Ok(self.try_margin_at(&self.to_physical(x), Sram6T::read_bias, grid_points)? < 0.0)
    }

    /// Hold (retention) noise margin \[V\]: word line low, so the access
    /// devices are off and the margin is set by the cross-coupled
    /// inverters alone. Always exceeds the read margin.
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`]; see [`Self::try_hold_noise_margin`].
    pub fn hold_noise_margin(&self, delta_vth: &[f64]) -> f64 {
        match self.try_hold_noise_margin(delta_vth) {
            Ok(m) => m,
            Err(e) => panic!("hold-margin evaluation failed: {e}"),
        }
    }

    /// Fallible hold noise margin.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn try_hold_noise_margin(&self, delta_vth: &[f64]) -> Result<f64, EvalError> {
        self.try_margin_at(delta_vth, Sram6T::hold_bias, self.config.grid_points)
    }

    /// Hold-failure indicator in whitened coordinates: `true` when the
    /// unaccessed cell cannot retain its state (negative hold margin).
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`]; see [`Self::try_hold_fails_whitened`].
    pub fn hold_fails_whitened(&self, x: &[f64]) -> bool {
        match self.try_hold_fails_whitened(x) {
            Ok(v) => v,
            Err(e) => panic!("hold-stability evaluation failed: {e}"),
        }
    }

    /// Fallible whitened hold-failure indicator.
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_hold_fails_whitened(&self, x: &[f64]) -> Result<bool, EvalError> {
        self.try_hold_fails_whitened_at(x, self.config.grid_points)
    }

    /// Whitened hold-failure indicator at an explicit butterfly
    /// resolution (the retry-ladder entry point).
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_hold_fails_whitened_at(
        &self,
        x: &[f64],
        grid_points: usize,
    ) -> Result<bool, EvalError> {
        if self.config.adaptive.enabled && grid_points == self.config.grid_points {
            return self
                .indicator_seeded(x, Sram6T::hold_bias, false, None)
                .map(|(fails, _)| fails);
        }
        Self::check_input(x, "whitened sample")?;
        Ok(self.try_margin_at(&self.to_physical(x), Sram6T::hold_bias, grid_points)? < 0.0)
    }

    /// Whitened hold-failure indicator with neighbour seeding (see
    /// [`Self::try_fails_whitened_seeded`]).
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_hold_fails_whitened_seeded(
        &self,
        x: &[f64],
        seed: Option<&Butterfly>,
    ) -> Result<(bool, Option<Butterfly>), EvalError> {
        self.indicator_seeded(x, Sram6T::hold_bias, false, seed)
    }

    /// Write margin \[V\] for writing a "0" into node `Q` — an extension
    /// beyond the paper's read-only analysis.
    ///
    /// Under write bias (left bit line low, word line high) a *healthy*
    /// cell is monostable: the old state must be destroyed. The margin is
    /// therefore the *negated* Seevinck margin of the write-bias
    /// butterfly: positive when the residual eye has collapsed (write
    /// succeeds), negative when an eye remains (the cell can retain its
    /// old state — write failure).
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`]; see [`Self::try_write_margin`].
    pub fn write_margin(&self, delta_vth: &[f64]) -> f64 {
        match self.try_write_margin(delta_vth) {
            Ok(m) => m,
            Err(e) => panic!("write-margin evaluation failed: {e}"),
        }
    }

    /// Fallible write margin (see [`Self::write_margin`]).
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn try_write_margin(&self, delta_vth: &[f64]) -> Result<f64, EvalError> {
        Ok(-self.try_margin_at(delta_vth, Sram6T::write0_bias, self.config.grid_points)?)
    }

    /// Write-failure indicator in whitened coordinates (see
    /// [`Self::write_margin`]).
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`]; see
    /// [`Self::try_write_fails_whitened`].
    pub fn write_fails_whitened(&self, x: &[f64]) -> bool {
        match self.try_write_fails_whitened(x) {
            Ok(v) => v,
            Err(e) => panic!("write-stability evaluation failed: {e}"),
        }
    }

    /// Fallible whitened write-failure indicator.
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_write_fails_whitened(&self, x: &[f64]) -> Result<bool, EvalError> {
        self.try_write_fails_whitened_at(x, self.config.grid_points)
    }

    /// Whitened write-failure indicator at an explicit butterfly
    /// resolution (the retry-ladder entry point).
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_write_fails_whitened_at(
        &self,
        x: &[f64],
        grid_points: usize,
    ) -> Result<bool, EvalError> {
        if self.config.adaptive.enabled && grid_points == self.config.grid_points {
            return self
                .indicator_seeded(x, Sram6T::write0_bias, true, None)
                .map(|(fails, _)| fails);
        }
        Self::check_input(x, "whitened sample")?;
        Ok(self.try_margin_at(&self.to_physical(x), Sram6T::write0_bias, grid_points)? > 0.0)
    }

    /// The fixed design skew \[V\] of the power-up PUF cell: the left
    /// driver (NL) is strengthened by this much threshold magnitude, so a
    /// mismatch-free cell powers up into `Q = 0` with a comfortable
    /// preference margin. A PUF *bit error* is a mismatch draw strong
    /// enough to overcome the skew and flip the preferred state.
    const POWERUP_SKEW_VTH: f64 = 0.04;

    /// Per-device physical skew vector of the PUF cell.
    fn powerup_skew() -> [f64; DIM] {
        let mut s = [0.0; DIM];
        s[CellDevice::DriverL as usize] = -Self::POWERUP_SKEW_VTH;
        s
    }

    /// Power-up preference margin \[V\] of the skewed PUF cell with the
    /// given *additional* per-device threshold shifts: the lobe asymmetry
    /// `snm_low − snm_high` of the hold-bias butterfly. Positive means
    /// the cell still prefers the designed `Q = 0` state; negative means
    /// mismatch flipped the bit.
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`]; see [`Self::try_powerup_margin`].
    pub fn powerup_margin(&self, delta_vth: &[f64]) -> f64 {
        match self.try_powerup_margin(delta_vth) {
            Ok(m) => m,
            Err(e) => panic!("power-up evaluation failed: {e}"),
        }
    }

    /// Fallible power-up preference margin (see [`Self::powerup_margin`]).
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn try_powerup_margin(&self, delta_vth: &[f64]) -> Result<f64, EvalError> {
        Self::check_input(delta_vth, "threshold shifts")?;
        let skew = Self::powerup_skew();
        let mut dv = [0.0; DIM];
        for i in 0..DIM {
            dv[i] = delta_vth[i] + skew[i];
        }
        let cell = self.cell.with_delta_vth(&dv);
        let bias = cell.hold_bias();
        self.margin_kind_of(
            &cell,
            &bias,
            self.config.grid_points,
            MarginKind::Preference,
        )
    }

    /// Power-up bit-error indicator in whitened coordinates: `true` when
    /// the mismatch draw flips the skew-designed preferred state.
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`]; see
    /// [`Self::try_powerup_fails_whitened`].
    pub fn powerup_fails_whitened(&self, x: &[f64]) -> bool {
        match self.try_powerup_fails_whitened(x) {
            Ok(v) => v,
            Err(e) => panic!("power-up evaluation failed: {e}"),
        }
    }

    /// Fallible whitened power-up bit-error indicator.
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_powerup_fails_whitened(&self, x: &[f64]) -> Result<bool, EvalError> {
        self.try_powerup_fails_whitened_at(x, self.config.grid_points)
    }

    /// Whitened power-up bit-error indicator at an explicit butterfly
    /// resolution (the retry-ladder entry point).
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_powerup_fails_whitened_at(
        &self,
        x: &[f64],
        grid_points: usize,
    ) -> Result<bool, EvalError> {
        if self.config.adaptive.enabled && grid_points == self.config.grid_points {
            return self
                .try_powerup_fails_whitened_seeded(x, None)
                .map(|(fails, _)| fails);
        }
        Self::check_input(x, "whitened sample")?;
        let sigmas = self.pelgrom_sigmas();
        let skew = Self::powerup_skew();
        let mut dv = [0.0; DIM];
        for i in 0..DIM {
            dv[i] = x[i] * sigmas[i] + skew[i];
        }
        let cell = self.cell.with_delta_vth(&dv);
        let bias = cell.hold_bias();
        Ok(self.margin_kind_of(&cell, &bias, grid_points, MarginKind::Preference)? < 0.0)
    }

    /// Whitened power-up bit-error indicator with neighbour seeding (see
    /// [`Self::try_fails_whitened_seeded`]).
    ///
    /// # Errors
    ///
    /// See [`Self::try_fails_whitened`].
    pub fn try_powerup_fails_whitened_seeded(
        &self,
        x: &[f64],
        seed: Option<&Butterfly>,
    ) -> Result<(bool, Option<Butterfly>), EvalError> {
        let skew = Self::powerup_skew();
        self.indicator_kind_seeded(
            x,
            Sram6T::hold_bias,
            MarginKind::Preference,
            false,
            Some(&skew),
            seed,
        )
    }

    /// Scales a whitened vector back to physical threshold shifts \[V\].
    fn to_physical(&self, x: &[f64]) -> [f64; DIM] {
        let sigmas = self.pelgrom_sigmas();
        let mut dv = [0.0; DIM];
        for i in 0..DIM {
            dv[i] = x[i] * sigmas[i];
        }
        dv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_cell_passes() {
        let bench = ReadStabilityBench::paper_cell();
        assert!(!bench.fails(&[0.0; 6]));
        assert!(bench.read_noise_margin(&[0.0; 6]) > 0.0);
    }

    #[test]
    fn extreme_mismatch_fails() {
        let bench = ReadStabilityBench::paper_cell();
        // Massive driver imbalance: the read disturb flips the cell.
        let dv = [0.0, -0.3, 0.0, 0.3, 0.0, 0.0];
        assert!(bench.fails(&dv));
    }

    #[test]
    fn whitened_indicator_matches_physical_one() {
        let bench = ReadStabilityBench::paper_cell();
        let sig = bench.pelgrom_sigmas();
        let x = [1.0, -2.0, 0.5, 3.0, -1.0, 0.0];
        let dv: Vec<f64> = x.iter().zip(&sig).map(|(xi, s)| xi * s).collect();
        assert_eq!(bench.fails_whitened(&x), bench.fails(&dv));
    }

    #[test]
    fn sigma_order_follows_canonical_devices() {
        let bench = ReadStabilityBench::paper_cell();
        let s = bench.pelgrom_sigmas();
        // Loads (indices 0, 2) are wider → smaller sigma than drivers
        // (1, 3) and access (4, 5).
        assert!(s[0] < s[1]);
        assert!(s[2] < s[3]);
        assert_eq!(s[1], s[4]);
        assert_eq!(s[3], s[5]);
        assert_eq!(s[0], s[2]);
    }

    #[test]
    fn failure_region_is_far_from_origin_in_sigma_units() {
        // The boundary along a symmetric worst-case direction should sit
        // several sigma out — that is what makes naive MC hopeless and the
        // whole method necessary.
        let bench = ReadStabilityBench::paper_cell();
        let dir = [1.0, -1.0, -1.0, 1.0, 0.0, 0.0].map(|v: f64| v / 2.0); // unit-norm
        let mut lo = 0.0_f64;
        let mut hi = 20.0_f64;
        assert!(!bench.fails_whitened(&dir.map(|d| d * lo)));
        assert!(bench.fails_whitened(&dir.map(|d| d * hi)));
        for _ in 0..30 {
            let mid = 0.5 * (lo + hi);
            if bench.fails_whitened(&dir.map(|d| d * mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let boundary = 0.5 * (lo + hi);
        assert!(
            boundary > 2.0 && boundary < 12.0,
            "boundary at {boundary}σ along the worst-case direction"
        );
    }

    #[test]
    fn lower_vdd_moves_boundary_inward() {
        let hi_vdd = ReadStabilityBench::at_vdd(0.7);
        let lo_vdd = ReadStabilityBench::at_vdd(0.5);
        let dir = [1.0, -1.0, -1.0, 1.0, 0.0, 0.0].map(|v: f64| v / 2.0);
        let boundary = |bench: &ReadStabilityBench| {
            let mut lo = 0.0_f64;
            let mut hi = 20.0_f64;
            for _ in 0..30 {
                let mid = 0.5 * (lo + hi);
                if bench.fails_whitened(&dir.map(|d| d * mid)) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            0.5 * (lo + hi)
        };
        assert!(
            boundary(&lo_vdd) < boundary(&hi_vdd),
            "lower supply should fail earlier"
        );
    }

    #[test]
    fn rejects_wrong_dimension_with_typed_error() {
        let bench = ReadStabilityBench::paper_cell();
        assert_eq!(
            bench.try_fails_whitened(&[0.0; 5]),
            Err(EvalError::DimensionMismatch {
                expected: 6,
                got: 5
            })
        );
        assert_eq!(
            bench.try_write_fails_whitened(&[0.0; 7]),
            Err(EvalError::DimensionMismatch {
                expected: 6,
                got: 7
            })
        );
    }

    #[test]
    fn rejects_non_finite_samples_with_typed_error() {
        let bench = ReadStabilityBench::paper_cell();
        let mut x = [0.0; 6];
        x[3] = f64::NAN;
        assert_eq!(
            bench.try_fails_whitened(&x),
            Err(EvalError::NonFinite {
                context: "whitened sample"
            })
        );
        x[3] = f64::INFINITY;
        assert_eq!(
            bench.try_read_noise_margin(&x),
            Err(EvalError::NonFinite {
                context: "threshold shifts"
            })
        );
    }

    #[test]
    fn try_variants_match_panicking_variants_on_healthy_samples() {
        let bench = ReadStabilityBench::paper_cell();
        let x = [0.4, -0.7, 0.1, 0.0, -0.2, 0.5];
        assert_eq!(bench.try_fails_whitened(&x), Ok(bench.fails_whitened(&x)));
        let dv = [0.0, -0.02, 0.0, 0.02, 0.0, 0.0];
        assert_eq!(
            bench.try_read_noise_margin(&dv),
            Ok(bench.read_noise_margin(&dv))
        );
        assert_eq!(bench.try_write_margin(&dv), Ok(bench.write_margin(&dv)));
        assert_eq!(
            bench.try_hold_noise_margin(&dv),
            Ok(bench.hold_noise_margin(&dv))
        );
    }

    #[test]
    fn finer_grids_refine_the_margin_estimate() {
        // The retry ladder escalates butterfly resolution; the verdict on
        // a comfortably passing sample must not flip with the grid.
        let bench = ReadStabilityBench::paper_cell();
        let x = [0.1, -0.1, 0.0, 0.0, 0.0, 0.0];
        let coarse = bench.try_fails_whitened_at(&x, 31).expect("coarse grid");
        let fine = bench.try_fails_whitened_at(&x, 121).expect("fine grid");
        assert_eq!(coarse, fine);
    }

    #[test]
    fn hold_margin_exceeds_read_margin() {
        let bench = ReadStabilityBench::paper_cell();
        let dv = [0.0, -0.02, 0.0, 0.02, 0.0, 0.0];
        assert!(bench.hold_noise_margin(&dv) > bench.read_noise_margin(&dv));
    }

    #[test]
    fn nominal_cell_is_writeable() {
        let bench = ReadStabilityBench::paper_cell();
        assert!(
            bench.write_margin(&[0.0; 6]) > 0.0,
            "a healthy cell must accept a write"
        );
    }

    #[test]
    fn write_margin_degrades_with_strong_load_and_weak_access() {
        // Writing 0 into Q fights the left pull-up through the left
        // access device; strengthening PL and weakening AL is the
        // classic write-failure direction.
        let bench = ReadStabilityBench::paper_cell();
        let mut prev = f64::INFINITY;
        for k in 0..5 {
            let s = 0.08 * k as f64;
            let dv = [-s, 0.0, 0.0, 0.0, s, 0.0];
            let wm = bench.write_margin(&dv);
            assert!(
                wm < prev + 1e-9,
                "write margin should fall with write-hostile skew: step {k} gives {wm}"
            );
            prev = wm;
        }
        assert!(
            prev < 0.0,
            "extreme skew should break the write, margin = {prev}"
        );
    }

    fn fixed_bench() -> ReadStabilityBench {
        let mut config = BenchConfig::default();
        config.adaptive.enabled = false;
        ReadStabilityBench::with_config(config)
    }

    /// Deterministic pseudo-random stream in (-1, 1).
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    #[test]
    fn adaptive_and_fixed_oracles_agree_everywhere() {
        let adaptive = ReadStabilityBench::paper_cell();
        let fixed = fixed_bench();
        // Bulk samples plus jittered points straddling the worst-case
        // failure boundary, where coarse margins are least trustworthy.
        let mut state = 0x243F_6A88_85A3_08D3_u64;
        let dir = [1.0, -1.0, -1.0, 1.0, 0.0, 0.0].map(|v: f64| v / 2.0);
        let mut samples: Vec<[f64; 6]> = Vec::new();
        for _ in 0..24 {
            let mut x = [0.0; 6];
            for v in &mut x {
                *v = 3.0 * lcg(&mut state);
            }
            samples.push(x);
        }
        for k in 0..12 {
            let r = 5.0 + 0.35 * k as f64;
            let mut x = dir.map(|d| d * r);
            for v in &mut x {
                *v += 0.2 * lcg(&mut state);
            }
            samples.push(x);
        }
        for x in &samples {
            assert_eq!(
                adaptive.try_fails_whitened(x),
                fixed.try_fails_whitened(x),
                "adaptive verdict drifted at {x:?}"
            );
        }
        let effort = adaptive.effort();
        assert_eq!(
            effort.coarse_accepts + effort.escalations,
            samples.len() as u64
        );
        assert!(effort.coarse_accepts > 0, "coarse pass never decided");
    }

    #[test]
    fn margins_ignore_the_adaptive_policy() {
        let adaptive = ReadStabilityBench::paper_cell();
        let fixed = fixed_bench();
        let dv = [0.0, -0.02, 0.0, 0.02, 0.0, 0.0];
        assert_eq!(
            adaptive.read_noise_margin(&dv).to_bits(),
            fixed.read_noise_margin(&dv).to_bits()
        );
        assert_eq!(adaptive.try_write_margin(&dv), fixed.try_write_margin(&dv));
        assert_eq!(
            adaptive.try_hold_noise_margin(&dv),
            fixed.try_hold_noise_margin(&dv)
        );
    }

    #[test]
    fn neighbour_seed_reuses_curves_and_preserves_verdicts() {
        let bench = ReadStabilityBench::paper_cell();
        let x0 = [0.5, -0.5, 0.0, 0.5, 0.0, 0.0];
        let (v0, seed) = bench
            .try_fails_whitened_seeded(&x0, None)
            .expect("first eval");
        let seed = seed.expect("adaptive evaluation must hand back a seed");
        let x1 = [0.55, -0.45, 0.0, 0.5, 0.05, 0.0];
        let before = bench.effort();
        let (v1, _) = bench
            .try_fails_whitened_seeded(&x1, Some(&seed))
            .expect("seeded eval");
        let after = bench.effort();
        assert!(after.seeded_curves > before.seeded_curves, "seed unused");
        let (v1_cold, _) = bench
            .try_fails_whitened_seeded(&x1, None)
            .expect("cold eval");
        assert_eq!(v1, v1_cold, "a neighbour seed changed a verdict");
        assert_eq!(v0, fixed_bench().fails_whitened(&x0));
    }

    #[test]
    fn clones_share_one_effort_ledger() {
        let bench = ReadStabilityBench::paper_cell();
        let clone = bench.clone();
        clone.fails_whitened(&[0.2, -0.2, 0.0, 0.0, 0.0, 0.0]);
        let effort = bench.effort();
        assert!(
            effort.curve_solves > 0,
            "clone's work invisible: {effort:?}"
        );
        assert!(effort.newton_iters > effort.curve_solves);
    }

    #[test]
    fn nominal_puf_cell_prefers_the_designed_state() {
        let bench = ReadStabilityBench::paper_cell();
        let margin = bench.powerup_margin(&[0.0; 6]);
        assert!(
            margin > 0.0,
            "skewed PUF cell must power up deterministically, margin = {margin}"
        );
        assert!(!bench.powerup_fails_whitened(&[0.0; 6]));
    }

    #[test]
    fn counter_skew_flips_the_powerup_bit() {
        // Strengthening the *right* driver harder than the designed left
        // skew flips the preferred state: the definition of a bit error.
        let bench = ReadStabilityBench::paper_cell();
        let mut dv = [0.0; 6];
        dv[CellDevice::DriverR as usize] = -0.12;
        dv[CellDevice::DriverL as usize] = 0.12;
        assert!(
            bench.powerup_margin(&dv) < 0.0,
            "strong counter-skew must flip the bit"
        );
        let sigmas = bench.pelgrom_sigmas();
        let x: Vec<f64> = dv.iter().zip(&sigmas).map(|(d, s)| d / s).collect();
        assert!(bench.powerup_fails_whitened(&x));
    }

    #[test]
    fn hold_failures_need_more_mismatch_than_read_failures() {
        let bench = ReadStabilityBench::paper_cell();
        let read_killer = [0.0, -0.15, 0.0, 0.15, 0.0, 0.0];
        assert!(bench.fails(&read_killer));
        let sigmas = bench.pelgrom_sigmas();
        let x: Vec<f64> = read_killer
            .iter()
            .zip(&sigmas)
            .map(|(d, s)| d / s)
            .collect();
        assert!(
            !bench.hold_fails_whitened(&x),
            "a marginal read failure should still hold its state"
        );
        // Push much harder and retention breaks too.
        let x2: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        assert!(bench.hold_fails_whitened(&x2));
    }

    #[test]
    fn hold_and_powerup_adaptive_verdicts_match_fixed_ones() {
        let adaptive = ReadStabilityBench::paper_cell();
        let fixed = fixed_bench();
        let mut state = 0x13198A2E_03707344_u64;
        let mut samples: Vec<[f64; 6]> = Vec::new();
        for _ in 0..16 {
            let mut x = [0.0; 6];
            for v in &mut x {
                *v = 4.0 * lcg(&mut state);
            }
            samples.push(x);
        }
        // Jitter around each indicator's own critical direction.
        let hold_dir = [1.0, -1.0, -1.0, 1.0, 0.0, 0.0].map(|v: f64| v / 2.0);
        for k in 0..8 {
            let r = 8.0 + 0.8 * k as f64;
            let mut x = hold_dir.map(|d| d * r);
            for v in &mut x {
                *v += 0.3 * lcg(&mut state);
            }
            samples.push(x);
        }
        for x in &samples {
            assert_eq!(
                adaptive.try_hold_fails_whitened(x),
                fixed.try_hold_fails_whitened(x),
                "adaptive hold verdict drifted at {x:?}"
            );
            assert_eq!(
                adaptive.try_powerup_fails_whitened(x),
                fixed.try_powerup_fails_whitened(x),
                "adaptive power-up verdict drifted at {x:?}"
            );
        }
    }

    #[test]
    fn zero_temperature_delta_is_bit_identical() {
        let nominal = ReadStabilityBench::paper_cell();
        let explicit = ReadStabilityBench::with_config(BenchConfig {
            temperature_delta_c: 0.0,
            ..BenchConfig::default()
        });
        assert_eq!(nominal.cell(), explicit.cell());
        let dv = [0.0, -0.02, 0.0, 0.02, 0.0, 0.0];
        assert_eq!(
            nominal.read_noise_margin(&dv).to_bits(),
            explicit.read_noise_margin(&dv).to_bits()
        );
    }

    #[test]
    fn heating_degrades_the_read_margin() {
        let cold = ReadStabilityBench::paper_cell();
        let hot = ReadStabilityBench::with_config(BenchConfig {
            temperature_delta_c: 100.0,
            ..BenchConfig::default()
        });
        let cold_m = cold.read_noise_margin(&[0.0; 6]);
        let hot_m = hot.read_noise_margin(&[0.0; 6]);
        assert!(
            hot_m < cold_m,
            "heating should shrink the margin: {hot_m} vs {cold_m}"
        );
        assert!(
            hot_m > 0.0,
            "the nominal cell must survive 100 K of heating"
        );
    }

    #[test]
    fn rejects_out_of_range_temperature() {
        let result = std::panic::catch_unwind(|| {
            ReadStabilityBench::with_config(BenchConfig {
                temperature_delta_c: 500.0,
                ..BenchConfig::default()
            })
        });
        assert!(result.is_err(), "a 500 K delta must be rejected");
    }

    #[test]
    fn write_failure_boundary_is_distinct_from_read_boundary() {
        // The read-critical direction (driver imbalance) barely moves
        // the write margin and vice versa.
        let bench = ReadStabilityBench::paper_cell();
        let read_dir = [0.0, -0.15, 0.0, 0.15, 0.0, 0.0];
        assert!(bench.fails(&read_dir));
        assert!(
            bench.write_margin(&read_dir) > 0.0,
            "read-failing skew should still write"
        );
    }
}
