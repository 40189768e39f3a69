//! The SRAM cell testbench — the workspace's "transistor-level
//! simulation".
//!
//! [`ReadStabilityBench`] maps a 6-component threshold-shift vector (one
//! ΔVth per cell device, canonical order of
//! [`crate::sram::CellDevice`]) to a signed cell margin, negative when
//! the cell fails: the indicator function `I(x)` of the paper (Sec.
//! IV-A). A [`Scenario`] picks which margin: the paper's read noise
//! margin, or one of three siblings over the same variability space —
//! hold (retention) stability, write margin, and the power-up preference
//! margin of a skew-designed PUF bit. Each scenario is one row of a
//! table (bias, margin extraction, design skew); the bench has one
//! indicator entry point, [`ReadStabilityBench::try_fails_whitened`],
//! and one margin entry point, [`ReadStabilityBench::try_margin`].
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
use ecripse_stats::{fnv1a, FNV_OFFSET};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of variability dimensions (one per cell transistor).
pub const DIM: usize = 6;

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
    /// Coarse-first indicator evaluation. Far from the failure boundary
    /// only the margin's sign matters, so a coarse butterfly (31 points
    /// solved to 0.3 mV) decides most samples; a coarse margin within
    /// 3 mV of zero escalates to the exact fixed-resolution evaluation,
    /// so every verdict equals the non-adaptive one. Margin-returning
    /// APIs never use this pass. Deliberately without
    /// `#[serde(default)]`: a missing field would parse as `false` and
    /// silently turn the pass off.
    pub adaptive: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            vdd: crate::ptm::VDD_NOMINAL,
            grid_points: 61,
            temperature_delta_c: 0.0,
            adaptive: true,
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
    coarse_accepts: AtomicU64,
    escalations: AtomicU64,
}

impl SolveCounters {
    fn record(&self, effort: &SampleEffort) {
        self.newton_iters
            .fetch_add(effort.newton_iters, Ordering::Relaxed);
        self.curve_solves
            .fetch_add(effort.solves, Ordering::Relaxed);
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
            coarse_accepts: self.coarse_accepts.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
        }
    }

    fn book(&self, receipt: &EffortSnapshot) {
        self.newton_iters
            .fetch_add(receipt.newton_iters, Ordering::Relaxed);
        self.curve_solves
            .fetch_add(receipt.curve_solves, Ordering::Relaxed);
        self.coarse_accepts
            .fetch_add(receipt.coarse_accepts, Ordering::Relaxed);
        self.escalations
            .fetch_add(receipt.escalations, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`SolveCounters`].
///
/// Upstream, `ecripse_core`'s `SolveEffort` reports `newton_iters`
/// under the same name and `curve_solves` as `factorisations`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EffortSnapshot {
    /// Newton evaluations (node-current evaluations) of the 1-D
    /// safeguarded-Newton transfer-curve solves.
    pub newton_iters: u64,
    /// Transfer-curve points solved — one per inner solver invocation.
    pub curve_solves: u64,
    /// Indicator evaluations decided by the coarse pass alone.
    pub coarse_accepts: u64,
    /// Indicator evaluations escalated to the exact full-resolution pass.
    pub escalations: u64,
}

/// A registered SRAM workload (indicator function) selectable per run.
///
/// Serialises as its stable kebab-case [`id`](Scenario::id) (the
/// vendored serde derive has no `rename_all`, so the impls are manual);
/// the default is the paper's [`Scenario::ReadSnm`]. Each scenario is one
/// row of [`ReadStabilityBench`]'s indicator table: a bias, a margin
/// extraction and a fixed design skew.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// The paper's indicator: read-SNM failure under read bias.
    #[default]
    ReadSnm,
    /// Retention failure of the unaccessed cell (word line low).
    HoldSnm,
    /// Write failure: the word-line write cannot destroy the old state.
    WriteMargin,
    /// Power-up PUF bit error: mismatch overcomes the design skew and
    /// flips the preferred power-up state.
    PowerupPuf,
}

impl Scenario {
    /// Every registered scenario, in registry order.
    pub const ALL: [Scenario; 4] = [
        Scenario::ReadSnm,
        Scenario::HoldSnm,
        Scenario::WriteMargin,
        Scenario::PowerupPuf,
    ];

    /// Stable kebab-case identifier (matches the serialised form, the
    /// CLI `--scenario` flag and the wire-protocol field).
    pub fn id(self) -> &'static str {
        match self {
            Scenario::ReadSnm => "read-snm",
            Scenario::HoldSnm => "hold-snm",
            Scenario::WriteMargin => "write-margin",
            Scenario::PowerupPuf => "powerup-puf",
        }
    }

    /// Indicator version. Bump when a scenario's *semantics* change
    /// (bias, margin extraction, skew constants) so fingerprinted caches
    /// discard verdicts computed under the old meaning.
    pub fn version(self) -> u32 {
        match self {
            Scenario::ReadSnm => 1,
            Scenario::HoldSnm => 1,
            Scenario::WriteMargin => 1,
            Scenario::PowerupPuf => 1,
        }
    }

    /// One-line human description.
    pub fn summary(self) -> &'static str {
        match self {
            Scenario::ReadSnm => "read-SNM failure under read bias (the paper's indicator)",
            Scenario::HoldSnm => "retention failure of the unaccessed cell",
            Scenario::WriteMargin => "write failure: the old state survives a word-line write",
            Scenario::PowerupPuf => "power-up PUF bit error against the design skew",
        }
    }

    /// Parses a scenario id.
    pub fn from_id(id: &str) -> Option<Self> {
        Scenario::ALL.into_iter().find(|s| s.id() == id)
    }

    /// Outer boundary-search radius (in sigma units) that reliably
    /// brackets this scenario's failure shell at the paper's nominal
    /// supply. The default `InitialSearchConfig::r_max` of 8 suits the
    /// read indicator (first failures near 5.5 sigma along the worst
    /// direction); retention failures only appear near 15 sigma and
    /// write failures near 7, so their runs need a wider bracket. The
    /// CLI applies this automatically (`max` with the configured
    /// radius); library callers should do the same when they build an
    /// `EcripseConfig` by hand.
    pub fn recommended_r_max(self) -> f64 {
        match self {
            Scenario::ReadSnm => 8.0,
            Scenario::HoldSnm => 18.0,
            Scenario::WriteMargin => 10.0,
            Scenario::PowerupPuf => 8.0,
        }
    }

    /// A 64-bit salt derived from id and version, folded into
    /// operating-point cache tags so verdicts from different scenarios
    /// (or different versions of one) can never collide.
    pub fn tag_salt(self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.id().as_bytes());
        h = fnv1a(h, &self.version().to_le_bytes());
        h
    }

    /// The scenario's row of the indicator table.
    fn indicator(self) -> Indicator {
        const NO_SKEW: [f64; DIM] = [0.0; DIM];
        let (bias, margin, skew): (fn(&Sram6T) -> BiasCondition, _, _) = match self {
            Scenario::ReadSnm => (Sram6T::read_bias, MarginKind::Worst, NO_SKEW),
            Scenario::HoldSnm => (Sram6T::hold_bias, MarginKind::Worst, NO_SKEW),
            Scenario::WriteMargin => (Sram6T::write0_bias, MarginKind::NegatedWorst, NO_SKEW),
            Scenario::PowerupPuf => (Sram6T::hold_bias, MarginKind::Preference, POWERUP_SKEW),
        };
        Indicator { bias, margin, skew }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

impl std::str::FromStr for Scenario {
    type Err = UnknownScenario;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scenario::from_id(s).ok_or_else(|| UnknownScenario { id: s.to_owned() })
    }
}

/// Error for an id that names no registered scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario {
    /// The unrecognised id.
    pub id: String,
}

impl std::fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scenario {:?} (registered: ", self.id)?;
        for (i, s) in Scenario::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(s.id())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownScenario {}

impl Serialize for Scenario {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::String(self.id().to_owned())
    }
}

impl Deserialize for Scenario {
    fn from_value(value: &serde::json::Value) -> Option<Self> {
        Scenario::from_id(value.as_str()?)
    }
}

/// A hex digest over every registered (id, version) pair — the
/// coarse-grained registry fingerprint scoped into persisted verdict
/// snapshots: any registry change (new scenario, version bump) retires
/// every snapshot written under the old registry.
pub fn registry_digest() -> String {
    let mut h = FNV_OFFSET;
    for s in Scenario::ALL {
        h = fnv1a(h, s.id().as_bytes());
        h = fnv1a(h, &s.version().to_le_bytes());
    }
    format!("{h:016x}")
}

/// The fixed design skew \[V\] of the power-up PUF cell: the left driver
/// (NL) is strengthened by 40 mV of threshold magnitude, so a
/// mismatch-free cell powers up into `Q = 0` with a comfortable
/// preference margin. A PUF *bit error* is a mismatch draw strong enough
/// to overcome the skew and flip the preferred state.
const POWERUP_SKEW: [f64; DIM] = {
    let mut s = [0.0; DIM];
    s[CellDevice::DriverL as usize] = -0.04;
    s
};

/// Highest grid-escalation exponent of the retry ladder: attempt `k > 0`
/// evaluates on `grid_points << min(k, 2)` butterfly points (4× max).
const MAX_GRID_ESCALATION: usize = 2;

/// Grid points of the adaptive pass's coarse screening butterfly.
const COARSE_POINTS: usize = 31;

/// Transfer-curve solver resolution of the adaptive coarse pass \[V\].
const COARSE_RESOLUTION: f64 = 3e-4;

/// Coarse margins closer to zero than this escalate to the exact
/// full-resolution evaluation \[V\]. It must comfortably exceed the worst
/// coarse-vs-fine margin drift (see the calibration tests).
const MARGIN_THRESHOLD: f64 = 0.003;

/// Which signed scalar a butterfly's Seevinck report is collapsed to;
/// negative always means the cell fails.
///
/// `Worst` is the classical noise margin (smaller lobe, signed);
/// `NegatedWorst` is the write margin — under write bias a healthy cell
/// is monostable, so a surviving eye (positive Seevinck margin) is the
/// failure; `Preference` is the *lobe asymmetry* `snm_low − snm_high`,
/// the quantity that decides which state a skewed cell prefers on
/// power-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MarginKind {
    Worst,
    NegatedWorst,
    Preference,
}

impl MarginKind {
    fn extract(self, report: &SnmReport) -> f64 {
        match self {
            MarginKind::Worst => report.rnm,
            MarginKind::NegatedWorst => -report.rnm,
            MarginKind::Preference => report.snm_low - report.snm_high,
        }
    }

    /// Decisiveness threshold for the adaptive coarse pass. A preference
    /// margin is a *difference* of two lobes, so coarse-grid drift can be
    /// up to twice the per-lobe drift — the band doubles accordingly.
    fn decisive_threshold(self, base: f64) -> f64 {
        match self {
            MarginKind::Worst | MarginKind::NegatedWorst => base,
            MarginKind::Preference => 2.0 * base,
        }
    }
}

/// One row of the indicator table (see [`Scenario::indicator`]).
struct Indicator {
    /// The bias the cell is evaluated under.
    bias: fn(&Sram6T) -> BiasCondition,
    /// How the butterfly's report becomes a signed margin.
    margin: MarginKind,
    /// Fixed per-device skew \[V\] added to the sample's physical shifts.
    skew: [f64; DIM],
}

/// The SRAM cell testbench: one circuit, one indicator per [`Scenario`].
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

    /// The skewed cell of one sample under one indicator row, with its
    /// bias.
    fn cell_under(&self, row: &Indicator, delta_vth: &[f64]) -> (Sram6T, BiasCondition) {
        let mut dv = [0.0; DIM];
        for i in 0..DIM {
            dv[i] = delta_vth[i] + row.skew[i];
        }
        let cell = self.cell.with_delta_vth(&dv);
        let bias = (row.bias)(&cell);
        (cell, bias)
    }

    /// Exact margin of a concrete skewed cell under a concrete bias at an
    /// explicit butterfly resolution, routed through the counted sampler
    /// so effort ledgers stay honest.
    fn margin_of(
        &self,
        ledger: &SolveCounters,
        cell: &Sram6T,
        bias: &BiasCondition,
        grid_points: usize,
        kind: MarginKind,
    ) -> Result<f64, EvalError> {
        let (butterfly, effort) = Butterfly::try_sample_counted(cell, bias, grid_points, 1e-7)?;
        ledger.record(&effort);
        let margin = kind.extract(&try_read_noise_margin(&butterfly)?);
        if !margin.is_finite() {
            return Err(EvalError::NonFinite {
                context: "extracted noise margin",
            });
        }
        Ok(margin)
    }

    /// Signed margin \[V\] of `scenario` for the cell with the given
    /// per-device threshold shifts (volts, canonical order; the
    /// scenario's design skew is added on top). Negative means the
    /// cell fails: read and hold return the Seevinck noise margin, write
    /// returns it negated (a surviving eye is a failed write), and
    /// power-up returns the lobe asymmetry `snm_low − snm_high` of the
    /// skewed PUF cell. Margins always use the full-resolution grid and
    /// ignore the adaptive policy.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn try_margin(&self, scenario: Scenario, delta_vth: &[f64]) -> Result<f64, EvalError> {
        Self::check_input(delta_vth, "threshold shifts")?;
        let row = scenario.indicator();
        let (cell, bias) = self.cell_under(&row, delta_vth);
        self.margin_of(
            &self.counters,
            &cell,
            &bias,
            self.config.grid_points,
            row.margin,
        )
    }

    /// Panicking [`Self::try_margin`].
    ///
    /// # Panics
    ///
    /// Panics on any [`EvalError`] (wrong dimension, non-finite input or
    /// operating point).
    pub fn margin(&self, scenario: Scenario, delta_vth: &[f64]) -> f64 {
        match self.try_margin(scenario, delta_vth) {
            Ok(m) => m,
            Err(e) => panic!("{scenario} margin evaluation failed: {e}"),
        }
    }

    /// The indicator `I(x)` of `scenario` over whitened coordinates: the
    /// standard-normal vector `x` is scaled by the Pelgrom sigmas, and
    /// the verdict is `true` when the scenario's margin is negative.
    ///
    /// `attempt` is the rung of the retry ladder. Attempt 0 is the normal
    /// evaluation: with [`BenchConfig::adaptive`] on, a coarse butterfly
    /// decides samples whose margin is decisive, and indecisive ones
    /// escalate to the bit-identical full-resolution evaluation. Attempt
    /// `k > 0` is the full-resolution evaluation on
    /// `grid_points << min(k, 2)` butterfly points. For every input on
    /// which both paths succeed, the verdict equals the fixed-resolution
    /// verdict.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::DimensionMismatch`] when `x.len() != 6`,
    /// [`EvalError::NonFinite`] for NaN/infinite samples or operating
    /// points.
    pub fn try_fails_whitened(
        &self,
        scenario: Scenario,
        x: &[f64],
        attempt: usize,
    ) -> Result<bool, EvalError> {
        self.fails_on(&self.counters, scenario, x, attempt)
    }

    /// [`Self::try_fails_whitened`] on a private ledger: the shared one
    /// is untouched, and the returned receipt holds exactly the effort
    /// the evaluation would have added to it. Pass the receipt to
    /// [`Self::book`] if and when the verdict is used, so work done ahead
    /// of need is accounted as if it had been done on demand.
    ///
    /// # Errors
    ///
    /// The outcome carries the errors of [`Self::try_fails_whitened`].
    pub fn try_fails_whitened_detached(
        &self,
        scenario: Scenario,
        x: &[f64],
        attempt: usize,
    ) -> (Result<bool, EvalError>, EffortSnapshot) {
        let ledger = SolveCounters::default();
        let outcome = self.fails_on(&ledger, scenario, x, attempt);
        (outcome, ledger.snapshot())
    }

    /// Adds a receipt from [`Self::try_fails_whitened_detached`] to the
    /// shared ledger: all four counters.
    pub fn book(&self, receipt: &EffortSnapshot) {
        self.counters.book(receipt);
    }

    /// A clone of this bench on a fresh ledger of its own: its effort
    /// (and its clones') is counted there, not on this bench's shared
    /// ledger. [`Self::effort`] of the clone is the receipt to
    /// [`Self::book`] here once its work should count.
    pub fn on_fresh_ledger(&self) -> Self {
        Self {
            cell: self.cell.clone(),
            config: self.config,
            counters: Arc::new(SolveCounters::default()),
        }
    }

    fn fails_on(
        &self,
        ledger: &SolveCounters,
        scenario: Scenario,
        x: &[f64],
        attempt: usize,
    ) -> Result<bool, EvalError> {
        Self::check_input(x, "whitened sample")?;
        let row = scenario.indicator();
        let (cell, bias) = self.cell_under(&row, &self.to_physical(x));
        if attempt > 0 || !self.config.adaptive {
            let grid = self.config.grid_points << attempt.min(MAX_GRID_ESCALATION);
            return Ok(self.margin_of(ledger, &cell, &bias, grid, row.margin)? < 0.0);
        }
        let coarse = Butterfly::try_sample_counted(&cell, &bias, COARSE_POINTS, COARSE_RESOLUTION);
        if let Ok((coarse_bfly, effort)) = coarse {
            ledger.record(&effort);
            if let Ok(report) = try_read_noise_margin(&coarse_bfly) {
                let margin = row.margin.extract(&report);
                if margin.is_finite()
                    && margin.abs() >= row.margin.decisive_threshold(MARGIN_THRESHOLD)
                {
                    ledger.note_accept();
                    return Ok(margin < 0.0);
                }
            }
        }
        // The coarse pass failed or was indecisive: decide exactly.
        ledger.note_escalation();
        let grid = self.config.grid_points;
        Ok(self.margin_of(ledger, &cell, &bias, grid, row.margin)? < 0.0)
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
    use Scenario::{HoldSnm, PowerupPuf, ReadSnm, WriteMargin};

    /// Attempt-0 verdict of `scenario` at whitened `x`.
    fn try_fails(
        bench: &ReadStabilityBench,
        scenario: Scenario,
        x: &[f64],
    ) -> Result<bool, EvalError> {
        bench.try_fails_whitened(scenario, x, 0)
    }

    fn fails(bench: &ReadStabilityBench, scenario: Scenario, x: &[f64]) -> bool {
        try_fails(bench, scenario, x).expect("sample evaluates")
    }

    #[test]
    fn nominal_cell_passes() {
        let bench = ReadStabilityBench::paper_cell();
        assert!(bench.margin(ReadSnm, &[0.0; 6]) > 0.0);
        assert!(!fails(&bench, ReadSnm, &[0.0; 6]));
    }

    #[test]
    fn extreme_mismatch_fails() {
        let bench = ReadStabilityBench::paper_cell();
        // Massive driver imbalance: the read disturb flips the cell.
        let dv = [0.0, -0.3, 0.0, 0.3, 0.0, 0.0];
        assert!(bench.margin(ReadSnm, &dv) < 0.0);
    }

    #[test]
    fn whitened_indicator_matches_physical_one() {
        let bench = ReadStabilityBench::paper_cell();
        let sig = bench.pelgrom_sigmas();
        let x = [1.0, -2.0, 0.5, 3.0, -1.0, 0.0];
        let dv: Vec<f64> = x.iter().zip(&sig).map(|(xi, s)| xi * s).collect();
        assert_eq!(fails(&bench, ReadSnm, &x), bench.margin(ReadSnm, &dv) < 0.0);
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
        assert!(!fails(&bench, ReadSnm, &dir.map(|d| d * lo)));
        assert!(fails(&bench, ReadSnm, &dir.map(|d| d * hi)));
        for _ in 0..30 {
            let mid = 0.5 * (lo + hi);
            if fails(&bench, ReadSnm, &dir.map(|d| d * mid)) {
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
                if fails(bench, ReadSnm, &dir.map(|d| d * mid)) {
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
            try_fails(&bench, ReadSnm, &[0.0; 5]),
            Err(EvalError::DimensionMismatch {
                expected: 6,
                got: 5
            })
        );
        assert_eq!(
            try_fails(&bench, WriteMargin, &[0.0; 7]),
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
            try_fails(&bench, ReadSnm, &x),
            Err(EvalError::NonFinite {
                context: "whitened sample"
            })
        );
        x[3] = f64::INFINITY;
        assert_eq!(
            bench.try_margin(ReadSnm, &x),
            Err(EvalError::NonFinite {
                context: "threshold shifts"
            })
        );
    }

    #[test]
    fn try_variants_match_panicking_variants_on_healthy_samples() {
        let bench = ReadStabilityBench::paper_cell();
        let x = [0.4, -0.7, 0.1, 0.0, -0.2, 0.5];
        assert_eq!(
            try_fails(&bench, ReadSnm, &x),
            Ok(fails(&bench, ReadSnm, &x))
        );
        let dv = [0.0, -0.02, 0.0, 0.02, 0.0, 0.0];
        assert_eq!(
            bench.try_margin(ReadSnm, &dv),
            Ok(bench.margin(ReadSnm, &dv))
        );
        assert_eq!(
            bench.try_margin(WriteMargin, &dv),
            Ok(bench.margin(WriteMargin, &dv))
        );
        assert_eq!(
            bench.try_margin(HoldSnm, &dv),
            Ok(bench.margin(HoldSnm, &dv))
        );
    }

    #[test]
    fn finer_grids_refine_the_margin_estimate() {
        // The retry ladder escalates butterfly resolution; the verdict on
        // a comfortably passing sample must not flip with the grid.
        let bench = ReadStabilityBench::paper_cell();
        let x = [0.1, -0.1, 0.0, 0.0, 0.0, 0.0];
        let base = fails(&bench, ReadSnm, &x);
        for attempt in 1..4 {
            let fine = bench
                .try_fails_whitened(ReadSnm, &x, attempt)
                .expect("finer grid");
            assert_eq!(fine, base, "attempt {attempt}");
        }
    }

    #[test]
    fn hold_margin_exceeds_read_margin() {
        let bench = ReadStabilityBench::paper_cell();
        let dv = [0.0, -0.02, 0.0, 0.02, 0.0, 0.0];
        assert!(bench.margin(HoldSnm, &dv) > bench.margin(ReadSnm, &dv));
    }

    #[test]
    fn nominal_cell_is_writeable() {
        let bench = ReadStabilityBench::paper_cell();
        assert!(
            bench.margin(WriteMargin, &[0.0; 6]) > 0.0,
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
            let wm = bench.margin(WriteMargin, &dv);
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
        ReadStabilityBench::with_config(BenchConfig {
            adaptive: false,
            ..BenchConfig::default()
        })
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
                try_fails(&adaptive, ReadSnm, x),
                try_fails(&fixed, ReadSnm, x),
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
            adaptive.margin(ReadSnm, &dv).to_bits(),
            fixed.margin(ReadSnm, &dv).to_bits()
        );
        assert_eq!(
            adaptive.try_margin(WriteMargin, &dv),
            fixed.try_margin(WriteMargin, &dv)
        );
        assert_eq!(
            adaptive.try_margin(HoldSnm, &dv),
            fixed.try_margin(HoldSnm, &dv)
        );
    }

    #[test]
    fn clones_share_one_effort_ledger() {
        let bench = ReadStabilityBench::paper_cell();
        let clone = bench.clone();
        fails(&clone, ReadSnm, &[0.2, -0.2, 0.0, 0.0, 0.0, 0.0]);
        let effort = bench.effort();
        assert!(
            effort.curve_solves > 0,
            "clone's work invisible: {effort:?}"
        );
        assert!(effort.newton_iters > effort.curve_solves);
    }

    #[test]
    fn detached_evaluations_book_exactly_their_on_demand_effort() {
        let on_demand = ReadStabilityBench::paper_cell();
        let detached = ReadStabilityBench::paper_cell();
        let xs = [
            [0.2, -0.2, 0.0, 0.0, 0.0, 0.0],
            [3.0, -3.0, 1.0, -1.0, 0.5, 0.0],
            [f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        for (i, x) in xs.iter().enumerate() {
            for attempt in 0..2 {
                let want = on_demand.try_fails_whitened(ReadSnm, x, attempt);
                let untouched = detached.effort();
                let (got, receipt) = detached.try_fails_whitened_detached(ReadSnm, x, attempt);
                assert_eq!(got, want, "sample {i} attempt {attempt}");
                assert_eq!(
                    detached.effort(),
                    untouched,
                    "a detached evaluation must not touch the shared ledger"
                );
                assert!(receipt.newton_iters > 0 || got.is_err(), "{receipt:?}");
                detached.book(&receipt);
                assert_eq!(detached.effort(), on_demand.effort());
            }
        }
        assert!(on_demand.effort().coarse_accepts + on_demand.effort().escalations > 0);
    }

    #[test]
    fn nominal_puf_cell_prefers_the_designed_state() {
        let bench = ReadStabilityBench::paper_cell();
        let margin = bench.margin(PowerupPuf, &[0.0; 6]);
        assert!(
            margin > 0.0,
            "skewed PUF cell must power up deterministically, margin = {margin}"
        );
        assert!(!fails(&bench, PowerupPuf, &[0.0; 6]));
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
            bench.margin(PowerupPuf, &dv) < 0.0,
            "strong counter-skew must flip the bit"
        );
        let sigmas = bench.pelgrom_sigmas();
        let x: Vec<f64> = dv.iter().zip(&sigmas).map(|(d, s)| d / s).collect();
        assert!(fails(&bench, PowerupPuf, &x));
    }

    #[test]
    fn hold_failures_need_more_mismatch_than_read_failures() {
        let bench = ReadStabilityBench::paper_cell();
        let read_killer = [0.0, -0.15, 0.0, 0.15, 0.0, 0.0];
        assert!(bench.margin(ReadSnm, &read_killer) < 0.0);
        let sigmas = bench.pelgrom_sigmas();
        let x: Vec<f64> = read_killer
            .iter()
            .zip(&sigmas)
            .map(|(d, s)| d / s)
            .collect();
        assert!(
            !fails(&bench, HoldSnm, &x),
            "a marginal read failure should still hold its state"
        );
        // Push much harder and retention breaks too.
        let x2: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        assert!(fails(&bench, HoldSnm, &x2));
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
                try_fails(&adaptive, HoldSnm, x),
                try_fails(&fixed, HoldSnm, x),
                "adaptive hold verdict drifted at {x:?}"
            );
            assert_eq!(
                try_fails(&adaptive, PowerupPuf, x),
                try_fails(&fixed, PowerupPuf, x),
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
            nominal.margin(ReadSnm, &dv).to_bits(),
            explicit.margin(ReadSnm, &dv).to_bits()
        );
    }

    #[test]
    fn heating_degrades_the_read_margin() {
        let cold = ReadStabilityBench::paper_cell();
        let hot = ReadStabilityBench::with_config(BenchConfig {
            temperature_delta_c: 100.0,
            ..BenchConfig::default()
        });
        let cold_m = cold.margin(ReadSnm, &[0.0; 6]);
        let hot_m = hot.margin(ReadSnm, &[0.0; 6]);
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
    fn bench_config_without_the_adaptive_switch_does_not_parse() {
        use serde::json::Value;
        let value = BenchConfig::default().to_value();
        assert_eq!(
            BenchConfig::from_value(&value),
            Some(BenchConfig::default())
        );
        let Value::Object(fields) = value else {
            panic!("a config serialises as an object");
        };
        let without = fields.into_iter().filter(|(k, _)| k != "adaptive");
        assert_eq!(
            BenchConfig::from_value(&Value::Object(without.collect())),
            None,
            "a missing switch must not silently turn the coarse pass off"
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
        assert!(bench.margin(ReadSnm, &read_dir) < 0.0);
        assert!(
            bench.margin(WriteMargin, &read_dir) > 0.0,
            "read-failing skew should still write"
        );
    }
}
