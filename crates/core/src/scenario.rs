//! The scenario registry: named, versioned SRAM workloads.
//!
//! The paper only ever estimates one indicator — read-SNM failure at the
//! nominal operating point — but nothing upstream of the testbench cares
//! *which* margin the circuit bench extracts: the particle-filter
//! ensemble, the SVM oracle, the memo/warm caches and the serve layer
//! all consume an opaque [`Testbench`]. A [`Scenario`] names one
//! concrete indicator over the shared 6-D variability space, and
//! [`SramScenarioBench`] instantiates it on the common
//! [`ReadStabilityBench`] solver machinery, so every scenario inherits
//! batching, retry ladders, warm seeding, telemetry and the adaptive
//! butterfly-resolution policy unchanged.
//!
//! Registered scenarios:
//!
//! | id | fails when | bias |
//! |----|------------|------|
//! | `read-snm` | read noise margin < 0 | word line high, bit lines precharged |
//! | `hold-snm` | retention margin < 0 | word line low |
//! | `write-margin` | write margin < 0 (residual eye survives the write) | word line high, left bit line low |
//! | `powerup-puf` | mismatch flips the skew-designed power-up state | word line low |
//!
//! Every scenario carries a **version**; id and version feed the
//! verdict-cache fingerprints ([`Scenario::tag_salt`],
//! [`registry_digest`]) so cached verdicts never migrate between
//! indicators or across a semantic change to one. The full authoring
//! contract — determinism, thread invariance, cache keying — is
//! documented in `SCENARIOS.md` at the repository root.

use crate::bench::{EvalError, SeedableBench, SolveEffort, Testbench};
use crate::sweep::SweepBench;
use ecripse_spice::butterfly::Butterfly;
use ecripse_spice::testbench::{BenchConfig, ReadStabilityBench};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A registered SRAM workload (indicator function) selectable per run.
///
/// Serialises as its stable kebab-case [`id`](Scenario::id) (the
/// vendored serde derive has no `rename_all`, so the impls are manual);
/// the default is the paper's [`Scenario::ReadSnm`].
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
    /// [`EcripseConfig`](crate::ecripse::EcripseConfig) by hand.
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Registry metadata of one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioInfo {
    /// The scenario.
    pub scenario: Scenario,
    /// Stable id.
    pub id: &'static str,
    /// Indicator version.
    pub version: u32,
    /// One-line description.
    pub summary: &'static str,
    /// Boundary-search radius that brackets this scenario's failures
    /// ([`Scenario::recommended_r_max`]).
    pub recommended_r_max: f64,
}

/// Metadata for every registered scenario, in registry order.
pub fn registry() -> Vec<ScenarioInfo> {
    Scenario::ALL
        .into_iter()
        .map(|s| ScenarioInfo {
            scenario: s,
            id: s.id(),
            version: s.version(),
            summary: s.summary(),
            recommended_r_max: s.recommended_r_max(),
        })
        .collect()
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

/// The scenario-dispatching SRAM testbench: one circuit bench, four
/// indicators.
///
/// For [`Scenario::ReadSnm`] every evaluation routes through exactly the
/// code paths of [`crate::bench::SramReadBench`], so verdicts — and the
/// whole estimation pipeline above them — are bit-identical to the
/// historical read bench.
#[derive(Debug, Clone, PartialEq)]
pub struct SramScenarioBench {
    inner: ReadStabilityBench,
    scenario: Scenario,
}

impl SramScenarioBench {
    /// Table I cell at the nominal supply.
    pub fn paper_cell(scenario: Scenario) -> Self {
        Self {
            inner: ReadStabilityBench::paper_cell(),
            scenario,
        }
    }

    /// Table I cell at a custom supply.
    pub fn at_vdd(scenario: Scenario, vdd: f64) -> Self {
        Self {
            inner: ReadStabilityBench::at_vdd(vdd),
            scenario,
        }
    }

    /// Full circuit-bench configuration control (grid, supply,
    /// temperature, adaptive resolution policy).
    ///
    /// # Panics
    ///
    /// See [`ReadStabilityBench::with_config`].
    pub fn with_config(scenario: Scenario, config: BenchConfig) -> Self {
        Self {
            inner: ReadStabilityBench::with_config(config),
            scenario,
        }
    }

    /// The scenario this bench evaluates.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The per-device sigmas that define the whitening \[V\].
    pub fn sigmas(&self) -> [f64; 6] {
        self.inner.pelgrom_sigmas()
    }

    /// Access to the underlying circuit bench.
    pub fn circuit(&self) -> &ReadStabilityBench {
        &self.inner
    }

    fn dispatch_try(&self, z: &[f64]) -> Result<bool, EvalError> {
        match self.scenario {
            Scenario::ReadSnm => self.inner.try_fails_whitened(z),
            Scenario::HoldSnm => self.inner.try_hold_fails_whitened(z),
            Scenario::WriteMargin => self.inner.try_write_fails_whitened(z),
            Scenario::PowerupPuf => self.inner.try_powerup_fails_whitened(z),
        }
    }

    fn dispatch_plain(&self, z: &[f64]) -> bool {
        match self.scenario {
            Scenario::ReadSnm => self.inner.fails_whitened(z),
            Scenario::HoldSnm => self.inner.hold_fails_whitened(z),
            Scenario::WriteMargin => self.inner.write_fails_whitened(z),
            Scenario::PowerupPuf => self.inner.powerup_fails_whitened(z),
        }
    }
}

/// Highest grid-escalation exponent (mirrors the read/write benches).
const MAX_GRID_ESCALATION: usize = 2;

impl Testbench for SramScenarioBench {
    fn dim(&self) -> usize {
        6
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.dispatch_plain(z)
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        zs.par_iter().map(|z| self.dispatch_plain(z)).collect()
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.dispatch_try(z)
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        let grid = self.inner.config().grid_points << attempt.min(MAX_GRID_ESCALATION);
        match self.scenario {
            Scenario::ReadSnm => self.inner.try_fails_whitened_at(z, grid),
            Scenario::HoldSnm => self.inner.try_hold_fails_whitened_at(z, grid),
            Scenario::WriteMargin => self.inner.try_write_fails_whitened_at(z, grid),
            Scenario::PowerupPuf => self.inner.try_powerup_fails_whitened_at(z, grid),
        }
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        zs.par_iter().map(|z| self.dispatch_try(z)).collect()
    }

    fn solve_effort(&self) -> SolveEffort {
        let e = self.inner.effort();
        SolveEffort {
            newton_iters: e.newton_iters,
            factorisations: e.curve_solves,
            warm_start_seeds: e.seeded_curves,
        }
    }
}

impl SeedableBench for SramScenarioBench {
    type Seed = Butterfly;

    fn try_fails_seeded(
        &self,
        z: &[f64],
        seed: Option<&Butterfly>,
    ) -> Result<(bool, Option<Butterfly>), EvalError> {
        match self.scenario {
            Scenario::ReadSnm => self.inner.try_fails_whitened_seeded(z, seed),
            Scenario::HoldSnm => self.inner.try_hold_fails_whitened_seeded(z, seed),
            Scenario::WriteMargin => self.inner.try_write_fails_whitened_seeded(z, seed),
            Scenario::PowerupPuf => self.inner.try_powerup_fails_whitened_seeded(z, seed),
        }
    }
}

impl SweepBench for SramScenarioBench {
    fn sigmas(&self) -> [f64; 6] {
        SramScenarioBench::sigmas(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::SramReadBench;

    #[test]
    fn ids_round_trip_and_default_is_read_snm() {
        assert_eq!(Scenario::default(), Scenario::ReadSnm);
        for s in Scenario::ALL {
            assert_eq!(Scenario::from_id(s.id()), Some(s));
            assert_eq!(s.id().parse::<Scenario>(), Ok(s));
            let json = serde_json::to_string(&s).expect("serialise");
            assert_eq!(json, format!("\"{}\"", s.id()));
            let back: Scenario = serde_json::from_str(&json).expect("deserialise");
            assert_eq!(back, s);
        }
        assert!(Scenario::from_id("nonsense").is_none());
        assert!("nonsense".parse::<Scenario>().is_err());
    }

    #[test]
    fn tag_salts_are_distinct() {
        let salts: Vec<u64> = Scenario::ALL.iter().map(|s| s.tag_salt()).collect();
        for i in 0..salts.len() {
            for j in (i + 1)..salts.len() {
                assert_ne!(salts[i], salts[j], "salt collision {i} vs {j}");
            }
        }
    }

    #[test]
    fn registry_lists_every_scenario_once() {
        let reg = registry();
        assert_eq!(reg.len(), Scenario::ALL.len());
        for (info, s) in reg.iter().zip(Scenario::ALL) {
            assert_eq!(info.scenario, s);
            assert_eq!(info.id, s.id());
            assert_eq!(info.version, s.version());
            assert!(!info.summary.is_empty());
        }
        assert_eq!(registry_digest(), registry_digest());
        assert_eq!(registry_digest().len(), 16);
    }

    #[test]
    fn read_scenario_matches_the_historical_read_bench() {
        let scenario = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        let read = SramReadBench::paper_cell();
        let zs: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                (0..6)
                    .map(|d| ((i * 6 + d) as f64 * 0.61).sin() * 4.0)
                    .collect()
            })
            .collect();
        assert_eq!(scenario.fails_batch(&zs), read.fails_batch(&zs));
        for z in &zs {
            assert_eq!(scenario.try_fails(z), read.try_fails(z));
        }
    }

    #[test]
    fn every_scenario_passes_nominal_and_fails_somewhere() {
        for s in Scenario::ALL {
            let bench = SramScenarioBench::paper_cell(s);
            assert_eq!(bench.dim(), 6);
            assert!(!bench.fails(&[0.0; 6]), "{s} fails at nominal");
            // Each indicator has *some* failure region within ~12σ.
            let dir = match s {
                Scenario::WriteMargin => [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                Scenario::PowerupPuf => [0.0, 1.0, 0.0, -1.0, 0.0, 0.0],
                _ => [1.0, -1.0, -1.0, 1.0, 0.0, 0.0],
            };
            let z: Vec<f64> = dir.iter().map(|d| d * 9.0).collect();
            assert!(bench.fails(&z), "{s} never fails at {z:?}");
        }
    }

    #[test]
    fn scenario_retry_ladder_and_seeding_preserve_verdicts() {
        for s in Scenario::ALL {
            let bench = SramScenarioBench::paper_cell(s);
            let z = [1.2, -1.8, 0.4, 0.9, -0.6, 1.1];
            let base = bench.try_fails(&z).expect("attempt 0");
            for attempt in 1..3 {
                assert_eq!(
                    bench.try_fails_attempt(&z, attempt).expect("retry"),
                    base,
                    "{s} verdict flipped at attempt {attempt}"
                );
            }
            let (cold, seed) = bench.try_fails_seeded(&z, None).expect("cold eval");
            assert_eq!(cold, base);
            let z2 = [1.25, -1.75, 0.4, 0.9, -0.6, 1.1];
            let (warm, _) = bench.try_fails_seeded(&z2, seed.as_ref()).expect("warm");
            assert_eq!(Ok(warm), bench.try_fails(&z2), "{s} seeded verdict drifted");
        }
    }

    #[test]
    fn scenario_bench_reports_solve_effort() {
        let bench = SramScenarioBench::paper_cell(Scenario::HoldSnm);
        let _ = bench.fails(&[0.5, -0.5, 0.0, 0.0, 0.0, 0.0]);
        let e = bench.solve_effort();
        assert!(e.factorisations > 0);
        assert!(e.newton_iters > e.factorisations);
    }
}
