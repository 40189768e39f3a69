//! The scenario registry: named, versioned SRAM workloads.
//!
//! The paper only ever estimates one indicator — read-SNM failure at the
//! nominal operating point — but nothing upstream of the testbench cares
//! *which* margin the circuit bench extracts: the particle-filter
//! ensemble, the SVM oracle, the verdict caches and the serve layer
//! all consume an opaque [`Testbench`]. A [`Scenario`] names one
//! concrete indicator over the shared 6-D variability space, and
//! [`SramScenarioBench`] instantiates it on the common
//! [`ReadStabilityBench`] solver machinery, so every scenario inherits
//! batching, retry ladders, telemetry and the adaptive
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
//! indicators or across a semantic change to one. The enum itself lives
//! next to the circuit bench in `ecripse_spice::testbench`, where each
//! scenario is one row of the indicator table, and is re-exported here.
//! The full authoring contract — determinism, thread invariance, cache
//! keying — is documented in `SCENARIOS.md` at the repository root.

use crate::bench::{EffortSnapshot, EvalError, SolveEffort, Testbench};
use crate::sweep::SweepBench;
use ecripse_spice::testbench::{BenchConfig, ReadStabilityBench};
use rayon::prelude::*;

pub use ecripse_spice::testbench::{registry_digest, Scenario, UnknownScenario};

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

/// The scenario-dispatching SRAM testbench: one circuit bench, four
/// indicators. Every evaluation is one call of
/// [`ReadStabilityBench::try_fails_whitened`] with this bench's scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SramScenarioBench {
    inner: ReadStabilityBench,
    scenario: Scenario,
}

impl SramScenarioBench {
    /// Table I cell at the nominal supply.
    pub fn paper_cell(scenario: Scenario) -> Self {
        Self::with_config(scenario, BenchConfig::default())
    }

    /// Table I cell at a custom supply (Fig. 7 drops it to 0.5 V).
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
}

impl Testbench for SramScenarioBench {
    fn dim(&self) -> usize {
        6
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.try_fails(z)
            .unwrap_or_else(|e| panic!("{} evaluation failed: {e}", self.scenario))
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        // Each sample is an independent circuit evaluation — ideal for an
        // order-preserving parallel map.
        zs.par_iter().map(|z| self.fails(z)).collect()
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.try_fails_attempt(z, 0)
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        self.inner.try_fails_whitened(self.scenario, z, attempt)
    }

    fn solve_effort(&self) -> SolveEffort {
        let e = self.inner.effort();
        SolveEffort {
            newton_iters: e.newton_iters,
            factorisations: e.curve_solves,
        }
    }

    fn evaluate_detached(&self, z: &[f64]) -> Option<(Result<bool, EvalError>, EffortSnapshot)> {
        Some(self.inner.try_fails_whitened_detached(self.scenario, z, 0))
    }

    fn book(&self, receipt: &EffortSnapshot) {
        self.inner.book(receipt);
    }
}

impl SweepBench for SramScenarioBench {
    fn sigmas(&self) -> [f64; 6] {
        SramScenarioBench::sigmas(self)
    }

    fn with_private_ledger<T>(&self, point: impl FnOnce(&Self) -> T) -> T {
        let private = Self {
            inner: self.inner.on_fresh_ledger(),
            scenario: self.scenario,
        };
        let out = point(&private);
        self.inner.book(&private.inner.effort());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Eight fixed whitened points: nominal, bulk draws, and points near
    /// each scenario's failure shell (where the adaptive pass escalates).
    const GOLDEN_POINTS: [[f64; 6]; 8] = [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.2, -1.8, 0.4, 0.9, -0.6, 1.1],
        [2.70, -2.70, -2.70, 2.70, 0.0, 0.0],
        [2.71, -2.71, -2.71, 2.71, 0.0, 0.0],
        [-5.08, 0.0, 0.0, 0.0, 5.08, 0.0],
        [0.0, 0.57, 0.0, -0.57, 0.0, 0.0],
        [7.39, -7.39, -7.39, 7.39, 0.0, 0.0],
        [-2.5, 0.7, 1.9, -0.3, 2.2, -1.4],
    ];

    /// Pinned outcome of one case: verdict and the deltas of
    /// (newton_iters, curve_solves, coarse_accepts, escalations) it adds
    /// to the bench's effort ledger.
    type GoldenCase = (bool, [u64; 4]);

    /// Per scenario (registry order), per point, per attempt 0..=3.
    /// Row `(scenario * 8 + point) * 4 + attempt`.
    const GOLDEN: [GoldenCase; 128] = [
        (false, [124, 62, 1, 0]),
        (false, [546, 244, 0, 0]),
        (false, [926, 488, 0, 0]),
        (false, [926, 488, 0, 0]),
        (false, [126, 62, 1, 0]),
        (false, [542, 244, 0, 0]),
        (false, [941, 488, 0, 0]),
        (false, [941, 488, 0, 0]),
        (false, [339, 184, 0, 1]),
        (false, [529, 244, 0, 0]),
        (false, [922, 488, 0, 0]),
        (false, [922, 488, 0, 0]),
        (true, [339, 184, 0, 1]),
        (true, [528, 244, 0, 0]),
        (true, [921, 488, 0, 0]),
        (true, [921, 488, 0, 0]),
        (false, [125, 62, 1, 0]),
        (false, [539, 244, 0, 0]),
        (false, [921, 488, 0, 0]),
        (false, [921, 488, 0, 0]),
        (false, [125, 62, 1, 0]),
        (false, [545, 244, 0, 0]),
        (false, [927, 488, 0, 0]),
        (false, [927, 488, 0, 0]),
        (true, [112, 62, 1, 0]),
        (true, [498, 244, 0, 0]),
        (true, [852, 488, 0, 0]),
        (true, [852, 488, 0, 0]),
        (false, [122, 62, 1, 0]),
        (false, [539, 244, 0, 0]),
        (false, [919, 488, 0, 0]),
        (false, [919, 488, 0, 0]),
        (false, [118, 62, 1, 0]),
        (false, [542, 244, 0, 0]),
        (false, [878, 488, 0, 0]),
        (false, [878, 488, 0, 0]),
        (false, [118, 62, 1, 0]),
        (false, [530, 244, 0, 0]),
        (false, [876, 488, 0, 0]),
        (false, [876, 488, 0, 0]),
        (false, [120, 62, 1, 0]),
        (false, [514, 244, 0, 0]),
        (false, [873, 488, 0, 0]),
        (false, [873, 488, 0, 0]),
        (false, [119, 62, 1, 0]),
        (false, [514, 244, 0, 0]),
        (false, [870, 488, 0, 0]),
        (false, [870, 488, 0, 0]),
        (false, [120, 62, 1, 0]),
        (false, [538, 244, 0, 0]),
        (false, [897, 488, 0, 0]),
        (false, [897, 488, 0, 0]),
        (false, [119, 62, 1, 0]),
        (false, [539, 244, 0, 0]),
        (false, [876, 488, 0, 0]),
        (false, [876, 488, 0, 0]),
        (true, [411, 184, 0, 1]),
        (true, [459, 244, 0, 0]),
        (false, [771, 488, 0, 0]),
        (false, [771, 488, 0, 0]),
        (false, [118, 62, 1, 0]),
        (false, [530, 244, 0, 0]),
        (false, [877, 488, 0, 0]),
        (false, [877, 488, 0, 0]),
        (false, [109, 62, 1, 0]),
        (false, [510, 244, 0, 0]),
        (false, [908, 488, 0, 0]),
        (false, [908, 488, 0, 0]),
        (false, [110, 62, 1, 0]),
        (false, [502, 244, 0, 0]),
        (false, [892, 488, 0, 0]),
        (false, [892, 488, 0, 0]),
        (false, [107, 62, 1, 0]),
        (false, [484, 244, 0, 0]),
        (false, [858, 488, 0, 0]),
        (false, [858, 488, 0, 0]),
        (false, [107, 62, 1, 0]),
        (false, [484, 244, 0, 0]),
        (false, [857, 488, 0, 0]),
        (false, [857, 488, 0, 0]),
        (true, [331, 184, 0, 1]),
        (true, [522, 244, 0, 0]),
        (true, [952, 488, 0, 0]),
        (true, [952, 488, 0, 0]),
        (false, [110, 62, 1, 0]),
        (false, [512, 244, 0, 0]),
        (false, [913, 488, 0, 0]),
        (false, [913, 488, 0, 0]),
        (false, [100, 62, 1, 0]),
        (false, [435, 244, 0, 0]),
        (false, [770, 488, 0, 0]),
        (false, [770, 488, 0, 0]),
        (false, [124, 62, 1, 0]),
        (false, [523, 244, 0, 0]),
        (false, [940, 488, 0, 0]),
        (false, [940, 488, 0, 0]),
        (false, [120, 62, 1, 0]),
        (false, [540, 244, 0, 0]),
        (false, [887, 488, 0, 0]),
        (false, [887, 488, 0, 0]),
        (false, [120, 62, 1, 0]),
        (false, [528, 244, 0, 0]),
        (false, [876, 488, 0, 0]),
        (false, [876, 488, 0, 0]),
        (false, [121, 62, 1, 0]),
        (false, [513, 244, 0, 0]),
        (false, [870, 488, 0, 0]),
        (false, [870, 488, 0, 0]),
        (false, [121, 62, 1, 0]),
        (false, [512, 244, 0, 0]),
        (false, [867, 488, 0, 0]),
        (false, [867, 488, 0, 0]),
        (true, [122, 62, 1, 0]),
        (true, [541, 244, 0, 0]),
        (true, [909, 488, 0, 0]),
        (true, [909, 488, 0, 0]),
        (true, [324, 184, 0, 1]),
        (true, [541, 244, 0, 0]),
        (true, [887, 488, 0, 0]),
        (true, [887, 488, 0, 0]),
        (false, [106, 62, 1, 0]),
        (false, [457, 244, 0, 0]),
        (false, [769, 488, 0, 0]),
        (false, [769, 488, 0, 0]),
        (true, [120, 62, 1, 0]),
        (true, [534, 244, 0, 0]),
        (true, [886, 488, 0, 0]),
        (true, [886, 488, 0, 0]),
    ];

    #[test]
    fn scenario_routing_matches_the_golden_table() {
        for (si, s) in Scenario::ALL.into_iter().enumerate() {
            let bench = SramScenarioBench::paper_cell(s);
            for (pi, z) in GOLDEN_POINTS.iter().enumerate() {
                for attempt in 0..4 {
                    let before = bench.circuit().effort();
                    let solve_before = bench.solve_effort();
                    let verdict = bench.try_fails_attempt(z, attempt).expect("case evaluates");
                    let after = bench.circuit().effort();
                    let solve = bench.solve_effort().delta(&solve_before);
                    let delta = [
                        after.newton_iters - before.newton_iters,
                        after.curve_solves - before.curve_solves,
                        after.coarse_accepts - before.coarse_accepts,
                        after.escalations - before.escalations,
                    ];
                    assert_eq!(
                        [solve.newton_iters, solve.factorisations],
                        [delta[0], delta[1]],
                        "solve_effort disagrees with the circuit ledger"
                    );
                    assert_eq!(
                        (verdict, delta),
                        GOLDEN[(si * 8 + pi) * 4 + attempt],
                        "{s} point {pi} attempt {attempt}"
                    );
                }
            }
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
    fn scenario_retry_ladder_preserves_verdicts() {
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
