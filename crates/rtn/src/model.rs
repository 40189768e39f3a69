//! The cell-level RTN threshold-shift sampler (Eqs. 9–10).
//!
//! For each transistor `d` with gate area `A_d`:
//!
//! * mean trap count `λ_d = λ·A_d` (Table I: `λ = 4×10⁻³ nm⁻²`, so the
//!   30×16 nm devices average 1.92 traps);
//! * per-trap capture probability `p_d = τ_c/(τ_c+τ_e)` after duty
//!   mixing (Eqs. 7–8) with the device's channel-ON fraction;
//! * captured-defect count `N_eff ~ Pois(p_d·λ_d)` (Eq. 10 — thinning a
//!   Poisson trap population by the capture probability is again
//!   Poisson);
//! * threshold shift `ΔV_TH = quantum_d · N_eff` with
//!   `quantum_d = κ·q/(C_ox·A_d)` (Eq. 9, scaled by the sensitivity
//!   calibration κ shared with the RDF sigmas — see
//!   [`ecripse_spice::ptm::SENSITIVITY_CALIBRATION`]).
//!
//! Captures always *raise* the threshold, so RTN shifts are non-negative
//! and RTN can only weaken devices.

use crate::duty::CellDutyMap;
use crate::trap::TrapTimeConstants;
use ecripse_spice::ptm::{paper_geometry, COX, SENSITIVITY_CALIBRATION, TRAP_DENSITY};
use ecripse_spice::sram::CellDevice;
use ecripse_stats::sample_poisson;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-device RTN parameters derived from geometry and duty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceRtn {
    /// Poisson mean of the captured-defect count `p_d·λ_d`.
    pub poisson_mean: f64,
    /// Threshold shift per captured defect \[V\].
    pub quantum: f64,
}

impl DeviceRtn {
    /// Expected threshold shift \[V\].
    pub fn mean_shift(&self) -> f64 {
        self.poisson_mean * self.quantum
    }
}

/// Which per-trap capture probability enters the Poisson rate of Eq. 10.
///
/// The paper prints `τ_c/(τ_c+τ_e)`; the steady-state dwell fraction of
/// the two-state process is `τ_e/(τ_c+τ_e)`. With the Table I constants
/// the two conventions assign RTN predominantly to the mostly-OFF
/// devices versus the mostly-ON devices respectively — the duty-ratio
/// curve keeps its bilateral symmetry either way, but its phase flips.
/// The reproduction follows the paper; the ablation binary quantifies
/// the alternative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum OccupancyConvention {
    /// `τ_c/(τ_c+τ_e)` — Eq. 10 exactly as printed (default).
    #[default]
    PaperEq10,
    /// `τ_e/(τ_c+τ_e)` — the steady-state captured-dwell fraction.
    DwellFraction,
}

/// How much each captured trap shifts the threshold.
///
/// The paper's Eq. 9 gives every trap the same quantum `q/(C_ox·L·W)`;
/// measured RTN amplitudes are approximately *exponentially* distributed
/// around that mean (trap depth varies). The exponential variant keeps
/// the mean shift identical but fattens the tail — an extension for
/// sensitivity studies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AmplitudeModel {
    /// Every captured trap shifts by exactly the Eq. 9 quantum (paper).
    #[default]
    FixedQuantum,
    /// Per-trap amplitudes drawn i.i.d. from an exponential distribution
    /// whose mean is the Eq. 9 quantum.
    Exponential,
}

/// RTN sampler for a whole 6T cell at a fixed bias (duty) condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtnCellModel {
    devices: [DeviceRtn; 6],
    duty: CellDutyMap,
    traps: TrapTimeConstants,
    include_access: bool,
    convention: OccupancyConvention,
    amplitude: AmplitudeModel,
}

impl RtnCellModel {
    /// Builds the paper's model (Table I geometry, trap density, time
    /// constants, calibration) at duty ratio `alpha`.
    ///
    /// Access transistors carry **no RTN** in this model: weakening a
    /// pass gate *raises* the read margin (the textbook cell-ratio
    /// effect), so access RTN would partially *cancel* the degradation —
    /// while the paper reports a strictly worsened failure probability,
    /// implying access RTN was negligible in its setup. The substitution
    /// is documented in `DESIGN.md`; use
    /// [`Self::paper_model_with_access_rtn`] for the ablation that
    /// includes it.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn paper_model(alpha: f64) -> Self {
        Self::new(
            CellDutyMap::new(alpha),
            TrapTimeConstants::paper_values(),
            false,
        )
    }

    /// The paper's model with RTN on the access transistors as well —
    /// the ablation variant (see [`Self::paper_model`]).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn paper_model_with_access_rtn(alpha: f64) -> Self {
        Self::new(
            CellDutyMap::new(alpha),
            TrapTimeConstants::paper_values(),
            true,
        )
    }

    /// Builds a model from an explicit duty map and trap constants;
    /// `include_access` controls whether the pass gates carry traps.
    ///
    /// # Panics
    ///
    /// Panics if the trap constants fail validation.
    pub fn new(duty: CellDutyMap, traps: TrapTimeConstants, include_access: bool) -> Self {
        Self::with_convention(duty, traps, include_access, OccupancyConvention::PaperEq10)
    }

    /// Builds a model with an explicit [`OccupancyConvention`].
    ///
    /// # Panics
    ///
    /// Panics if the trap constants fail validation.
    pub fn with_convention(
        duty: CellDutyMap,
        traps: TrapTimeConstants,
        include_access: bool,
        convention: OccupancyConvention,
    ) -> Self {
        traps.validate().expect("invalid trap time constants");
        let devices = CellDevice::ALL.map(|d| {
            let geo = paper_geometry(d.role());
            let mixed = traps.mixed(duty.on_fraction(d));
            let occupancy = match convention {
                OccupancyConvention::PaperEq10 => mixed.occupancy(),
                OccupancyConvention::DwellFraction => mixed.captured_dwell_fraction(),
            };
            let is_access = matches!(d, CellDevice::AccessL | CellDevice::AccessR);
            let traps_mean = if is_access && !include_access {
                0.0
            } else {
                occupancy * geo.mean_traps(TRAP_DENSITY)
            };
            DeviceRtn {
                poisson_mean: traps_mean,
                quantum: SENSITIVITY_CALIBRATION * geo.single_trap_dvth(COX),
            }
        });
        Self {
            devices,
            duty,
            traps,
            include_access,
            convention,
            amplitude: AmplitudeModel::FixedQuantum,
        }
    }

    /// Returns a copy using the given per-trap [`AmplitudeModel`].
    pub fn with_amplitude_model(mut self, amplitude: AmplitudeModel) -> Self {
        self.amplitude = amplitude;
        self
    }

    /// The occupancy convention in use.
    pub fn convention(&self) -> OccupancyConvention {
        self.convention
    }

    /// The per-trap amplitude model in use.
    pub fn amplitude_model(&self) -> AmplitudeModel {
        self.amplitude
    }

    /// The duty map this model was built for.
    pub fn duty(&self) -> &CellDutyMap {
        &self.duty
    }

    /// The trap time constants in use.
    pub fn traps(&self) -> &TrapTimeConstants {
        &self.traps
    }

    /// Per-device derived parameters in canonical order.
    pub fn devices(&self) -> &[DeviceRtn; 6] {
        &self.devices
    }

    /// Draws one RTN threshold-shift vector \[V\], canonical device order.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> [f64; 6] {
        match self.amplitude {
            AmplitudeModel::FixedQuantum => self
                .devices
                .map(|d| d.quantum * sample_poisson(rng, d.poisson_mean) as f64),
            AmplitudeModel::Exponential => self.devices.map(|d| {
                let n = sample_poisson(rng, d.poisson_mean);
                let mut shift = 0.0;
                for _ in 0..n {
                    // Exp(mean = quantum) via inverse CDF.
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    shift += -d.quantum * u.ln();
                }
                shift
            }),
        }
    }

    /// Expected shift vector \[V\].
    pub fn mean_shift(&self) -> [f64; 6] {
        self.devices.map(|d| d.mean_shift())
    }

    /// Probability that the whole cell sees *no* RTN shift at all
    /// (`Π_d e^{−mean_d}`) — useful as an analytic cross-check.
    pub fn probability_all_zero(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| (-d.poisson_mean).exp())
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shifts_are_nonnegative_multiples_of_quantum() {
        let m = RtnCellModel::paper_model(0.3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = m.sample(&mut rng);
            for (dv, dev) in s.iter().zip(m.devices()) {
                assert!(*dv >= 0.0);
                let n = dv / dev.quantum;
                assert!((n - n.round()).abs() < 1e-9, "non-integer trap count");
            }
        }
    }

    #[test]
    fn sample_mean_matches_analytic_mean() {
        let m = RtnCellModel::paper_model(0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mut acc = [0.0; 6];
        for _ in 0..n {
            let s = m.sample(&mut rng);
            for (a, v) in acc.iter_mut().zip(&s) {
                *a += v;
            }
        }
        for (a, want) in acc.iter().zip(m.mean_shift()) {
            let got = a / n as f64;
            assert!(
                (got - want).abs() < 0.05 * want.max(1e-4),
                "mean {got} vs analytic {want}"
            );
        }
    }

    #[test]
    fn duty_symmetry_mirrors_devices() {
        // Model at α and at 1−α must be mirror images device-wise.
        let a = RtnCellModel::paper_model(0.2);
        let b = RtnCellModel::paper_model(0.8);
        for d in CellDevice::ALL {
            let da = a.devices()[d as usize];
            let db = b.devices()[d.mirrored() as usize];
            assert!((da.poisson_mean - db.poisson_mean).abs() < 1e-12);
            assert!((da.quantum - db.quantum).abs() < 1e-15);
        }
    }

    #[test]
    fn mostly_off_driver_suffers_more_rtn() {
        // At α = 1 (always storing "1"), the left driver NL is always OFF
        // → high occupancy; the right driver NR is always ON → almost
        // none.
        let m = RtnCellModel::paper_model(1.0);
        let nl = m.devices()[CellDevice::DriverL as usize];
        let nr = m.devices()[CellDevice::DriverR as usize];
        assert!(nl.poisson_mean > 10.0 * nr.poisson_mean);
    }

    #[test]
    fn paper_magnitudes_at_half_duty() {
        // α = 0.5: occupancy = 0.065/(0.065+0.65) ≈ 0.0909; driver λ =
        // 1.92 → Poisson mean ≈ 0.1746.
        let m = RtnCellModel::paper_model(0.5);
        let d = m.devices()[CellDevice::DriverR as usize];
        assert!(
            (d.poisson_mean - 0.0909 * 1.92).abs() < 2e-3,
            "{}",
            d.poisson_mean
        );
        // Quantum: κ·q/(Cox·480 nm²) ≈ 1.8 × 9.2 mV.
        assert!(
            d.quantum > 14e-3 && d.quantum < 18e-3,
            "quantum {}",
            d.quantum
        );
    }

    #[test]
    fn probability_all_zero_matches_empirical() {
        let m = RtnCellModel::paper_model(0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let zeros = (0..n)
            .filter(|_| m.sample(&mut rng).iter().all(|v| *v == 0.0))
            .count() as f64
            / n as f64;
        let want = m.probability_all_zero();
        assert!((zeros - want).abs() < 0.01, "empirical {zeros} vs {want}");
    }

    #[test]
    fn loads_have_smaller_quantum_than_drivers() {
        // Quantum ∝ 1/area; loads are twice the width.
        let m = RtnCellModel::paper_model(0.5);
        let load = m.devices()[CellDevice::LoadL as usize];
        let driver = m.devices()[CellDevice::DriverL as usize];
        assert!((driver.quantum / load.quantum - 2.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod convention_tests {
    use super::*;
    use crate::duty::CellDutyMap;
    use crate::trap::TrapTimeConstants;
    use ecripse_spice::sram::CellDevice;

    fn model(convention: OccupancyConvention, alpha: f64) -> RtnCellModel {
        RtnCellModel::with_convention(
            CellDutyMap::new(alpha),
            TrapTimeConstants::paper_values(),
            false,
            convention,
        )
    }

    #[test]
    fn conventions_swap_which_devices_suffer() {
        // At α = 1 the right driver NR is always ON. The paper convention
        // assigns it almost no captured traps; the dwell-fraction
        // convention assigns it almost all of them.
        let paper = model(OccupancyConvention::PaperEq10, 1.0);
        let dwell = model(OccupancyConvention::DwellFraction, 1.0);
        let nr = CellDevice::DriverR as usize;
        assert!(paper.devices()[nr].poisson_mean < 0.1);
        assert!(dwell.devices()[nr].poisson_mean > 1.0);
    }

    #[test]
    fn conventions_sum_to_total_traps() {
        // occupancy + dwell fraction = 1 per trap, so the two models'
        // Poisson means add up to the full trap count per (non-access)
        // device.
        for alpha in [0.0, 0.3, 0.8] {
            let paper = model(OccupancyConvention::PaperEq10, alpha);
            let dwell = model(OccupancyConvention::DwellFraction, alpha);
            for d in [
                CellDevice::LoadL,
                CellDevice::DriverL,
                CellDevice::LoadR,
                CellDevice::DriverR,
            ] {
                let i = d as usize;
                let total = paper.devices()[i].poisson_mean + dwell.devices()[i].poisson_mean;
                let geo = ecripse_spice::ptm::paper_geometry(d.role());
                let want = geo.mean_traps(ecripse_spice::ptm::TRAP_DENSITY);
                assert!((total - want).abs() < 1e-9, "{d}: {total} vs {want}");
            }
        }
    }

    #[test]
    fn default_convention_is_the_papers() {
        let m = RtnCellModel::paper_model(0.5);
        assert_eq!(m.convention(), OccupancyConvention::PaperEq10);
    }
}

#[cfg(test)]
mod amplitude_tests {
    use super::*;
    use ecripse_spice::sram::CellDevice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_amplitudes_preserve_the_mean() {
        let fixed = RtnCellModel::paper_model(0.0);
        let exp = RtnCellModel::paper_model(0.0).with_amplitude_model(AmplitudeModel::Exponential);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let mut acc = [0.0; 6];
        for _ in 0..n {
            let s = exp.sample(&mut rng);
            for (a, v) in acc.iter_mut().zip(&s) {
                *a += v;
            }
        }
        for (a, want) in acc.iter().zip(fixed.mean_shift()) {
            let got = a / n as f64;
            assert!(
                (got - want).abs() < 0.05 * want.max(1e-4),
                "mean {got} vs {want}"
            );
        }
    }

    #[test]
    fn exponential_amplitudes_fatten_the_tail() {
        // Same mean, larger variance: per trap Var = quantum² on top of
        // the Poisson count variance.
        let dev = CellDevice::LoadL as usize; // highest rate at α = 0
        let mut rng = StdRng::seed_from_u64(13);
        let n = 100_000;
        let var = |m: &RtnCellModel, rng: &mut StdRng| {
            let mut s = 0.0;
            let mut s2 = 0.0;
            for _ in 0..n {
                let v = m.sample(rng)[dev];
                s += v;
                s2 += v * v;
            }
            let mean = s / n as f64;
            s2 / n as f64 - mean * mean
        };
        let fixed = var(&RtnCellModel::paper_model(0.0), &mut rng);
        let exp = var(
            &RtnCellModel::paper_model(0.0).with_amplitude_model(AmplitudeModel::Exponential),
            &mut rng,
        );
        assert!(
            exp > 1.5 * fixed,
            "exponential variance {exp:e} should exceed fixed {fixed:e}"
        );
    }

    #[test]
    fn default_is_fixed_quantum() {
        assert_eq!(
            RtnCellModel::paper_model(0.5).amplitude_model(),
            AmplitudeModel::FixedQuantum
        );
    }
}
