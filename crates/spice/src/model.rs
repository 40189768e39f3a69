//! A smooth EKV-style MOSFET compact model.
//!
//! The EKV interpolation function covers weak, moderate and strong
//! inversion with one C¹-continuous expression, which keeps Newton
//! iterations and the 1-D transfer-curve solves of [`crate::sram`] robust:
//!
//! ```text
//! I_D = I_S · [F((V_P − V_S)/V_t) − F((V_P − V_D)/V_t)] · (1 + λ·|V_DS|)
//! F(u) = ln²(1 + e^{u/2}),   V_P = (V_G − V_TH)/n,   I_S = 2·n·β·V_t²
//! ```
//!
//! All node voltages are bulk-referenced; PMOS devices are evaluated by
//! mirroring voltages about the bulk. The model is symmetric in
//! drain/source (swapping `V_D` and `V_S` flips the current's sign), so
//! pass transistors work without terminal bookkeeping.
//!
//! `F'(u) = ln(1 + e^{u/2})·σ(u/2)` shares its softplus with `F`, and the
//! softplus and the logistic `σ` are both functions of one exponential
//! `e^{−|u/2|}`. So a device evaluation costs one `exp` and one `ln_1p`
//! per EKV argument, four library calls in all, instead of recomputing
//! the softplus for `F` and `F'` separately. For `0 ≤ u/2 ≤ 30` the
//! softplus is formed as `u/2 + ln(1 + e^{−u/2})`, which differs from the
//! direct `ln(1 + e^{u/2})` in the last bits only (below 10⁻¹⁵
//! relative); everywhere else the result is bit-identical to the direct
//! formulas. Verdicts read only the sign of a noise margin, and every
//! transfer-curve root moves by far less than the solver resolution.

use serde::{Deserialize, Serialize};

/// Thermal voltage `kT/q` at 300 K, in volts.
pub const THERMAL_VOLTAGE: f64 = 0.025_852;

/// Polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosfetKind {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl std::fmt::Display for MosfetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosfetKind::Nmos => write!(f, "nmos"),
            MosfetKind::Pmos => write!(f, "pmos"),
        }
    }
}

/// Technology parameters of one device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosfetParams {
    /// Polarity.
    pub kind: MosfetKind,
    /// Zero-bias threshold voltage magnitude \[V\] (positive for both
    /// polarities; the sign convention is handled by the evaluator).
    pub vth0: f64,
    /// Transconductance parameter `μ·C_ox` \[A/V²\].
    pub kp: f64,
    /// Subthreshold slope factor `n` (dimensionless, ≥ 1).
    pub slope_n: f64,
    /// Channel-length modulation \[1/V\].
    pub lambda: f64,
    /// Drain-induced barrier lowering \[V/V\]: the effective threshold is
    /// reduced by `dibl·|V_DS|`. Dominant short-channel effect at 16 nm
    /// and the reason a ratio-1 cell has a thin read margin.
    pub dibl: f64,
    /// Thermal voltage \[V\]; exposed so tests can exaggerate or suppress
    /// subthreshold effects.
    pub v_thermal: f64,
}

impl MosfetParams {
    /// Validates physical sanity of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.vth0.is_finite() && self.vth0 > 0.0) {
            return Err(format!("vth0 must be positive, got {}", self.vth0));
        }
        if !(self.kp.is_finite() && self.kp > 0.0) {
            return Err(format!("kp must be positive, got {}", self.kp));
        }
        if !(self.slope_n.is_finite() && self.slope_n >= 1.0) {
            return Err(format!("slope factor must be ≥ 1, got {}", self.slope_n));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(format!("lambda must be ≥ 0, got {}", self.lambda));
        }
        if !(self.dibl.is_finite() && self.dibl >= 0.0) {
            return Err(format!("dibl must be ≥ 0, got {}", self.dibl));
        }
        if !(self.v_thermal.is_finite() && self.v_thermal > 0.0) {
            return Err(format!(
                "v_thermal must be positive, got {}",
                self.v_thermal
            ));
        }
        Ok(())
    }
}

/// One sized MOSFET instance with an optional threshold-voltage shift.
///
/// `delta_vth` is the *total* shift applied on top of `params.vth0`
/// (process variation plus RTN); positive values always weaken the device,
/// for either polarity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mosfet {
    /// Technology parameters.
    pub params: MosfetParams,
    /// Channel width \[m\].
    pub width: f64,
    /// Channel length \[m\].
    pub length: f64,
    /// Threshold shift \[V\]; positive weakens the device.
    pub delta_vth: f64,
}

/// Drain current and its derivatives with respect to the three terminal
/// voltages, as needed for Newton stamping.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DrainCurrent {
    /// Current into the drain terminal \[A\].
    pub id: f64,
    /// ∂I_D/∂V_G \[S\].
    pub gm: f64,
    /// ∂I_D/∂V_D \[S\].
    pub gds: f64,
    /// ∂I_D/∂V_S \[S\].
    pub gs: f64,
}

/// The EKV interpolation `F(u) = ln²(1 + e^{u/2})` and its derivative
/// `F'(u) = ln(1 + e^{u/2}) · σ(u/2)`, sharing one exponential.
///
/// With `x = u/2`, the softplus `ln(1 + e^x)` and the logistic `σ(x)` are
/// both functions of `e^{−|x|}`, so one `exp` and one `ln_1p` serve both:
///
/// * `x < 0`: `e = e^x`, softplus `ln_1p(e)` (`e` itself below −30,
///   within 5·10⁻¹⁴ relative) and `σ = e/(1 + e)`;
/// * `0 ≤ x ≤ 30`: `e = e^{−x}`, softplus `x + ln_1p(e)` and
///   `σ = 1/(1 + e)`;
/// * `x > 30` (or NaN): softplus `x`, `σ = 1/(1 + e^{−x})`.
fn ekv_pair(u: f64) -> (f64, f64) {
    let x = 0.5 * u;
    let (softplus, sigma) = if x < 0.0 {
        let e = x.exp();
        let l = if x < -30.0 { e } else { e.ln_1p() };
        (l, e / (1.0 + e))
    } else {
        let e = (-x).exp();
        let l = if x <= 30.0 { x + e.ln_1p() } else { x };
        (l, 1.0 / (1.0 + e))
    };
    (softplus * softplus, softplus * sigma)
}

/// Reference softplus `ln(1 + e^x)`, one exponential per call: the
/// oracle [`ekv_pair`] is tested against.
#[cfg(test)]
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Reference logistic `1/(1 + e^{−x})`.
#[cfg(test)]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Reference EKV interpolation `F(u) = ln²(1 + e^{u/2})`.
#[cfg(test)]
fn ekv_f(u: f64) -> f64 {
    let l = softplus(0.5 * u);
    l * l
}

/// Reference derivative `F'(u) = ln(1 + e^{u/2}) · σ(u/2)`.
#[cfg(test)]
fn ekv_fp(u: f64) -> f64 {
    softplus(0.5 * u) * sigmoid(0.5 * u)
}

impl Mosfet {
    /// Creates a device instance with zero threshold shift.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`MosfetParams::validate`] or the
    /// geometry is non-positive.
    pub fn new(params: MosfetParams, width: f64, length: f64) -> Self {
        params.validate().expect("invalid MOSFET parameters");
        assert!(
            width > 0.0 && length > 0.0 && width.is_finite() && length.is_finite(),
            "geometry must be positive, got W={width} L={length}"
        );
        Self {
            params,
            width,
            length,
            delta_vth: 0.0,
        }
    }

    /// Returns a copy with the given total threshold shift.
    pub fn with_delta_vth(mut self, delta_vth: f64) -> Self {
        self.delta_vth = delta_vth;
        self
    }

    /// Effective threshold magnitude including the shift.
    pub fn vth(&self) -> f64 {
        self.params.vth0 + self.delta_vth
    }

    /// Gain factor `β = kp·W/L`.
    pub fn beta(&self) -> f64 {
        self.params.kp * self.width / self.length
    }

    /// Evaluates the drain current (positive into the drain for current
    /// flowing drain→source in an NMOS) and its derivatives.
    ///
    /// Voltages are absolute node voltages with the bulk of NMOS devices
    /// at 0 V and the bulk of PMOS devices at `vdd_bulk`.
    pub fn eval(&self, vg: f64, vd: f64, vs: f64, vdd_bulk: f64) -> DrainCurrent {
        self.eval_with_beta(self.beta(), vg, vd, vs, vdd_bulk)
    }

    /// [`Self::eval`] with the gain factor computed once by the caller:
    /// `beta` must be [`Self::beta`], so the result is the same bits.
    pub(crate) fn eval_with_beta(
        &self,
        beta: f64,
        vg: f64,
        vd: f64,
        vs: f64,
        vdd_bulk: f64,
    ) -> DrainCurrent {
        match self.params.kind {
            MosfetKind::Nmos => self.eval_n(beta, vg, vd, vs),
            MosfetKind::Pmos => {
                // Mirror about the PMOS bulk: an NMOS with primed voltages.
                let out = self.eval_n(beta, vdd_bulk - vg, vdd_bulk - vd, vdd_bulk - vs);
                // I'_D (into the mirrored drain) corresponds to −I_D; each
                // voltage mirror also flips the derivative sign, so the
                // conductances come back positive-definite.
                DrainCurrent {
                    id: -out.id,
                    gm: out.gm,
                    gds: out.gds,
                    gs: out.gs,
                }
            }
        }
    }

    /// NMOS evaluation in bulk-referenced coordinates, with `beta` =
    /// [`Self::beta`].
    fn eval_n(&self, beta: f64, vg: f64, vd: f64, vs: f64) -> DrainCurrent {
        let p = &self.params;
        let vt = p.v_thermal;
        let n = p.slope_n;
        let vds = vd - vs;
        let sgn = sign_smooth(vds);
        // DIBL lowers the barrier with drain bias.
        let vth_eff = self.vth() - p.dibl * vds.abs();
        let vp = (vg - vth_eff) / n;
        let is = 2.0 * n * beta * vt * vt;

        let uf = (vp - vs) / vt;
        let ur = (vp - vd) / vt;
        let (ff, fpf) = ekv_pair(uf);
        let (fr, fpr) = ekv_pair(ur);

        let clm = 1.0 + p.lambda * vds.abs();
        let dclm_dvd = p.lambda * sgn;
        let dclm_dvs = -dclm_dvd;
        // ∂V_P/∂V_D = dibl·sgn/n, ∂V_P/∂V_S = −dibl·sgn/n.
        let dvp_dvd = p.dibl * sgn / n;

        let core = is * (ff - fr);
        let id = core * clm;
        // ∂/∂VG: uf and ur both move through VP with slope 1/(n·vt).
        let gm = is * (fpf - fpr) / (n * vt) * clm;
        // ∂/∂VD: ur moves with (∂VP/∂VD − 1)/vt, uf with ∂VP/∂VD/vt.
        let gds = is / vt * (fpf * dvp_dvd - fpr * (dvp_dvd - 1.0)) * clm + core * dclm_dvd;
        // ∂/∂VS: uf moves with (−∂VP/∂VD − 1)/vt, ur with −∂VP/∂VD/vt.
        let gs = is / vt * (fpf * (-dvp_dvd - 1.0) + fpr * dvp_dvd) * clm + core * dclm_dvs;
        DrainCurrent { id, gm, gds, gs }
    }
}

/// The plain sign of `x`, with `sign(0) = 0`: the derivative the CLM and
/// DIBL terms take for `|V_DS|`. It is not smooth — `|V_DS|` has a kink
/// at 0 — but at `V_DS = 0` it picks the average of the one-sided slopes.
fn sign_smooth(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::new(
            MosfetParams {
                kind: MosfetKind::Nmos,
                vth0: 0.43,
                kp: 7.0e-4,
                slope_n: 1.35,
                lambda: 0.15,
                dibl: 0.15,
                v_thermal: THERMAL_VOLTAGE,
            },
            60e-9,
            16e-9,
        )
    }

    fn pmos() -> Mosfet {
        Mosfet::new(
            MosfetParams {
                kind: MosfetKind::Pmos,
                vth0: 0.44,
                kp: 3.2e-4,
                slope_n: 1.35,
                lambda: 0.15,
                dibl: 0.15,
                v_thermal: THERMAL_VOLTAGE,
            },
            60e-9,
            16e-9,
        )
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let m = nmos();
        for vg in [0.0, 0.3, 0.7] {
            let out = m.eval(vg, 0.4, 0.4, 0.7);
            assert!(out.id.abs() < 1e-18, "I(vds=0) = {}", out.id);
        }
    }

    #[test]
    fn current_increases_with_gate_drive() {
        let m = nmos();
        let lo = m.eval(0.3, 0.7, 0.0, 0.7).id;
        let mid = m.eval(0.5, 0.7, 0.0, 0.7).id;
        let hi = m.eval(0.7, 0.7, 0.0, 0.7).id;
        assert!(lo < mid && mid < hi);
        assert!(lo > 0.0);
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        // Below threshold, decade change per ~n·Vt·ln(10) of gate bias.
        // Stay well below the DIBL-lowered effective threshold
        // (0.43 − 0.15·0.7 ≈ 0.33 V) so both points are in weak inversion.
        let m = nmos();
        let i1 = m.eval(0.10, 0.7, 0.0, 0.7).id;
        let dec = m.params.slope_n * m.params.v_thermal * std::f64::consts::LN_10;
        let i2 = m.eval(0.10 + dec, 0.7, 0.0, 0.7).id;
        let ratio = i2 / i1;
        assert!(
            (ratio - 10.0).abs() < 1.5,
            "one decade per n·Vt·ln10 expected, got ratio {ratio}"
        );
    }

    #[test]
    fn drain_source_antisymmetry() {
        // Swapping D and S flips the current sign exactly (CLM uses |VDS|).
        let m = nmos();
        let fwd = m.eval(0.6, 0.5, 0.1, 0.7).id;
        let rev = m.eval(0.6, 0.1, 0.5, 0.7).id;
        assert!((fwd + rev).abs() < 1e-12 * fwd.abs().max(1e-18));
    }

    #[test]
    fn saturation_current_flattens() {
        let m = nmos();
        // Output conductance deep in the triode region vs deep in
        // saturation; λ and DIBL keep the latter finite but much smaller.
        let g_lin = m.eval(0.7, 0.02, 0.0, 0.7).gds;
        let g_sat = m.eval(0.7, 0.65, 0.0, 0.7).gds;
        assert!(
            g_sat < 0.5 * g_lin,
            "saturation gds {g_sat} vs triode gds {g_lin}"
        );
    }

    #[test]
    fn delta_vth_weakens_both_polarities() {
        let n0 = nmos().eval(0.7, 0.7, 0.0, 0.7).id;
        let n1 = nmos().with_delta_vth(0.05).eval(0.7, 0.7, 0.0, 0.7).id;
        assert!(n1 < n0);

        // PMOS pulling up: source at VDD, drain low, gate at 0.
        let p0 = pmos().eval(0.0, 0.2, 0.7, 0.7).id;
        let p1 = pmos().with_delta_vth(0.05).eval(0.0, 0.2, 0.7, 0.7).id;
        // PMOS drain current is negative (current flows out of drain node
        // convention: into drain is negative when sourcing current).
        assert!(p0 < 0.0);
        assert!(p1.abs() < p0.abs());
    }

    #[test]
    fn pmos_off_when_gate_high() {
        let p = pmos();
        let on = p.eval(0.0, 0.0, 0.7, 0.7).id.abs();
        let off = p.eval(0.7, 0.0, 0.7, 0.7).id.abs();
        assert!(off < on * 1e-3, "on={on:e} off={off:e}");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = nmos();
        let p = pmos();
        let h = 1e-7;
        for (dev, vg, vd, vs) in [
            (&m, 0.55, 0.6, 0.05),
            (&m, 0.25, 0.7, 0.0),
            (&m, 0.7, 0.05, 0.0),
            (&p, 0.1, 0.3, 0.7),
            (&p, 0.6, 0.1, 0.7),
        ] {
            let base = dev.eval(vg, vd, vs, 0.7);
            let dg =
                (dev.eval(vg + h, vd, vs, 0.7).id - dev.eval(vg - h, vd, vs, 0.7).id) / (2.0 * h);
            let dd =
                (dev.eval(vg, vd + h, vs, 0.7).id - dev.eval(vg, vd - h, vs, 0.7).id) / (2.0 * h);
            let ds =
                (dev.eval(vg, vd, vs + h, 0.7).id - dev.eval(vg, vd, vs - h, 0.7).id) / (2.0 * h);
            assert!(
                (base.gm - dg).abs() <= 1e-4 * base.gm.abs().max(1e-9) + 1e-9,
                "gm analytic {} vs fd {} at ({vg},{vd},{vs})",
                base.gm,
                dg
            );
            assert!((base.gds - dd).abs() <= 1e-4 * base.gds.abs().max(1e-9) + 1e-9);
            assert!((base.gs - ds).abs() <= 1e-4 * base.gs.abs().max(1e-9) + 1e-9);
        }
    }

    #[test]
    fn softplus_and_sigmoid_extremes_are_finite() {
        assert!(ekv_f(2000.0).is_finite());
        assert_eq!(ekv_f(-2000.0), 0.0);
        assert!(ekv_fp(2000.0).is_finite());
        assert_eq!(ekv_fp(-2000.0), 0.0);
        let (f, fp) = ekv_pair(2000.0);
        assert!(f.is_finite() && fp.is_finite());
        assert_eq!(ekv_pair(-2000.0), (0.0, 0.0));
    }

    #[test]
    fn ekv_pair_matches_the_reference_at_the_branch_edges() {
        // Bit-identical: the x < 0 branch, both x > 30 tails, the
        // infinities and ±0 (where e^{−x} = e^{x} = 1).
        for u in [
            -0.0,
            0.0,
            -60.0,
            -60.000_000_000_001,
            -59.999_999_999_999,
            60.000_000_000_001,
            -2000.0,
            2000.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::MIN_POSITIVE,
        ] {
            let (f, fp) = ekv_pair(u);
            assert_eq!(f.to_bits(), ekv_f(u).to_bits(), "F({u})");
            assert_eq!(fp.to_bits(), ekv_fp(u).to_bits(), "F'({u})");
        }
        // x = 30 is the last point of the rewritten branch.
        for u in [60.0, 59.999_999_999_999, f64::MIN_POSITIVE, 1e-300] {
            let (f, fp) = ekv_pair(u);
            assert!((f - ekv_f(u)).abs() <= 1e-15 * ekv_f(u), "F({u})");
            assert!((fp - ekv_fp(u)).abs() <= 1e-15 * ekv_fp(u), "F'({u})");
        }
        let (f, fp) = ekv_pair(f64::NAN);
        assert!(f.is_nan() && fp.is_nan());
        assert!(ekv_f(f64::NAN).is_nan() && ekv_fp(f64::NAN).is_nan());
    }

    #[test]
    #[should_panic(expected = "geometry must be positive")]
    fn rejects_nonpositive_geometry() {
        let p = nmos().params;
        let _ = Mosfet::new(p, 0.0, 16e-9);
    }

    #[test]
    fn params_validate_catches_bad_values() {
        let mut p = nmos().params;
        p.vth0 = -0.1;
        assert!(p.validate().is_err());
        let mut p = nmos().params;
        p.slope_n = 0.5;
        assert!(p.validate().is_err());
        let mut p = nmos().params;
        p.kp = f64::NAN;
        assert!(p.validate().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn nmos() -> Mosfet {
        Mosfet::new(
            MosfetParams {
                kind: MosfetKind::Nmos,
                vth0: 0.43,
                kp: 7.0e-4,
                slope_n: 1.35,
                lambda: 0.15,
                dibl: 0.25,
                v_thermal: THERMAL_VOLTAGE,
            },
            30e-9,
            16e-9,
        )
    }

    proptest! {
        /// Swapping drain and source always flips the current sign
        /// (channel symmetry), for any bias in the operating range.
        #[test]
        fn prop_drain_source_antisymmetry(
            vg in 0.0f64..0.8,
            vd in 0.0f64..0.8,
            vs in 0.0f64..0.8,
        ) {
            let m = nmos();
            let fwd = m.eval(vg, vd, vs, 0.7).id;
            let rev = m.eval(vg, vs, vd, 0.7).id;
            prop_assert!((fwd + rev).abs() <= 1e-12 * fwd.abs().max(1e-15));
        }

        /// More gate drive never reduces forward current.
        #[test]
        fn prop_monotone_in_gate(
            vg in 0.0f64..0.7,
            dv in 0.001f64..0.1,
            vd in 0.05f64..0.7,
        ) {
            let m = nmos();
            let lo = m.eval(vg, vd, 0.0, 0.7).id;
            let hi = m.eval(vg + dv, vd, 0.0, 0.7).id;
            prop_assert!(hi >= lo);
        }

        /// Raising the drain never reduces the current out of the node
        /// (passivity — the property the VTC solve relies on).
        #[test]
        fn prop_monotone_in_drain(
            vg in 0.0f64..0.8,
            vd in 0.0f64..0.7,
            dv in 0.001f64..0.1,
        ) {
            let m = nmos();
            let lo = m.eval(vg, vd, 0.0, 0.7).id;
            let hi = m.eval(vg, vd + dv, 0.0, 0.7).id;
            prop_assert!(hi >= lo - 1e-15);
        }

        /// A positive threshold shift never strengthens the device.
        #[test]
        fn prop_delta_vth_weakens(
            vg in 0.2f64..0.8,
            vd in 0.1f64..0.7,
            shift in 0.0f64..0.2,
        ) {
            let base = nmos().eval(vg, vd, 0.0, 0.7).id;
            let weak = nmos().with_delta_vth(shift).eval(vg, vd, 0.0, 0.7).id;
            prop_assert!(weak <= base + 1e-18);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The shared-exponential kernel equals the one-call-per-term
        /// reference bit for bit where it computes the same expressions
        /// (`u < 0`, `|u/2| > 30`) and within 1e-15 relative elsewhere.
        #[test]
        fn prop_ekv_pair_matches_reference(
            span in 0usize..3,
            t in -1.0f64..1.0,
        ) {
            // Wide, branch-edge (±60) and near-zero spans.
            let u = t * [200.0, 61.0, 1.0][span];
            let (f, fp) = ekv_pair(u);
            let (rf, rfp) = (ekv_f(u), ekv_fp(u));
            if u < 0.0 || (0.5 * u).abs() > 30.0 {
                prop_assert_eq!(f.to_bits(), rf.to_bits());
                prop_assert_eq!(fp.to_bits(), rfp.to_bits());
            } else {
                prop_assert!((f - rf).abs() <= 1e-15 * rf, "F({}) = {} vs {}", u, f, rf);
                prop_assert!((fp - rfp).abs() <= 1e-15 * rfp, "F'({}) = {} vs {}", u, fp, rfp);
            }
        }

        /// The analytic conductances match central differences of the
        /// drain current for every paper device (both polarities) across
        /// the bias box and ±6σ threshold shifts. Points within 10 µV of
        /// `V_DS = 0` are skipped: `|V_DS|` has a kink there.
        #[test]
        fn prop_derivatives_match_central_differences(
            role in 0usize..3,
            shift in -6.0f64..6.0,
            vg in 0.0f64..0.8,
            vd in 0.0f64..0.8,
            vs in 0.0f64..0.8,
        ) {
            use crate::ptm::{paper_geometry, DeviceRole, A_VTH_EFFECTIVE};
            if (vd - vs).abs() <= 1e-5 {
                return Ok(());
            }
            let role = [DeviceRole::Driver, DeviceRole::Access, DeviceRole::Load][role];
            let geometry = paper_geometry(role);
            let dev = geometry
                .build()
                .with_delta_vth(shift * geometry.pelgrom_sigma(A_VTH_EFFECTIVE));
            let vdd = 0.7;
            let h = 1e-7;
            let id = |g: f64, d: f64, s: f64| dev.eval(g, d, s, vdd).id;
            let base = dev.eval(vg, vd, vs, vdd);
            let dg = (id(vg + h, vd, vs) - id(vg - h, vd, vs)) / (2.0 * h);
            let dd = (id(vg, vd + h, vs) - id(vg, vd - h, vs)) / (2.0 * h);
            let ds = (id(vg, vd, vs + h) - id(vg, vd, vs - h)) / (2.0 * h);
            // Central differences carry O(h²) truncation and O(ε·I/h)
            // rounding error, both tiny against the device's largest
            // conductance.
            let scale = base.gm.abs().max(base.gds.abs()).max(base.gs.abs());
            for (name, analytic, fd) in [("gm", base.gm, dg), ("gds", base.gds, dd), ("gs", base.gs, ds)] {
                prop_assert!(
                    (analytic - fd).abs() <= 1e-6 * scale + 1e-13,
                    "{} analytic {} vs fd {} ({:?}, shift {}σ, bias {} {} {})",
                    name, analytic, fd, role, shift, vg, vd, vs
                );
            }
        }
    }
}
