//! The 6T SRAM cell and its read/hold voltage-transfer curves.
//!
//! ```text
//!        BL            VDD   VDD            BLB
//!         |             |     |              |
//!         |   PL ─┤(g=QB)     (g=Q)├─ PR     |
//!  WL ─[AL]── Q ──┬─────┐     ┌──────── QB ──[AR]─ WL
//!                 │ NL ─┤(g=QB)     (g=Q)├─ NR
//!                 |     |     |       |
//!                GND   GND   GND     GND
//! ```
//!
//! During a read, the word line and both bit lines sit at `V_DD`, so the
//! node storing 0 is pulled upward through its access transistor — the
//! disturbance that makes read the critical stability condition.
//!
//! The cell's voltage-transfer curves are solved with a safeguarded 1-D
//! Newton method: with one storage node forced, the net current into the
//! other node is **strictly decreasing** in its voltage (every attached
//! device is passive in that sense), so a sign change brackets exactly one
//! root. Newton steps use the analytic conductances of the device model
//! and converge in a few evaluations; any step that leaves the bracket or
//! stalls is replaced by a bisection step, so the solve is
//! unconditionally convergent. A general MNA solve of the same half-cell,
//! test-only, is the reference these fast solves are checked against.

use crate::model::Mosfet;
use crate::ptm::{paper_geometry, DeviceRole, VDD_NOMINAL};
use serde::{Deserialize, Serialize};

/// Reference temperature of the technology cards \[K\].
pub const T_NOMINAL_K: f64 = 300.0;

/// First-order threshold temperature coefficient \[V/K\]: both
/// polarities lose about 1 mV of threshold magnitude per kelvin of
/// heating (the textbook figure for scaled CMOS).
pub const VTH_TEMPCO: f64 = 1.0e-3;

/// Identifies one of the six cell transistors.
///
/// The `usize` value of each variant is the canonical position of that
/// device in every ΔVth vector used throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellDevice {
    /// Left pull-up PMOS (gate = QB). Index 0.
    LoadL = 0,
    /// Left pull-down NMOS (gate = QB). Index 1.
    DriverL = 1,
    /// Right pull-up PMOS (gate = Q). Index 2.
    LoadR = 2,
    /// Right pull-down NMOS (gate = Q). Index 3.
    DriverR = 3,
    /// Left access NMOS (gate = WL, BL ↔ Q). Index 4.
    AccessL = 4,
    /// Right access NMOS (gate = WL, BLB ↔ QB). Index 5.
    AccessR = 5,
}

impl CellDevice {
    /// All six devices in canonical index order.
    pub const ALL: [CellDevice; 6] = [
        CellDevice::LoadL,
        CellDevice::DriverL,
        CellDevice::LoadR,
        CellDevice::DriverR,
        CellDevice::AccessL,
        CellDevice::AccessR,
    ];

    /// The device's role (load / driver / access).
    pub fn role(&self) -> DeviceRole {
        match self {
            CellDevice::LoadL | CellDevice::LoadR => DeviceRole::Load,
            CellDevice::DriverL | CellDevice::DriverR => DeviceRole::Driver,
            CellDevice::AccessL | CellDevice::AccessR => DeviceRole::Access,
        }
    }

    /// The mirror-image device under a left↔right cell reflection.
    pub fn mirrored(&self) -> CellDevice {
        match self {
            CellDevice::LoadL => CellDevice::LoadR,
            CellDevice::LoadR => CellDevice::LoadL,
            CellDevice::DriverL => CellDevice::DriverR,
            CellDevice::DriverR => CellDevice::DriverL,
            CellDevice::AccessL => CellDevice::AccessR,
            CellDevice::AccessR => CellDevice::AccessL,
        }
    }
}

impl std::fmt::Display for CellDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CellDevice::LoadL => "PL",
            CellDevice::DriverL => "NL",
            CellDevice::LoadR => "PR",
            CellDevice::DriverR => "NR",
            CellDevice::AccessL => "AL",
            CellDevice::AccessR => "AR",
        };
        write!(f, "{name}")
    }
}

/// Bias condition for transfer-curve extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiasCondition {
    /// Word-line voltage \[V\].
    pub wl: f64,
    /// Left bit-line voltage \[V\].
    pub bl: f64,
    /// Right bit-line voltage \[V\].
    pub blb: f64,
}

/// One transfer-curve solve: the root voltage plus the Newton
/// iterations it cost — the workspace's unit for effort accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VtcSolve {
    /// The solved output voltage \[V\].
    pub v: f64,
    /// Node-current evaluations spent, each one Newton iteration (a
    /// value and its derivative), whether it fed a Newton or a
    /// safeguarding bisection step.
    pub iters: u32,
}

/// A 6T SRAM cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Sram6T {
    vdd: f64,
    devices: [Mosfet; 6],
    /// `devices[i].beta()`, computed once per device: every node-current
    /// evaluation reads it, and no method of the cell changes a device's
    /// `kp`, `W` or `L`.
    betas: [f64; 6],
}

impl Sram6T {
    /// Builds the paper's Table I cell at the nominal supply.
    pub fn paper_cell() -> Self {
        Self::paper_cell_at(VDD_NOMINAL)
    }

    /// Builds the paper's Table I cell at a custom supply (Fig. 7 lowers
    /// `V_DD` to 0.5 V so naive Monte Carlo converges).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn paper_cell_at(vdd: f64) -> Self {
        Self::from_devices(
            vdd,
            CellDevice::ALL.map(|d| paper_geometry(d.role()).build()),
        )
    }

    /// Builds a cell from explicit devices in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive and finite.
    pub fn from_devices(vdd: f64, devices: [Mosfet; 6]) -> Self {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "vdd must be positive, got {vdd}"
        );
        let betas = devices.map(|d| d.beta());
        Self {
            vdd,
            devices,
            betas,
        }
    }

    /// Supply voltage \[V\].
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Whether every device's threshold and gain factor β is finite. A
    /// non-finite one poisons the node currents, yet the bracketed VTC
    /// solves still return finite roots, so it must be caught up front.
    pub(crate) fn has_finite_devices(&self) -> bool {
        self.devices
            .iter()
            .zip(&self.betas)
            .all(|(device, beta)| device.vth().is_finite() && beta.is_finite())
    }

    /// The device at a canonical position.
    pub fn device(&self, which: CellDevice) -> &Mosfet {
        &self.devices[which as usize]
    }

    /// Read bias: word line high, both bit lines precharged to `V_DD`.
    pub fn read_bias(&self) -> BiasCondition {
        BiasCondition {
            wl: self.vdd,
            bl: self.vdd,
            blb: self.vdd,
        }
    }

    /// Hold bias: word line low (access devices off).
    pub fn hold_bias(&self) -> BiasCondition {
        BiasCondition {
            wl: 0.0,
            bl: self.vdd,
            blb: self.vdd,
        }
    }

    /// Write bias for writing a "0" into `Q`: word line high, left bit
    /// line driven low, right bit line held at `V_DD`.
    pub fn write0_bias(&self) -> BiasCondition {
        BiasCondition {
            wl: self.vdd,
            bl: 0.0,
            blb: self.vdd,
        }
    }

    /// Returns a copy with per-device threshold shifts applied in
    /// canonical order (see [`CellDevice`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta_vth.len() != 6`.
    pub fn with_delta_vth(&self, delta_vth: &[f64]) -> Self {
        assert_eq!(delta_vth.len(), 6, "expected 6 threshold shifts");
        let mut cell = self.clone();
        for (dev, dv) in cell.devices.iter_mut().zip(delta_vth) {
            *dev = dev.with_delta_vth(*dv);
        }
        cell
    }

    /// Returns a copy operated at a temperature offset from the 300 K
    /// nominal: every device loses [`VTH_TEMPCO`] volts of threshold
    /// magnitude per kelvin of heating and its thermal voltage scales
    /// linearly with absolute temperature. A zero offset reproduces the
    /// nominal cell bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `delta_c` is non-finite or outside \[−150, +200\] K —
    /// beyond that the first-order threshold model drives `vth0`
    /// unphysically.
    pub fn with_temperature_delta(&self, delta_c: f64) -> Self {
        assert!(
            delta_c.is_finite() && (-150.0..=200.0).contains(&delta_c),
            "temperature delta must lie in [-150, 200] K, got {delta_c}"
        );
        let mut cell = self.clone();
        for dev in &mut cell.devices {
            dev.params.vth0 -= VTH_TEMPCO * delta_c;
            dev.params.v_thermal *= (T_NOMINAL_K + delta_c) / T_NOMINAL_K;
        }
        cell
    }

    /// Returns the mirrored cell (left and right halves swapped).
    pub fn mirrored(&self) -> Self {
        Self::from_devices(
            self.vdd,
            CellDevice::ALL.map(|d| self.devices[d.mirrored() as usize]),
        )
    }

    /// Net current into the output node of one half-cell, and its
    /// derivative with respect to the output voltage: node `QB` (gate
    /// driven by `Q`) when `right`, node `Q` (gate driven by `QB`)
    /// otherwise. The derivative reuses the conductances every `eval`
    /// already computes.
    fn node_current(
        &self,
        right: bool,
        bias: &BiasCondition,
        v_gate: f64,
        v_out: f64,
    ) -> (f64, f64) {
        let eval = |left: CellDevice, vg, vd, vs| {
            let i = if right { left.mirrored() } else { left } as usize;
            self.devices[i].eval_with_beta(self.betas[i], vg, vd, vs, self.vdd)
        };
        let bit_line = if right { bias.blb } else { bias.bl };
        // PMOS load: drain = output, source = VDD. `id` is current into
        // the drain; a pull-up sources current into the node, so the node
        // receives −id.
        let load = eval(CellDevice::LoadL, v_gate, v_out, self.vdd);
        // NMOS driver: drain = output, source = GND. Current into the
        // drain leaves the node.
        let driver = eval(CellDevice::DriverL, v_gate, v_out, 0.0);
        // Access NMOS: drain at the bit line, source at the output; the
        // device forwards its drain current into the node.
        let access = eval(CellDevice::AccessL, bias.wl, bit_line, v_out);
        (
            -load.id + access.id - driver.id,
            -load.gds + access.gs - driver.gds,
        )
    }

    /// Solves the right half-cell transfer curve `V_QB = f_R(V_Q)` at one
    /// input point, to 0.1 µV.
    pub fn vtc_right(&self, bias: &BiasCondition, v_q: f64) -> f64 {
        self.solve_vtc(true, bias, v_q, None, None, 1e-7).v
    }

    /// Solves the left half-cell transfer curve `V_Q = f_L(V_QB)` at one
    /// input point, to 0.1 µV.
    pub fn vtc_left(&self, bias: &BiasCondition, v_qb: f64) -> f64 {
        self.solve_vtc(false, bias, v_qb, None, None, 1e-7).v
    }

    /// The one VTC solve (right curve when `right`, else left) to
    /// `resolution` \[V\]: a safeguarded Newton solve inside the
    /// monotone-hint bracket, started from `guess`, else the hint, else
    /// the bracket midpoint — the first of these strictly inside the
    /// bracket.
    ///
    /// The VTC is monotone decreasing in its input, so when sweeping the
    /// input upward the previous output `upper_hint` bounds the next root
    /// from above and narrows the bracket. `guess` is a predicted root
    /// (see `butterfly::solve_curve`). Neither changes which root is
    /// found, only how fast: the root stays within `resolution` of the
    /// true one.
    pub(crate) fn solve_vtc(
        &self,
        right: bool,
        bias: &BiasCondition,
        vin: f64,
        upper_hint: Option<f64>,
        guess: Option<f64>,
        resolution: f64,
    ) -> VtcSolve {
        let (lo, hi) = self.hint_bracket(upper_hint, resolution);
        let inside = |v: &f64| lo < *v && *v < hi;
        let start = guess
            .filter(inside)
            .or(upper_hint.filter(inside))
            .unwrap_or(0.5 * (lo + hi));
        let (v, iters) = safeguarded_newton(
            |v| self.node_current(right, bias, vin, v),
            lo,
            hi,
            start,
            resolution,
        );
        VtcSolve { v, iters }
    }

    /// The bracket from an optional monotone upper hint. The bracket
    /// extends slightly beyond the rails; the guard band above the hint
    /// scales with the resolution target (ten steps' worth, floored at
    /// 1 µV) so coarser solves still produce hints that safely bound the
    /// next root.
    fn hint_bracket(&self, upper_hint: Option<f64>, resolution: f64) -> (f64, f64) {
        let guard = (10.0 * resolution).max(1e-6);
        let hi = match upper_hint {
            Some(h) => (h + guard).min(self.vdd + 0.2),
            None => self.vdd + 0.2,
        };
        (-0.2, hi)
    }
}

/// Safeguarded Newton ("rtsafe") on a strictly decreasing function with
/// `f(lo) > 0 > f(hi)`; `f` returns the value and its derivative. Every
/// evaluation's sign tightens the bracket. A Newton step is taken only
/// when the slope is negative, the iterate stays inside the open bracket
/// and the step at least halves the step before last; otherwise the
/// solve bisects, so it never does much worse than bisection. It stops
/// when the bracket is within `resolution` or a Newton step is within
/// half of it, and returns the root and the number of evaluations.
fn safeguarded_newton(
    f: impl Fn(f64) -> (f64, f64),
    mut lo: f64,
    mut hi: f64,
    start: f64,
    resolution: f64,
) -> (f64, u32) {
    let mut x = start;
    let mut evals = 0u32;
    let (mut step, mut step_before) = (hi - lo, hi - lo);
    while hi - lo > resolution {
        let (i, di) = f(x);
        evals += 1;
        if i > 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        let newton = x - i / di;
        let newton_ok =
            di < 0.0 && lo < newton && newton < hi && (newton - x).abs() <= 0.5 * step_before;
        let next = if newton_ok { newton } else { 0.5 * (lo + hi) };
        step_before = step;
        step = (next - x).abs();
        if newton_ok && step <= 0.5 * resolution {
            return (newton, evals);
        }
        x = next;
    }
    (0.5 * (lo + hi), evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::netlist::{Element, Netlist};
    use crate::mna::solver::Solver;

    #[test]
    fn canonical_indices_are_stable() {
        assert_eq!(CellDevice::LoadL as usize, 0);
        assert_eq!(CellDevice::DriverL as usize, 1);
        assert_eq!(CellDevice::LoadR as usize, 2);
        assert_eq!(CellDevice::DriverR as usize, 3);
        assert_eq!(CellDevice::AccessL as usize, 4);
        assert_eq!(CellDevice::AccessR as usize, 5);
    }

    #[test]
    fn mirror_is_an_involution() {
        for d in CellDevice::ALL {
            assert_eq!(d.mirrored().mirrored(), d);
        }
    }

    #[test]
    fn read_vtc_endpoints() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        // Input low: output high (driver off, load + access pull up).
        let high = cell.vtc_right(&bias, 0.0);
        assert!(high > cell.vdd() - 0.05, "high level = {high}");
        // Input high: output is the read-disturb level — above ground but
        // well below VDD/2 for a functional cell.
        let low = cell.vtc_right(&bias, cell.vdd());
        assert!(
            low > 0.0 && low < 0.35 * cell.vdd(),
            "read low level = {low}"
        );
    }

    #[test]
    fn hold_vtc_pulls_fully_to_ground() {
        let cell = Sram6T::paper_cell();
        let bias = cell.hold_bias();
        let low = cell.vtc_right(&bias, cell.vdd());
        assert!(low < 0.02, "hold low level = {low}");
    }

    #[test]
    fn vtc_is_monotone_decreasing() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        let mut prev = f64::INFINITY;
        for i in 0..=20 {
            let vin = cell.vdd() * i as f64 / 20.0;
            let v = cell.vtc_right(&bias, vin);
            assert!(v <= prev + 1e-9, "VTC not monotone at vin={vin}");
            prev = v;
        }
    }

    #[test]
    fn symmetric_cell_has_symmetric_vtcs() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        for i in 0..=10 {
            let vin = cell.vdd() * i as f64 / 10.0;
            let r = cell.vtc_right(&bias, vin);
            let l = cell.vtc_left(&bias, vin);
            assert!((r - l).abs() < 1e-9, "asymmetry at vin={vin}: {r} vs {l}");
        }
    }

    #[test]
    fn delta_vth_on_driver_raises_read_low_level() {
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        let base = cell.vtc_right(&bias, cell.vdd());
        let mut shifts = [0.0; 6];
        shifts[CellDevice::DriverR as usize] = 0.1; // weaken right driver
        let weak = cell.with_delta_vth(&shifts);
        let degraded = weak.vtc_right(&bias, cell.vdd());
        assert!(
            degraded > base + 0.01,
            "weakened driver should raise the disturb level: {base} → {degraded}"
        );
    }

    #[test]
    fn mirrored_cell_swaps_vtcs() {
        let cell = Sram6T::paper_cell().with_delta_vth(&[0.02, -0.01, 0.0, 0.03, 0.01, -0.02]);
        let mir = cell.mirrored();
        let bias = cell.read_bias();
        for i in 0..=8 {
            let vin = cell.vdd() * i as f64 / 8.0;
            assert!((cell.vtc_right(&bias, vin) - mir.vtc_left(&bias, vin)).abs() < 1e-9);
        }
    }

    #[test]
    fn vtc_solve_matches_full_mna_solve() {
        // Cross-check the fast 1-D solve against the MNA engine on the
        // same half-cell.
        let cell = Sram6T::paper_cell();
        let bias = cell.read_bias();
        for vin in [0.0, 0.2, 0.35, 0.5, 0.7] {
            let fast = cell.vtc_right(&bias, vin);

            let mut nl = Netlist::new(cell.vdd());
            let vdd = nl.add_node();
            let vq = nl.add_node();
            let out = nl.add_node();
            let wl = nl.add_node();
            let blb = nl.add_node();
            nl.add(Element::VSource {
                plus: vdd,
                minus: 0,
                volts: cell.vdd(),
            });
            nl.add(Element::VSource {
                plus: vq,
                minus: 0,
                volts: vin,
            });
            nl.add(Element::VSource {
                plus: wl,
                minus: 0,
                volts: bias.wl,
            });
            nl.add(Element::VSource {
                plus: blb,
                minus: 0,
                volts: bias.blb,
            });
            nl.add(Element::Mosfet {
                d: out,
                g: vq,
                s: vdd,
                device: *cell.device(CellDevice::LoadR),
            });
            nl.add(Element::Mosfet {
                d: out,
                g: vq,
                s: 0,
                device: *cell.device(CellDevice::DriverR),
            });
            nl.add(Element::Mosfet {
                d: blb,
                g: wl,
                s: out,
                device: *cell.device(CellDevice::AccessR),
            });
            let mut init = vec![0.0; nl.node_count()];
            init[vdd] = cell.vdd();
            init[vq] = vin;
            init[wl] = bias.wl;
            init[blb] = bias.blb;
            init[out] = fast; // seed near the solution; uniqueness makes this fair
            let op = Solver::new().solve_dc(&nl, Some(&init)).expect("half-cell");
            assert!(
                (op.node_voltages[out] - fast).abs() < 1e-6,
                "vin={vin}: 1-D solve {fast} vs MNA {}",
                op.node_voltages[out]
            );
        }
    }

    #[test]
    #[should_panic(expected = "vdd must be positive")]
    fn rejects_bad_vdd() {
        let _ = Sram6T::paper_cell_at(0.0);
    }

    #[test]
    #[should_panic(expected = "expected 6 threshold shifts")]
    fn rejects_wrong_shift_count() {
        let _ = Sram6T::paper_cell().with_delta_vth(&[0.0; 5]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ptm::A_VTH_EFFECTIVE;
    use proptest::prelude::*;

    /// Plain bisection on a strictly decreasing function: the reference
    /// the Newton solve is checked against. Returns the root and the
    /// number of evaluations.
    fn bisect(f: impl Fn(f64) -> f64, mut lo: f64, mut hi: f64, resolution: f64) -> (f64, u32) {
        let mut evals = 0;
        while hi - lo > resolution {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
            evals += 1;
        }
        (0.5 * (lo + hi), evals)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// For any cell within ±6σ, any bias, input, hint, start guess
        /// (inside or outside the bracket) and either production
        /// resolution, the Newton root lies within `resolution` of the
        /// true root and costs at most twice the evaluations bisection
        /// needs on the same bracket.
        #[test]
        fn newton_solve_matches_bisection_within_resolution_and_budget(
            z in collection::vec(-6.0f64..6.0, 6),
            bias_kind in 0usize..3,
            vin_frac in 0.0f64..=1.0,
            fine in proptest::bool::ANY,
            right in proptest::bool::ANY,
            hint_gap in 0.0f64..0.2,
            use_hint in proptest::bool::ANY,
            guess in -0.5f64..1.5,
            use_guess in proptest::bool::ANY,
        ) {
            let dv: Vec<f64> = CellDevice::ALL
                .iter()
                .zip(&z)
                .map(|(d, z)| z * paper_geometry(d.role()).pelgrom_sigma(A_VTH_EFFECTIVE))
                .collect();
            let cell = Sram6T::paper_cell().with_delta_vth(&dv);
            let bias = [cell.read_bias(), cell.hold_bias(), cell.write0_bias()][bias_kind];
            let vin = vin_frac * cell.vdd();
            let resolution = if fine { 1e-7 } else { 3e-4 };
            let current = |v: f64| cell.node_current(right, &bias, vin, v).0;
            let (full_lo, full_hi) = cell.hint_bracket(None, resolution);
            let (root, _) = bisect(current, full_lo, full_hi, 1e-12);
            // A monotone hint is an upper bound on the root, as the
            // previous grid point's root is in a butterfly sweep.
            let hint = use_hint.then_some(root + hint_gap);
            // The bracket is about [-0.2, 0.9] V, so a guess may fall on
            // either side of it.
            let guess = use_guess.then_some(guess);
            let solve = cell.solve_vtc(right, &bias, vin, hint, guess, resolution);
            prop_assert!(
                (solve.v - root).abs() <= resolution,
                "root {} vs reference {root} at resolution {resolution}",
                solve.v
            );
            let (lo, hi) = cell.hint_bracket(hint, resolution);
            let (_, bisect_evals) = bisect(current, lo, hi, resolution);
            prop_assert!(
                solve.iters <= 2 * bisect_evals,
                "{} Newton evaluations vs {bisect_evals} bisection steps",
                solve.iters
            );
            prop_assert!(solve.iters > 0, "a solve costs at least one evaluation");
        }
    }
}
