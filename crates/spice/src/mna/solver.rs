//! Damped Newton DC operating-point solver with g-min and source
//! stepping.
//!
//! The classic SPICE `.OP` convergence toolkit, miniaturised:
//!
//! 1. plain damped Newton–Raphson from the supplied (or zero) initial
//!    state;
//! 2. on failure, **g-min stepping** — solve with a large conductance from
//!    every node to ground, then relax it geometrically towards the target
//!    `gmin`, reusing each solution as the next starting point;
//! 3. on failure, **source stepping** — ramp all independent sources from
//!    0 to 100 %.
//!
//! SRAM cells are bistable, so which stable state the solver lands in
//! depends on the initial state; callers seed the state node voltages to
//! select a state (see [`crate::sram`]).

use super::lu::{DenseMatrix, LuFactors};
use super::netlist::Netlist;

/// Convergence and stepping knobs for the DC solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Maximum Newton iterations per solve attempt.
    pub max_iterations: usize,
    /// Residual infinity-norm tolerance \[A\] (and \[V\] for branch rows).
    pub tolerance: f64,
    /// Maximum voltage change per Newton step \[V\] (damping clamp).
    pub max_step: f64,
    /// Final (target) g-min conductance \[S\].
    pub gmin: f64,
    /// Number of g-min relaxation decades on fallback.
    pub gmin_steps: usize,
    /// Number of source-stepping ramp points on fallback.
    pub source_steps: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-12,
            max_step: 0.3,
            gmin: 1e-12,
            gmin_steps: 10,
            source_steps: 10,
        }
    }
}

/// Why a DC solve failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Newton did not reach the tolerance within the iteration budget,
    /// even with g-min and source stepping. Carries the best residual
    /// norm reached.
    NoConvergence {
        /// Best residual infinity norm achieved.
        best_residual: f64,
    },
    /// The Jacobian became singular.
    SingularJacobian,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoConvergence { best_residual } => {
                write!(
                    f,
                    "newton iteration did not converge (best residual {best_residual:e})"
                )
            }
            SolveError::SingularJacobian => write!(f, "singular jacobian in newton solve"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A converged DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Node voltages indexed by node id (`[0]` is ground, always 0).
    pub node_voltages: Vec<f64>,
    /// Voltage-source branch currents in element insertion order.
    pub branch_currents: Vec<f64>,
    /// Newton iterations spent (across all stepping phases).
    pub iterations: usize,
}

/// The DC solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Options used by [`Self::solve_dc`].
    pub options: SolverOptions,
}

impl Solver {
    /// Creates a solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves for the DC operating point.
    ///
    /// `initial_voltages`, if provided, seeds the non-ground node voltages
    /// (length must be `netlist.node_count()`, entry 0 ignored); this is
    /// how callers choose between stable states of bistable circuits.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if no convergence strategy succeeds.
    pub fn solve_dc(
        &self,
        netlist: &Netlist,
        initial_voltages: Option<&[f64]>,
    ) -> Result<OperatingPoint, SolveError> {
        let n = netlist.system_size();
        let nodes = netlist.node_count();
        let mut seed = vec![0.0; n];
        if let Some(init) = initial_voltages {
            assert_eq!(init.len(), nodes, "initial voltage vector length mismatch");
            seed[..nodes - 1].copy_from_slice(&init[1..]);
        }
        let mut state = vec![0.0; n];
        let iterations = self.ladder(netlist, &seed, &mut state)?;
        Ok(self.finish(netlist, &state, iterations))
    }

    /// The full convergence ladder (plain Newton → g-min stepping →
    /// source stepping), writing the converged state into `out`.
    fn ladder(
        &self,
        netlist: &Netlist,
        seed: &[f64],
        out: &mut [f64],
    ) -> Result<usize, SolveError> {
        // Phase 1: plain Newton.
        out.copy_from_slice(seed);
        if let Ok(iters) = self.newton(netlist, out, self.options.gmin, 1.0) {
            return Ok(iters);
        }
        let mut iterations = 0usize;

        // Phase 2: g-min stepping from 1e-2 S down to the target.
        out.copy_from_slice(seed);
        let mut ok = true;
        let start_g = 1e-2_f64;
        let steps = self.options.gmin_steps.max(1);
        let ratio = (self.options.gmin / start_g).powf(1.0 / steps as f64);
        let mut g = start_g;
        for _ in 0..=steps {
            match self.newton(netlist, out, g.max(self.options.gmin), 1.0) {
                Ok(iters) => iterations += iters,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            g *= ratio;
        }
        if ok {
            // Final polish at the target g-min.
            if let Ok(iters) = self.newton(netlist, out, self.options.gmin, 1.0) {
                iterations += iters;
                return Ok(iterations);
            }
        }

        // Phase 3: source stepping.
        out.fill(0.0);
        let steps = self.options.source_steps.max(1);
        let mut best_residual = f64::INFINITY;
        for k in 1..=steps {
            let scale = k as f64 / steps as f64;
            match self.newton(netlist, out, self.options.gmin, scale) {
                Ok(iters) => iterations += iters,
                Err(SolveError::NoConvergence { best_residual: r }) => {
                    best_residual = best_residual.min(r);
                    return Err(SolveError::NoConvergence { best_residual });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(iterations)
    }

    /// Runs damped Newton at fixed `gmin`/`src_scale`; on success the
    /// state holds the solution and the iteration count is returned.
    fn newton(
        &self,
        netlist: &Netlist,
        state: &mut [f64],
        gmin: f64,
        src_scale: f64,
    ) -> Result<usize, SolveError> {
        let mut jac = DenseMatrix::zeros(state.len());
        let mut residual = vec![0.0; state.len()];
        let mut best = f64::INFINITY;
        for iter in 0..self.options.max_iterations {
            netlist.assemble(state, gmin, src_scale, &mut jac, &mut residual);
            let norm = residual.iter().fold(0.0_f64, |acc, r| acc.max(r.abs()));
            best = best.min(norm);
            if norm < self.options.tolerance {
                return Ok(iter);
            }
            let neg: Vec<f64> = residual.iter().map(|r| -r).collect();
            let delta = LuFactors::factor(jac.clone())
                .map_err(|_| SolveError::SingularJacobian)?
                .solve(&neg);
            // Damping: clamp the largest voltage move.
            let max_move = delta.iter().fold(0.0_f64, |acc, d| acc.max(d.abs()));
            let scale = if max_move > self.options.max_step {
                self.options.max_step / max_move
            } else {
                1.0
            };
            for (s, d) in state.iter_mut().zip(delta.iter()) {
                *s += scale * d;
            }
        }
        Err(SolveError::NoConvergence {
            best_residual: best,
        })
    }

    fn finish(&self, netlist: &Netlist, state: &[f64], iterations: usize) -> OperatingPoint {
        let nodes = netlist.node_count();
        let mut node_voltages = vec![0.0; nodes];
        node_voltages[1..].copy_from_slice(&state[..nodes - 1]);
        let branch_currents = state[nodes - 1..].to_vec();
        OperatingPoint {
            node_voltages,
            branch_currents,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::netlist::Element;
    use crate::model::Mosfet;
    use crate::ptm::{paper_geometry, ptm16_hp_nmos, DeviceRole, VDD_NOMINAL};

    #[test]
    fn resistive_divider() {
        let mut nl = Netlist::new(0.0);
        let vin = nl.add_node();
        let mid = nl.add_node();
        nl.add(Element::VSource {
            plus: vin,
            minus: 0,
            volts: 1.0,
        });
        nl.add(Element::Resistor {
            a: vin,
            b: mid,
            ohms: 1e3,
        });
        nl.add(Element::Resistor {
            a: mid,
            b: 0,
            ohms: 3e3,
        });
        let op = Solver::new().solve_dc(&nl, None).expect("linear circuit");
        assert!((op.node_voltages[vin] - 1.0).abs() < 1e-9);
        assert!((op.node_voltages[mid] - 0.75).abs() < 1e-9);
        // Source current = −1.0/4e3 (current flows out of + terminal).
        assert!((op.branch_currents[0] + 0.25e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut nl = Netlist::new(0.0);
        let a = nl.add_node();
        nl.add(Element::ISource {
            from: 0,
            into: a,
            amps: 1e-3,
        });
        nl.add(Element::Resistor { a, b: 0, ohms: 2e3 });
        let op = Solver::new().solve_dc(&nl, None).expect("linear circuit");
        // g-min (1e-12 S to ground) shifts the answer by ~4 nV.
        assert!((op.node_voltages[a] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos_settles_between_rails() {
        // VDD → R → (drain=gate) NMOS → gnd: a nonlinear but
        // single-solution circuit.
        let mut nl = Netlist::new(VDD_NOMINAL);
        let vdd = nl.add_node();
        let d = nl.add_node();
        nl.add(Element::VSource {
            plus: vdd,
            minus: 0,
            volts: VDD_NOMINAL,
        });
        nl.add(Element::Resistor {
            a: vdd,
            b: d,
            ohms: 50e3,
        });
        nl.add(Element::Mosfet {
            d,
            g: d,
            s: 0,
            device: Mosfet::new(ptm16_hp_nmos(), 60e-9, 16e-9),
        });
        let op = Solver::new().solve_dc(&nl, None).expect("diode circuit");
        let v = op.node_voltages[d];
        assert!(v > 0.1 && v < VDD_NOMINAL, "diode node at {v}");
        // KCL check: resistor current equals transistor current.
        let ir = (VDD_NOMINAL - v) / 50e3;
        let m = Mosfet::new(ptm16_hp_nmos(), 60e-9, 16e-9);
        let it = m.eval(v, v, 0.0, VDD_NOMINAL).id;
        assert!((ir - it).abs() < 1e-9, "KCL: {ir:e} vs {it:e}");
    }

    #[test]
    fn cmos_inverter_transfer_endpoints() {
        // Inverter with input forced low → output high, and vice versa.
        for (vin, want_high) in [(0.0, true), (VDD_NOMINAL, false)] {
            let mut nl = Netlist::new(VDD_NOMINAL);
            let vdd = nl.add_node();
            let input = nl.add_node();
            let out = nl.add_node();
            nl.add(Element::VSource {
                plus: vdd,
                minus: 0,
                volts: VDD_NOMINAL,
            });
            nl.add(Element::VSource {
                plus: input,
                minus: 0,
                volts: vin,
            });
            nl.add(Element::Mosfet {
                d: out,
                g: input,
                s: vdd,
                device: paper_geometry(DeviceRole::Load).build(),
            });
            nl.add(Element::Mosfet {
                d: out,
                g: input,
                s: 0,
                device: paper_geometry(DeviceRole::Driver).build(),
            });
            let op = Solver::new().solve_dc(&nl, None).expect("inverter");
            let v = op.node_voltages[out];
            if want_high {
                assert!(v > VDD_NOMINAL - 0.02, "out = {v} for vin = {vin}");
            } else {
                assert!(v < 0.02, "out = {v} for vin = {vin}");
            }
        }
    }

    #[test]
    fn initial_state_selects_bistable_branch() {
        // Cross-coupled inverter pair (latch): seeding decides the state.
        fn latch(seed_q: f64, seed_qb: f64) -> (f64, f64) {
            let mut nl = Netlist::new(VDD_NOMINAL);
            let vdd = nl.add_node();
            let q = nl.add_node();
            let qb = nl.add_node();
            nl.add(Element::VSource {
                plus: vdd,
                minus: 0,
                volts: VDD_NOMINAL,
            });
            for (out, input) in [(q, qb), (qb, q)] {
                nl.add(Element::Mosfet {
                    d: out,
                    g: input,
                    s: vdd,
                    device: paper_geometry(DeviceRole::Load).build(),
                });
                nl.add(Element::Mosfet {
                    d: out,
                    g: input,
                    s: 0,
                    device: paper_geometry(DeviceRole::Driver).build(),
                });
            }
            let mut init = vec![0.0; nl.node_count()];
            init[vdd] = VDD_NOMINAL;
            init[q] = seed_q;
            init[qb] = seed_qb;
            let op = Solver::new()
                .solve_dc(&nl, Some(&init))
                .expect("latch solves");
            (op.node_voltages[q], op.node_voltages[qb])
        }
        let (q1, qb1) = latch(VDD_NOMINAL, 0.0);
        assert!(
            q1 > VDD_NOMINAL - 0.05 && qb1 < 0.05,
            "state 1: q={q1} qb={qb1}"
        );
        let (q0, qb0) = latch(0.0, VDD_NOMINAL);
        assert!(
            q0 < 0.05 && qb0 > VDD_NOMINAL - 0.05,
            "state 0: q={q0} qb={qb0}"
        );
    }

    #[test]
    fn solver_reports_iterations() {
        let mut nl = Netlist::new(0.0);
        let a = nl.add_node();
        nl.add(Element::VSource {
            plus: a,
            minus: 0,
            volts: 1.0,
        });
        nl.add(Element::Resistor { a, b: 0, ohms: 1e3 });
        let op = Solver::new().solve_dc(&nl, None).expect("linear");
        // Linear circuit: a handful of damped steps (the 0.3 V step clamp
        // spreads the 1 V move over several iterations).
        assert!(op.iterations <= 20, "iterations = {}", op.iterations);
    }
}
