//! A minimal netlist with modified nodal analysis (MNA) stamping.
//!
//! Supports the element set needed by the SRAM testbench and its
//! verification circuits: resistors, independent DC voltage sources (via
//! MNA branch currents), independent DC current sources, and MOSFETs from
//! [`crate::model`]. Node 0 is ground by convention.

use super::lu::DenseMatrix;
use crate::model::{Mosfet, MosfetKind};

/// Index of a circuit node. Node 0 is ground.
pub type NodeId = usize;

/// A circuit element.
#[derive(Debug, Clone)]
pub enum Element {
    /// Linear resistor between two nodes \[Ω\].
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        ohms: f64,
    },
    /// Independent DC voltage source: `V(plus) − V(minus) = volts`.
    VSource {
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Source voltage \[V\].
        volts: f64,
    },
    /// Independent DC current source pulling `amps` out of `from` and
    /// pushing it into `into`.
    ISource {
        /// Node current is pulled out of.
        from: NodeId,
        /// Node current is pushed into.
        into: NodeId,
        /// Source current \[A\].
        amps: f64,
    },
    /// MOSFET with (drain, gate, source) terminals; bulk is implicit
    /// (ground for NMOS, the netlist's `vdd_bulk` for PMOS).
    Mosfet {
        /// Drain node.
        d: NodeId,
        /// Gate node.
        g: NodeId,
        /// Source node.
        s: NodeId,
        /// Device instance.
        device: Mosfet,
    },
}

/// A flat netlist.
///
/// The MNA unknown vector is laid out as
/// `[v₁ … v_{N−1}, i_branch₁ … i_branch_M]`, i.e. all non-ground node
/// voltages followed by one branch current per voltage source, in element
/// insertion order.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    elements: Vec<Element>,
    node_count: usize,
    vdd_bulk: f64,
}

impl Netlist {
    /// Creates an empty netlist; `vdd_bulk` is the PMOS bulk voltage
    /// (normally the supply rail).
    pub fn new(vdd_bulk: f64) -> Self {
        Self {
            elements: Vec::new(),
            node_count: 1, // ground
            vdd_bulk,
        }
    }

    /// Allocates a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.node_count;
        self.node_count += 1;
        id
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds an element.
    ///
    /// # Panics
    ///
    /// Panics if any referenced node was not allocated, or a resistor has
    /// a non-positive resistance.
    pub fn add(&mut self, e: Element) {
        let check = |n: NodeId| {
            assert!(
                n < self.node_count,
                "element references unallocated node {n}"
            );
        };
        match &e {
            Element::Resistor { a, b, ohms } => {
                check(*a);
                check(*b);
                assert!(*ohms > 0.0, "resistance must be positive, got {ohms}");
            }
            Element::VSource { plus, minus, .. } => {
                check(*plus);
                check(*minus);
            }
            Element::ISource { from, into, .. } => {
                check(*from);
                check(*into);
            }
            Element::Mosfet { d, g, s, .. } => {
                check(*d);
                check(*g);
                check(*s);
            }
        }
        self.elements.push(e);
    }

    /// Number of voltage sources (each adds one MNA branch unknown).
    pub fn vsource_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VSource { .. }))
            .count()
    }

    /// Size of the MNA system: non-ground nodes plus voltage-source
    /// branches.
    pub fn system_size(&self) -> usize {
        (self.node_count - 1) + self.vsource_count()
    }

    /// Node voltage from the MNA state vector (`0.0` for ground).
    pub fn node_voltage(&self, state: &[f64], node: NodeId) -> f64 {
        if node == 0 {
            0.0
        } else {
            state[node - 1]
        }
    }

    /// Assembles the Newton linearisation at the MNA state `state`
    /// (layout as documented on [`Netlist`]): fills `jac` with the
    /// Jacobian `∂f/∂state` and `residual` with `f(state)`, where the
    /// Newton update solves `J·Δ = −f`.
    ///
    /// `gmin` is a diagonal conductance to ground added to every node
    /// (g-min stepping); `src_scale` scales all independent sources
    /// (source stepping).
    ///
    /// # Panics
    ///
    /// Panics if buffer sizes do not match [`Self::system_size`].
    pub fn assemble(
        &self,
        state: &[f64],
        gmin: f64,
        src_scale: f64,
        jac: &mut DenseMatrix,
        residual: &mut [f64],
    ) {
        let n = self.system_size();
        assert_eq!(jac.dim(), n, "jacobian size mismatch");
        assert_eq!(residual.len(), n, "residual size mismatch");
        assert_eq!(state.len(), n, "state vector size mismatch");

        jac.clear();
        residual.fill(0.0);

        let vn = |node: NodeId| self.node_voltage(state, node);
        // Map node id → unknown index (ground has none).
        let idx = |node: NodeId| -> Option<usize> {
            if node == 0 {
                None
            } else {
                Some(node - 1)
            }
        };

        // g-min to ground on every non-ground node.
        for node in 1..self.node_count {
            let i = idx(node).expect("non-ground node");
            jac.add(i, i, gmin);
            residual[i] += gmin * vn(node);
        }

        let mut branch = self.node_count - 1;
        for e in &self.elements {
            match e {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let current = g * (vn(*a) - vn(*b));
                    if let Some(i) = idx(*a) {
                        jac.add(i, i, g);
                        residual[i] += current;
                        if let Some(j) = idx(*b) {
                            jac.add(i, j, -g);
                        }
                    }
                    if let Some(j) = idx(*b) {
                        jac.add(j, j, g);
                        residual[j] -= current;
                        if let Some(i) = idx(*a) {
                            jac.add(j, i, -g);
                        }
                    }
                }
                Element::ISource { from, into, amps } => {
                    let a = amps * src_scale;
                    if let Some(i) = idx(*from) {
                        residual[i] += a;
                    }
                    if let Some(j) = idx(*into) {
                        residual[j] -= a;
                    }
                }
                Element::VSource { plus, minus, volts } => {
                    let b = branch;
                    branch += 1;
                    let i_branch = state[b];
                    // KCL: the branch current leaves `plus`, enters `minus`.
                    if let Some(i) = idx(*plus) {
                        jac.add(i, b, 1.0);
                        residual[i] += i_branch;
                    }
                    if let Some(j) = idx(*minus) {
                        jac.add(j, b, -1.0);
                        residual[j] -= i_branch;
                    }
                    // Branch equation: V(plus) − V(minus) − volts = 0.
                    if let Some(i) = idx(*plus) {
                        jac.add(b, i, 1.0);
                    }
                    if let Some(j) = idx(*minus) {
                        jac.add(b, j, -1.0);
                    }
                    residual[b] += vn(*plus) - vn(*minus) - volts * src_scale;
                }
                Element::Mosfet { d, g, s, device } => {
                    let out = device.eval(vn(*g), vn(*d), vn(*s), self.vdd_bulk);
                    let (id, gm, gds, gs) = (out.id, out.gm, out.gds, out.gs);
                    // Current `id` flows into the drain and out of the
                    // source.
                    if let Some(i) = idx(*d) {
                        residual[i] += id;
                        jac.add(i, i, gds);
                        if let Some(jg) = idx(*g) {
                            jac.add(i, jg, gm);
                        }
                        if let Some(js) = idx(*s) {
                            jac.add(i, js, gs);
                        }
                    }
                    if let Some(i) = idx(*s) {
                        residual[i] -= id;
                        jac.add(i, i, -gs);
                        if let Some(jg) = idx(*g) {
                            jac.add(i, jg, -gm);
                        }
                        if let Some(jd) = idx(*d) {
                            jac.add(i, jd, -gds);
                        }
                    }
                }
            }
        }
    }

    /// Checks whether the netlist contains at least one PMOS device —
    /// used by validation to warn when `vdd_bulk` was left at zero.
    pub fn has_pmos(&self) -> bool {
        self.elements.iter().any(|e| {
            matches!(
                e,
                Element::Mosfet { device, .. } if device.params.kind == MosfetKind::Pmos
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::lu::DenseMatrix;

    #[test]
    fn node_allocation_is_sequential() {
        let mut n = Netlist::new(0.7);
        assert_eq!(n.add_node(), 1);
        assert_eq!(n.add_node(), 2);
        assert_eq!(n.node_count(), 3);
    }

    #[test]
    fn system_size_counts_vsources() {
        let mut n = Netlist::new(0.7);
        let a = n.add_node();
        let b = n.add_node();
        n.add(Element::VSource {
            plus: a,
            minus: 0,
            volts: 1.0,
        });
        n.add(Element::Resistor { a, b, ohms: 1e3 });
        n.add(Element::Resistor {
            a: b,
            b: 0,
            ohms: 1e3,
        });
        assert_eq!(n.system_size(), 3); // 2 nodes + 1 branch
    }

    #[test]
    fn resistor_stamp_is_symmetric() {
        let mut n = Netlist::new(0.0);
        let a = n.add_node();
        let b = n.add_node();
        n.add(Element::Resistor { a, b, ohms: 2.0 });
        let mut jac = DenseMatrix::zeros(n.system_size());
        let mut res = vec![0.0; n.system_size()];
        n.assemble(&[1.0, 0.0], 0.0, 1.0, &mut jac, &mut res);
        assert_eq!(jac.get(0, 0), 0.5);
        assert_eq!(jac.get(1, 1), 0.5);
        assert_eq!(jac.get(0, 1), -0.5);
        assert_eq!(jac.get(1, 0), -0.5);
        // 0.5 A leaves node a, enters node b.
        assert_eq!(res[0], 0.5);
        assert_eq!(res[1], -0.5);
    }

    #[test]
    fn vsource_branch_current_appears_in_kcl() {
        let mut n = Netlist::new(0.0);
        let a = n.add_node();
        n.add(Element::VSource {
            plus: a,
            minus: 0,
            volts: 1.0,
        });
        // State: v_a = 1.0, branch current = 0.25 A.
        let mut jac = DenseMatrix::zeros(2);
        let mut res = vec![0.0; 2];
        n.assemble(&[1.0, 0.25], 0.0, 1.0, &mut jac, &mut res);
        // KCL at a: +i_branch.
        assert_eq!(res[0], 0.25);
        // Branch equation satisfied: v_a − 1.0 = 0.
        assert_eq!(res[1], 0.0);
        assert_eq!(jac.get(0, 1), 1.0);
        assert_eq!(jac.get(1, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "unallocated node")]
    fn rejects_unallocated_nodes() {
        let mut n = Netlist::new(0.0);
        n.add(Element::Resistor {
            a: 0,
            b: 5,
            ohms: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn rejects_nonpositive_resistance() {
        let mut n = Netlist::new(0.0);
        let a = n.add_node();
        n.add(Element::Resistor { a, b: 0, ohms: 0.0 });
    }

    #[test]
    fn has_pmos_detects_polarity() {
        use crate::ptm::{paper_geometry, DeviceRole};
        let mut n = Netlist::new(0.7);
        let d = n.add_node();
        assert!(!n.has_pmos());
        n.add(Element::Mosfet {
            d,
            g: 0,
            s: 0,
            device: paper_geometry(DeviceRole::Driver).build(),
        });
        assert!(!n.has_pmos());
        n.add(Element::Mosfet {
            d,
            g: 0,
            s: 0,
            device: paper_geometry(DeviceRole::Load).build(),
        });
        assert!(n.has_pmos());
    }
}
