//! Transistor-level DC simulation substrate for the ECRIPSE reproduction.
//!
//! The paper evaluates its indicator function `I(x)` with HSPICE and the
//! PTM 16 nm high-performance model cards. This crate is the from-scratch
//! replacement, specialised for the 6T SRAM read-stability testbench: its
//! one DC solve is a safeguarded 1-D Newton solve per point of a
//! half-cell voltage-transfer curve. A general modified-nodal-analysis
//! engine (damped Newton, dense LU, g-min and source stepping) is kept
//! under `#[cfg(test)]` as the oracle those fast solves are checked
//! against; it is not part of the public API.
//!
//! Layers, bottom-up:
//!
//! * [`model`] — a smooth EKV-style MOSFET compact model with analytic
//!   derivatives, valid from subthreshold to strong inversion and
//!   symmetric in drain/source (so bit-line access transistors need no
//!   terminal-swapping logic).
//! * [`ptm`] — a PTM-16nm-HP-like parameter set plus the paper's Table I
//!   device geometry.
//! * [`sram`] — the 6T cell: device set, bias conditions, and fast 1-D
//!   safeguarded-Newton solves for the read voltage-transfer curves
//!   (exploiting that node current is monotone in node voltage for this
//!   topology).
//! * [`curve_store`] — a bounded store of solved half-cell transfer
//!   curves, so shifted copies of a sample that leave one half's devices
//!   as they were take that half's curve instead of solving it again.
//! * [`butterfly`] / [`snm`] — butterfly curve construction and the
//!   Seevinck maximum-embedded-square static noise margin, extended with a
//!   signed (negative) margin for read-unstable cells so that bisection
//!   root-finding over the variability space is well posed.
//! * [`testbench`] — [`testbench::ReadStabilityBench`], the "transistor-
//!   level simulation" the rest of the workspace counts and accelerates:
//!   per-device ΔVth in, a signed cell margin (and pass/fail) out. A
//!   [`testbench::Scenario`] selects one of four indicators that share
//!   the machinery, each one row of the bench's indicator table: read
//!   stability (the paper's), hold/retention stability, write margin,
//!   and the power-up preference of a skew-designed PUF bit.
//!
//! # Example
//!
//! ```
//! use ecripse_spice::testbench::{ReadStabilityBench, Scenario};
//!
//! let bench = ReadStabilityBench::paper_cell();
//! // Nominal cell: healthy read margin.
//! let nominal = bench.margin(Scenario::ReadSnm, &[0.0; 6]);
//! assert!(nominal > 0.0);
//! // A heavily imbalanced cell loses margin.
//! let skewed = bench.margin(Scenario::ReadSnm, &[0.25, -0.25, -0.25, 0.25, 0.0, 0.0]);
//! assert!(skewed < nominal);
//! // The indicator I(x) over whitened coordinates, attempt 0.
//! let fails = bench
//!     .try_fails_whitened(Scenario::ReadSnm, &[0.0; 6], 0)
//!     .expect("the nominal cell evaluates");
//! assert!(!fails);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod butterfly;
pub mod curve_store;
pub mod error;
pub mod model;
pub mod ptm;
pub mod snm;
pub mod sram;
pub mod testbench;

pub use error::EvalError;
pub use model::{Mosfet, MosfetKind, MosfetParams};
pub use ptm::{paper_geometry, ptm16_hp_nmos, ptm16_hp_pmos, DeviceGeometry, DeviceRole};
pub use snm::{read_noise_margin, try_read_noise_margin, SnmReport};
pub use sram::Sram6T;
pub use testbench::{ReadStabilityBench, Scenario};

/// The miniature SPICE DC engine: dense LU, modified nodal analysis and a
/// damped Newton solver with g-min and source stepping. Test-only: it is
/// the reference `sram`'s transfer-curve solves are checked against.
#[cfg(test)]
mod mna {
    pub mod lu;
    pub mod netlist;
    pub mod solver;
}
