//! Typed evaluation errors for the circuit-level testbench.
//!
//! Historically a bad input (wrong dimension, NaN threshold shift) or an
//! ill-conditioned operating point either panicked deep inside the
//! margin extraction or — worse — produced a garbage pass/fail verdict
//! that silently distorted the failure-probability estimate. Every
//! fallible evaluation entry point now has a `try_*` variant returning
//! an [`EvalError`], so callers (the retry/quarantine layer in
//! `ecripse-core`) can distinguish a genuine failing sample from a
//! sample that could not be evaluated at all.

/// Why a testbench evaluation could not produce a trustworthy verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The input vector had the wrong number of components.
    DimensionMismatch {
        /// Components the bench expects.
        expected: usize,
        /// Components the caller supplied.
        got: usize,
    },
    /// A NaN or infinity appeared in the inputs or in a computed
    /// operating point; the pass/fail verdict would be meaningless.
    NonFinite {
        /// Where the non-finite value was detected.
        context: &'static str,
    },
    /// The transfer curves were too degenerate for margin extraction
    /// (fewer than two usable points after rotation).
    DegenerateCurve {
        /// Usable points on the thinner curve.
        usable: usize,
    },
    /// A DC solve's Newton iteration did not reach its tolerance. The
    /// SRAM bench's bracketed transfer-curve solve always returns, so it
    /// never emits this; it stands for a solver that gives up (fault
    /// injection builds it).
    NoConvergence {
        /// Best residual infinity norm achieved.
        best_residual: f64,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::DimensionMismatch { expected, got } => {
                write!(f, "sample has {got} components, bench expects {expected}")
            }
            EvalError::NonFinite { context } => {
                write!(f, "non-finite value in {context}")
            }
            EvalError::DegenerateCurve { usable } => write!(
                f,
                "butterfly curves too degenerate for margin extraction ({usable} usable points)"
            ),
            EvalError::NoConvergence { best_residual } => write!(
                f,
                "DC solve failed: newton iteration did not converge (best residual {best_residual:e})"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = EvalError::DimensionMismatch {
            expected: 6,
            got: 5,
        };
        assert!(e.to_string().contains("5 components"));
        assert!(e.to_string().contains("expects 6"));
        let e = EvalError::NonFinite {
            context: "butterfly curve A",
        };
        assert!(e.to_string().contains("butterfly curve A"));
        let e = EvalError::NoConvergence { best_residual: 1.0 };
        assert_eq!(
            e.to_string(),
            "DC solve failed: newton iteration did not converge (best residual 1e0)"
        );
    }
}
