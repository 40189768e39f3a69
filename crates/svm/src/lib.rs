//! The simulation-skipping classifier of the ECRIPSE flow.
//!
//! The paper (Sec. II-C, III-B) uses a *linear* support vector machine
//! over a degree-4 polynomial transform of the variability vector to
//! predict pass/fail without running the transistor-level simulator.
//! This crate implements that classifier from scratch:
//!
//! * [`features`] — the explicit multi-index polynomial feature map
//!   (`[1, x₁, x₂, x₁x₂, x₁², …]` up to total degree `D_poly`);
//! * [`scale`] — feature standardisation fitted on the first training
//!   batch (polynomial features of ±4σ inputs span orders of magnitude,
//!   which stochastic subgradient descent does not enjoy);
//! * [`linear`] — a linear hinge-loss SVM trained by warm-started dual
//!   coordinate descent;
//! * [`bank`] — [`bank::RowBank`], the append-only store of labels the
//!   SVM trains on, over block-chunked feature rows that repeated
//!   samples share;
//! * [`classifier`] — [`classifier::SvmClassifier`], the assembled
//!   pipeline with incremental retraining and the margin-based
//!   uncertainty band that routes borderline samples back to the
//!   simulator in the second Monte Carlo stage.
//!
//! # Example
//!
//! ```
//! use ecripse_svm::classifier::{SvmClassifier, SvmConfig};
//!
//! // Learn the unit circle (quadratically separable).
//! let xs: Vec<Vec<f64>> = (0..200)
//!     .map(|i| {
//!         let t = i as f64 / 200.0 * std::f64::consts::TAU;
//!         let r = if i % 2 == 0 { 0.5 } else { 1.5 };
//!         vec![r * t.cos(), r * t.sin()]
//!     })
//!     .collect();
//! let ys: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
//! let mut clf = SvmClassifier::fit(&SvmConfig { degree: 2, ..SvmConfig::default() }, &xs, &ys)?;
//! let correct = xs.iter().zip(&ys).filter(|(x, y)| clf.predict(x) == **y).count();
//! assert!(correct >= 190);
//! # Ok::<(), ecripse_svm::classifier::TrainError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bank;
pub mod classifier;
pub mod features;
pub mod linear;
pub mod scale;

pub use bank::RowBank;
pub use classifier::{SvmClassifier, SvmConfig};
pub use features::PolynomialFeatures;
pub use linear::LinearSvm;
pub use scale::StandardScaler;
