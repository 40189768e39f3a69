//! The comparison methods from the paper's evaluation.
//!
//! * [`naive`] — plain Monte Carlo (Eq. 2), the reference of Fig. 7;
//! * [`sis`] — the sequential-importance-sampling method of Katayama et
//!   al. (ICCAD 2010), the paper's reference \[8\] and the "conventional"
//!   curve of Fig. 6;
//! * [`gibbs`] — Gibbs-sampling importance sampling after Dong & Li
//!   (DAC 2011), the paper's reference \[7\];
//! * [`mean_shift`] — importance sampling from a Gaussian shifted to the
//!   most probable failure point, the classic SRAM IS baseline the paper
//!   cites as the "mean-shift methods";
//! * [`blockade`] — statistical blockade (Singhee & Rutenbar), the prior
//!   classifier-based accelerator the paper contrasts with (reference
//!   \[12\]).

pub mod blockade;
pub mod gibbs;
pub mod mean_shift;
pub mod naive;
pub mod sis;

pub use blockade::{statistical_blockade, BlockadeConfig, BlockadeResult};
pub use gibbs::{gibbs_is, GibbsConfig, GibbsResult};
pub use mean_shift::{mean_shift_is, MeanShiftConfig, MeanShiftResult};
pub use naive::{naive_monte_carlo, NaiveConfig, NaiveResult};
pub use sis::SequentialImportanceSampling;

use crate::rtn_source::RtnSource;
use ecripse_stats::sample::NormalSampler;
use rand::Rng;

/// Trials a Monte Carlo baseline draws before it sends them to its
/// simulator as one batch: enough to keep every pool thread busy, few
/// enough that a chunk's points stay well under a MiB.
const TRIAL_CHUNK: usize = 1024;

/// One trial from the nominal distributions: `x_RDF` standard normal,
/// plus an RTN shift unless `rtn` is null (Eq. 2's draw order).
fn nominal_trial<S: RtnSource, R: Rng + ?Sized>(
    normals: &mut NormalSampler,
    rng: &mut R,
    rtn: &S,
) -> Vec<f64> {
    let mut z = normals.sample_vec(rng, rtn.dim());
    if !rtn.is_null() {
        let shift = rtn.sample_whitened(rng);
        for (zi, si) in z.iter_mut().zip(&shift) {
            *zi += si;
        }
    }
    z
}
