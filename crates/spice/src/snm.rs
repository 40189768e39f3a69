//! Static noise margin extraction (Seevinck's maximum-embedded-square
//! criterion), extended with a *signed* margin for unstable cells.
//!
//! Following Seevinck, List and Lohstroh (JSSC 1987): rotate the butterfly
//! plot by 45° with `u = (x − y)/√2`, `v = (x + y)/√2`. Along each
//! (monotone-decreasing) transfer curve, `u` is strictly increasing, so
//! both curves become single-valued functions `v(u)`. The side of the
//! largest square with axes-parallel sides embedded in a lobe equals
//! `max_u Δv(u) / √2`, where `Δv` is the inter-curve gap in the rotated
//! frame — positive in one direction for each lobe.
//!
//! When mismatch destroys one of the stable states, the corresponding gap
//! maximum is negative; we keep its (negative) value as a graded failure
//! depth. The **read noise margin** is the minimum over the two lobes, so
//! `rnm < 0` exactly when the cell cannot hold both states — the paper's
//! failure criterion.

use crate::butterfly::Butterfly;
use crate::error::EvalError;
use serde::{Deserialize, Serialize};

/// Noise margins of the two lobes and their minimum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnmReport {
    /// Margin of the lobe around the `Q=0, QB=1` state \[V\] (signed).
    pub snm_low: f64,
    /// Margin of the lobe around the `Q=1, QB=0` state \[V\] (signed).
    pub snm_high: f64,
    /// `min(snm_low, snm_high)` — the cell's noise margin \[V\].
    pub rnm: f64,
}

/// A polyline resampled as a single-valued function of the rotated
/// coordinate `u`.
struct RotatedCurve {
    u: Vec<f64>,
    v: Vec<f64>,
}

impl RotatedCurve {
    /// Rotates `(x, y)` points into `(u, v)` and enforces monotone `u`.
    /// Non-finite points are rejected with a typed error — they would
    /// otherwise poison the interpolation silently.
    fn from_points(points: impl Iterator<Item = (f64, f64)>) -> Result<Self, EvalError> {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let mut u = Vec::with_capacity(points.size_hint().0);
        let mut v = Vec::with_capacity(points.size_hint().0);
        for (x, y) in points {
            if !x.is_finite() || !y.is_finite() {
                return Err(EvalError::NonFinite {
                    context: "butterfly curve point",
                });
            }
            let uu = (x - y) * inv_sqrt2;
            let vv = (x + y) * inv_sqrt2;
            // Transfer curves are monotone, but solver error (within the
            // resolution) can create tiny reversals; drop non-advancing
            // points.
            if let Some(&last) = u.last() {
                if uu <= last {
                    continue;
                }
            }
            u.push(uu);
            v.push(vv);
        }
        Ok(Self { u, v })
    }

    /// First `u` value; curves are only built with ≥ 2 points before use.
    fn u_min(&self) -> f64 {
        self.u.first().copied().unwrap_or(f64::NAN)
    }

    fn u_max(&self) -> f64 {
        self.u.last().copied().unwrap_or(f64::NAN)
    }

    /// Linear interpolation of `v(u)` by binary search; clamps outside
    /// the sampled range. The reference [`Self::eval_at`] is tested
    /// against.
    #[cfg(test)]
    fn eval(&self, uu: f64) -> f64 {
        match self.u.binary_search_by(|p| p.total_cmp(&uu)) {
            Ok(i) => self.v[i],
            Err(0) => self.v[0],
            Err(i) if i >= self.u.len() => self.v[self.u.len() - 1],
            Err(i) => {
                let (u0, u1) = (self.u[i - 1], self.u[i]);
                let (v0, v1) = (self.v[i - 1], self.v[i]);
                let t = (uu - u0) / (u1 - u0);
                v0 + t * (v1 - v0)
            }
        }
    }

    /// Linear interpolation of `v(u)`, clamped outside the sampled range,
    /// with a caller-held cursor instead of a binary search.
    ///
    /// `cursor` is the number of samples below the previous query; it
    /// moves to the number below `uu` (in either direction), so a sweep
    /// of ascending queries walks each curve once. The `u` samples are
    /// finite and strictly ascending (enforced in `from_points`), and the
    /// ordering is `total_cmp`'s, so the segment — and the result — is
    /// bit-identical to a `binary_search_by(total_cmp)` lookup.
    fn eval_at(&self, cursor: &mut usize, uu: f64) -> f64 {
        use std::cmp::Ordering::{Equal, Less};
        let u = &self.u;
        let mut i = (*cursor).min(u.len());
        while i > 0 && u[i - 1].total_cmp(&uu) != Less {
            i -= 1;
        }
        while i < u.len() && u[i].total_cmp(&uu) == Less {
            i += 1;
        }
        *cursor = i;
        if i == u.len() {
            self.v[i - 1]
        } else if i == 0 || u[i].total_cmp(&uu) == Equal {
            self.v[i]
        } else {
            let (u0, u1) = (u[i - 1], u[i]);
            let (v0, v1) = (self.v[i - 1], self.v[i]);
            let t = (uu - u0) / (u1 - u0);
            v0 + t * (v1 - v0)
        }
    }
}

/// Computes the signed noise margins of a butterfly plot.
///
/// The inter-curve gap `g(u) = v_A(u) − v_B(u)` changes sign exactly at
/// the DC solutions of the cross-coupled loop (the butterfly
/// intersections). A bistable cell has three: the two stable states
/// bracket the lobes, so both margins are evaluated between the outermost
/// crossings (`g > 0` in the `Q=0` lobe, `g < 0` in the `Q=1` lobe). A
/// monostable — read-unstable — cell has one crossing; on the surviving
/// state's side of it `g` keeps a single sign, so the *maximum* of the
/// vanished lobe's gap is negative and measures how far the cell is from
/// regaining bistability. That signed value is what bisection-based
/// boundary searches in the variability space rely on.
///
/// The returned margins are exact up to the butterfly's sampling
/// resolution; refine by sampling more points.
///
/// # Panics
///
/// Panics if the butterfly has fewer than two usable points per curve or
/// contains non-finite values. Use [`try_read_noise_margin`] for a typed
/// error instead.
pub fn read_noise_margin(butterfly: &Butterfly) -> SnmReport {
    match try_read_noise_margin(butterfly) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`read_noise_margin`]: a garbage operating point
/// (NaN curve values, curves that collapse to fewer than two usable
/// points) surfaces as a typed [`EvalError`] instead of a panic or a
/// bogus margin.
///
/// # Errors
///
/// Returns [`EvalError::NonFinite`] for NaN/infinite curve points and
/// [`EvalError::DegenerateCurve`] when either rotated curve has fewer
/// than two usable points.
pub fn try_read_noise_margin(butterfly: &Butterfly) -> Result<SnmReport, EvalError> {
    let a = RotatedCurve::from_points(butterfly.points_a())?;
    // Curve B runs in descending u as sampled (its x coordinate falls as
    // the grid rises); walk it backwards so u ascends.
    let b = RotatedCurve::from_points(butterfly.points_b().rev())?;
    let usable = a.u.len().min(b.u.len());
    if usable < 2 {
        return Err(EvalError::DegenerateCurve { usable });
    }

    let lo = a.u_min().max(b.u_min());
    let hi = a.u_max().min(b.u_max());
    // Dense uniform scan across the overlap; 4× the native resolution
    // keeps the interpolation error negligible. The scan ascends, so one
    // cursor per curve walks each curve once.
    let n = 4 * butterfly.len().max(2);
    let mut gaps: Vec<f64> = Vec::with_capacity(n + 1);
    let (mut cursor_a, mut cursor_b) = (0, 0);
    // Sign changes of g — the butterfly intersections (DC fixed points
    // of the cross-coupled loop): how many, and the outermost two.
    let mut crossings = 0;
    let (mut first_crossing, mut last_crossing) = (0, 0);
    for i in 0..=n {
        let u = lo + (hi - lo) * i as f64 / n as f64;
        let g = a.eval_at(&mut cursor_a, u) - b.eval_at(&mut cursor_b, u);
        if let Some(&prev) = gaps.last() {
            if prev.signum() != g.signum() && prev != 0.0 {
                if crossings == 0 {
                    first_crossing = i;
                }
                last_crossing = i;
                crossings += 1;
            }
        }
        gaps.push(g);
    }
    Ok(margins_from_gaps(
        &gaps,
        crossings,
        first_crossing,
        last_crossing,
    ))
}

/// The signed lobe margins from the gap scan `g(u)`, given the number of
/// its sign changes and the indices of the outermost two.
fn margins_from_gaps(gaps: &[f64], crossings: usize, first: usize, last: usize) -> SnmReport {
    let max_over = |range: std::ops::RangeInclusive<usize>, sign: f64| {
        gaps[range]
            .iter()
            .fold(f64::NEG_INFINITY, |acc, &g| acc.max(sign * g))
    };

    let (gap_pos, gap_neg) = if crossings >= 3 {
        // Bistable: the outermost crossings are the stable states; both
        // lobes live between them (g > 0 in the Q=0 lobe at low u, g < 0
        // in the Q=1 lobe at high u). Scanning between the outer
        // crossings excludes the thin truncation slivers outside them.
        (max_over(first..=last, 1.0), max_over(first..=last, -1.0))
    } else {
        // Monostable (or tangent): only one state's lobe has a genuine
        // peak; the other lobe's gap never reaches zero. Split at the
        // surviving lobe's peak: the vanished lobe's (negative) maximum
        // lies on the far side of it. The Q=0 lobe sits at lower u than
        // the Q=1 lobe, which fixes the scan direction. All gaps are
        // finite here (guaranteed by `from_points`), so `total_cmp`
        // agrees with the ordinary ordering.
        let n_all = gaps.len() - 1;
        let peak_pos = max_over(0..=n_all, 1.0);
        let peak_neg = max_over(0..=n_all, -1.0);
        if peak_pos >= peak_neg {
            // Q=0 survives; the vanished Q=1 lobe is to the right of the
            // surviving peak.
            let i_peak = gaps
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            (peak_pos, max_over(i_peak..=n_all, -1.0))
        } else {
            // Q=1 survives; the vanished Q=0 lobe is to the left.
            let i_peak = gaps
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            (max_over(0..=i_peak, 1.0), peak_neg)
        }
    };
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let snm_low = gap_pos * inv_sqrt2;
    let snm_high = gap_neg * inv_sqrt2;
    SnmReport {
        snm_low,
        snm_high,
        rnm: snm_low.min(snm_high),
    }
}

/// The binary-search scan [`try_read_noise_margin`] replaced, kept as
/// the reference its cursor walk is tested against bit for bit.
#[cfg(test)]
fn try_read_noise_margin_reference(butterfly: &Butterfly) -> Result<SnmReport, EvalError> {
    let a = RotatedCurve::from_points(butterfly.points_a())?;
    // Curve B runs in descending u as sampled (its x coordinate falls as
    // the grid rises); reverse so u ascends.
    let b_pts: Vec<(f64, f64)> = butterfly.points_b().collect();
    let b = RotatedCurve::from_points(b_pts.into_iter().rev())?;
    let usable = a.u.len().min(b.u.len());
    if usable < 2 {
        return Err(EvalError::DegenerateCurve { usable });
    }

    let lo = a.u_min().max(b.u_min());
    let hi = a.u_max().min(b.u_max());
    // Dense uniform scan across the overlap; 4× the native resolution
    // keeps the interpolation error negligible.
    let n = 4 * butterfly.len().max(2);
    let us: Vec<f64> = (0..=n)
        .map(|i| lo + (hi - lo) * i as f64 / n as f64)
        .collect();
    let gaps: Vec<f64> = us.iter().map(|&u| a.eval(u) - b.eval(u)).collect();

    // Indices of sign changes of g — the butterfly intersections (DC
    // fixed points of the cross-coupled loop).
    let crossings: Vec<usize> = (1..gaps.len())
        .filter(|&i| gaps[i - 1].signum() != gaps[i].signum() && gaps[i - 1] != 0.0)
        .collect();

    let max_over = |range: std::ops::RangeInclusive<usize>, sign: f64| {
        gaps[range]
            .iter()
            .fold(f64::NEG_INFINITY, |acc, &g| acc.max(sign * g))
    };

    let (gap_pos, gap_neg) = if crossings.len() >= 3 {
        // Bistable: the outermost crossings are the stable states; both
        // lobes live between them (g > 0 in the Q=0 lobe at low u, g < 0
        // in the Q=1 lobe at high u). Scanning between the outer
        // crossings excludes the thin truncation slivers outside them.
        let (i_lo, i_hi) = (crossings[0], crossings[crossings.len() - 1]);
        (max_over(i_lo..=i_hi, 1.0), max_over(i_lo..=i_hi, -1.0))
    } else {
        // Monostable (or tangent): only one state's lobe has a genuine
        // peak; the other lobe's gap never reaches zero. Split at the
        // surviving lobe's peak: the vanished lobe's (negative) maximum
        // lies on the far side of it. The Q=0 lobe sits at lower u than
        // the Q=1 lobe, which fixes the scan direction. All gaps are
        // finite here (guaranteed by `from_points`), so `total_cmp`
        // agrees with the ordinary ordering.
        let n_all = gaps.len() - 1;
        let peak_pos = max_over(0..=n_all, 1.0);
        let peak_neg = max_over(0..=n_all, -1.0);
        if peak_pos >= peak_neg {
            // Q=0 survives; the vanished Q=1 lobe is to the right of the
            // surviving peak.
            let i_peak = gaps
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            (peak_pos, max_over(i_peak..=n_all, -1.0))
        } else {
            // Q=1 survives; the vanished Q=0 lobe is to the left.
            let i_peak = gaps
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            (max_over(0..=i_peak, 1.0), peak_neg)
        }
    };
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let snm_low = gap_pos * inv_sqrt2;
    let snm_high = gap_neg * inv_sqrt2;
    Ok(SnmReport {
        snm_low,
        snm_high,
        rnm: snm_low.min(snm_high),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::{CellDevice, Sram6T};

    fn margin(cell: &Sram6T, read: bool, points: usize) -> SnmReport {
        let bias = if read {
            cell.read_bias()
        } else {
            cell.hold_bias()
        };
        read_noise_margin(&Butterfly::sample(cell, &bias, points))
    }

    #[test]
    fn ideal_step_inverters_give_half_vdd_margin() {
        // Synthetic butterfly from ideal inverters: SNM must be VDD/2.
        let vdd = 1.0;
        let n = 201;
        let grid: Vec<f64> = (0..n).map(|i| vdd * i as f64 / (n - 1) as f64).collect();
        let step = |x: f64| if x < 0.5 * vdd { vdd } else { 0.0 };
        let b = Butterfly {
            grid: grid.clone(),
            curve_a: grid.iter().map(|&x| step(x)).collect(),
            curve_b: grid.iter().map(|&x| step(x)).collect(),
        };
        let m = read_noise_margin(&b);
        assert!(
            (m.rnm - 0.5 * vdd).abs() < 0.02,
            "ideal SNM = {}, want 0.5",
            m.rnm
        );
        assert!((m.snm_low - m.snm_high).abs() < 0.02);
    }

    #[test]
    fn nominal_cell_is_read_stable() {
        let cell = Sram6T::paper_cell();
        let m = margin(&cell, true, 121);
        assert!(m.rnm > 0.02, "nominal RNM = {} V", m.rnm);
        // Symmetric cell: both lobes agree.
        assert!(
            (m.snm_low - m.snm_high).abs() < 2e-3,
            "lobe asymmetry: {} vs {}",
            m.snm_low,
            m.snm_high
        );
    }

    #[test]
    fn hold_margin_exceeds_read_margin() {
        let cell = Sram6T::paper_cell();
        let read = margin(&cell, true, 121);
        let hold = margin(&cell, false, 121);
        assert!(
            hold.rnm > read.rnm + 0.01,
            "hold {} should comfortably exceed read {}",
            hold.rnm,
            read.rnm
        );
    }

    #[test]
    fn margin_decreases_monotonically_with_mismatch() {
        let cell = Sram6T::paper_cell();
        let mut prev = f64::INFINITY;
        for k in 0..7 {
            let s = 0.05 * k as f64;
            // Worst-case read direction: weaken one driver, strengthen
            // the other (driver mismatch dominates read stability).
            let mut dv = [0.0; 6];
            dv[CellDevice::DriverR as usize] = s;
            dv[CellDevice::DriverL as usize] = -s;
            let m = margin(&cell.with_delta_vth(&dv), true, 121);
            assert!(
                m.rnm < prev + 1e-6,
                "margin should fall with mismatch: step {k} gives {}",
                m.rnm
            );
            prev = m.rnm;
        }
        // By the largest skew the cell must have failed.
        assert!(
            prev < 0.0,
            "expected failure at 0.3 V skew, margin = {prev}"
        );
    }

    #[test]
    fn signed_margin_goes_negative_continuously() {
        // Bracket the failure boundary and confirm the margin passes
        // through ≈0 rather than jumping.
        let cell = Sram6T::paper_cell();
        let skew = |s: f64| {
            let mut dv = [0.0; 6];
            dv[CellDevice::DriverR as usize] = s;
            dv[CellDevice::DriverL as usize] = -s;
            dv
        };
        let mut lo = 0.0; // stable
        let mut hi = 0.30; // unstable (verified by the test above)
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            let m = margin(&cell.with_delta_vth(&skew(mid)), true, 121);
            if m.rnm > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let m = margin(&cell.with_delta_vth(&skew(0.5 * (lo + hi))), true, 121);
        assert!(
            m.rnm.abs() < 5e-3,
            "margin at the bisected boundary should be near zero, got {}",
            m.rnm
        );
    }

    #[test]
    fn mirroring_swaps_lobes() {
        let cell = Sram6T::paper_cell().with_delta_vth(&[0.03, -0.02, 0.01, 0.04, -0.01, 0.02]);
        let m = margin(&cell, true, 121);
        let mm = margin(&cell.mirrored(), true, 121);
        assert!((m.snm_low - mm.snm_high).abs() < 2e-3, "{m:?} vs {mm:?}");
        assert!((m.snm_high - mm.snm_low).abs() < 2e-3);
        assert!((m.rnm - mm.rnm).abs() < 2e-3);
    }

    #[test]
    fn lower_vdd_reduces_margin() {
        let hi = margin(&Sram6T::paper_cell_at(0.7), true, 121);
        let lo = margin(&Sram6T::paper_cell_at(0.5), true, 121);
        assert!(
            lo.rnm < hi.rnm,
            "margin at 0.5 V ({}) should be below 0.7 V ({})",
            lo.rnm,
            hi.rnm
        );
    }

    #[test]
    fn nan_curve_yields_typed_error() {
        let b = Butterfly {
            grid: vec![0.0, 0.5, 1.0],
            curve_a: vec![1.0, f64::NAN, 0.0],
            curve_b: vec![1.0, 0.5, 0.0],
        };
        match try_read_noise_margin(&b) {
            Err(EvalError::NonFinite { .. }) => {}
            other => panic!("expected NonFinite error, got {other:?}"),
        }
    }

    #[test]
    fn collapsed_curve_yields_degenerate_error() {
        // Every point identical → after monotone-u filtering a single
        // usable point remains.
        let b = Butterfly {
            grid: vec![0.3; 4],
            curve_a: vec![0.3; 4],
            curve_b: vec![0.3; 4],
        };
        match try_read_noise_margin(&b) {
            Err(EvalError::DegenerateCurve { usable }) => assert!(usable < 2),
            other => panic!("expected DegenerateCurve error, got {other:?}"),
        }
    }

    #[test]
    fn try_variant_matches_panicking_variant() {
        let cell = Sram6T::paper_cell();
        let b = Butterfly::sample(&cell, &cell.read_bias(), 61);
        let a = read_noise_margin(&b);
        let t = try_read_noise_margin(&b).expect("healthy butterfly");
        assert_eq!(a, t);
    }

    #[test]
    fn resolution_convergence() {
        // Doubling the butterfly resolution should barely move the margin.
        let cell = Sram6T::paper_cell();
        let coarse = margin(&cell, true, 61).rnm;
        let fine = margin(&cell, true, 241).rnm;
        assert!(
            (coarse - fine).abs() < 3e-3,
            "margin drifted with resolution: {coarse} vs {fine}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::sram::Sram6T;
    use crate::testbench::ReadStabilityBench;
    use proptest::prelude::*;

    /// Every field of the two reports has the same bits.
    fn same_bits(x: &SnmReport, y: &SnmReport) -> bool {
        x.snm_low.to_bits() == y.snm_low.to_bits()
            && x.snm_high.to_bits() == y.snm_high.to_bits()
            && x.rnm.to_bits() == y.rnm.to_bits()
    }

    /// The paper cell with whitened shifts `ks` (in Pelgrom sigmas),
    /// sampled the way a simulation samples it: the coarse 31-point pass
    /// at 0.3 mV, or a fine pass at 0.1 µV.
    fn cell_butterfly(ks: &[f64], fine: bool, read: bool) -> Butterfly {
        let sigmas = ReadStabilityBench::paper_cell().pelgrom_sigmas();
        let dv: Vec<f64> = ks.iter().zip(sigmas).map(|(k, s)| k * s).collect();
        let cell = Sram6T::paper_cell().with_delta_vth(&dv);
        let bias = if read {
            cell.read_bias()
        } else {
            cell.hold_bias()
        };
        let (points, resolution) = if fine { (61, 1e-7) } else { (31, 3e-4) };
        Butterfly::try_sample_counted(&cell, &bias, points, resolution)
            .expect("paper cell within ±6σ samples cleanly")
            .0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On butterflies of ±6σ cells the cursor sweep gives the margins
        /// of the binary-search scan bit for bit, and its cursor lookups
        /// equal pointwise `RotatedCurve::eval` at every scan point.
        #[test]
        fn prop_cursor_sweep_matches_binary_search_on_cell_butterflies(
            ks in collection::vec(-6.0f64..6.0, 6),
            fine in proptest::bool::ANY,
            read in proptest::bool::ANY,
        ) {
            let b = cell_butterfly(&ks, fine, read);
            let swept = try_read_noise_margin(&b).expect("cursor sweep");
            let reference = try_read_noise_margin_reference(&b).expect("reference");
            prop_assert!(same_bits(&swept, &reference), "{:?} vs {:?}", swept, reference);

            let a = RotatedCurve::from_points(b.points_a()).expect("curve A");
            let c = RotatedCurve::from_points(b.points_b().rev()).expect("curve B");
            let (lo, hi) = (a.u_min().max(c.u_min()), a.u_max().min(c.u_max()));
            let n = 4 * b.len();
            let (mut cursor_a, mut cursor_c) = (0, 0);
            for i in 0..=n {
                let u = lo + (hi - lo) * i as f64 / n as f64;
                prop_assert_eq!(a.eval_at(&mut cursor_a, u).to_bits(), a.eval(u).to_bits());
                prop_assert_eq!(c.eval_at(&mut cursor_c, u).to_bits(), c.eval(u).to_bits());
            }
        }

        /// On arbitrary (non-monotone, possibly non-overlapping) curves,
        /// including ones whose scan runs backwards, the sweep still
        /// agrees with the reference bit for bit, errors included.
        #[test]
        fn prop_cursor_sweep_matches_binary_search_on_arbitrary_curves(
            points in collection::vec((-0.2f64..0.9, -0.2f64..0.9), 1..40),
        ) {
            let n = points.len();
            let b = Butterfly {
                grid: (0..n).map(|i| 0.7 * i as f64 / (n.max(2) - 1) as f64).collect(),
                curve_a: points.iter().map(|p| p.0).collect(),
                curve_b: points.iter().map(|p| p.1).collect(),
            };
            match (try_read_noise_margin(&b), try_read_noise_margin_reference(&b)) {
                (Ok(x), Ok(y)) => prop_assert!(same_bits(&x, &y), "{:?} vs {:?}", x, y),
                (x, y) => prop_assert_eq!(x, y),
            }
        }

        /// A cursor carried across queries in any order (up, down,
        /// repeated, out of range, on a sample, ±0 against a sample at
        /// +0) lands where a fresh binary search does.
        #[test]
        fn prop_cursor_eval_matches_pointwise_in_any_order(
            us in collection::vec(-1.0f64..1.0, 2..30),
            vs in collection::vec((-1.0f64..1.0, -20.0f64..0.0), 31),
            queries in collection::vec(-1.5f64..1.5, 1..60),
        ) {
            let mut u = us;
            u.push(0.0);
            u.sort_by(f64::total_cmp);
            u.dedup();
            // Magnitudes spread over 20 decades, so that interpolating
            // to the end of a segment can round away from the sample.
            let v = vs[..u.len()].iter().map(|&(m, e)| m * 10f64.powf(e)).collect();
            let curve = RotatedCurve { u, v };
            let mut cursor = 0;
            for (k, &q) in queries.iter().enumerate() {
                let q = match k % 4 {
                    2 => curve.u[k % curve.u.len()],
                    3 => if k % 8 == 3 { 0.0 } else { -0.0 },
                    _ => q,
                };
                prop_assert_eq!(curve.eval_at(&mut cursor, q).to_bits(), curve.eval(q).to_bits());
            }
        }
    }
}
