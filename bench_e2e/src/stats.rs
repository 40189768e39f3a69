//! Order statistics, interval arithmetic and the comparison rule.

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The three quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (default `exclusive` method) gives
/// them, so spreads read the same here as in any Python check.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples, as in Python: it extrapolates.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The highest percentile that has at least ten samples beyond it, as
/// `(percentile, value)` by nearest rank. `None` below 20 samples, where
/// that percentile would not even reach the median.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted(xs)[rank - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Total length covered by the union of `[start, end]` intervals.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in v {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// Length of the union of `intervals` that falls inside `window`.
pub fn union_len_within(intervals: &[(f64, f64)], window: (f64, f64)) -> f64 {
    let clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(window.0), b.min(window.1)))
        .collect();
    union_len(&clipped)
}

/// The outcome of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine tenths of the pairs and the medians
    /// differ by more than the parent's quartile spread.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The spread of either side is wider than the bound, so a change
    /// within the bound cannot be told from noise.
    Unresolved,
    /// None of the above.
    Same,
    /// For a metric without a bound: the parent wins by the improvement
    /// rule.
    Worsened,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Worsened => "worsened",
        }
    }
}

/// Compares `change` runs against `parent` runs of one metric. Pairs are
/// formed in run order. `bound` is the share of the parent's median by
/// which the metric may worsen; metrics without one can only come out
/// improved, worsened or the same.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins_and_moves = |ours: &[f64], theirs: &[f64]| {
        let pairs = ours.len().min(theirs.len());
        let wins = ours
            .iter()
            .zip(theirs)
            .filter(|(o, t)| better(**o, **t))
            .count();
        let [q1, _, q3] = quartiles(theirs);
        pairs > 0
            && wins * 10 >= pairs * 9
            && better(median(ours), median(theirs))
            && (median(ours) - median(theirs)).abs() > q3 - q1
    };
    if wins_and_moves(change, parent) {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if wins_and_moves(parent, change) {
            Verdict::Worsened
        } else {
            Verdict::Same
        };
    };
    let (p, c) = (median(parent), median(change));
    let worse_by = if higher_is_better {
        (p - c) / p.abs()
    } else {
        (c - p) / p.abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if relative_iqr(parent) > bound || relative_iqr(change) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=250).map(f64::from).collect();
        let (pct, value) = tail(&xs).expect("250 samples have a tail");
        assert_eq!(pct, 96.0);
        assert_eq!(xs.iter().filter(|x| **x > value).count(), 10);
    }

    #[test]
    fn interval_union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0.0);
        assert_eq!(union_len(&[(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]), 3.0);
        assert_eq!(union_len(&[(3.0, 4.0), (0.0, 10.0), (2.0, 2.5)]), 10.0);
        assert_eq!(union_len(&[(1.0, 1.0), (2.0, 1.0)]), 0.0);
        // A stage span of [1, 5] with spice calls [0, 2] and [4, 4.5]
        // and [4.2, 6]: 1 + 1 = 2 covered inside the stage, 2 self.
        let calls = [(0.0, 2.0), (4.0, 4.5), (4.2, 6.0)];
        assert_eq!(union_len_within(&calls, (1.0, 5.0)), 2.0);
        assert_eq!(union_len_within(&calls, (7.0, 8.0)), 0.0);
    }

    #[test]
    fn verdicts_follow_the_pair_and_spread_rules() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let jitter = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.00];
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0];
        assert_eq!(
            verdict(&parent, &faster, false, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &slower, false, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&parent, &jitter, false, Some(0.1)), Verdict::Same);
        assert_eq!(
            verdict(&parent, &noisy, false, Some(0.1)),
            Verdict::Unresolved
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&parent, &slower, true, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &faster, true, Some(0.1)),
            Verdict::Regressed
        );
        // Eight wins in ten is not enough to claim a gain.
        let mut mostly = faster.clone();
        mostly[0] = 2.0;
        mostly[1] = 2.0;
        assert_eq!(verdict(&parent, &mostly, false, Some(0.5)), Verdict::Same);
        // Without a bound only the improvement rule applies, both ways.
        assert_eq!(verdict(&parent, &faster, false, None), Verdict::Improved);
        assert_eq!(verdict(&parent, &slower, false, None), Verdict::Worsened);
        assert_eq!(verdict(&parent, &noisy, false, None), Verdict::Same);
    }
}
