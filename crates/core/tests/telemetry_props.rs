//! Property tests for the telemetry histogram: quantiles are monotone
//! in rank, bounded by the recorded min/max, within a quarter of the
//! exact order statistic, and consistent with the Prometheus rendering
//! of the same data.

use ecripse_core::telemetry::{Histogram, MetricsRegistry};
use proptest::prelude::*;

/// Expands raw `(unit, kind)` pairs into observations spanning many
/// orders of magnitude, including zero and sub-resolution values that
/// land in the histogram's first bucket.
fn expand(raw: &[(f64, u64)]) -> Vec<f64> {
    raw.iter()
        .map(|&(u, kind)| match kind {
            0 => 1e-9 + u * 1e-3,
            1 => u,
            2 => u * 1e3,
            _ => 0.0,
        })
        .collect()
}

fn recorded(values: &[f64]) -> Histogram {
    let h = Histogram::new();
    for v in values {
        h.record(*v);
    }
    h
}

proptest! {
    /// `quantile(q)` never decreases as the rank `q` grows.
    #[test]
    fn quantiles_are_monotone_in_rank(
        raw in proptest::collection::vec((0.0..1.0_f64, 0u64..4), 1..200),
        ranks in proptest::collection::vec(0.0..=1.0_f64, 2..20),
    ) {
        let h = recorded(&expand(&raw));
        let mut sorted = ranks;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ranks"));
        let mut last = f64::NEG_INFINITY;
        for q in sorted {
            let value = h.quantile(q).expect("non-empty histogram");
            prop_assert!(
                value >= last,
                "quantile({}) = {} dropped below previous {}", q, value, last
            );
            last = value;
        }
    }

    /// Every quantile lies within the recorded `[min, max]` envelope
    /// (the estimator clamps bucket bounds into it), including the
    /// extreme ranks.
    #[test]
    fn quantiles_are_bounded_by_min_max(
        raw in proptest::collection::vec((0.0..1.0_f64, 0u64..4), 1..200),
        q in 0.0..=1.0_f64,
    ) {
        let h = recorded(&expand(&raw));
        let min = h.min().expect("non-empty");
        let max = h.max().expect("non-empty");
        for rank in [0.0, q, 1.0] {
            let value = h.quantile(rank).expect("non-empty");
            prop_assert!(
                min <= value && value <= max,
                "quantile({}) = {} outside [{}, {}]", rank, value, min, max
            );
        }
    }

    /// The Prometheus rendering agrees with the histogram's own
    /// accessors: `_count` matches, `_sum` matches, bucket counts are
    /// cumulative and the `+Inf` bucket equals the total.
    #[test]
    fn prometheus_rendering_agrees_with_accessors(
        raw in proptest::collection::vec((0.0..1.0_f64, 0u64..4), 1..200),
    ) {
        let values = expand(&raw);
        let registry = MetricsRegistry::new();
        let h = registry.histogram("latency_seconds", "Test latency.");
        for v in &values {
            h.record(*v);
        }
        let text = registry.render_prometheus();
        let count_line = format!("latency_seconds_count {}", h.count());
        prop_assert!(text.contains(&count_line), "missing {:?} in {:?}", count_line, text);

        let mut last = 0u64;
        let mut inf_count = None;
        for line in text.lines().filter(|l| l.starts_with("latency_seconds_bucket")) {
            let cumulative: u64 = line
                .rsplit(' ')
                .next()
                .expect("bucket value")
                .parse()
                .expect("bucket count is integral");
            prop_assert!(cumulative >= last, "bucket counts must be cumulative: {}", line);
            last = cumulative;
            if line.contains("le=\"+Inf\"") {
                inf_count = Some(cumulative);
            }
        }
        prop_assert_eq!(inf_count, Some(h.count()));

        let sum_line = text
            .lines()
            .find(|l| l.starts_with("latency_seconds_sum"))
            .expect("sum line");
        let rendered_sum: f64 = sum_line.rsplit(' ').next().expect("value").parse().expect("sum");
        let expected: f64 = values.iter().copied().map(|v| v.max(0.0)).sum();
        prop_assert!(
            (rendered_sum - expected).abs() <= 1e-9 * expected.abs() + 1e-12,
            "rendered sum {} != recorded sum {}", rendered_sum, expected
        );
    }

    /// Above the first bucket every bucket is at most a quarter of its
    /// lower bound wide, and the estimate lies in the bucket holding
    /// the exact rank-`q` order statistic `sorted[ceil(q·n) − 1]`, so
    /// it is within 25 % of that value.
    #[test]
    fn quantile_error_is_within_a_quarter_of_the_exact_value(
        exponents in proptest::collection::vec(-19.0..=12.0_f64, 1..300),
        q in 0.0..=1.0_f64,
    ) {
        let values: Vec<f64> = exponents
            .iter()
            .map(|&e| 2.0_f64.powf(e).clamp(2.0_f64.powi(-19), 4000.0))
            .collect();
        let h = recorded(&values);
        let mut sorted = values;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = sorted.len();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let exact = sorted[rank - 1];
        let estimate = h.quantile(q).expect("non-empty histogram");
        prop_assert!(
            (estimate - exact).abs() <= 0.25 * exact * (1.0 + 1e-12),
            "quantile({}) = {} vs exact {} over {} samples", q, estimate, exact, n
        );
    }
}
