//! Property tests for the warm-start cache: neighbour seeding and the
//! adaptive coarse-first resolution policy are pure accelerations — the
//! verdicts they produce are bit-identical to the fixed-resolution cold
//! path on arbitrary operating points, including repeat queries served
//! by the exact tier.

use ecripse_core::bench::Testbench;
use ecripse_core::{Scenario, SramScenarioBench, WarmBench, WarmCacheConfig};
use ecripse_spice::testbench::BenchConfig;
use proptest::prelude::*;

fn fixed_bench() -> SramScenarioBench {
    let mut config = BenchConfig::default();
    config.adaptive.enabled = false;
    SramScenarioBench::with_config(Scenario::ReadSnm, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A warm-cached adaptive bench and a fixed-resolution bench agree
    /// on every sample: first on a cold store, then with the second
    /// point close enough to be neighbour-seeded by the first, then on
    /// exact-tier repeats of both.
    #[test]
    fn seeded_and_cold_verdicts_are_identical(
        base in proptest::collection::vec(-4.0..4.0_f64, 6..7),
        delta in proptest::collection::vec(-0.3..0.3_f64, 6..7),
        scale in 0.5..1.6_f64,
    ) {
        let inner = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        let warm = WarmBench::new(&inner, WarmCacheConfig::default());
        let fixed = fixed_bench();
        let first: Vec<f64> = base.iter().map(|b| b * scale).collect();
        let second: Vec<f64> = first.iter().zip(&delta).map(|(b, d)| b + d).collect();
        for pass in 0..2 {
            for z in [&first, &second] {
                prop_assert_eq!(
                    warm.try_fails(z).ok(),
                    fixed.try_fails(z).ok(),
                    "warm/fixed divergence on pass {} at {:?}", pass, z
                );
            }
        }
        let stats = warm.stats();
        prop_assert_eq!(stats.exact_hits, 2, "second pass must hit the exact tier");
    }

    /// Batch evaluation through the warm cache matches element-wise
    /// fixed-resolution evaluation in input order.
    #[test]
    fn warm_batches_match_fixed_elementwise(
        points in proptest::collection::vec(proptest::collection::vec(-4.0..4.0_f64, 6..7), 2..6),
    ) {
        let inner = SramScenarioBench::paper_cell(Scenario::ReadSnm);
        let warm = WarmBench::new(&inner, WarmCacheConfig::default());
        let fixed = fixed_bench();
        let zs: Vec<Vec<f64>> = points;
        let batch = warm.fails_batch(&zs);
        for (z, verdict) in zs.iter().zip(&batch) {
            prop_assert_eq!(*verdict, fixed.fails(z), "batch divergence at {:?}", z);
        }
    }
}
