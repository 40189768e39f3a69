//! Golden test of the baselines' cost axis: the simulations each of the
//! paper's comparison methods bills, and the bits of its estimate, at
//! fixed seeds on the synthetic benches.
//!
//! Fig. 6 and Fig. 7 compare methods by simulation count, so a change
//! to how a baseline bills moves every plotted curve even when the
//! estimate stays put. The pins must hold in debug and release builds
//! alike: a check that evaluates the bench only in one profile would
//! show up here as a count that differs between them.

use ecripse_core::baseline::{
    gibbs_is, mean_shift_is, naive_monte_carlo, statistical_blockade, BlockadeConfig, GibbsConfig,
    MeanShiftConfig, NaiveConfig,
};
use ecripse_core::bench::{LinearBench, TwoLobeBench};
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::rtn_source::NoRtn;
use ecripse_svm::classifier::SvmConfig;

/// Asserts `(simulations, P_fail bits)` against a pin.
fn pinned(method: &str, got: (u64, f64), simulations: u64, p_fail_bits: u64) {
    assert_eq!(
        (got.0, got.1.to_bits()),
        (simulations, p_fail_bits),
        "{method}: (simulations, P_fail bits) moved; P_fail is now {:e}",
        got.1
    );
}

fn importance(n_samples: usize) -> ImportanceConfig {
    ImportanceConfig {
        n_samples,
        m_rtn: 1,
        trace_every: 0,
    }
}

#[test]
fn naive_monte_carlo_bills_one_simulation_per_trial() {
    let bench = TwoLobeBench::new(vec![1.0, 0.5], 2.5);
    let config = NaiveConfig {
        n_samples: 20_000,
        seed: 17,
        ..NaiveConfig::default()
    };
    let res = naive_monte_carlo(&bench, &NoRtn::new(2), &config);
    pinned(
        "naive",
        (res.simulations, res.p_fail),
        20_000,
        0x3f99_4af4_f0d8_44d0,
    );
}

#[test]
fn statistical_blockade_bills_the_pilot_and_the_unblocked_trials() {
    let bench = LinearBench::new(vec![1.0, 0.0], 2.3);
    let config = BlockadeConfig {
        n_pilot: 800,
        n_samples: 20_000,
        svm: SvmConfig {
            degree: 2,
            ..SvmConfig::default()
        },
        seed: 5,
        ..BlockadeConfig::default()
    };
    let res = statistical_blockade(&bench, &NoRtn::new(2), &config).expect("pilot has failures");
    pinned(
        "blockade",
        (res.simulations, res.p_fail),
        1_155,
        0x3f85_e9e1_b089_a027,
    );
}

#[test]
fn mean_shift_bills_the_search_and_every_importance_sample() {
    let bench = LinearBench::new(vec![1.0, 0.5], 3.0);
    let config = MeanShiftConfig {
        importance: importance(2_000),
        seed: 23,
        ..MeanShiftConfig::default()
    };
    let res = mean_shift_is(&bench, &NoRtn::new(2), &config).expect("boundary found");
    pinned(
        "mean-shift",
        (res.simulations, res.importance.p_fail),
        2_952,
        0x3f6e_e1ba_6687_1ea2,
    );
}

#[test]
fn gibbs_bills_the_search_every_proposal_and_every_importance_sample() {
    let config = GibbsConfig {
        importance: importance(1_000),
        ..GibbsConfig::default()
    };
    let res = gibbs_is(&LinearBench::new(vec![1.0], 3.0), &NoRtn::new(1), &config).expect("runs");
    pinned(
        "gibbs linear",
        (res.simulations, res.importance.p_fail),
        1_354,
        0x3f54_1a8b_0a91_32bd,
    );

    let config = GibbsConfig {
        n_chains: 6,
        importance: importance(2_000),
        seed: 29,
        ..GibbsConfig::default()
    };
    let bench = TwoLobeBench::new(vec![1.0, 0.0], 3.0);
    let res = gibbs_is(&bench, &NoRtn::new(2), &config).expect("runs");
    pinned(
        "gibbs two-lobe",
        (res.simulations, res.importance.p_fail),
        2_826,
        0x3f65_e4e6_bc4f_dfab,
    );
}
