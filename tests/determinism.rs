//! Determinism property: same seed + same config ⇒ bit-identical
//! [`Summary`], for every strategy of the paper's Fig. 6 set (plus the
//! adaptive controller). Placement goes through one concrete
//! `lb_core::Broker` (report channel, one policy per work class); nothing
//! on that path may introduce run-to-run nondeterminism (iteration order,
//! hidden RNG, time-dependent state).
//!
//! "Bit-identical" is checked on the serialized summary, which covers
//! every counter and every float bit pattern.

use parallel_lb::prelude::*;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

fn cfg(strat: Strategy, n: u32, rate: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(n, WorkloadSpec::homogeneous_join(0.01, rate), strat)
        .with_seed(seed)
        .with_sim_time(SimDur::from_secs(5), SimDur::from_secs(1))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4, // each case runs 2 short simulations per strategy
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_same_seed_bit_identical_summary(
        seed in 0u64..10_000,
        n in 8u32..16,
        rate_milli in 50u64..200,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let mut strategies = Strategy::fig6_set();
        strategies.push(Strategy::Adaptive);
        for strat in strategies {
            let a = snsim::run_one(cfg(strat, n, rate, seed));
            let b = snsim::run_one(cfg(strat, n, rate, seed));
            let ja = serde_json::to_string(&a).expect("serialize");
            let jb = serde_json::to_string(&b).expect("serialize");
            prop_assert_eq!(
                ja,
                jb,
                "strategy {} diverged for seed {} (n = {}, rate = {})",
                strat.name(),
                seed,
                n,
                rate
            );
        }
    }
}

/// Different seeds must actually change the run (the property above would
/// trivially pass if seeding were ignored).
#[test]
fn different_seeds_produce_different_runs() {
    let a = snsim::run_one(cfg(Strategy::OptIoCpu, 10, 0.1, 1));
    let b = snsim::run_one(cfg(Strategy::OptIoCpu, 10, 0.1, 2));
    assert_ne!(a.events, b.events);
}

/// A rebalance-enabled configuration (skewed fragments, online fragment
/// migrations as real traffic) must stay bit-identical across runs: the
/// controller, the migration jobs and the placement flips introduce no
/// hidden nondeterminism.
fn rebalance_cfg(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_default(
        12,
        WorkloadSpec::homogeneous_join(0.05, 0.02),
        Strategy::OptIoCpu,
    )
    .with_seed(seed)
    .with_sim_time(SimDur::from_secs(20), SimDur::from_secs(4));
    c.placement = snsim::config::DataPlacementConfig {
        data_skew: 0.6,
        fragment_count: 48,
        rebalance: Some(lb_core::RebalanceConfig::default()),
    };
    c
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3,
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_rebalance_runs_bit_identical(seed in 0u64..10_000) {
        let a = snsim::run_one(rebalance_cfg(seed));
        let b = snsim::run_one(rebalance_cfg(seed));
        prop_assert!(a.migrations > 0, "skewed layout must trigger moves");
        let ja = serde_json::to_string(&a).expect("serialize");
        let jb = serde_json::to_string(&b).expect("serialize");
        prop_assert_eq!(ja, jb, "rebalance-enabled run diverged for seed {}", seed);
    }
}
