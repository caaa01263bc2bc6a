//! Perf-parity properties: the clean-configured control-plane
//! decorators (lagged broker at zero staleness/loss, single-rack
//! hierarchical broker) are pure structure changes. Each must produce a
//! [`Summary`] **bit-identical** to the central broker on the same
//! configuration, across the Fig. 6 strategy set and the network /
//! placement / admission / mixed scenario families. (The central
//! broker's incremental rankings are checked against a naive
//! sort-per-call oracle by the equivalence proptest in
//! `crates/core/src/control.rs`.)
//!
//! "Bit-identical" is checked on the serialized summary, covering every
//! counter and every float bit pattern.

use lb_core::{BrokerConfig, BrokerKind};
use parallel_lb::prelude::*;
use proptest::prelude::{proptest, ProptestConfig};

/// Run `base` under the central broker and under each pass-through
/// decorator, asserting byte-equal summaries.
fn assert_parity(base: SimConfig, label: &str) {
    // A lagged broker with no staleness and no loss and a one-rack
    // hierarchical broker are pass-throughs.
    let lagged = base.clone().with_broker(BrokerConfig {
        kind: BrokerKind::Lagged,
        ..BrokerConfig::default()
    });
    let hier = base.clone().with_broker(BrokerConfig {
        kind: BrokerKind::Hierarchical,
        ..BrokerConfig::default()
    });
    let j = |cfg: SimConfig| serde_json::to_string(&snsim::run_one(cfg)).expect("serialize");
    let want = j(base);
    assert_eq!(want, j(lagged), "clean lagged broker diverged: {label}");
    assert_eq!(want, j(hier), "one-rack hierarchical diverged: {label}");
}

fn join_cfg(strat: Strategy, n: u32, rate: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(n, WorkloadSpec::homogeneous_join(0.01, rate), strat)
        .with_seed(seed)
        .with_sim_time(SimDur::from_secs(5), SimDur::from_secs(1))
}

fn mixed_cfg(strat: Strategy, n: u32, join_rate: f64, tps: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(
        n,
        WorkloadSpec::mixed(
            0.01,
            join_rate,
            dbmodel::RelationId(2),
            tps,
            workload::NodeFilter::BNodes,
        ),
        strat,
    )
    .with_seed(seed)
    .with_sim_time(SimDur::from_secs(5), SimDur::from_secs(1))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2, // each case runs 3 short simulations per strategy
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_fig6_strategies_parity(
        seed in 0u64..10_000,
        n in 8u32..16,
        rate_milli in 50u64..200,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let mut strategies = Strategy::fig6_set();
        strategies.push(Strategy::Adaptive);
        for strat in strategies {
            assert_parity(join_cfg(strat, n, rate, seed), strat.name());
        }
    }
}

/// Network family: a shuffle-heavy join on a 10× slower fabric, where
/// the interconnect becomes the ranked bottleneck resource.
#[test]
fn network_bound_parity() {
    let cfg = join_cfg(Strategy::OptIoCpu, 12, 0.15, 7).with_net_speed(0.1);
    assert_parity(cfg, "network_bound");
}

/// Placement family: skewed fragments with the online rebalancer moving
/// data mid-run (migrations ride the ranked views too).
#[test]
fn rebalance_parity() {
    let mut cfg = SimConfig::paper_default(
        12,
        WorkloadSpec::homogeneous_join(0.05, 0.02),
        Strategy::OptIoCpu,
    )
    .with_seed(11)
    .with_sim_time(SimDur::from_secs(12), SimDur::from_secs(3));
    cfg.placement = snsim::config::DataPlacementConfig {
        data_skew: 0.6,
        fragment_count: 48,
        rebalance: Some(lb_core::RebalanceConfig::default()),
    };
    assert_parity(cfg, "rebalance");
}

/// Admission family: the malleable policy reacts to the broker's
/// per-kind averages every report round.
#[test]
fn admission_parity() {
    let cfg = join_cfg(Strategy::OptIoCpu, 10, 0.2, 3)
        .with_mpl(4)
        .with_admission(sched::AdmissionConfig {
            policy: sched::AdmissionPolicyKind::Malleable,
            max_queue: 128,
            ..sched::AdmissionConfig::default()
        });
    assert_parity(cfg, "admission");
}

/// Mixed OLTP workload: per-arrival coordinator picks exercise the
/// ranked reads at the highest call rate while joins are live.
#[test]
fn mixed_oltp_parity() {
    let cfg = mixed_cfg(Strategy::OptIoCpu, 10, 0.075, 60.0, 5);
    assert_parity(cfg, "mixed_oltp");
}
