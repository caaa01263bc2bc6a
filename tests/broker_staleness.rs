//! Control-plane parity and determinism properties.
//!
//! The broker's honest-control-plane report channels must change
//! **nothing** until their faults are actually switched on: the lagged
//! channel at staleness 0 / loss 0 and the single-rack hierarchical
//! channel must reproduce the direct channel's [`Summary`] bit-for-bit
//! across the Fig. 6 strategy set. And once faults *are* on, they must be
//! exactly reproducible: the fault randomness rides its own stream
//! forked from the run seed, so the same seed gives the same summary,
//! byte for byte, staleness and suspicions included.

use lb_core::{BrokerConfig, BrokerKind, Strategy};
use parallel_lb::prelude::*;

fn fig_cfg(strat: Strategy, seed: u64) -> SimConfig {
    SimConfig::paper_default(16, WorkloadSpec::homogeneous_join(0.01, 0.12), strat)
        .with_seed(seed)
        .with_sim_time(SimDur::from_secs(8), SimDur::from_secs(2))
}

fn summary_json(cfg: SimConfig) -> String {
    serde_json::to_string(&run_one(cfg)).expect("summary serializes")
}

/// The lagged channel with every fault off reproduces the central broker
/// byte-for-byte on every Fig. 6 strategy (plus the adaptive
/// controller).
#[test]
fn clean_lagged_broker_matches_central_on_fig6_set() {
    let clean_lagged = BrokerConfig {
        kind: BrokerKind::Lagged,
        ..BrokerConfig::default()
    };
    let mut strategies = Strategy::fig6_set();
    strategies.push(Strategy::Adaptive);
    for strat in strategies {
        let want = summary_json(fig_cfg(strat, 0xC0FFEE));
        let got = summary_json(fig_cfg(strat, 0xC0FFEE).with_broker(clean_lagged));
        assert_eq!(want, got, "lagged@0/0 diverged under {}", strat.name());
    }
}

/// The one-rack hierarchical channel (the degenerate relay) reproduces
/// the central broker byte-for-byte on every Fig. 6 strategy.
#[test]
fn single_rack_hierarchical_matches_central_on_fig6_set() {
    let one_rack = BrokerConfig {
        kind: BrokerKind::Hierarchical,
        racks: 1,
        root_cadence: 1,
        ..BrokerConfig::default()
    };
    let mut strategies = Strategy::fig6_set();
    strategies.push(Strategy::Adaptive);
    for strat in strategies {
        let want = summary_json(fig_cfg(strat, 0xC0FFEE));
        let got = summary_json(fig_cfg(strat, 0xC0FFEE).with_broker(one_rack));
        assert_eq!(want, got, "hier@1-rack diverged under {}", strat.name());
    }
}

/// Same seed ⇒ same summary under nonzero staleness *and* loss: the
/// fault model is deterministic, and a different seed actually exercises
/// it differently (guarding against a detector that never fires).
#[test]
fn faulty_brokers_are_deterministic_per_seed() {
    let faulty = BrokerConfig {
        kind: BrokerKind::Lagged,
        staleness_ms: 300.0,
        heartbeat_loss: 0.25,
        miss_threshold: 2,
        ..BrokerConfig::default()
    };
    let a = summary_json(fig_cfg(Strategy::OptIoCpu, 42).with_broker(faulty));
    let b = summary_json(fig_cfg(Strategy::OptIoCpu, 42).with_broker(faulty));
    assert_eq!(a, b, "same seed must reproduce the same faulty run");

    let c = summary_json(fig_cfg(Strategy::OptIoCpu, 43).with_broker(faulty));
    assert_ne!(a, c, "different seed must draw different faults");

    // At 25% loss with threshold 2 the detector must actually fire, and
    // the staleness histogram must show aged reads.
    let s: Summary = serde_json::from_str(&a).expect("summary parses");
    assert!(s.false_suspicions > 0, "detector never fired");
    assert!(s.suspected_node_rounds > 0);
    assert!(s.stale_reads_p95_ms > 0.0);
}

/// Multi-rack aggregation on a slow cadence is deterministic too (no RNG
/// at all in the hierarchical path) and reports aged reads.
#[test]
fn hierarchical_broker_is_deterministic_and_reports_age() {
    let hier = BrokerConfig {
        kind: BrokerKind::Hierarchical,
        racks: 4,
        root_cadence: 3,
        ..BrokerConfig::default()
    };
    let a = summary_json(fig_cfg(Strategy::OptIoCpu, 42).with_broker(hier));
    let b = summary_json(fig_cfg(Strategy::OptIoCpu, 42).with_broker(hier));
    assert_eq!(a, b);
    let s: Summary = serde_json::from_str(&a).expect("summary parses");
    assert!(
        s.stale_reads_p95_ms > 0.0,
        "cadence-3 root must see aged state"
    );
    assert_eq!(s.false_suspicions, 0, "no detector in the hierarchy");
}

/// The clean central path reports all-zero fault metrics (the fields
/// exist but cost nothing).
#[test]
fn central_broker_reports_zero_fault_metrics() {
    let s = run_one(fig_cfg(Strategy::MinIo, 0xC0FFEE));
    assert_eq!(s.false_suspicions, 0);
    assert_eq!(s.suspected_node_rounds, 0);
    assert_eq!(s.stale_reads_p95_ms, 0.0);
}
