//! Observability-parity properties: the trace layer is **provably inert**.
//!
//! Turning the `trace` knob on must not change a single bit of any
//! [`Summary`] — the recorder only reads state the simulator already
//! computed, never draws from a sim RNG stream, and never feeds anything
//! back into the model. Checked on the serialized summary (every counter
//! and every float bit pattern), across the Fig. 6 strategy set, the
//! admission and rebalancing families, the faulted broker with its
//! failure detector, and the 1000-PE soak smoke. The allocation-level half of the inertness
//! claim (disabled layer = zero extra allocations) lives in
//! `tests/obs_noalloc.rs`, which needs its own binary for the counting
//! global allocator.

use lb_core::{BrokerConfig, BrokerKind};
use obs::TraceConfig;
use parallel_lb::prelude::*;
use proptest::prelude::{proptest, ProptestConfig};

/// Serialized summary of an untraced run.
fn untraced(cfg: SimConfig) -> String {
    serde_json::to_string(&snsim::run_one(cfg)).expect("serialize")
}

/// Serialized summary of the same configuration with tracing on; asserts
/// the run actually produced trace output.
fn traced(cfg: SimConfig) -> String {
    let (summary, trace) = snsim::run_one_traced(cfg.with_trace(TraceConfig::on()));
    let trace = trace.expect("trace enabled");
    assert!(
        !trace.timeseries.samples.is_empty(),
        "traced run produced no round samples"
    );
    serde_json::to_string(&summary).expect("serialize")
}

/// Tracing on vs. off must serialize byte-equal summaries.
fn assert_trace_parity(base: SimConfig, label: &str) {
    assert_eq!(
        untraced(base.clone()),
        traced(base),
        "trace layer perturbed the summary: {label}"
    );
}

fn join_cfg(strat: Strategy, n: u32, rate: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(n, WorkloadSpec::homogeneous_join(0.01, rate), strat)
        .with_seed(seed)
        .with_sim_time(SimDur::from_secs(5), SimDur::from_secs(1))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2, // each case runs 2 short simulations per strategy
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_fig6_trace_parity(
        seed in 0u64..10_000,
        n in 8u32..16,
        rate_milli in 50u64..200,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let mut strategies = Strategy::fig6_set();
        strategies.push(Strategy::Adaptive);
        for strat in strategies {
            assert_trace_parity(join_cfg(strat, n, rate, seed), strat.name());
        }
    }
}

/// Admission family: the malleable policy produces shrunk/rejected
/// verdicts and a live admission queue, exercising the admitted /
/// rejected hooks and the backlog gauges.
#[test]
fn admission_trace_parity() {
    let cfg = join_cfg(Strategy::OptIoCpu, 10, 0.2, 3)
        .with_mpl(4)
        .with_admission(sched::AdmissionConfig {
            policy: sched::AdmissionPolicyKind::Malleable,
            max_queue: 128,
            ..sched::AdmissionConfig::default()
        });
    assert_trace_parity(cfg, "admission");
}

/// Placement family: the online rebalancer's migrations exercise the
/// migration start/end hooks and the in-flight gauge.
#[test]
fn rebalance_trace_parity() {
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
    assert_trace_parity(cfg, "rebalance");
}

/// Soak smoke: the 1000-PE slice the bench gate paces — the trace layer
/// must be invisible here too (and the suspicion hook must not disturb
/// the faulted broker's RNG-driven failure detector).
#[test]
fn soak_and_broker_fault_trace_parity() {
    let soak = SimConfig::paper_default(
        1000,
        WorkloadSpec::mixed(
            0.01,
            0.0,
            dbmodel::RelationId(2),
            100.0,
            workload::NodeFilter::All,
        ),
        Strategy::OptIoCpu,
    )
    .with_seed(1)
    .with_sim_time(SimDur::from_millis(300), SimDur::from_millis(50));
    assert_trace_parity(soak.clone(), "soak_smoke");
    let faulted = soak.with_seed(9).with_broker(BrokerConfig {
        kind: BrokerKind::Lagged,
        staleness_ms: 500.0,
        heartbeat_loss: 0.2,
        miss_threshold: 2,
        ..BrokerConfig::default()
    });
    assert_trace_parity(faulted, "broker_faults");
}

/// `run_one_traced` with the knob off is exactly `run_one`: same summary,
/// no trace output.
#[test]
fn disabled_trace_returns_none() {
    let cfg = join_cfg(Strategy::MinIoSuopt, 8, 0.1, 42);
    let (summary, trace) = snsim::run_one_traced(cfg.clone());
    assert!(trace.is_none(), "disabled trace produced output");
    assert_eq!(
        serde_json::to_string(&summary).expect("serialize"),
        untraced(cfg)
    );
}

/// A traced run yields all three pillars: round samples on the report
/// cadence, lifecycle events, and a placement digest with real margins.
#[test]
fn traced_run_produces_all_three_pillars() {
    let cfg = join_cfg(Strategy::OptIoCpu, 10, 0.15, 13);
    let (_, trace) = snsim::run_one_traced(cfg.with_trace(TraceConfig::on()));
    let t = trace.expect("trace enabled");
    assert!(!t.timeseries.samples.is_empty(), "no round samples");
    assert!(!t.events.is_empty(), "no lifecycle events");
    assert!(!t.explain.is_empty(), "no placement digest");
    assert!(t.explain.iter().all(|e| e.decisions > 0));
    // Samples ride the 100 ms report rounds with sim-time stamps.
    let s = &t.timeseries.samples[0];
    assert!(s.t_ms > 0.0 && s.live_nodes == 10);
    // The JSONL stream is parseable and span-shaped: arrivals precede
    // their admissions, which precede placements.
    let first: serde_json::Value = serde_json::from_str(&t.events[0]).expect("jsonl");
    assert_eq!(
        first.get("ev").and_then(serde_json::Value::as_str),
        Some("arrival")
    );
}
