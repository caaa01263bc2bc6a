//! Guards for the ResourceVector refactor: the uniform per-kind broker
//! plumbing (CPU / memory / disk / **network**) must not perturb any
//! pre-existing strategy — bit-identical summaries across repeated runs
//! of every Fig. 6 strategy and the whole pre-existing isolated family —
//! while the new per-resource outputs actually carry signal (egress-link
//! utilization reaches the broker columns and the `Summary`).

use lb_core::{ResourceKind, ResourceVector, ResourceWeights};
use parallel_lb::prelude::*;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

fn cfg(strat: Strategy, n: u32, rate: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(n, WorkloadSpec::homogeneous_join(0.01, rate), strat)
        .with_seed(seed)
        .with_sim_time(SimDur::from_secs(5), SimDur::from_secs(1))
}

/// Every strategy that existed before the refactor: the Fig. 6 set plus
/// the full isolated `degree × selection` family of the paper.
fn pre_existing_strategies() -> Vec<Strategy> {
    let mut all = Strategy::fig6_set();
    all.push(Strategy::Adaptive);
    for degree in [
        DegreePolicy::SuOpt,
        DegreePolicy::SuNoIo,
        DegreePolicy::MU_CPU,
    ] {
        for select in [SelectPolicy::Random, SelectPolicy::Luc, SelectPolicy::Lum] {
            let s = Strategy::Isolated { degree, select };
            if !all.contains(&s) {
                all.push(s);
            }
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2, // each case runs 2 short simulations per strategy
        .. ProptestConfig::default()
    })]

    /// Satellite: same seed + same config ⇒ bit-identical Summary for the
    /// Fig. 6 set and every pre-existing isolated strategy, with the
    /// resource-vector reporting (including the network column) active on
    /// every report round.
    #[test]
    fn prop_resource_vector_reporting_bit_identical(
        seed in 0u64..10_000,
        n in 8u32..14,
        rate_milli in 50u64..200,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        for strat in pre_existing_strategies() {
            let a = snsim::run_one(cfg(strat, n, rate, seed));
            let b = snsim::run_one(cfg(strat, n, rate, seed));
            let ja = serde_json::to_string(&a).expect("serialize");
            let jb = serde_json::to_string(&b).expect("serialize");
            prop_assert_eq!(ja, jb, "strategy {} diverged for seed {}", strat.name(), seed);
            prop_assert!(a.avg_net_util >= 0.0 && a.p95_net_util <= 1.0);
        }
    }
}

/// The egress links actually report: a shuffle-heavy run leaves nonzero
/// network columns in the broker and a nonzero link utilization in the
/// summary, alongside the other kinds.
#[test]
fn net_reporting_reaches_broker_and_summary() {
    let mut sys = snsim::System::new(cfg(Strategy::OptIoCpu, 10, 0.2, 42));
    let summary = sys.run();
    assert!(summary.messages > 0, "joins shuffled over the network");
    assert!(
        summary.avg_net_util > 0.0,
        "mean link utilization measured: {}",
        summary.avg_net_util
    );
    assert!(summary.p95_net_util > 0.0, "p95 from report-round samples");
    assert!(summary.p95_cpu_util > 0.0 && summary.p95_mem_util > 0.0);
    let broker = sys.broker();
    for kind in ResourceKind::ALL {
        assert_eq!(broker.utils(kind).len(), 10, "one column entry per PE");
    }
    assert!(
        broker.utils(ResourceKind::Net).iter().any(|&u| u > 0.0) || summary.avg_net_util > 0.0,
        "net reports flowed into the broker columns"
    );
    // The per-kind averages agree with the raw columns.
    for kind in ResourceKind::ALL {
        let col = broker.utils(kind);
        let mean = col.iter().sum::<f64>() / col.len() as f64;
        assert!((broker.avg(kind) - mean).abs() < 1e-12);
    }
}

/// New Summary fields serialize (lab rows, EXPERIMENTS provenance).
#[test]
fn summary_serializes_per_resource_utilization() {
    let s = snsim::run_one(cfg(Strategy::MinIo, 8, 0.1, 7));
    let json = serde_json::to_string(&s).unwrap();
    for field in [
        "avg_net_util",
        "p95_cpu_util",
        "p95_mem_util",
        "p95_disk_util",
        "p95_net_util",
    ] {
        assert!(json.contains(field), "summary field {field} missing");
    }
}

/// The bottleneck norm is consistent between the vector and the control
/// node the policies consult.
#[test]
fn bottleneck_norm_consistent_across_layers() {
    let mut ctl = ControlNode::new(2, Default::default());
    let v = ResourceVector {
        cpu: 0.2,
        mem: 0.1,
        disk: 0.4,
        net: 0.9,
        free_pages: 50,
    };
    ctl.report(0, v);
    assert_eq!(ctl.bottleneck(0), v.bottleneck(&ResourceWeights::default()));
    assert_eq!(
        v.bottleneck_kind(&ResourceWeights::default()),
        ResourceKind::Net
    );
}
