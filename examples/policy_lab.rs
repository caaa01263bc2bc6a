//! Policy lab: per-work-class placement policies and mid-run adaptive
//! switching, all held by the one `lb_core::Broker`.
//!
//! Three configurations over the same mixed workload (joins + OLTP pinned
//! to the B-nodes):
//!
//! 1. the paper's baseline — one strategy for joins, random coordinators;
//! 2. per-class policies — OLTP home nodes via least-CPU, scan/query
//!    coordinators via round-robin, a distinct (cheaper) strategy for
//!    multi-join stages;
//! 3. the ADAPTIVE online controller, which watches the broker's periodic
//!    reports and switches the active join strategy mid-run (the summary
//!    reports how often it switched).
//!
//! Run: `cargo run --release --example policy_lab`

use lb_core::{CoordPolicyKind, DegreePolicy, PolicyConfig, SelectPolicy};
use parallel_lb::prelude::*;

fn mixed() -> WorkloadSpec {
    WorkloadSpec::mixed(0.01, 0.08, dbmodel::RelationId(2), 75.0, NodeFilter::BNodes)
}

fn base(strategy: Strategy) -> SimConfig {
    SimConfig::paper_default(20, mixed(), strategy)
        .with_disks(5)
        .with_sim_time(SimDur::from_secs(30), SimDur::from_secs(6))
}

fn report(label: &str, s: &snsim::Summary) {
    println!(
        "{label:<28} join {:>7.1} ms | oltp {:>6.1} ms | cpu {:>4.1}% | degree {:>4.1} | switches {}",
        s.join_resp_ms(),
        s.oltp_resp_ms().unwrap_or(f64::NAN),
        s.avg_cpu_util * 100.0,
        s.avg_join_degree,
        s.policy_switches,
    );
}

fn main() {
    // 1. Paper baseline: every placement class on its default policy.
    let baseline = snsim::run_one(base(Strategy::OptIoCpu));
    report("baseline (OPT-IO-CPU)", &baseline);

    // 2. Per-class policies: the broker places each work class with the
    //    policy in its own slot.
    let per_class = PolicyConfig {
        scan_coord: CoordPolicyKind::RoundRobin,
        oltp_coord: CoordPolicyKind::LeastCpu,
        stage_strategy: Some(Strategy::Isolated {
            degree: DegreePolicy::SuNoIo,
            select: SelectPolicy::Lum,
        }),
        ..PolicyConfig::default()
    };
    let tuned = snsim::run_one(base(Strategy::OptIoCpu).with_policies(per_class));
    report("per-class policies", &tuned);

    // 3. Mid-run adaptive switching: the ADAPTIVE controller starts on
    //    pmu-cpu+LUM and flips to OPT-IO-CPU / MIN-IO-SUOPT as the
    //    broker's reports show the bottleneck moving.
    let mut adaptive_cfg = base(Strategy::Adaptive);
    adaptive_cfg.policies.adaptive.cpu_hot = 0.35; // switch earlier than default
    let adaptive = snsim::run_one(adaptive_cfg);
    report("adaptive controller", &adaptive);

    assert!(
        adaptive.policy_switches > 0,
        "the adaptive controller should switch at least once on this load curve"
    );
    println!(
        "\nadaptive controller switched policies {} times mid-run",
        adaptive.policy_switches
    );
}
