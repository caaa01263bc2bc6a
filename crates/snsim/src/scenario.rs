//! Config plumbing for the scenario lab: lowering declarative
//! [`ScenarioSpec`] runs (from the `workload` crate) to concrete
//! [`SimConfig`]s the simulator executes.
//!
//! The split keeps `workload::scenario` simulator-agnostic: it knows how
//! to expand sweeps into [`ScenarioRun`]s, while this module knows how a
//! run's knobs map onto the paper's Fig. 4 configuration (buffer size,
//! disks, heterogeneous node speeds, per-class policies, run length).
//! Lowering is a pure function of the spec, so a serialized → reparsed
//! spec produces byte-identical configurations (see the round-trip tests
//! in `crates/snsim/tests/scenario.rs`).

use crate::config::{DataPlacementConfig, SimConfig};
use lb_core::RebalanceConfig;
use simkit::SimDur;
use workload::scenario::{Knobs, ScenarioRun, ScenarioSpec};

/// Lower one run point to the simulator configuration it describes:
/// the one place a knob meets the simulator. Builders that carry logic
/// (disks reach two layers, the buffer clamps the global floor, the net
/// factor rescales wire time) are called; every other knob is a plain
/// field assignment. Default knobs lower to the paper's defaults
/// byte-identically.
pub fn build_config(knobs: &Knobs) -> SimConfig {
    let mut cfg = SimConfig::paper_default(knobs.n_pes, knobs.workload_spec(), knobs.strategy.0)
        .with_disks(knobs.disks_per_pe)
        .with_buffer_pages(knobs.buffer_pages)
        .with_mpl(knobs.mpl)
        .with_net_speed(knobs.net_speed)
        .with_sim_time(
            SimDur::from_secs_f64(knobs.sim_secs),
            SimDur::from_secs_f64(knobs.warmup_secs),
        );
    cfg.admission = knobs.admission.clone();
    cfg.seed = knobs.seed;
    cfg.node_speed = knobs.node_speed.resolve(knobs.n_pes);
    cfg.broker = knobs.broker;
    cfg.trace = knobs.trace;
    if let Some(policies) = knobs.policies {
        cfg.policies = policies;
    }
    cfg.placement = DataPlacementConfig {
        data_skew: knobs.data_skew,
        fragment_count: knobs.fragment_count,
        rebalance: knobs.rebalance.then(RebalanceConfig::default),
    };
    cfg
}

/// Expand a scenario and lower every run: the input to
/// `snsim::run_parallel`, with the run labels kept alongside.
pub fn configs(spec: &ScenarioSpec) -> Vec<(ScenarioRun, SimConfig)> {
    spec.runs()
        .into_iter()
        .map(|run| {
            let cfg = build_config(&run.knobs);
            (run, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::Strategy;
    use workload::scenario::{NodeSpeed, StrategySpec, Sweep, WorkloadShape};

    #[test]
    fn knobs_map_onto_sim_config() {
        let knobs = Knobs {
            n_pes: 20,
            strategy: StrategySpec(Strategy::MinIoSuopt),
            workload: WorkloadShape::Mixed,
            buffer_pages: 5,
            disks_per_pe: 1,
            seed: 42,
            sim_secs: 12.0,
            warmup_secs: 3.0,
            node_speed: NodeSpeed::SlowFraction {
                fraction: 0.5,
                factor: 0.5,
            },
            ..Knobs::default()
        };
        let cfg = build_config(&knobs);
        assert_eq!(cfg.n_pes, 20);
        assert_eq!(cfg.strategy, Strategy::MinIoSuopt);
        assert_eq!(cfg.buffer_pages, 5);
        assert_eq!(cfg.hw.disk.disks_per_pe, 1);
        assert_eq!(cfg.engine.disks_per_pe, 1);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.sim_time, SimDur::from_secs(12));
        assert_eq!(cfg.warmup, SimDur::from_secs(3));
        assert_eq!(cfg.node_speed.len(), 20);
        assert_eq!(cfg.node_speed[0], 0.5);
        assert_eq!(cfg.node_speed[19], 1.0);
        assert_eq!(cfg.workload.oltp.len(), 1, "Mixed shape has OLTP");
        // Heterogeneity reaches the per-PE CPU parameters.
        assert_eq!(cfg.cpu_params_for(0).mips, 10);
        assert_eq!(cfg.cpu_params_for(19).mips, 20);
    }

    #[test]
    fn admission_and_mpl_knobs_lower_into_config() {
        let knobs = Knobs {
            mpl: 4,
            admission: sched::AdmissionConfig {
                policy: sched::AdmissionPolicyKind::Malleable,
                max_queue: 128,
                ..sched::AdmissionConfig::default()
            },
            ..Knobs::default()
        };
        let cfg = build_config(&knobs);
        assert_eq!(cfg.mpl, 4);
        assert_eq!(cfg.admission.policy, sched::AdmissionPolicyKind::Malleable);
        assert_eq!(cfg.admission.max_queue, 128);
        assert_eq!(cfg.build_scheduler().policy_name(), "malleable");
    }

    #[test]
    fn absent_admission_knobs_lower_byte_identically() {
        // A legacy spec (no admission/mpl knobs) and an explicit-default
        // spec must produce the exact same serialized configuration.
        let legacy: Knobs = serde_json::from_str(r#"{ "n_pes": 20 }"#).unwrap();
        let explicit: Knobs = serde_json::from_str(
            r#"{ "n_pes": 20, "mpl": 64, "admission": { "policy": "FcfsMpl" } }"#,
        )
        .unwrap();
        let a = serde_json::to_string(&build_config(&legacy)).unwrap();
        let b = serde_json::to_string(&build_config(&explicit)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn absent_broker_knob_lowers_byte_identically() {
        // A legacy spec (no broker knob) and an explicit clean-central
        // spec must produce the exact same serialized configuration.
        let legacy: Knobs = serde_json::from_str(r#"{ "n_pes": 20 }"#).unwrap();
        let explicit: Knobs = serde_json::from_str(
            r#"{ "n_pes": 20, "broker": { "kind": "Central", "staleness_ms": 0.0 } }"#,
        )
        .unwrap();
        let a = serde_json::to_string(&build_config(&legacy)).unwrap();
        let b = serde_json::to_string(&build_config(&explicit)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn absent_trace_knob_lowers_byte_identically() {
        // A legacy spec (no trace knob) and an explicit disabled-trace
        // spec must produce the exact same serialized configuration.
        let legacy: Knobs = serde_json::from_str(r#"{ "n_pes": 20 }"#).unwrap();
        let explicit: Knobs = serde_json::from_str(
            r#"{ "n_pes": 20, "trace": { "enabled": false, "max_rounds": 0 } }"#,
        )
        .unwrap();
        let a = serde_json::to_string(&build_config(&legacy)).unwrap();
        let b = serde_json::to_string(&build_config(&explicit)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_knob_lowers_into_config() {
        let knobs = Knobs {
            trace: obs::TraceConfig {
                enabled: true,
                max_rounds: 256,
                ..obs::TraceConfig::default()
            },
            ..Knobs::default()
        };
        let cfg = build_config(&knobs);
        assert!(cfg.trace.enabled);
        assert_eq!(cfg.trace.rounds_cap(), 256);
    }

    #[test]
    fn expansion_labels_match_configs() {
        let spec = ScenarioSpec {
            name: "t".into(),
            sweep: Sweep {
                strategy: vec![
                    StrategySpec(Strategy::MinIo),
                    StrategySpec(Strategy::OptIoCpu),
                ],
                n_pes: vec![10, 20],
                ..Sweep::default()
            },
            ..ScenarioSpec::default()
        };
        let lowered = configs(&spec);
        assert_eq!(lowered.len(), 4);
        for (run, cfg) in &lowered {
            assert_eq!(run.knobs.n_pes, cfg.n_pes);
            assert_eq!(run.knobs.strategy.0, cfg.strategy);
            assert_eq!(run.axis("n_pes").unwrap(), cfg.n_pes.to_string());
        }
    }
}
