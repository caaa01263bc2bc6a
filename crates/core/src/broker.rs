//! The broker: the paper's designated control node (§3) and the policies
//! that place every work class.
//!
//! Owns the per-node resource state (one [`ResourceVector`] per node —
//! CPU, memory, disk and egress-link utilization plus free buffer pages)
//! and one placement policy per work class. The simulator reports resource
//! samples to the broker and asks it for placements; it never pokes the
//! [`ControlNode`] directly. How reports reach the control node is the
//! broker's report channel ([`crate::faults`]): at once, lagged and lossy,
//! or aggregated per rack. Placement and every read are the same on all
//! channels.
//!
//! All read access is uniform over [`ResourceKind`]: `utils(kind)` for a
//! per-node column, `avg(kind)` for the cluster mean. There are no
//! per-resource method families — adding a balanced resource is one enum
//! variant, not a new broker surface.
//!
//! Layering (top to bottom):
//!
//! ```text
//!   snsim::System        — orchestration glue (events, hardware, jobs)
//!   lb_core::Broker      — report channel + one policy per work class
//!   slot policies        — one placement decision (JoinPolicy for joins
//!                          and stages, CoordinatorPolicy for coordinators)
//!   lb_core::ControlNode — the paper's AVAIL-MEMORY + utilization view
//! ```

use crate::control::{ControlNode, DataLocality};
use crate::faults::{BrokerConfig, BrokerFaultStats, ReportChannel};
use crate::policy::{CoordinatorPolicy, JoinPolicy, PolicyConfig, WorkClass};
use crate::resources::{ResourceKind, ResourceVector};
use crate::strategy::{JoinRequest, Placement, Strategy};
use simkit::SimRng;

/// What has reached the root: the control node, plus a column-major copy
/// of the delivered vectors (`cols[kind][node]`, without the control
/// node's feedback bumps) so `utils(kind)` hands controllers a contiguous
/// slice.
pub(crate) struct Root {
    pub(crate) ctl: ControlNode,
    cols: [Vec<f64>; ResourceKind::COUNT],
}

impl Root {
    /// Deliver one node's vector to the control node.
    pub(crate) fn deliver(&mut self, node: u32, state: ResourceVector) {
        self.ctl.report(node, state);
        for kind in ResourceKind::ALL {
            self.cols[kind.index()][node as usize] = state.get(kind);
        }
    }
}

/// The designated-control-node broker: resource-vector reports in,
/// placements out.
///
/// ```
/// use lb_core::{
///     Broker, JoinRequest, PolicyConfig, ResourceKind, ResourceVector, Strategy, WorkClass,
/// };
/// use simkit::SimRng;
///
/// // A broker for 8 nodes running the MIN-IO strategy.
/// let mut broker = Broker::new(8, 0.05, 50, Strategy::MinIo, &PolicyConfig::default());
///
/// // One report round: every node reports its full resource vector.
/// for node in 0..8 {
///     broker.report(
///         node,
///         ResourceVector {
///             cpu: 0.1,
///             disk: 0.2,
///             net: 0.05,
///             free_pages: 50,
///             ..ResourceVector::default()
///         },
///     );
/// }
/// broker.end_report_round();
/// assert!((broker.avg(ResourceKind::Disk) - 0.2).abs() < 1e-12);
/// assert_eq!(broker.utils(ResourceKind::Net).len(), 8);
///
/// // Place a 120-page join. With 50 free pages per node MIN-IO needs 3
/// // processors (3 · 50 > 120).
/// let req = JoinRequest {
///     table_pages: 120.0,
///     psu_opt: 6,
///     psu_noio: 3,
///     outer_scan_nodes: 6,
///     inner_rel: 0,
///     degree_cap: 0,
/// };
/// let mut rng = SimRng::new(1);
/// let placement = broker.place_join(0, &req, &mut rng);
/// assert_eq!(placement.degree(), 3);
/// assert_eq!(broker.policy_name(WorkClass::Join { stage: 0 }), "MIN-IO");
/// ```
pub struct Broker {
    root: Root,
    channel: ReportChannel,
    join: JoinPolicy,
    /// Policy for multi-join stages ≥ 1; `None` falls through to the join
    /// policy (sharing its state, e.g. one adaptive controller for both).
    stage: Option<JoinPolicy>,
    scan: CoordinatorPolicy,
    oltp: CoordinatorPolicy,
}

impl Broker {
    /// A broker for `n` nodes whose reports reach the control node
    /// directly, placing joins with `strategy` and every other class as
    /// `policies` says. The control state starts idle with `free_pages`
    /// available everywhere (nodes have not reported yet).
    pub fn new(
        n: usize,
        luc_bump: f64,
        free_pages: u32,
        strategy: Strategy,
        policies: &PolicyConfig,
    ) -> Broker {
        let mut ctl = ControlNode::new(n, policies.weights);
        ctl.luc_bump = luc_bump;
        for node in 0..n {
            ctl.report(
                node as u32,
                ResourceVector {
                    free_pages,
                    ..ResourceVector::default()
                },
            );
        }
        Broker {
            root: Root {
                ctl,
                cols: std::array::from_fn(|_| vec![0.0; n]),
            },
            channel: ReportChannel::Direct,
            join: JoinPolicy::new(strategy, policies.adaptive),
            stage: policies
                .stage_strategy
                .map(|s| JoinPolicy::new(s, policies.adaptive)),
            scan: CoordinatorPolicy::new(policies.scan_coord),
            oltp: CoordinatorPolicy::new(policies.oltp_coord),
        }
    }

    /// Route reports through the channel `cfg` describes. `round_ms` is
    /// the report-round length (the control interval) and `rng` must be
    /// a dedicated stream forked from the run seed; only the lagged
    /// channel draws from it.
    pub fn with_channel(mut self, cfg: &BrokerConfig, round_ms: f64, rng: SimRng) -> Broker {
        self.channel = ReportChannel::new(cfg, self.root.ctl.len(), round_ms, rng);
        self
    }

    /// Periodic report from one node: its full resource vector.
    pub fn report(&mut self, node: u32, state: ResourceVector) {
        self.channel.report(&mut self.root, node, state);
    }

    /// End of one report round (all nodes reported): the channel delivers
    /// what is due, then adaptive policies observe the refreshed state
    /// and may switch behaviour.
    pub fn end_report_round(&mut self) {
        self.channel.end_round(&mut self.root);
        self.join.on_report(&mut self.root.ctl);
        if let Some(stage) = &mut self.stage {
            stage.on_report(&mut self.root.ctl);
        }
    }

    /// Fault-injection hook: lose this round's heartbeat from `node`, as
    /// if the loss draw fired (lagged channel only; a no-op elsewhere).
    /// The scripted failure-detector tests call it to replay a
    /// hand-computed loss pattern.
    pub fn drop_heartbeat(&mut self, node: u32) {
        self.channel.drop_heartbeat(&mut self.root, node);
    }

    /// Place a join (`stage` 0) or a multi-join stage (`stage` ≥ 1) over
    /// all nodes.
    pub fn place_join(&mut self, stage: u32, req: &JoinRequest, rng: &mut SimRng) -> Placement {
        let policy = match stage {
            0 => &mut self.join,
            _ => self.stage.as_mut().unwrap_or(&mut self.join),
        };
        policy.place(req, &mut self.root.ctl, rng)
    }

    /// Place a scan coordinator or an OLTP home node on one of the nodes
    /// `[first, first + count)`.
    ///
    /// # Panics
    ///
    /// On a join class: joins are placed by [`Broker::place_join`].
    pub fn place_coordinator(
        &mut self,
        class: WorkClass,
        first: u32,
        count: u32,
        rng: &mut SimRng,
    ) -> u32 {
        let policy = match class {
            WorkClass::Scan => &mut self.scan,
            WorkClass::Oltp => &mut self.oltp,
            WorkClass::Join { .. } => panic!("joins are placed by place_join"),
        };
        policy.place(first, count, &mut self.root.ctl, rng)
    }

    /// Report label of the policy governing a work class.
    pub fn policy_name(&self, class: WorkClass) -> &'static str {
        match class {
            WorkClass::Join { stage: 0 } => self.join.name(),
            WorkClass::Join { .. } => self.stage.as_ref().map_or(self.join.name(), |s| s.name()),
            WorkClass::Scan => self.scan.name(),
            WorkClass::Oltp => self.oltp.name(),
        }
    }

    /// Total mid-run policy switches across all classes.
    pub fn policy_switches(&self) -> u64 {
        self.join.switches() + self.stage.as_ref().map_or(0, |s| s.switches())
    }

    /// Read access to the control state: rankings, weighted bottleneck
    /// scores, the suspicion mask.
    pub fn control(&self) -> &ControlNode {
        &self.root.ctl
    }

    /// Per-node utilizations of one resource as last delivered
    /// (controllers' input; one contiguous column per kind, no
    /// allocation per call).
    pub fn utils(&self, kind: ResourceKind) -> &[f64] {
        &self.root.cols[kind.index()]
    }

    /// Cluster-average utilization of one resource as last delivered,
    /// over the nodes the control node does not suspect.
    pub fn avg(&self, kind: ResourceKind) -> f64 {
        self.root.ctl.live_mean(self.utils(kind).iter().copied())
    }

    /// Register / refresh the data-placement layer's locality view
    /// (tuples of each relation per node). Called by the simulator at
    /// startup and after every fragment migration, so placement policies
    /// can see where the data currently lives.
    pub fn set_locality(&mut self, locality: DataLocality) {
        self.root.ctl.set_locality(locality);
    }

    /// Cumulative control-plane fault accounting (staleness ages, false
    /// suspicions); all zeros on the direct channel.
    pub fn fault_stats(&self) -> BrokerFaultStats {
        self.channel.fault_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CoordPolicyKind;
    use crate::{DegreePolicy, SelectPolicy};

    fn broker(strategy: Strategy) -> Broker {
        Broker::new(8, 0.05, 50, strategy, &PolicyConfig::default())
    }

    fn vec_for(cpu: f64, free_pages: u32) -> ResourceVector {
        ResourceVector {
            cpu,
            free_pages,
            ..ResourceVector::default()
        }
    }

    fn join_req() -> JoinRequest {
        JoinRequest {
            table_pages: 120.0,
            psu_opt: 6,
            psu_noio: 3,
            outer_scan_nodes: 6,
            inner_rel: 0,
            degree_cap: 0,
        }
    }

    #[test]
    fn routes_join_and_coordinator_requests() {
        let mut b = broker(Strategy::MinIo);
        let mut rng = SimRng::new(1);
        let p = b.place_join(0, &join_req(), &mut rng);
        assert_eq!(p.degree(), 3, "MIN-IO at 50 free pages per node");
        let c = b.place_coordinator(WorkClass::Scan, 0, 8, &mut rng);
        assert!(c < 8);
    }

    #[test]
    fn reports_flow_into_placements() {
        let mut b = broker(Strategy::MinIo);
        let mut rng = SimRng::new(2);
        // Starve all but node 5 of memory: MIN-IO must pick node 5 first.
        for node in 0..8u32 {
            // Decay lingering promises from construction-time reports.
            for _ in 0..4 {
                b.report(node, vec_for(0.1, if node == 5 { 45 } else { 2 }));
            }
        }
        let p = b.place_join(0, &join_req(), &mut rng);
        assert!(
            p.nodes.contains(&5),
            "most-free node selected: {:?}",
            p.nodes
        );
    }

    #[test]
    fn per_kind_columns_are_tracked() {
        let mut b = broker(Strategy::MinIo);
        b.report(
            3,
            ResourceVector {
                cpu: 0.2,
                disk: 0.7,
                net: 0.4,
                free_pages: 50,
                ..ResourceVector::default()
            },
        );
        assert!((b.utils(ResourceKind::Disk)[3] - 0.7).abs() < 1e-12);
        assert!((b.utils(ResourceKind::Net)[3] - 0.4).abs() < 1e-12);
        assert_eq!(b.utils(ResourceKind::Disk)[0], 0.0);
        assert_eq!(b.utils(ResourceKind::Disk).len(), 8);
        assert!((b.avg(ResourceKind::Net) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn stage_policy_can_differ_from_join_policy() {
        let policies = PolicyConfig {
            stage_strategy: Some(Strategy::Isolated {
                degree: DegreePolicy::SuNoIo,
                select: SelectPolicy::Lum,
            }),
            ..PolicyConfig::default()
        };
        let b = Broker::new(8, 0.05, 50, Strategy::OptIoCpu, &policies);
        assert_eq!(b.policy_name(WorkClass::Join { stage: 0 }), "OPT-IO-CPU");
        assert_eq!(b.policy_name(WorkClass::Join { stage: 1 }), "psu-noIO+LUM");
    }

    #[test]
    fn adaptive_strategy_becomes_online_controller() {
        let mut b = broker(Strategy::Adaptive);
        assert_eq!(b.policy_name(WorkClass::Join { stage: 0 }), "ADAPTIVE");
        // Heat the CPUs over several report rounds: the controller switches.
        for _ in 0..4 {
            for node in 0..8u32 {
                b.report(node, vec_for(0.9, 50));
            }
            b.end_report_round();
        }
        assert!(b.policy_switches() >= 1, "controller switched under heat");
    }

    #[test]
    fn coordinator_policies_configurable_per_class() {
        let policies = PolicyConfig {
            scan_coord: CoordPolicyKind::RoundRobin,
            oltp_coord: CoordPolicyKind::LeastCpu,
            ..PolicyConfig::default()
        };
        let mut b = Broker::new(4, 0.05, 50, Strategy::MinIo, &policies);
        assert_eq!(b.policy_name(WorkClass::Scan), "coord-RR");
        assert_eq!(b.policy_name(WorkClass::Oltp), "coord-LUC");
        let mut rng = SimRng::new(3);
        let picks: Vec<u32> = (0..4)
            .map(|_| b.place_coordinator(WorkClass::Scan, 0, 4, &mut rng))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bottleneck_weights_reach_the_control_node() {
        let policies = PolicyConfig {
            weights: crate::ResourceWeights {
                net: 0.25,
                ..crate::ResourceWeights::default()
            },
            ..PolicyConfig::default()
        };
        let mut b = Broker::new(2, 0.05, 50, Strategy::MinIo, &policies);
        b.report(
            0,
            ResourceVector {
                net: 0.8,
                free_pages: 50,
                ..ResourceVector::default()
            },
        );
        assert!((b.control().bottleneck(0) - 0.2).abs() < 1e-12);
    }
}
