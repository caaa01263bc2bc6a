//! The resource-broker layer.
//!
//! Owns the per-node resource state (one [`ResourceVector`] per node —
//! CPU, memory, disk and egress-link utilization plus free buffer pages)
//! behind an object-safe trait, and routes every placement request to the
//! [`PlacementPolicy`] responsible for its work class. The simulator no
//! longer pokes the [`ControlNode`] directly — it reports resource samples
//! to the broker and asks the broker for placements, which is the
//! separation DynaHash-style dynamic rebalancing needs (a broker that can
//! observe *and* decide is the prerequisite for switching policies
//! mid-run).
//!
//! All read access is uniform over [`ResourceKind`]: `util(node, kind)`
//! for one cell, `utils(kind)` for a per-node column, `avg(kind)` for the
//! cluster mean. There are no per-resource method families — adding a
//! balanced resource is one enum variant, not a new broker surface.
//!
//! Layering (top to bottom):
//!
//! ```text
//!   snsim::System           — orchestration glue (events, hardware, jobs)
//!   lb_core::ResourceBroker — resource state + per-class policy routing
//!   lb_core::PlacementPolicy— one placement decision (join / coord / OLTP)
//!   lb_core::ControlNode    — the paper's AVAIL-MEMORY + utilization view
//! ```

use crate::control::ControlNode;
use crate::policy::{PlacementPolicy, PlacementRequest, PolicyConfig, WorkClass};
use crate::resources::{ResourceKind, ResourceVector};
use crate::strategy::{Placement, Strategy};
use simkit::SimRng;

/// Object-safe broker interface: resource-vector reports in, placements
/// out.
///
/// ```
/// use lb_core::{
///     CentralBroker, JoinRequest, PlacementRequest, PolicyConfig, ResourceBroker,
///     ResourceKind, ResourceVector, Strategy, WorkClass,
/// };
/// use simkit::SimRng;
///
/// // A central broker for 8 nodes running the MIN-IO strategy.
/// let mut broker: Box<dyn ResourceBroker> = Box::new(CentralBroker::from_config(
///     8,
///     0.05,
///     50,
///     Strategy::MinIo,
///     &PolicyConfig::default(),
/// ));
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
/// // Ask for a placement: a 120-page join over all 8 nodes. With 50 free
/// // pages per node MIN-IO needs 3 processors (3 · 50 > 120).
/// let req = PlacementRequest::join(
///     0,
///     JoinRequest {
///         table_pages: 120.0,
///         psu_opt: 6,
///         psu_noio: 3,
///         outer_scan_nodes: 6,
///         inner_rel: 0,
///         degree_cap: 0,
///     },
///     8,
/// );
/// let mut rng = SimRng::new(1);
/// let placement = broker.place(&req, &mut rng);
/// assert_eq!(placement.degree(), 3);
/// assert_eq!(broker.policy_name(WorkClass::Join { stage: 0 }), "MIN-IO");
/// ```
pub trait ResourceBroker {
    /// Number of nodes under management.
    fn node_count(&self) -> usize;

    /// Periodic report from one node: its full resource vector.
    fn report(&mut self, node: u32, state: ResourceVector);

    /// End of one report round (all nodes reported): adaptive policies
    /// observe the refreshed state here and may switch behaviour.
    fn end_report_round(&mut self);

    /// Place one unit of work under the current resource state.
    fn place(&mut self, req: &PlacementRequest, rng: &mut SimRng) -> Placement;

    /// Single-node placement (coordinator / OLTP home): the same decision
    /// as [`ResourceBroker::place`], without allocating a [`Placement`].
    /// Arrival-rate hot path — brokers should override when they can
    /// resolve the node without materializing the vector.
    fn place_one(&mut self, req: &PlacementRequest, rng: &mut SimRng) -> u32 {
        self.place(req, rng).nodes[0]
    }

    /// Report label of the policy governing a work class.
    fn policy_name(&self, class: WorkClass) -> &'static str;

    /// Total mid-run policy switches across all classes.
    fn policy_switches(&self) -> u64;

    /// Read access to the control state (diagnostics, tests).
    fn control(&self) -> &ControlNode;

    /// Last reported utilization of one resource on one node.
    fn util(&self, node: u32, kind: ResourceKind) -> f64;

    /// Per-node utilizations of one resource (controllers' input; one
    /// contiguous column per kind, no allocation per call).
    fn utils(&self, kind: ResourceKind) -> &[f64];

    /// A node's bottleneck utilization in this broker's current view:
    /// the maximum over all resource kinds, i.e. the quantity LUB-style
    /// selection minimizes. Read-only — the observability layer samples
    /// it per candidate to explain placement decisions.
    fn bottleneck(&self, node: u32) -> f64 {
        ResourceKind::ALL
            .iter()
            .fold(0.0_f64, |acc, &k| acc.max(self.util(node, k)))
    }

    /// Cluster-average utilization of one resource.
    fn avg(&self, kind: ResourceKind) -> f64 {
        let col = self.utils(kind);
        if col.is_empty() {
            0.0
        } else {
            col.iter().sum::<f64>() / col.len() as f64
        }
    }

    /// Register / refresh the data-placement layer's locality view
    /// (tuples of each relation per node). Called by the simulator at
    /// startup and after every fragment migration, so placement policies
    /// can see where the data currently lives.
    fn set_locality(&mut self, locality: crate::control::DataLocality);

    /// Cumulative control-plane fault accounting (staleness ages, false
    /// suspicions). Brokers without fault injection report all zeros.
    fn fault_stats(&self) -> crate::faults::BrokerFaultStats {
        crate::faults::BrokerFaultStats::default()
    }

    /// Nodes currently suspected failed by the broker's failure detector
    /// (0 for brokers without one). The host feeds this into admission's
    /// live-capacity signal each report round.
    fn suspected_nodes(&self) -> u32 {
        0
    }
}

/// The designated-control-node broker of the paper: central state, one
/// policy slot per work class.
pub struct CentralBroker {
    ctl: ControlNode,
    /// Column-major copy of the last reported utilizations
    /// (`cols[kind][node]`), so `utils(kind)` hands controllers a
    /// contiguous slice without touching the row-major control state.
    cols: [Vec<f64>; ResourceKind::COUNT],
    join: Box<dyn PlacementPolicy>,
    /// Policy for multi-join stages ≥ 1; `None` falls through to the join
    /// policy (sharing its state, e.g. one adaptive controller for both).
    stage: Option<Box<dyn PlacementPolicy>>,
    scan: Box<dyn PlacementPolicy>,
    oltp: Box<dyn PlacementPolicy>,
}

impl CentralBroker {
    /// Build the broker for `n` nodes. The control state starts idle with
    /// `free_pages` available everywhere (nodes have not reported yet).
    pub fn new(
        n: usize,
        luc_bump: f64,
        free_pages: u32,
        join: Box<dyn PlacementPolicy>,
        stage: Option<Box<dyn PlacementPolicy>>,
        scan: Box<dyn PlacementPolicy>,
        oltp: Box<dyn PlacementPolicy>,
    ) -> CentralBroker {
        let mut ctl = ControlNode::new(n);
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
        CentralBroker {
            ctl,
            cols: std::array::from_fn(|_| vec![0.0; n]),
            join,
            stage,
            scan,
            oltp,
        }
    }

    /// Standard construction from a strategy and a per-class policy table.
    pub fn from_config(
        n: usize,
        luc_bump: f64,
        free_pages: u32,
        strategy: Strategy,
        policies: &PolicyConfig,
    ) -> CentralBroker {
        let mut broker = CentralBroker::new(
            n,
            luc_bump,
            free_pages,
            policies.join_policy(strategy),
            policies.stage_strategy.map(|s| policies.join_policy(s)),
            Box::new(crate::policy::CoordinatorPolicy::new(policies.scan_coord)),
            Box::new(crate::policy::CoordinatorPolicy::new(policies.oltp_coord)),
        );
        broker.ctl.weights = policies.weights;
        broker
    }

    /// Mutable access to the control state for decorating brokers (the
    /// failure detector marks suspicion on the control node so the
    /// rebalancer and the adaptive averages can honour it).
    pub fn control_mut(&mut self) -> &mut ControlNode {
        &mut self.ctl
    }
}

impl ResourceBroker for CentralBroker {
    fn node_count(&self) -> usize {
        self.ctl.len()
    }

    fn report(&mut self, node: u32, state: ResourceVector) {
        self.ctl.report(node, state);
        for kind in ResourceKind::ALL {
            self.cols[kind.index()][node as usize] = state.get(kind);
        }
    }

    fn end_report_round(&mut self) {
        // Split borrows: policies may read rankings, which are &mut views.
        let ctl = &mut self.ctl;
        self.join.on_report(ctl);
        if let Some(stage) = &mut self.stage {
            stage.on_report(ctl);
        }
        self.scan.on_report(ctl);
        self.oltp.on_report(ctl);
    }

    fn place(&mut self, req: &PlacementRequest, rng: &mut SimRng) -> Placement {
        // Split borrows: the policy gets the control state mutably.
        let ctl = &mut self.ctl;
        let policy = match req.class {
            WorkClass::Join { stage: 0 } => &mut self.join,
            WorkClass::Join { .. } => self.stage.as_mut().unwrap_or(&mut self.join),
            WorkClass::Scan => &mut self.scan,
            WorkClass::Oltp => &mut self.oltp,
        };
        policy.place(req, ctl, rng)
    }

    fn place_one(&mut self, req: &PlacementRequest, rng: &mut SimRng) -> u32 {
        let ctl = &mut self.ctl;
        let policy = match req.class {
            WorkClass::Join { stage: 0 } => &mut self.join,
            WorkClass::Join { .. } => self.stage.as_mut().unwrap_or(&mut self.join),
            WorkClass::Scan => &mut self.scan,
            WorkClass::Oltp => &mut self.oltp,
        };
        policy.place_one(req, ctl, rng)
    }

    fn policy_name(&self, class: WorkClass) -> &'static str {
        match class {
            WorkClass::Join { stage: 0 } => self.join.name(),
            WorkClass::Join { .. } => self.stage.as_deref().map_or(self.join.name(), |s| s.name()),
            WorkClass::Scan => self.scan.name(),
            WorkClass::Oltp => self.oltp.name(),
        }
    }

    fn policy_switches(&self) -> u64 {
        self.join.switches()
            + self.stage.as_deref().map_or(0, |s| s.switches())
            + self.scan.switches()
            + self.oltp.switches()
    }

    fn control(&self) -> &ControlNode {
        &self.ctl
    }

    fn util(&self, node: u32, kind: ResourceKind) -> f64 {
        self.cols[kind.index()][node as usize]
    }

    fn utils(&self, kind: ResourceKind) -> &[f64] {
        &self.cols[kind.index()]
    }

    fn set_locality(&mut self, locality: crate::control::DataLocality) {
        self.ctl.set_locality(locality);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CoordPolicyKind, PlacementRequest};
    use crate::strategy::JoinRequest;
    use crate::{DegreePolicy, SelectPolicy};

    fn broker(strategy: Strategy) -> CentralBroker {
        CentralBroker::from_config(8, 0.05, 50, strategy, &PolicyConfig::default())
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
        let p = b.place(&PlacementRequest::join(0, join_req(), 8), &mut rng);
        assert_eq!(p.degree(), 3, "MIN-IO at 50 free pages per node");
        let c = b.place(
            &PlacementRequest::coordinator(WorkClass::Scan, 0, 8),
            &mut rng,
        );
        assert_eq!(c.degree(), 1);
        assert!(c.nodes[0] < 8);
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
        let p = b.place(&PlacementRequest::join(0, join_req(), 8), &mut rng);
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
        assert!((b.util(3, ResourceKind::Disk) - 0.7).abs() < 1e-12);
        assert!((b.util(3, ResourceKind::Net) - 0.4).abs() < 1e-12);
        assert_eq!(b.util(0, ResourceKind::Disk), 0.0);
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
        let b = CentralBroker::from_config(8, 0.05, 50, Strategy::OptIoCpu, &policies);
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
        let mut b = CentralBroker::from_config(4, 0.05, 50, Strategy::MinIo, &policies);
        assert_eq!(b.policy_name(WorkClass::Scan), "coord-RR");
        assert_eq!(b.policy_name(WorkClass::Oltp), "coord-LUC");
        let mut rng = SimRng::new(3);
        let picks: Vec<u32> = (0..4)
            .map(|_| {
                b.place(
                    &PlacementRequest::coordinator(WorkClass::Scan, 0, 4),
                    &mut rng,
                )
                .nodes[0]
            })
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
        let mut b = CentralBroker::from_config(2, 0.05, 50, Strategy::MinIo, &policies);
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
