//! Run-time placement as a first-class, pluggable layer.
//!
//! The original reproduction hard-wired placement into the simulator: join
//! queries consulted the [`Strategy`] enum, while scan coordinators and
//! OLTP transactions were placed ad hoc with inline RNG draws. This module
//! generalizes all of it behind one object-safe trait, following the
//! argument of Garofalakis & Ioannidis (*Multi-Resource Parallel Query
//! Scheduling and Optimization*) that multi-resource scheduling pays off
//! across operator types, not just joins:
//!
//! * [`PlacementPolicy`] — decides degree + node set for one unit of work
//!   given the control node's current resource view;
//! * [`WorkClass`] / [`PlacementRequest`] — what is being placed: a join
//!   (with its planner numbers and multi-join stage index), a query
//!   coordinator, or an OLTP transaction's home node;
//! * [`CoordinatorPolicy`] — coordinator/home-node placement policies
//!   (random, least-CPU, most-free-memory, round-robin);
//! * [`AdaptiveController`] — the paper's concluding "family of strategies"
//!   idea promoted to an **online controller**: instead of re-deciding per
//!   query, it observes the broker's periodic reports and switches the
//!   active join strategy mid-run (with hysteresis) when the bottleneck
//!   moves between CPU and memory/disk;
//! * [`PolicyConfig`] — serializable per-class policy table used by the
//!   simulator's configuration.

use crate::control::ControlNode;
use crate::resources::{ResourceKind, ResourceWeights};
use crate::strategy::{JoinRequest, Placement, Strategy};
use crate::{DegreePolicy, SelectPolicy};
use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// The kind of work being placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkClass {
    /// A (hash-join-like) operator placed by the load balancer. `stage` is
    /// 0 for two-way joins and sorts, `k > 0` for the k-th follow-on stage
    /// of a multi-way join — stages may be governed by their own policy.
    Join {
        /// 0 for the primary join; `k > 0` for the k-th follow-on stage.
        stage: u32,
    },
    /// Coordinator placement for scan / sort / update query classes.
    Scan,
    /// Home-node placement for an OLTP transaction.
    Oltp,
}

/// One placement request, built by the simulator at query run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRequest {
    /// What kind of work is being placed.
    pub class: WorkClass,
    /// Planner numbers; present for `WorkClass::Join`.
    pub join: Option<JoinRequest>,
    /// First candidate node (coordinator/home placements).
    pub first: u32,
    /// Number of candidate nodes starting at `first`.
    pub count: u32,
}

impl PlacementRequest {
    /// A join placement over all `n` nodes.
    pub fn join(stage: u32, req: JoinRequest, n: u32) -> PlacementRequest {
        PlacementRequest {
            class: WorkClass::Join { stage },
            join: Some(req),
            first: 0,
            count: n,
        }
    }

    /// A coordinator/home-node placement over `[first, first + count)`.
    pub fn coordinator(class: WorkClass, first: u32, count: u32) -> PlacementRequest {
        debug_assert!(count >= 1);
        PlacementRequest {
            class,
            join: None,
            first,
            count,
        }
    }
}

/// An object-safe placement policy.
///
/// Policies receive the control node's state **mutably** so state-aware
/// policies can apply the paper's adaptive feedback (immediately adjusting
/// the control data for selected nodes, avoiding herd effects between
/// reports).
///
/// Every [`Strategy`] is itself a `PlacementPolicy` for join work, and
/// coordinator placements go through the same trait:
///
/// ```
/// use lb_core::{
///     ControlNode, CoordPolicyKind, CoordinatorPolicy, PlacementPolicy,
///     PlacementRequest, ResourceVector, WorkClass,
/// };
/// use simkit::SimRng;
///
/// let mut ctl = ControlNode::new(4);
/// for node in 0..4 {
///     ctl.report(node, ResourceVector { free_pages: 50, ..ResourceVector::default() });
/// }
/// let mut rng = SimRng::new(7);
///
/// // Round-robin coordinator placement over nodes [1, 4).
/// let mut policy = CoordinatorPolicy::new(CoordPolicyKind::RoundRobin);
/// let req = PlacementRequest::coordinator(WorkClass::Scan, 1, 3);
/// let picks: Vec<u32> = (0..4).map(|_| policy.place(&req, &mut ctl, &mut rng).nodes[0]).collect();
/// assert_eq!(picks, vec![1, 2, 3, 1]);
/// assert_eq!(policy.name(), "coord-RR");
/// assert_eq!(policy.switches(), 0, "stateless policies never switch");
/// ```
pub trait PlacementPolicy {
    /// Name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Decide the node set for `req` under the current control state.
    fn place(
        &mut self,
        req: &PlacementRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> Placement;

    /// Single-node fast path: the same decision [`PlacementPolicy::place`]
    /// would make for a single-node request, without materializing a
    /// [`Placement`]. Coordinator/OLTP-home placement runs once per
    /// arrival, so the per-call `Vec` is worth skipping.
    fn place_one(
        &mut self,
        req: &PlacementRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> u32 {
        self.place(req, ctl, rng).nodes[0]
    }

    /// Broker feedback hook: called once per report round (control tick)
    /// with the refreshed control state, which carries the full per-node
    /// resource vectors (`ControlNode::util` / `avg` / `bottleneck`).
    /// Policies that adapt over time observe the refreshed state here.
    fn on_report(&mut self, _ctl: &mut ControlNode) {}

    /// How often this policy changed its behaviour mid-run (adaptive
    /// controllers); 0 for stateless policies.
    fn switches(&self) -> u64 {
        0
    }
}

/// Every [`Strategy`] is a placement policy for join work. Coordinator
/// requests fall back to a uniform draw over the candidate range (a
/// strategy mis-wired to a coordinator class must still behave sanely).
impl PlacementPolicy for Strategy {
    fn name(&self) -> &'static str {
        Strategy::name(self)
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> Placement {
        match req.join {
            Some(join_req) => Strategy::place(self, &join_req, ctl, rng),
            None => Placement {
                nodes: vec![req.first + rng.below(req.count.max(1) as u64) as u32],
            },
        }
    }

    fn place_one(
        &mut self,
        req: &PlacementRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> u32 {
        match req.join {
            Some(join_req) => Strategy::place(self, &join_req, ctl, rng).nodes[0],
            None => req.first + rng.below(req.count.max(1) as u64) as u32,
        }
    }
}

/// Coordinator / home-node placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordPolicyKind {
    /// Uniform draw over the candidate range (the paper's default).
    Random,
    /// Candidate with the lowest reported CPU utilization (LUC-style),
    /// with the control node's adaptive feedback applied.
    LeastCpu,
    /// Candidate with the most free buffer pages (LUM-style).
    LeastMem,
    /// Candidate with the lowest weighted bottleneck score over all
    /// resource kinds (LUB-style: a coordinator avoids nodes whose
    /// tightest resource — CPU, memory, disk or egress link — is hot).
    LeastBottleneck,
    /// Deterministic rotation over the candidate range.
    RoundRobin,
}

/// Stateful wrapper executing a [`CoordPolicyKind`].
#[derive(Debug, Clone)]
pub struct CoordinatorPolicy {
    kind: CoordPolicyKind,
    rr: u64,
}

impl CoordinatorPolicy {
    /// Wrap a policy kind with fresh rotation state.
    pub fn new(kind: CoordPolicyKind) -> CoordinatorPolicy {
        CoordinatorPolicy { kind, rr: 0 }
    }
}

impl PlacementPolicy for CoordinatorPolicy {
    fn name(&self) -> &'static str {
        match self.kind {
            CoordPolicyKind::Random => "coord-RANDOM",
            CoordPolicyKind::LeastCpu => "coord-LUC",
            CoordPolicyKind::LeastMem => "coord-LUM",
            CoordPolicyKind::LeastBottleneck => "coord-LUB",
            CoordPolicyKind::RoundRobin => "coord-RR",
        }
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> Placement {
        Placement {
            nodes: vec![self.place_one(req, ctl, rng)],
        }
    }

    fn place_one(
        &mut self,
        req: &PlacementRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> u32 {
        let count = req.count.max(1);
        let in_range = |id: u32| id >= req.first && id < req.first + count;
        match self.kind {
            CoordPolicyKind::Random => req.first + rng.below(count as u64) as u32,
            // The ranked iterators walk the maintained index head-first:
            // an unrestricted request resolves in O(log n) instead of a
            // full sort + allocation per placement.
            CoordPolicyKind::LeastCpu => {
                let pick = ctl
                    .ranked_cpu()
                    .find(|&(id, _)| in_range(id))
                    .map(|(id, _)| id)
                    .unwrap_or(req.first);
                // Feedback: a placed coordinator adds CPU load; bump the
                // control copy so bursts spread over the candidates.
                ctl.note_assignment(&[pick], 0);
                pick
            }
            CoordPolicyKind::LeastMem => {
                let pick = ctl
                    .ranked_memory()
                    .find(|&(id, _)| in_range(id))
                    .map(|(id, _)| id)
                    .unwrap_or(req.first);
                ctl.note_assignment(&[pick], 1);
                pick
            }
            CoordPolicyKind::LeastBottleneck => {
                let pick = ctl
                    .ranked_bottleneck()
                    .find(|&(id, _)| in_range(id))
                    .map(|(id, _)| id)
                    .unwrap_or(req.first);
                ctl.note_assignment(&[pick], 1);
                pick
            }
            CoordPolicyKind::RoundRobin => {
                let pick = req.first + (self.rr % count as u64) as u32;
                self.rr += 1;
                pick
            }
        }
    }
}

/// Configuration of the [`AdaptiveController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Average CPU utilization above which CPU is treated as the primary
    /// bottleneck (the paper suggests OPT-IO-CPU there).
    pub cpu_hot: f64,
    /// Utilization margin below `cpu_hot` required before switching away
    /// from the CPU-bottleneck policy again (hysteresis against flapping).
    pub hysteresis: f64,
    /// Average disk utilization above which the disk is treated as the
    /// primary bottleneck (→ MIN-IO-SUOPT, which minimizes temporary I/O).
    pub disk_hot: f64,
    /// Minimum report rounds between two switches.
    pub min_rounds_between_switches: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            cpu_hot: 0.5,
            hysteresis: 0.1,
            disk_hot: 0.7,
            min_rounds_between_switches: 2,
        }
    }
}

/// Online controller realizing the paper's concluding recommendation:
/// *"such an approach should be realized by a family of load balancing
/// strategies so that the most appropriate policy can be selected according
/// to the current system state."*
///
/// Unlike the per-request [`Strategy::Adaptive`] variant (kept for
/// backwards compatibility), the controller re-evaluates on the broker's
/// periodic report rounds and **switches the active policy mid-run**,
/// with hysteresis, based on where the bottleneck currently sits:
///
/// * hot CPUs → `OPT-IO-CPU` (cap parallelism by utilization),
/// * memory cannot hold the last observed join anywhere → `MIN-IO-SUOPT`
///   (chase I/O avoidance with high degrees),
/// * otherwise → isolated `pmu-cpu + LUM`.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
    current: Strategy,
    /// Table pages of the most recent join request: the memory-feasibility
    /// signal ("can any selection avoid temporary I/O right now?").
    last_table_pages: Option<f64>,
    rounds_since_switch: u32,
    switches: u64,
}

impl AdaptiveController {
    /// A controller starting on the isolated `pmu-cpu + LUM` policy.
    pub fn new(cfg: AdaptiveConfig) -> AdaptiveController {
        AdaptiveController {
            cfg,
            current: Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select: SelectPolicy::Lum,
            },
            last_table_pages: None,
            rounds_since_switch: 0,
            switches: 0,
        }
    }

    /// The strategy currently in force.
    pub fn current(&self) -> Strategy {
        self.current
    }

    fn desired(&self, ctl: &mut ControlNode) -> Strategy {
        // Every signal is read through the generic per-kind accessors:
        // adding a resource to the controller's decision is one more
        // `ctl.avg(kind)` comparison, not a new plumbing path.
        let cpu = ctl.avg(ResourceKind::Cpu);
        let cpu_bound = if matches!(self.current, Strategy::OptIoCpu) {
            // Already on the CPU policy: stay until clearly cooled down.
            cpu > self.cfg.cpu_hot - self.cfg.hysteresis
        } else {
            cpu > self.cfg.cpu_hot
        };
        if cpu_bound {
            return Strategy::OptIoCpu;
        }
        // Memory cannot hold the last observed join anywhere, or the disks
        // are the bottleneck: chase temporary-I/O avoidance (§7: "if the
        // system suffers primarily from memory and disk bottlenecks an
        // integrated policy like MIN-IO-SUOPT should be chosen").
        if ctl.avg(ResourceKind::Disk) > self.cfg.disk_hot {
            return Strategy::MinIoSuopt;
        }
        if let Some(table_pages) = self.last_table_pages {
            let avail = ctl.avail_memory();
            if crate::integrated::min_k_avoiding_io(avail, table_pages).is_none() {
                return Strategy::MinIoSuopt;
            }
        }
        Strategy::Isolated {
            degree: DegreePolicy::MU_CPU,
            select: SelectPolicy::Lum,
        }
    }
}

impl PlacementPolicy for AdaptiveController {
    fn name(&self) -> &'static str {
        "ADAPTIVE"
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> Placement {
        if let Some(join_req) = &req.join {
            self.last_table_pages = Some(join_req.table_pages);
        }
        PlacementPolicy::place(&mut self.current, req, ctl, rng)
    }

    fn on_report(&mut self, ctl: &mut ControlNode) {
        self.rounds_since_switch = self.rounds_since_switch.saturating_add(1);
        if self.rounds_since_switch < self.cfg.min_rounds_between_switches {
            return;
        }
        let desired = self.desired(ctl);
        if desired != self.current {
            self.current = desired;
            self.switches += 1;
            self.rounds_since_switch = 0;
        }
    }

    fn switches(&self) -> u64 {
        self.switches
    }
}

/// Per-class policy table: which policy places which work class. The
/// default reproduces the paper's setup exactly (strategy for joins and
/// stages, uniform random coordinators, equal bottleneck weights).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct PolicyConfig {
    /// Coordinator placement for scan/sort/update query classes.
    pub scan_coord: CoordPolicyKind,
    /// Home-node placement for OLTP transactions (within their affinity
    /// node filter).
    pub oltp_coord: CoordPolicyKind,
    /// Strategy for multi-join stages ≥ 1 (`None`: same as the main join
    /// strategy).
    pub stage_strategy: Option<Strategy>,
    /// Controller parameters used when the join strategy is
    /// [`Strategy::Adaptive`].
    pub adaptive: AdaptiveConfig,
    /// Per-kind weights of the bottleneck norm used by `LUB` selection,
    /// `coord-LUB` and the rebalancer's pressure tie-breaks.
    pub weights: ResourceWeights,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            scan_coord: CoordPolicyKind::Random,
            oltp_coord: CoordPolicyKind::Random,
            stage_strategy: None,
            adaptive: AdaptiveConfig::default(),
            weights: ResourceWeights::default(),
        }
    }
}

impl PolicyConfig {
    /// Build the policy object for a join-class slot.
    pub fn join_policy(&self, strategy: Strategy) -> Box<dyn PlacementPolicy> {
        match strategy {
            Strategy::Adaptive => Box::new(AdaptiveController::new(self.adaptive)),
            other => Box::new(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;

    fn ctl(n: usize, cpu: f64, free: u32) -> ControlNode {
        let mut c = ControlNode::new(n);
        for i in 0..n {
            c.report(
                i as u32,
                ResourceVector {
                    cpu,
                    free_pages: free,
                    ..ResourceVector::default()
                },
            );
        }
        c
    }

    fn join_req() -> JoinRequest {
        JoinRequest {
            table_pages: 131.25,
            psu_opt: 30,
            psu_noio: 3,
            outer_scan_nodes: 32,
            inner_rel: 0,
            degree_cap: 0,
        }
    }

    #[test]
    fn strategy_as_policy_places_joins() {
        let mut c = ctl(40, 0.0, 50);
        let mut rng = SimRng::new(1);
        let mut s = Strategy::MinIo;
        let p = PlacementPolicy::place(
            &mut s,
            &PlacementRequest::join(0, join_req(), 40),
            &mut c,
            &mut rng,
        );
        assert_eq!(p.degree(), 3, "131.25 pages / 50 free → k = 3");
    }

    #[test]
    fn coordinator_policies_respect_candidate_range() {
        let mut c = ctl(10, 0.0, 50);
        let mut rng = SimRng::new(2);
        let req = PlacementRequest::coordinator(WorkClass::Oltp, 4, 3);
        for kind in [
            CoordPolicyKind::Random,
            CoordPolicyKind::LeastCpu,
            CoordPolicyKind::LeastMem,
            CoordPolicyKind::RoundRobin,
        ] {
            let mut p = CoordinatorPolicy::new(kind);
            for _ in 0..20 {
                let nodes = p.place(&req, &mut c, &mut rng).nodes;
                assert_eq!(nodes.len(), 1);
                assert!(
                    (4..7).contains(&nodes[0]),
                    "{kind:?} picked {} outside [4, 7)",
                    nodes[0]
                );
            }
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut c = ctl(6, 0.0, 50);
        let mut rng = SimRng::new(3);
        let mut p = CoordinatorPolicy::new(CoordPolicyKind::RoundRobin);
        let req = PlacementRequest::coordinator(WorkClass::Scan, 0, 3);
        let picks: Vec<u32> = (0..6)
            .map(|_| p.place(&req, &mut c, &mut rng).nodes[0])
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_cpu_spreads_bursts_via_feedback() {
        let mut c = ctl(4, 0.0, 50);
        c.luc_bump = 0.2;
        let mut rng = SimRng::new(4);
        let mut p = CoordinatorPolicy::new(CoordPolicyKind::LeastCpu);
        let req = PlacementRequest::coordinator(WorkClass::Scan, 0, 4);
        let picks: Vec<u32> = (0..4)
            .map(|_| p.place(&req, &mut c, &mut rng).nodes[0])
            .collect();
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2, 3],
            "feedback spreads a burst: {picks:?}"
        );
    }

    #[test]
    fn adaptive_controller_switches_with_hysteresis() {
        let mut a = AdaptiveController::new(AdaptiveConfig {
            cpu_hot: 0.5,
            hysteresis: 0.1,
            min_rounds_between_switches: 1,
            ..AdaptiveConfig::default()
        });
        assert!(matches!(a.current(), Strategy::Isolated { .. }));

        // CPU heats up → controller switches to OPT-IO-CPU.
        let mut hot = ctl(8, 0.8, 50);
        a.on_report(&mut hot);
        assert_eq!(a.current(), Strategy::OptIoCpu);
        assert_eq!(a.switches(), 1);

        // Cooling into the hysteresis band does NOT switch back…
        let mut warm = ctl(8, 0.45, 50);
        a.on_report(&mut warm);
        assert_eq!(a.current(), Strategy::OptIoCpu, "hysteresis holds");

        // …but a clear cool-down does.
        let mut cool = ctl(8, 0.2, 50);
        a.on_report(&mut cool);
        assert!(matches!(a.current(), Strategy::Isolated { .. }));
        assert_eq!(a.switches(), 2);
    }

    #[test]
    fn adaptive_controller_detects_memory_bottleneck() {
        let mut a = AdaptiveController::new(AdaptiveConfig {
            min_rounds_between_switches: 1,
            ..AdaptiveConfig::default()
        });
        let mut starved = ctl(8, 0.1, 5); // 8·5 = 40 < 131.25
        let mut rng = SimRng::new(5);
        // Observe a join first (the controller needs the table size).
        a.place(
            &PlacementRequest::join(0, join_req(), 8),
            &mut starved,
            &mut rng,
        );
        a.on_report(&mut starved);
        assert_eq!(a.current(), Strategy::MinIoSuopt);
    }

    #[test]
    fn adaptive_controller_detects_disk_bottleneck() {
        let mut a = AdaptiveController::new(AdaptiveConfig {
            min_rounds_between_switches: 1,
            ..AdaptiveConfig::default()
        });
        // Plenty of memory, cool CPUs, but saturated disks.
        let disk = |disk: f64| {
            let mut c = ControlNode::new(8);
            for i in 0..8 {
                c.report(
                    i,
                    ResourceVector {
                        cpu: 0.2,
                        disk,
                        free_pages: 50,
                        ..ResourceVector::default()
                    },
                );
            }
            c
        };
        a.on_report(&mut disk(0.9));
        assert_eq!(a.current(), Strategy::MinIoSuopt);
        a.on_report(&mut disk(0.1));
        assert!(matches!(a.current(), Strategy::Isolated { .. }));
    }

    #[test]
    fn least_bottleneck_coordinator_avoids_hot_links() {
        let mut c = ControlNode::new(4);
        for (i, net) in [0.9, 0.1, 0.5, 0.7].into_iter().enumerate() {
            c.report(
                i as u32,
                ResourceVector {
                    cpu: 0.1,
                    net,
                    free_pages: 50,
                    ..ResourceVector::default()
                },
            );
        }
        let mut rng = SimRng::new(9);
        let mut p = CoordinatorPolicy::new(CoordPolicyKind::LeastBottleneck);
        assert_eq!(p.name(), "coord-LUB");
        let req = PlacementRequest::coordinator(WorkClass::Scan, 0, 4);
        assert_eq!(p.place(&req, &mut c, &mut rng).nodes, vec![1]);
        // Restricted to the hot half, it still picks the cooler candidate.
        let req = PlacementRequest::coordinator(WorkClass::Scan, 2, 2);
        assert_eq!(p.place(&req, &mut c, &mut rng).nodes, vec![2]);
    }

    #[test]
    fn switch_rate_limited_by_min_rounds() {
        let mut a = AdaptiveController::new(AdaptiveConfig {
            cpu_hot: 0.5,
            hysteresis: 0.1,
            min_rounds_between_switches: 3,
            ..AdaptiveConfig::default()
        });
        let mut hot = ctl(4, 0.9, 50);
        a.on_report(&mut hot);
        a.on_report(&mut hot);
        assert_eq!(a.switches(), 0, "too early to switch");
        a.on_report(&mut hot);
        assert_eq!(a.switches(), 1);
    }
}
