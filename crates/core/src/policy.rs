//! The placement policies the broker holds, one slot per work class.
//!
//! The original reproduction hard-wired placement into the simulator: join
//! queries consulted the [`Strategy`] enum, while scan coordinators and
//! OLTP transactions were placed ad hoc with inline RNG draws. Following
//! the argument of Garofalakis & Ioannidis (*Multi-Resource Parallel Query
//! Scheduling and Optimization*) that multi-resource scheduling pays off
//! across operator types, not just joins, every placed work class now has
//! a policy:
//!
//! * [`WorkClass`] — what is being placed: a join (with its multi-join
//!   stage index), a query coordinator, or an OLTP transaction's home node;
//! * `JoinPolicy` — the join and stage slots: a fixed [`Strategy`] or
//!   the [`AdaptiveController`];
//! * [`CoordinatorPolicy`] — the scan and OLTP slots: coordinator/home-node
//!   placement (random, least-CPU, most-free-memory, least-bottleneck,
//!   round-robin);
//! * [`AdaptiveController`] — the paper's concluding "family of strategies"
//!   idea promoted to an **online controller**: instead of re-deciding per
//!   query, it observes the broker's periodic reports and switches the
//!   active join strategy mid-run (with hysteresis) when the bottleneck
//!   moves between CPU and memory/disk;
//! * [`PolicyConfig`] — serializable per-class policy table used by the
//!   simulator's configuration.
//!
//! Policies receive the control node's state **mutably** so state-aware
//! policies can apply the paper's adaptive feedback (immediately adjusting
//! the control data for selected nodes, avoiding herd effects between
//! reports).

use crate::control::ControlNode;
use crate::resources::{ResourceKind, ResourceWeights};
use crate::strategy::{JoinRequest, Placement, Strategy};
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
///
/// ```
/// use lb_core::{ControlNode, CoordPolicyKind, CoordinatorPolicy, ResourceVector};
/// use simkit::SimRng;
///
/// let mut ctl = ControlNode::new(4, Default::default());
/// for node in 0..4 {
///     ctl.report(node, ResourceVector { free_pages: 50, ..ResourceVector::default() });
/// }
/// let mut rng = SimRng::new(7);
///
/// // Round-robin coordinator placement over nodes [1, 4).
/// let mut policy = CoordinatorPolicy::new(CoordPolicyKind::RoundRobin);
/// let picks: Vec<u32> = (0..4).map(|_| policy.place(1, 3, &mut ctl, &mut rng)).collect();
/// assert_eq!(picks, vec![1, 2, 3, 1]);
/// assert_eq!(policy.name(), "coord-RR");
/// ```
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

    /// Name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self.kind {
            CoordPolicyKind::Random => "coord-RANDOM",
            CoordPolicyKind::LeastCpu => "coord-LUC",
            CoordPolicyKind::LeastMem => "coord-LUM",
            CoordPolicyKind::LeastBottleneck => "coord-LUB",
            CoordPolicyKind::RoundRobin => "coord-RR",
        }
    }

    /// Pick one node from the candidates `[first, first + count)` under
    /// the current control state. Runs once per arrival, so it returns
    /// the node without materializing a [`Placement`].
    pub fn place(
        &mut self,
        first: u32,
        count: u32,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> u32 {
        let count = count.max(1);
        let in_range = |id: u32| id >= first && id < first + count;
        match self.kind {
            CoordPolicyKind::Random => first + rng.below(count as u64) as u32,
            // The ranked iterators walk the maintained index head-first:
            // an unrestricted request resolves in O(log n) instead of a
            // full sort + allocation per placement.
            CoordPolicyKind::LeastCpu => {
                let pick = ctl
                    .ranked_util(ResourceKind::Cpu)
                    .find(|&(id, _)| in_range(id))
                    .map(|(id, _)| id)
                    .unwrap_or(first);
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
                    .unwrap_or(first);
                ctl.note_assignment(&[pick], 1);
                pick
            }
            CoordPolicyKind::LeastBottleneck => {
                let pick = ctl
                    .ranked_bottleneck()
                    .find(|&(id, _)| in_range(id))
                    .map(|(id, _)| id)
                    .unwrap_or(first);
                ctl.note_assignment(&[pick], 1);
                pick
            }
            CoordPolicyKind::RoundRobin => {
                let pick = first + (self.rr % count as u64) as u32;
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
/// The controller re-evaluates on the broker's periodic report rounds and
/// **switches the active policy mid-run**, with hysteresis, based on where
/// the bottleneck currently sits:
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
            current: Strategy::PMU_CPU_LUM,
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
        Strategy::PMU_CPU_LUM
    }

    /// Place one join with the strategy currently in force, remembering
    /// its table size for the memory signal.
    pub fn place(
        &mut self,
        req: &JoinRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> Placement {
        self.last_table_pages = Some(req.table_pages);
        self.current.place(req, ctl, rng)
    }

    /// Observe one report round's refreshed control state and switch
    /// strategies if the bottleneck moved (rate-limited by
    /// `min_rounds_between_switches`).
    pub fn on_report(&mut self, ctl: &mut ControlNode) {
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

    /// Mid-run strategy switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

/// The policy in a join or multi-join-stage slot.
#[derive(Debug, Clone)]
pub(crate) enum JoinPolicy {
    /// One strategy for the whole run.
    Fixed(Strategy),
    /// The online controller ([`Strategy::Adaptive`]).
    Adaptive(AdaptiveController),
}

impl JoinPolicy {
    /// The slot for `strategy`: [`Strategy::Adaptive`] becomes a
    /// controller with parameters `adaptive`, every other strategy is
    /// fixed.
    pub(crate) fn new(strategy: Strategy, adaptive: AdaptiveConfig) -> JoinPolicy {
        match strategy {
            Strategy::Adaptive => JoinPolicy::Adaptive(AdaptiveController::new(adaptive)),
            other => JoinPolicy::Fixed(other),
        }
    }

    /// Name used in experiment reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JoinPolicy::Fixed(s) => s.name(),
            JoinPolicy::Adaptive(_) => "ADAPTIVE",
        }
    }

    /// Decide degree and node set for one join.
    pub(crate) fn place(
        &mut self,
        req: &JoinRequest,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
    ) -> Placement {
        match self {
            JoinPolicy::Fixed(s) => s.place(req, ctl, rng),
            JoinPolicy::Adaptive(a) => a.place(req, ctl, rng),
        }
    }

    /// Report-round hook: the controller may switch strategies.
    pub(crate) fn on_report(&mut self, ctl: &mut ControlNode) {
        if let JoinPolicy::Adaptive(a) = self {
            a.on_report(ctl);
        }
    }

    /// Mid-run strategy switches (0 for a fixed strategy).
    pub(crate) fn switches(&self) -> u64 {
        match self {
            JoinPolicy::Fixed(_) => 0,
            JoinPolicy::Adaptive(a) => a.switches(),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;

    fn ctl(n: usize, cpu: f64, free: u32) -> ControlNode {
        let mut c = ControlNode::new(n, Default::default());
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
        let mut s = JoinPolicy::new(Strategy::MinIo, AdaptiveConfig::default());
        let p = s.place(&join_req(), &mut c, &mut rng);
        assert_eq!(p.degree(), 3, "131.25 pages / 50 free → k = 3");
        assert_eq!(s.name(), "MIN-IO");
        assert_eq!(s.switches(), 0, "a fixed strategy never switches");
    }

    #[test]
    fn coordinator_policies_respect_candidate_range() {
        let mut c = ctl(10, 0.0, 50);
        let mut rng = SimRng::new(2);
        for kind in [
            CoordPolicyKind::Random,
            CoordPolicyKind::LeastCpu,
            CoordPolicyKind::LeastMem,
            CoordPolicyKind::RoundRobin,
        ] {
            let mut p = CoordinatorPolicy::new(kind);
            for _ in 0..20 {
                let node = p.place(4, 3, &mut c, &mut rng);
                assert!(
                    (4..7).contains(&node),
                    "{kind:?} picked {node} outside [4, 7)"
                );
            }
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut c = ctl(6, 0.0, 50);
        let mut rng = SimRng::new(3);
        let mut p = CoordinatorPolicy::new(CoordPolicyKind::RoundRobin);
        let picks: Vec<u32> = (0..6).map(|_| p.place(0, 3, &mut c, &mut rng)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_cpu_spreads_bursts_via_feedback() {
        let mut c = ctl(4, 0.0, 50);
        c.luc_bump = 0.2;
        let mut rng = SimRng::new(4);
        let mut p = CoordinatorPolicy::new(CoordPolicyKind::LeastCpu);
        let picks: Vec<u32> = (0..4).map(|_| p.place(0, 4, &mut c, &mut rng)).collect();
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
        a.place(&join_req(), &mut starved, &mut rng);
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
            let mut c = ControlNode::new(8, Default::default());
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
        let mut c = ControlNode::new(4, Default::default());
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
        assert_eq!(p.place(0, 4, &mut c, &mut rng), 1);
        // Restricted to the hot half, it still picks the cooler candidate.
        assert_eq!(p.place(2, 2, &mut c, &mut rng), 2);
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
