//! # lb_core — dynamic multi-resource load balancing (the paper's contribution)
//!
//! Implements Section 3 of Rahm & Marek, VLDB 1995, *"Dynamic Multi-Resource
//! Load Balancing in Parallel Database Systems"*: the strategies that decide,
//! **at query run time**, (1) the *degree of join parallelism* and (2) the
//! *selection of join processors*, based on the current CPU utilization and
//! memory availability of every node.
//!
//! ## Components
//!
//! * [`control`] — the designated **control node**: periodically refreshed
//!   per-node state (CPU utilization, free memory), the sorted
//!   `AVAIL-MEMORY` array of §3.3, and the *adaptive feedback* corrections
//!   that immediately adjust the control data for newly selected join
//!   processors (avoiding herd effects under stale information);
//! * [`costmodel`] — the analytic single-user response-time model used to
//!   derive `p_su-opt` (argmin over the degree of parallelism) and
//!   `p_su-noIO` (eq. 3.1), plus `p_mu-cpu` (eq. 3.2);
//! * [`resources`] — the generic resource model: [`ResourceKind`]
//!   (CPU / memory / disk / network), per-node [`ResourceVector`]s and the
//!   weighted bottleneck norm every resource-aware component shares;
//! * [`degree`] — isolated policies for the number of join processors
//!   (static `p_su-opt`, static `p_su-noIO`, dynamic `pmu-<resource>` —
//!   the paper's `p_mu-cpu` generalized over [`ResourceKind`]);
//! * [`select`] — isolated policies for choosing the processors (RANDOM,
//!   LUC = least utilized CPUs, LUM = least utilized memory, LUB = least
//!   utilized bottleneck across all resource kinds);
//! * [`integrated`] — the integrated multi-resource policies MIN-IO
//!   (eq. 3.3), MIN-IO-SUOPT and OPT-IO-CPU that determine degree *and*
//!   placement in a single step from the memory/CPU state;
//! * [`strategy`] — the [`Strategy`] enum uniting all of the above
//!   behind one `place()` call; its `Adaptive` label names the online
//!   controller sketched in the paper's conclusions ("a family of load
//!   balancing strategies so that the most appropriate policy can be
//!   selected according to the current system state").
//!
//! ## Run-time layering (System → Broker → policies → ControlNode)
//!
//! On top of the strategy family, one concrete broker makes placement a
//! run-time service instead of enum dispatch inside the simulator:
//!
//! * [`policy`] — the policy in each work-class slot: `JoinPolicy` for
//!   two-way joins and multi-join stages (a fixed [`Strategy`] or the
//!   [`AdaptiveController`], an online controller that switches the
//!   active join strategy mid-run from report rounds, with hysteresis)
//!   and [`CoordinatorPolicy`] for scan/sort/update query coordinators
//!   and OLTP home nodes;
//! * [`broker`] — the [`Broker`]: owns the control node and the per-node
//!   [`ResourceVector`] columns (uniformly indexed by [`ResourceKind`] —
//!   no per-resource method families), receives the periodic vector
//!   reports through its report channel, lets the adaptive policies
//!   observe the end of each report round, places joins
//!   (`place_join`) and coordinators (`place_coordinator`) with the
//!   policy of their work class, and carries the data-placement layer's
//!   [`DataLocality`] view so policies can weigh where fragments
//!   currently live (`SelectPolicy::DataLocal`);
//! * [`rebalance`] — the online [`RebalanceController`]: clocked by the
//!   same report rounds, it detects per-node data imbalance (utilization
//!   breaks ties) and plans concurrent fragment migrations the simulator
//!   executes as real disk/network traffic;
//! * [`faults`] — the honest control plane: the broker's report channel
//!   is direct, lagged (report staleness, heartbeat loss, a
//!   consecutive-miss failure detector) or per-rack (aggregation on a
//!   slower root cadence), selected by [`BrokerConfig`], so
//!   control-plane degradation becomes a first-class, deterministic
//!   experiment axis.
//!
//! The simulator (`snsim`) holds a [`Broker`] by value and never inspects
//! strategies directly; the event loop itself lives one layer further
//! down in `simkit::Dispatcher`.

#![deny(missing_docs)]

pub mod broker;
pub mod control;
pub mod costmodel;
pub mod degree;
pub mod faults;
pub mod integrated;
pub mod policy;
pub mod ratematch;
pub mod rebalance;
pub mod resources;
pub mod select;
pub mod strategy;

pub use broker::Broker;
pub use control::{ControlNode, DataLocality, NodeState, Ranked};
pub use costmodel::{AdmissionEstimate, CostModel, CostParams, JoinProfile};
pub use degree::DegreePolicy;
pub use faults::{BrokerConfig, BrokerFaultStats, BrokerKind};
pub use policy::{
    AdaptiveConfig, AdaptiveController, CoordPolicyKind, CoordinatorPolicy, PolicyConfig, WorkClass,
};
pub use ratematch::RateMatch;
pub use rebalance::{FragmentInfo, MigrationPlan, RebalanceConfig, RebalanceController};
pub use resources::{ResourceKind, ResourceVector, ResourceWeights};
pub use select::SelectPolicy;
pub use strategy::{JoinRequest, Placement, Strategy, StrategyParseError};
