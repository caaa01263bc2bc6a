//! # snsim — the integrated Shared Nothing database system simulator
//!
//! Ties together the substrates (`simkit`, `hardware`, `dbmodel`,
//! `engine`, `workload`) and the load-balancing contribution (`lb_core`)
//! into the full simulation system of Rahm & Marek, VLDB 1995 (§4, Fig. 3),
//! plus the experiment harness used to regenerate every figure of §5.
//!
//! ## Architecture: Dispatcher → Broker → policies
//!
//! [`System`] is orchestration glue over three explicit layers:
//!
//! 1. **`simkit::Dispatcher`** drives the run: it pops typed
//!    resource-completion events off the [`simkit::EventQueue`], advances
//!    the clock, and calls back into `System` (which implements
//!    [`simkit::Simulation`]); after every event the engine's action/input
//!    protocol is drained to quiescence (the private `exec` module).
//! 2. **`lb_core::Broker`**, held by value, owns the control node and
//!    the per-node resource vectors (CPU, memory, disk and egress-link
//!    utilization plus free pages). `System` reports one windowed
//!    `ResourceVector` per PE on every control tick, through the
//!    broker's report channel (direct, lagged or per-rack, chosen by
//!    `lb_core::BrokerConfig`), and asks it for **all** placement
//!    decisions: two-way joins, multi-join stages and sort operators via
//!    `place_join`, scan/update query coordinators and OLTP home nodes
//!    via `place_coordinator`. It never matches on strategies.
//! 3. **The policies in the broker's slots** (one per work class, chosen
//!    by `lb_core::PolicyConfig` in the [`SimConfig`]) make the actual
//!    decisions: a join policy for joins and stages, where the
//!    `ADAPTIVE` strategy becomes an online controller that switches
//!    strategies mid-run from the broker's report rounds, and a
//!    `lb_core::CoordinatorPolicy` for coordinators and home nodes.
//!
//! Supporting modules: [`planner`] caches per-class planner numbers and
//! fabricates engine jobs; [`metrics`] accumulates per-class statistics
//! into the serializable [`Summary`] (which now reports
//! `policy_switches` from adaptive controllers).
//!
//! ```no_run
//! use snsim::{run_one, SimConfig};
//! use lb_core::Strategy;
//! use workload::WorkloadSpec;
//!
//! let cfg = SimConfig::paper_default(
//!     20,
//!     WorkloadSpec::homogeneous_join(0.01, 0.25),
//!     Strategy::OptIoCpu,
//! );
//! let summary = run_one(cfg);
//! println!("join response time: {:.0} ms", summary.join_resp_ms());
//! ```

pub mod config;
mod exec;
pub mod experiment;
pub mod metrics;
pub mod planner;
pub mod scenario;
pub mod system;

pub use config::SimConfig;
pub use experiment::{
    format_table, run_one, run_one_traced, run_parallel, run_reps, AggregateSummary,
};
pub use metrics::{Metrics, Summary};
pub use system::System;
