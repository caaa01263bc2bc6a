//! # snsim — the integrated Shared Nothing database system simulator
//!
//! Ties together the substrates (`simkit`, `hardware`, `dbmodel`,
//! `engine`, `workload`) and the load-balancing contribution (`lb_core`)
//! into the full simulation system of Rahm & Marek, VLDB 1995 (§4, Fig. 3),
//! plus the experiment harness used to regenerate every figure of §5.
//!
//! ## Architecture: Dispatcher → ResourceBroker → PlacementPolicy
//!
//! [`System`] is orchestration glue over three explicit layers:
//!
//! 1. **`simkit::Dispatcher`** drives the run: it pops typed
//!    resource-completion events off the [`simkit::EventQueue`], advances
//!    the clock, and calls back into `System` (which implements
//!    [`simkit::Simulation`]); after every event the engine's action/input
//!    protocol is drained to quiescence (the private `exec` module).
//! 2. **`lb_core::ResourceBroker`** owns the per-node resource vectors
//!    (CPU, memory, disk and egress-link utilization plus free pages).
//!    `System` reports one windowed `ResourceVector` per PE on every
//!    control tick and forwards **all** placement decisions — two-way
//!    joins, multi-join stages, sort operators, scan/update query
//!    coordinators, and OLTP home nodes — as
//!    `lb_core::PlacementRequest`s; it never matches on strategies.
//! 3. **`lb_core::PlacementPolicy`** objects (one per work class, chosen
//!    by `lb_core::PolicyConfig` in the [`SimConfig`]) make the actual
//!    decisions; the `ADAPTIVE` strategy becomes an online controller
//!    that switches policies mid-run from the broker's report rounds.
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
