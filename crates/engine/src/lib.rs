//! # engine — the query engine of a Shared Nothing PE
//!
//! Implements the workload-processing model of §4 of Rahm & Marek,
//! VLDB 1995, as deterministic event-driven state machines:
//!
//! * [`pe`] — per-PE transaction manager (MPL control, input queue),
//!   buffer manager, lock table and log;
//! * [`scan`] — scan subqueries (relation / clustered / non-clustered) with
//!   PAROP-style redistribution into per-destination 8 KB message buffers;
//! * [`pphj`] — the Partially Preemptible Hash Join \[23\]: memory-adaptive
//!   partitions that spill under pressure and re-join deferred partitions
//!   after the probe phase;
//! * [`coordinator`] — the one coordinator of every parallel query: two-way
//!   and left-deep multi-way hash joins, parallel sorts and scan queries
//!   (placement request, worker start, one scan side per phase, result
//!   merge, read-only single-phase commit);
//! * [`sort`] — the sort subquery of a parallel sort (§7): local external
//!   sorts whose runs spill under memory pressure;
//! * [`migrate`] — online fragment migrations (disk-read → network →
//!   disk-write traffic with exclusive fragment locking) driving the
//!   dynamic data-placement layer;
//! * [`oltp`] — affinity-routed debit-credit transactions with priority
//!   page fixes and log forcing (group commit);
//! * [`query`] — update statements;
//! * [`api`] / [`ctx`] — the action/input protocol that keeps the engine
//!   free of event-loop concerns (the simulator owns all scheduling).

pub mod api;
pub mod coordinator;
pub mod ctx;
pub mod job;
pub mod migrate;
pub mod oltp;
pub mod pe;
pub mod pphj;
pub mod query;
pub mod scan;
pub mod sort;

pub use api::{
    Action, EngineConfig, InKind, Input, JobId, JoinPhase, Msg, MsgKind, PeId, Step, TaskId, Token,
    COORD_TASK,
};
pub use ctx::Ctx;
pub use job::Job;
pub use pe::Pe;
