//! # simkit — deterministic discrete-event simulation kernel
//!
//! Building blocks for the Shared Nothing database simulator used in the
//! reproduction of *Rahm & Marek, "Dynamic Multi-Resource Load Balancing in
//! Parallel Database Systems", VLDB 1995*:
//!
//! * [`SimTime`] / [`SimDur`] — nanosecond-resolution simulated clock,
//! * [`EventHeap`] — the future event list, with deterministic FIFO
//!   tie-breaking, behind the [`Dispatcher`]'s [`EventQueue`],
//! * [`FcfsServer`] — queueing resources (CPUs, disks, NICs) with busy-time
//!   accounting and optional two-level priorities, whose queues run
//!   through a [`FifoPool`] shared by a whole device class,
//! * [`SimRng`] — a seedable random source with the variates the workload
//!   model needs (exponential, uniform, Zipf, sampling without replacement),
//! * [`stats`] — online statistics (Welford mean/variance, time-weighted
//!   integrals, histograms, batch means for confidence intervals),
//! * [`Slab`] — a tiny generational id allocator for live jobs.
//!
//! All components are allocation-conscious and deterministic: the simulator
//! built on top is single-threaded, and two runs with equal seeds produce
//! bit-identical results.

pub mod dispatch;
pub mod fxhash;
pub mod heap;
pub mod lru;
pub mod rng;
pub mod server;
pub mod slab;
pub mod stats;
pub mod time;

pub use dispatch::{Dispatcher, EventQueue, Simulation};
pub use fxhash::{FxBuildHasher, FxHashMap};
pub use heap::EventHeap;
pub use lru::LruMap;
pub use rng::SimRng;
pub use server::{FcfsServer, FifoPool, Priority};
pub use slab::Slab;
pub use time::{SimDur, SimTime};
