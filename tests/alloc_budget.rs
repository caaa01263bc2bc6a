//! Allocation budget of the join path: heap allocations per network
//! message during `System::run` on a 100-PE multi-user join load.
//!
//! Every message needs one allocation of its own (the `Box<Msg>` that
//! rides from the send action through the network to delivery); the
//! budget bounds everything else the join path allocates per message —
//! per-scan destination lists, redistribution state, task tables and
//! the dispatch loop. On this configuration the count was 1.231 per
//! message (reallocations included) while every scan carried its own
//! copy of the placement, and 1.098 once scans shared one destination
//! list and built their probe side at probe start. The bound sits
//! between the two.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. The count is per thread, so
//! libtest's own threads never leak into a measurement; a simulation is
//! single-threaded, so the measuring thread sees all of its allocations.

use parallel_lb::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations plus reallocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (reallocations included) per message the join path may
/// make.
const BUDGET_PER_MESSAGE: f64 = 1.16;

fn join_cfg() -> SimConfig {
    SimConfig::paper_default(
        100,
        WorkloadSpec::homogeneous_join(0.01, 0.25),
        Strategy::OptIoCpu,
    )
    .with_seed(1)
    .with_sim_time(SimDur::from_millis(3_000), SimDur::from_millis(750))
}

#[test]
fn join_path_allocations_per_message_stay_in_budget() {
    let mut sys = snsim::System::new(join_cfg());
    let before = ALLOCS.with(Cell::get);
    let summary = sys.run();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(summary.messages > 100_000, "{} messages", summary.messages);
    let per_message = allocs as f64 / summary.messages as f64;
    println!(
        "{allocs} allocations over {} messages: {per_message:.4} per message",
        summary.messages
    );
    assert!(
        per_message <= BUDGET_PER_MESSAGE,
        "{allocs} allocations over {} messages: {per_message:.4} per message, budget {BUDGET_PER_MESSAGE}",
        summary.messages
    );
    // A message cannot travel without its own box.
    assert!(per_message >= 1.0, "{per_message:.4} per message");
}
