//! Heap budget of a backlogged join load: the peak of live heap bytes
//! over `System::new` and `System::run` on 200 PEs whose CPUs queue
//! thousands of requests.
//!
//! On this configuration the peak was 12.70 MB while every CPU and disk
//! kept its own `VecDeque` queues, sized by its worst burst, and the
//! event list reserved 65,536 entries up front. It is 7.16 MB with one
//! FIFO block pool per device class, an event list that grows on demand
//! and joins that share the catalog's fragment-home snapshots; the pool
//! alone saves about 1.6 MB, the reservation about 3.6 MB. It is
//! 5.24 MB once the scans of one join side share one plan and sit in a
//! scan table of their own (104 bytes a scan, not a 208-byte task enum),
//! messages are 40 bytes and completion tokens 16 (24-byte queue slots,
//! 32-byte events). The bound sits between 7.16 and 5.24 MB, so undoing
//! these layout changes together fails the test.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. Live and peak bytes are kept
//! per thread, so libtest's own threads never leak into a measurement; a
//! simulation is single-threaded, so the measuring thread sees all of
//! its allocations.

use parallel_lb::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Bytes the current thread holds (may dip below zero when it frees
    /// memory another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live heap bytes a run of [`backlogged_join_cfg`] may reach.
const PEAK_BUDGET_BYTES: i64 = 6_200_000;

fn backlogged_join_cfg() -> SimConfig {
    SimConfig::paper_default(
        200,
        WorkloadSpec::homogeneous_join(0.01, 0.5),
        Strategy::OptIoCpu,
    )
    .with_seed(1)
    .with_sim_time(SimDur::from_millis(2_000), SimDur::from_millis(500))
}

#[test]
fn backlogged_join_peak_heap_stays_in_budget() {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let mut sys = snsim::System::new(backlogged_join_cfg());
    let summary = sys.run();
    let peak = PEAK.with(Cell::get) - base;
    drop(sys);
    assert!(summary.messages > 200_000, "{} messages", summary.messages);
    println!(
        "peak live heap {:.3} MB over {} messages",
        peak as f64 / 1e6,
        summary.messages
    );
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "peak live heap {peak} bytes, budget {PEAK_BUDGET_BYTES}"
    );
}
