//! Heap budgets: the peak of live heap bytes over `System::new` and
//! `System::run` on two 200-PE loads.
//!
//! **Backlogged joins**, whose CPUs queue thousands of requests. On this
//! configuration the peak was 12.70 MB while every CPU and disk kept its
//! own `VecDeque` queues, sized by its worst burst, and the event list
//! reserved 65,536 entries up front. It is 7.16 MB with one FIFO block
//! pool per device class, an event list that grows on demand and joins
//! that share the catalog's fragment-home snapshots; the pool alone saves
//! about 1.6 MB, the reservation about 3.6 MB. It is 5.24 MB once the
//! scans of one join side share one plan and sit in a scan table of their
//! own (104 bytes a scan, not a 208-byte task enum), messages are 40 bytes
//! and completion tokens 16 (24-byte queue slots, 32-byte events), and
//! 5.05 MB once disk units drop their unread counters and lock tables
//! their inline contention state. The bound sits between 7.16 and
//! 5.24 MB, so undoing the scan, message and token layouts together fails
//! the test. It is 4.79 MB with one-slot LRU entries (below).
//!
//! **Debit-credit OLTP**: the 1000-PE OLTP soak's spec cut to 200 PEs and
//! 0.5 s. Its peak was 5.08 MB with 96-byte lock-table buckets (first
//! holder, co-holder spill `Vec` and waiter `VecDeque` inline) and 72-byte
//! held-list buckets, and 4.22 MB with 40-byte lock buckets (contention in
//! a pooled side record) and 48-byte held-list buckets (spill buffers by
//! index). It is 3.19 MB once the buffer and disk-cache LRUs store each
//! cached page once: a 32- or 24-byte hash entry holding one stamp, where
//! a second stamp and a shadow heap of `(stamp, key)` records made 64 and
//! 56 bytes a page. The bound sits between 4.22 and 3.19 MB, so restoring
//! the shadow heap fails the test.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. Live and peak bytes are kept
//! per thread, so libtest's own threads never leak into a measurement; a
//! simulation is single-threaded, so the measuring thread sees all of
//! its allocations.

use parallel_lb::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::scenario::ScenarioSpec;

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

/// Run `cfg`; return its summary and the peak of live heap bytes over
/// `System::new` and `System::run`.
fn peak_heap_of(cfg: SimConfig) -> (Summary, i64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let mut sys = snsim::System::new(cfg);
    let summary = sys.run();
    let peak = PEAK.with(Cell::get) - base;
    drop(sys);
    (summary, peak)
}

/// Peak live heap bytes a run of [`backlogged_join_cfg`] may reach.
const PEAK_BUDGET_BYTES: i64 = 6_200_000;

/// Peak live heap bytes a run of [`debit_credit_cfg`] may reach.
const OLTP_PEAK_BUDGET_BYTES: i64 = 3_700_000;

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
    let (summary, peak) = peak_heap_of(backlogged_join_cfg());
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

/// The debit-credit soak (`scenarios/thousand_pe_soak.json`) cut to 200
/// PEs and 0.5 s: 100 TPS per node, four tuple locks per transaction.
fn debit_credit_cfg() -> SimConfig {
    let json = std::fs::read_to_string("scenarios/thousand_pe_soak.json").expect("soak spec");
    let mut spec: ScenarioSpec = serde_json::from_str(&json).expect("valid soak spec");
    spec.base.n_pes = 200;
    spec.base.seed = 1;
    spec.base.sim_secs = 0.5;
    spec.base.warmup_secs = 0.1;
    snsim::scenario::build_config(&spec.base)
}

#[test]
fn debit_credit_peak_heap_stays_in_budget() {
    let (summary, peak) = peak_heap_of(debit_credit_cfg());
    assert!(summary.arrivals > 9_000, "{} arrivals", summary.arrivals);
    println!(
        "peak live heap {:.3} MB over {} arrivals",
        peak as f64 / 1e6,
        summary.arrivals
    );
    assert!(
        peak <= OLTP_PEAK_BUDGET_BYTES,
        "peak live heap {peak} bytes, budget {OLTP_PEAK_BUDGET_BYTES}"
    );
}
