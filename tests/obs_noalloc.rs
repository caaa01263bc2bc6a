//! Allocation audit of the disabled observability layer.
//!
//! The inertness claim for the `trace` knob has two halves. The
//! bit-identical-summary half lives in `tests/obs_parity.rs`; this binary
//! pins the allocation half:
//!
//! * the fixed-bucket [`WaitHist`] behind `queue_wait_ms_p95` is
//!   *strictly* allocation-free to record and to query — replacing the
//!   Vec-backed histogram was the point of the swap;
//! * `run_one_traced` with the knob off allocates **exactly** as much as
//!   `run_one` on the same configuration — the `Option<Box<Recorder>>`
//!   hooks compile to pointer tests, and the disabled layer adds zero
//!   allocator traffic to the soak hot path.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. The count itself is per thread,
//! so libtest's own threads (spawns, the result channel) never leak into
//! a measurement; every simulation is single-threaded, so the measuring
//! thread sees all of its allocations.

use parallel_lb::prelude::*;
use snsim::metrics::WaitHist;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread.
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

/// Allocations the calling thread makes while `f` runs.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Recording and querying the queue-wait histogram never touches the
/// heap: the buckets are a fixed inline array.
#[test]
fn wait_hist_is_strictly_allocation_free() {
    let mut hist = WaitHist::default();
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u64 {
            hist.record(SimDur::from_micros(1 + (i * 37) % 1_000_000));
        }
        let _ = hist.quantile(0.95);
        let _ = hist.count();
    });
    assert_eq!(n, 0, "WaitHist allocated {n} times over 10k records");
}

fn soak_cfg() -> SimConfig {
    SimConfig::paper_default(
        1000,
        WorkloadSpec::mixed(
            0.01,
            0.0,
            dbmodel::RelationId(2),
            100.0,
            workload::NodeFilter::All,
        ),
        Strategy::OptIoCpu,
    )
    .with_seed(1)
    .with_sim_time(SimDur::from_millis(300), SimDur::from_millis(50))
}

/// The disabled trace layer adds zero allocations to the soak hot path:
/// the traced entry point with the knob off allocates exactly as much as
/// the plain entry point (and identical runs allocate identically, so
/// the comparison is exact, not statistical).
#[test]
fn disabled_trace_layer_allocates_nothing_extra() {
    // Warm-up run so lazily initialized process state (malloc arenas,
    // stdio locks) does not skew the first measurement.
    let _ = snsim::run_one(soak_cfg());
    let (s1, plain_a) = allocs_during(|| snsim::run_one(soak_cfg()));
    let (s2, plain_b) = allocs_during(|| snsim::run_one(soak_cfg()));
    assert_eq!(
        plain_a, plain_b,
        "identical untraced runs allocated differently — counter polluted?"
    );
    let ((s3, trace), traced_n) = allocs_during(|| snsim::run_one_traced(soak_cfg()));
    assert!(trace.is_none(), "trace off must produce no output");
    assert_eq!(
        plain_a,
        traced_n,
        "disabled trace layer allocated {} extra times on the soak hot path",
        traced_n.abs_diff(plain_a)
    );
    // Same bits, too (the cheap end-to-end cross-check).
    let j = |s: &Summary| serde_json::to_string(s).expect("serialize");
    assert_eq!(j(&s1), j(&s2));
    assert_eq!(j(&s1), j(&s3));
}

/// The audit can fail: one deliberate allocation inside the window is
/// counted.
#[test]
fn deliberate_allocation_is_counted() {
    let (v, n) = allocs_during(|| std::hint::black_box(Vec::<u64>::with_capacity(64)));
    assert_eq!(v.capacity(), 64);
    assert_eq!(n, 1);
}
