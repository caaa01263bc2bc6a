//! Allocation audit of the broker's placement hot path.
//!
//! The control node's incremental order statistics promise
//! allocation-free steady state: `report`, `note_assignment` and every
//! ranking read (materialized views and lazy top-k iterators) must not
//! touch the heap once the per-node buffers are warm. A counting global
//! allocator makes that a hard test rather than a code-review claim.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. The count itself is per thread,
//! so libtest's own threads (spawns, the result channel) and the other
//! test in this binary never leak into a measurement.

use lb_core::{ControlNode, ReadMode, ResourceKind, ResourceVector};
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

fn vector(i: u64) -> ResourceVector {
    ResourceVector {
        cpu: (i % 97) as f64 / 97.0,
        disk: (i % 53) as f64 / 53.0,
        net: (i % 31) as f64 / 31.0,
        mem: (i % 11) as f64 / 11.0,
        free_pages: 10 + (i % 40) as u32,
    }
}

/// Drive the full report → read → assign cycle and count allocations.
fn cycle_allocs(ctl: &mut ControlNode, n: usize, rounds: u64) -> u64 {
    allocs_during(|| cycle(ctl, n, rounds)).1
}

fn cycle(ctl: &mut ControlNode, n: usize, rounds: u64) {
    for round in 0..rounds {
        for pe in 0..n as u64 {
            ctl.report(pe as u32, vector(pe * 7 + round));
        }
        // Materialized views (borrowed scratch) and lazy top-k heads.
        let busiest = ctl.by_bottleneck()[0].0;
        let roomiest = ctl.avail_memory()[0].0;
        let head = ctl
            .ranked_cpu()
            .map(|(id, _)| id)
            .next()
            .expect("non-empty");
        let _ = ctl.by_util(ResourceKind::Disk);
        ctl.note_assignment(&[busiest, roomiest, head], 2);
    }
}

#[test]
fn placement_path_is_allocation_free_after_warmup() {
    let n = 1000;
    let mut ctl = ControlNode::new(n);
    // Warm-up: first reads size the scratch buffers.
    let warmup = cycle_allocs(&mut ctl, n, 2);
    let steady = cycle_allocs(&mut ctl, n, 50);
    assert_eq!(
        steady, 0,
        "placement hot path allocated {steady} times over 50 rounds (warmup did {warmup})"
    );
}

/// The legacy baseline really does allocate per read — guarding the
/// benchmark's honesty: if `SortPerCall` ever became allocation-free the
/// speedup headline would be measuring the wrong thing.
#[test]
fn sort_per_call_baseline_allocates_per_read() {
    let n = 100;
    let mut ctl = ControlNode::new(n);
    ctl.set_read_mode(ReadMode::SortPerCall);
    let _ = cycle_allocs(&mut ctl, n, 2);
    let steady = cycle_allocs(&mut ctl, n, 10);
    assert!(
        steady >= 10,
        "sort-per-call should allocate on every view read, saw {steady}"
    );
}

/// The audit can fail: one deliberate allocation inside the window is
/// counted.
#[test]
fn deliberate_allocation_is_counted() {
    let (v, n) = allocs_during(|| std::hint::black_box(Vec::<u64>::with_capacity(64)));
    assert_eq!(v.capacity(), 64);
    assert_eq!(n, 1);
}
