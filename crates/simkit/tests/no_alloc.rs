//! Allocation audit of the future-event-list hot path.
//!
//! Events are stored by value inside the binary heap, so a steady-state
//! push/pop cycle at constant depth must never touch the heap once the
//! backing storage is warm. This pins the zero-allocation property the
//! event-loop perf work relies on: per-event cost is pointer shuffling,
//! not allocator traffic.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. The count itself is per thread,
//! so libtest's own threads (spawns, the result channel) never leak into
//! a measurement.

use simkit::{EventQueue, SimDur, SimTime};
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

/// Hold the queue at constant depth: pop one event, push its follow-up a
/// little later — the steady state of every hardware server model.
fn cycle_allocs(q: &mut EventQueue<u64>, steps: u64) -> u64 {
    allocs_during(|| {
        for _ in 0..steps {
            let (t, ev) = q.pop_next().expect("queue stays non-empty");
            q.at(t + SimDur::from_micros(100 + ev % striped(ev)), ev);
        }
    })
    .1
}

/// Deterministic per-event jitter so the follow-ups interleave.
fn striped(ev: u64) -> u64 {
    37 + (ev * 31) % 400
}

/// The FEL is *strictly* allocation-free once warm: sift-up and
/// sift-down move entries inside the backing vector, and constant depth
/// means that vector never regrows.
#[test]
fn event_heap_steady_state_is_allocation_free() {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1 << 10);
    for i in 0..512u64 {
        q.at(SimTime::ZERO + SimDur::from_micros(i), i);
    }
    let _ = cycle_allocs(&mut q, 4096);
    let steady = cycle_allocs(&mut q, 100_000);
    assert_eq!(
        steady, 0,
        "heap FEL allocated {steady} times over 100k steady-state events"
    );
    assert_eq!(q.len(), 512);
}

/// The audit can fail: one deliberate allocation inside the window is
/// counted.
#[test]
fn deliberate_allocation_is_counted() {
    let (v, n) = allocs_during(|| std::hint::black_box(Vec::<u64>::with_capacity(64)));
    assert_eq!(v.capacity(), 64);
    assert_eq!(n, 1);
}
