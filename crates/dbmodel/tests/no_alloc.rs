//! Allocation audit of the lock manager's OLTP hot path.
//!
//! Every debit-credit transaction takes a handful of tuple locks and
//! releases them at commit. With the entry/vector free lists the whole
//! lock → release cycle must not touch the heap once the pools and hash
//! tables are warm — the counting global allocator turns that from a
//! code-review claim into a hard test (the same discipline
//! `lb_core/tests/no_alloc.rs` applies to the broker's placement path).
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. The count itself is per thread,
//! so libtest's own threads (spawns, the result channel) never leak into
//! a measurement.

use dbmodel::lock::{LockManager, LockMode, LockOutcome, TxnToken};
use simkit::SimTime;
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

fn txn(id: u64) -> TxnToken {
    TxnToken {
        id,
        birth: SimTime::ZERO,
    }
}

/// One steady-state "transaction": take `locks` exclusive tuple locks on
/// a private object range, then commit (release everything).
fn cycle_allocs(mgr: &mut LockManager, txns: u64, locks: u64) -> u64 {
    allocs_during(|| cycle(mgr, txns, locks)).1
}

fn cycle(mgr: &mut LockManager, txns: u64, locks: u64) {
    for t in 0..txns {
        let tok = txn(t);
        for o in 0..locks {
            // Objects cycle over a bounded working set with no overlap
            // between concurrent holders (t is committed before t+1
            // starts), mirroring the uncontended debit-credit common case.
            let object = (t % 64) * locks + o;
            assert_eq!(
                mgr.lock(tok, object, LockMode::Exclusive),
                LockOutcome::Granted
            );
        }
        let woken = mgr.release_all(tok);
        assert!(woken.is_empty());
    }
}

#[test]
fn lock_release_cycle_is_allocation_free_after_warmup() {
    let mut mgr = LockManager::new();
    // Warm-up sizes the hash tables and fills the entry/vector pools.
    let warmup = cycle_allocs(&mut mgr, 128, 8);
    let steady = cycle_allocs(&mut mgr, 4096, 8);
    assert!(mgr.is_quiescent());
    assert_eq!(
        steady, 0,
        "lock/release hot path allocated {steady} times over 4096 txns (warmup did {warmup})"
    );
}

/// Contended locks still resolve correctly with pooled entries: a waiter
/// parked behind an exclusive holder is woken at release, and the entry
/// keeps serving after its buffers have been recycled several times.
#[test]
fn pooled_entries_preserve_waiter_semantics() {
    let mut mgr = LockManager::new();
    for round in 0..10 {
        let a = txn(round * 2);
        let b = txn(round * 2 + 1);
        assert_eq!(mgr.lock(a, 7, LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(mgr.lock(b, 7, LockMode::Shared), LockOutcome::Waiting);
        let woken = mgr.release_all(a);
        assert_eq!(woken, vec![(b, 7)]);
        assert!(mgr.release_all(b).is_empty());
    }
    assert!(mgr.is_quiescent());
}

/// The audit can fail: one deliberate allocation inside the window is
/// counted.
#[test]
fn deliberate_allocation_is_counted() {
    let (v, n) = allocs_during(|| std::hint::black_box(Vec::<u64>::with_capacity(64)));
    assert_eq!(v.capacity(), 64);
    assert_eq!(n, 1);
}
