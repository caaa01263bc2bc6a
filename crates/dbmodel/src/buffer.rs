//! Per-PE main-memory buffer manager.
//!
//! From §4: *"The database buffer in main memory consists of a global
//! buffer for all transactions/queries as well as private working spaces
//! used for query processing (e.g., hash tables for hash joins). The global
//! buffer is managed according to a LRU replacement strategy and a no-force
//! update strategy with asynchronous disk writes. Private working spaces
//! are dynamically assigned by reserving a certain number of pages for
//! processing a given (sub)query."*
//!
//! and: *"A join query is only started at a node if the minimal space
//! requirements of p pages are available. Otherwise, the join query is
//! forced to wait in a memory queue that is managed according to a FCFS
//! scheduling policy. […] Since all hash join queries are assumed to have
//! equal priority, the memory allocation of a running query is not changed
//! due to newly arriving joins."* — only *higher-priority OLTP* steals
//! frames from running joins (the memory-adaptive PPHJ contract, \[23\]).
//!
//! ### Frame accounting
//!
//! `capacity = free + global_in_use + working_reserved`, always. Working
//! space reservations are capped at `capacity − global_floor`, so ordinary
//! page fixes can always recycle a frame from the global LRU. A
//! higher-priority (OLTP) miss with no free frame *prefers stealing* a page
//! from the join working space with the largest excess over its registered
//! minimum — this is what gradually drains co-located joins on OLTP nodes
//! and produces the memory-contention behaviour of §5.3. Steals never push
//! a join below its minimum (the paper additionally suspends joins in that
//! corner case; capping at the minimum preserves the observable behaviour —
//! see DESIGN.md).
//!
//! ### Free-memory metric
//!
//! The control node needs "available memory" per node (AVAIL-MEMORY). We
//! report `capacity − working_reserved − hot`, where `hot` is the number of
//! distinct global-buffer pages referenced during the last completed
//! reporting window — i.e. memory a new join could realistically claim
//! without displacing the active hot set.

use crate::catalog::PageAddr;
use simkit::LruMap;
use std::collections::VecDeque;

/// Identifies a working-space owner (a join subquery) for reservations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobMemKey(pub u64);

/// Result of fixing a page in the global buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixOutcome {
    /// Page resident — no I/O.
    Hit,
    /// Page must be read from disk. If a dirty victim was evicted it must
    /// be written back asynchronously (no-force).
    Miss { writeback: Option<PageAddr> },
    /// Like `Miss`, but the frame was stolen from the working space of
    /// `victim` (a running join), which must shed one page.
    MissSteal {
        victim: JobMemKey,
        writeback: Option<PageAddr>,
    },
}

/// Result of a working-space reservation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReserveOutcome {
    /// Reservation granted with `pages` frames (min ≤ pages ≤ desired).
    /// Any dirty global pages displaced must be written back.
    Granted {
        pages: u32,
        writebacks: Vec<PageAddr>,
    },
    /// Minimum not available (or FCFS queue non-empty): caller waits; it
    /// will be resumed via [`BufferManager::admit_waiters`].
    Queued,
}

/// A queued-waiter grant produced by [`BufferManager::admit_waiters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    pub job: JobMemKey,
    pub pages: u32,
    pub writebacks: Vec<PageAddr>,
}

#[derive(Debug, Clone, Copy)]
struct PageMeta {
    dirty: bool,
    epoch: u32,
    /// References within the current epoch (saturating at 2): a page
    /// counts into the hot set only on its *second* reference, so
    /// once-touched sequential scan pages do not masquerade as working-set
    /// memory in the AVAIL-MEMORY reports.
    refs: u8,
}

#[derive(Debug, Clone, Copy)]
struct Reservation {
    pages: u32,
    min: u32,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    job: JobMemKey,
    min: u32,
    desired: u32,
}

/// The buffer manager of one PE.
pub struct BufferManager {
    capacity: u32,
    global_floor: u32,
    working_reserved: u32,
    global: LruMap<PageAddr, PageMeta>,
    reservations: Vec<(JobMemKey, Reservation)>,
    mem_queue: VecDeque<Waiter>,
    epoch: u32,
    hot_this: u32,
    hot_prev: u32,
}

impl BufferManager {
    /// Create a buffer with `capacity` frames. `global_floor` frames are
    /// always left to the global LRU (≥ 1).
    pub fn new(capacity: u32, global_floor: u32) -> Self {
        assert!(capacity >= 1, "buffer needs at least one frame");
        let global_floor = global_floor.clamp(1, capacity);
        BufferManager {
            capacity,
            global_floor,
            working_reserved: 0,
            global: LruMap::new(capacity as usize),
            reservations: Vec::new(),
            mem_queue: VecDeque::new(),
            epoch: 0,
            hot_this: 0,
            hot_prev: 0,
        }
    }

    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    pub fn working_reserved(&self) -> u32 {
        self.working_reserved
    }

    pub fn global_in_use(&self) -> u32 {
        self.global.len() as u32
    }

    /// Signed: a fresh reservation may transiently oversubscribe frames
    /// until [`BufferManager::squeeze_global`] evicts the overlap.
    fn free_frames(&self) -> i64 {
        self.capacity as i64 - self.working_reserved as i64 - self.global.len() as i64
    }

    /// Frames a new reservation could claim right now.
    pub fn reservable(&self) -> u32 {
        (self.capacity - self.global_floor).saturating_sub(self.working_reserved)
    }

    /// Pages queued in the FCFS memory queue.
    pub fn mem_queue_len(&self) -> usize {
        self.mem_queue.len()
    }

    // ---------------------------------------------------------------
    // Global buffer (page cache)
    // ---------------------------------------------------------------

    /// Fix a page. `write` marks it dirty. `priority` marks an OLTP access
    /// that may steal working-space frames.
    pub fn fix(&mut self, addr: PageAddr, write: bool, priority: bool) -> FixOutcome {
        let epoch = self.epoch;
        if let Some(meta) = self.global.get_mut(&addr) {
            meta.dirty |= write;
            if meta.epoch != epoch {
                meta.epoch = epoch;
                meta.refs = 1;
            } else {
                meta.refs = meta.refs.saturating_add(1);
                if meta.refs == 2 {
                    self.hot_this += 1;
                }
            }
            return FixOutcome::Hit;
        }
        let meta = PageMeta {
            dirty: write,
            epoch,
            refs: 1,
        };
        if self.free_frames() > 0 {
            let evicted = self.global.insert(addr, meta);
            debug_assert!(evicted.is_none(), "free frame available, no eviction");
            return FixOutcome::Miss { writeback: None };
        }
        // No free frame. OLTP prefers stealing join excess; queries recycle
        // the global LRU.
        if priority {
            if let Some(victim) = self.steal_victim() {
                self.shrink_reservation(victim, 1);
                let evicted = self.global.insert(addr, meta);
                debug_assert!(evicted.is_none());
                return FixOutcome::MissSteal {
                    victim,
                    writeback: None,
                };
            }
        }
        debug_assert!(
            self.global_in_use() >= self.global_floor,
            "floor invariant guarantees an evictable page"
        );
        let writeback = self.evict_one();
        FixOutcome::Miss { writeback }
    }

    fn evict_one(&mut self) -> Option<PageAddr> {
        let (addr, meta) = self
            .global
            .evict_lru()
            .expect("evict_one called with empty global buffer");
        meta.dirty.then_some(addr)
    }

    /// Drop all pages of an object (e.g. a deleted temporary file).
    /// Dirty pages of dropped objects are discarded, not written.
    pub fn purge_object(&mut self, object: u64) {
        self.global.retain(|a, _| a.object != object);
    }

    /// Is this page currently resident? (statistics/tests)
    pub fn resident(&self, addr: PageAddr) -> bool {
        self.global.contains(&addr)
    }

    // ---------------------------------------------------------------
    // Working spaces (private query memory)
    // ---------------------------------------------------------------

    fn reservation_index(&self, job: JobMemKey) -> Option<usize> {
        self.reservations.iter().position(|(j, _)| *j == job)
    }

    fn steal_victim(&self) -> Option<JobMemKey> {
        self.reservations
            .iter()
            .filter(|(_, r)| r.pages > r.min)
            .max_by_key(|(_, r)| r.pages - r.min)
            .map(|(j, _)| *j)
    }

    fn shrink_reservation(&mut self, job: JobMemKey, pages: u32) {
        let idx = self.reservation_index(job).expect("victim exists");
        let r = &mut self.reservations[idx].1;
        debug_assert!(r.pages >= r.min + pages);
        r.pages -= pages;
        self.working_reserved -= pages;
    }

    /// Shrink the global buffer until `free_frames() >= needed`, returning
    /// dirty victims for asynchronous write-back.
    fn squeeze_global(&mut self, needed: u32) -> Vec<PageAddr> {
        let mut writebacks = Vec::new();
        while self.free_frames() < needed as i64 {
            debug_assert!(self.global_in_use() > 0, "accounting broken");
            if let Some(addr) = self.evict_one() {
                writebacks.push(addr);
            }
        }
        writebacks
    }

    /// Request a working space of `desired` pages, at least `min`.
    ///
    /// FCFS: if other requests already wait, or fewer than `min` pages are
    /// reservable, the request queues.
    pub fn reserve(&mut self, job: JobMemKey, min: u32, desired: u32) -> ReserveOutcome {
        let min = min.max(1);
        let desired = desired.max(min);
        if !self.mem_queue.is_empty() || self.reservable() < min {
            self.mem_queue.push_back(Waiter { job, min, desired });
            return ReserveOutcome::Queued;
        }
        let pages = desired.min(self.reservable());
        self.grant(job, min, pages);
        let writebacks = self.squeeze_global(0);
        ReserveOutcome::Granted { pages, writebacks }
    }

    fn grant(&mut self, job: JobMemKey, min: u32, pages: u32) {
        debug_assert!(self.reservation_index(job).is_none(), "double reservation");
        self.reservations.push((job, Reservation { pages, min }));
        self.working_reserved += pages;
    }

    /// Non-blocking reservation: grant whatever is reservable right now,
    /// up to `desired` — possibly zero. Used by memory-adaptive operators
    /// (PPHJ) that degrade to disk-resident processing instead of
    /// stalling; a multi-node join must never hold memory on some nodes
    /// while queueing on others (cross-node admission convoy).
    pub fn reserve_best_effort(&mut self, job: JobMemKey, desired: u32) -> (u32, Vec<PageAddr>) {
        let pages = self.reservable().min(desired.max(1));
        if pages == 0 {
            return (0, Vec::new());
        }
        self.grant(job, 1, pages);
        let writebacks = self.squeeze_global(0);
        (pages, writebacks)
    }

    /// Try to grow an existing reservation by up to `extra` pages (PPHJ
    /// re-expansion when memory frees up). Returns pages actually added and
    /// dirty global pages displaced (write back asynchronously).
    pub fn try_grow(&mut self, job: JobMemKey, extra: u32) -> (u32, Vec<PageAddr>) {
        // FCFS fairness: never bypass queued joins.
        if !self.mem_queue.is_empty() {
            return (0, Vec::new());
        }
        let avail = self.reservable().min(extra);
        if avail == 0 {
            return (0, Vec::new());
        }
        let idx = match self.reservation_index(job) {
            Some(i) => i,
            None => return (0, Vec::new()),
        };
        self.reservations[idx].1.pages += avail;
        self.working_reserved += avail;
        let writebacks = self.squeeze_global(0);
        (avail, writebacks)
    }

    /// Release `pages` from a reservation (partial release).
    pub fn release(&mut self, job: JobMemKey, pages: u32) {
        let idx = self.reservation_index(job).expect("release of unknown job");
        let r = &mut self.reservations[idx].1;
        let pages = pages.min(r.pages);
        r.pages -= pages;
        r.min = r.min.min(r.pages);
        self.working_reserved -= pages;
        if r.pages == 0 {
            self.reservations.swap_remove(idx);
        }
    }

    /// Release a job's entire reservation.
    pub fn release_all(&mut self, job: JobMemKey) {
        if let Some(idx) = self.reservation_index(job) {
            let pages = self.reservations[idx].1.pages;
            self.working_reserved -= pages;
            self.reservations.swap_remove(idx);
        }
    }

    /// Current reservation size of a job (0 if none).
    pub fn reserved_of(&self, job: JobMemKey) -> u32 {
        self.reservation_index(job)
            .map(|i| self.reservations[i].1.pages)
            .unwrap_or(0)
    }

    /// Admit FCFS waiters whose minimum now fits. Call after releases.
    pub fn admit_waiters(&mut self) -> Vec<Admission> {
        let mut admitted = Vec::new();
        while let Some(head) = self.mem_queue.front().copied() {
            if self.reservable() < head.min {
                break;
            }
            self.mem_queue.pop_front();
            let pages = head.desired.min(self.reservable());
            self.grant(head.job, head.min, pages);
            let writebacks = self.squeeze_global(0);
            admitted.push(Admission {
                job: head.job,
                pages,
                writebacks,
            });
        }
        admitted
    }

    /// Remove a waiter that aborted before admission.
    pub fn cancel_waiter(&mut self, job: JobMemKey) {
        self.mem_queue.retain(|w| w.job != job);
    }

    // ---------------------------------------------------------------
    // Reporting
    // ---------------------------------------------------------------

    /// Complete the current hot-set window (call at control-report rate).
    pub fn roll_epoch(&mut self) {
        self.hot_prev = self.hot_this.min(self.global_in_use());
        self.hot_this = 0;
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Distinct global pages referenced in the last completed window.
    pub fn hot_pages(&self) -> u32 {
        self.hot_prev.max(self.hot_this).min(self.global_in_use())
    }

    /// Free memory as reported to the load-balancing control node:
    /// frames not reserved by working spaces and not part of the hot set.
    pub fn free_pages_reported(&self) -> u32 {
        self.capacity
            .saturating_sub(self.working_reserved)
            .saturating_sub(self.hot_pages())
    }

    /// Memory utilization in [0, 1]: reserved + hot over capacity.
    pub fn utilization(&self) -> f64 {
        (self.working_reserved + self.hot_pages()) as f64 / self.capacity as f64
    }

    /// Frame-accounting invariant (for tests and debug assertions).
    pub fn check_invariants(&self) {
        assert!(
            self.global.len() as u32 + self.working_reserved <= self.capacity,
            "frames over capacity: global={} reserved={} cap={}",
            self.global.len(),
            self.working_reserved,
            self.capacity
        );
        let sum: u32 = self.reservations.iter().map(|(_, r)| r.pages).sum();
        assert_eq!(sum, self.working_reserved, "reservation sum mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(o: u64, p: u64) -> PageAddr {
        PageAddr::new(o, p)
    }

    /// A resident page is one 32-byte map entry: its address, its stamp
    /// and its metadata (40 bytes with a second stamp for a heap record).
    #[test]
    fn buffer_entries_stay_compact() {
        assert!(LruMap::<PageAddr, PageMeta>::entry_bytes() <= 32);
    }

    #[test]
    fn hit_after_miss() {
        let mut b = BufferManager::new(10, 1);
        assert!(matches!(
            b.fix(addr(1, 0), false, false),
            FixOutcome::Miss { .. }
        ));
        assert_eq!(b.fix(addr(1, 0), false, false), FixOutcome::Hit);
    }

    #[test]
    fn eviction_returns_dirty_victim() {
        let mut b = BufferManager::new(2, 1);
        b.fix(addr(1, 0), true, false); // dirty
        b.fix(addr(1, 1), false, false);
        // Third page evicts LRU = (1,0), which is dirty.
        match b.fix(addr(1, 2), false, false) {
            FixOutcome::Miss { writeback: Some(a) } => assert_eq!(a, addr(1, 0)),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut b = BufferManager::new(2, 1);
        b.fix(addr(1, 0), false, false);
        b.fix(addr(1, 1), false, false);
        assert_eq!(
            b.fix(addr(1, 2), false, false),
            FixOutcome::Miss { writeback: None }
        );
    }

    #[test]
    fn reserve_shrinks_global() {
        let mut b = BufferManager::new(10, 1);
        for p in 0..10 {
            b.fix(addr(1, p), p % 2 == 0, false);
        }
        assert_eq!(b.global_in_use(), 10);
        match b.reserve(JobMemKey(7), 2, 6) {
            ReserveOutcome::Granted { pages, writebacks } => {
                assert_eq!(pages, 6);
                // 6 frames displaced; every other page was dirty.
                assert_eq!(writebacks.len(), 3);
            }
            ReserveOutcome::Queued => panic!("should grant"),
        }
        assert_eq!(b.global_in_use(), 4);
        b.check_invariants();
    }

    #[test]
    fn reserve_capped_by_floor() {
        let mut b = BufferManager::new(10, 2);
        match b.reserve(JobMemKey(1), 1, 100) {
            ReserveOutcome::Granted { pages, .. } => assert_eq!(pages, 8),
            _ => panic!(),
        }
        assert_eq!(b.reservable(), 0);
    }

    #[test]
    fn fcfs_memory_queue() {
        let mut b = BufferManager::new(10, 1);
        assert!(matches!(
            b.reserve(JobMemKey(1), 5, 9),
            ReserveOutcome::Granted { pages: 9, .. }
        ));
        assert_eq!(b.reserve(JobMemKey(2), 5, 5), ReserveOutcome::Queued);
        // FCFS: a third request that *would* fit must still queue.
        assert_eq!(b.reserve(JobMemKey(3), 1, 1), ReserveOutcome::Queued);
        assert_eq!(b.mem_queue_len(), 2);
        b.release_all(JobMemKey(1));
        let admitted = b.admit_waiters();
        assert_eq!(admitted.len(), 2);
        assert_eq!(admitted[0].job, JobMemKey(2));
        assert_eq!(admitted[0].pages, 5);
        assert_eq!(admitted[1].job, JobMemKey(3));
        b.check_invariants();
    }

    #[test]
    fn admit_respects_order_even_if_later_fits() {
        let mut b = BufferManager::new(10, 1);
        b.reserve(JobMemKey(1), 9, 9);
        b.reserve(JobMemKey(2), 9, 9); // queued, can't fit while 1 holds
        b.reserve(JobMemKey(3), 1, 1); // queued behind 2
        b.release(JobMemKey(1), 2); // 2 free, enough for 3 but not 2
        assert!(b.admit_waiters().is_empty(), "head blocks the queue");
    }

    #[test]
    fn oltp_steals_join_excess() {
        let mut b = BufferManager::new(10, 1);
        b.reserve(JobMemKey(1), 2, 9); // join holds 9, min 2
                                       // Fill the single global floor frame.
        b.fix(addr(9, 0), false, true);
        // Next OLTP miss steals from the join rather than thrashing.
        match b.fix(addr(9, 1), false, true) {
            FixOutcome::MissSteal { victim, .. } => assert_eq!(victim, JobMemKey(1)),
            other => panic!("expected steal, got {other:?}"),
        }
        assert_eq!(b.reserved_of(JobMemKey(1)), 8);
        b.check_invariants();
    }

    #[test]
    fn steal_stops_at_min() {
        let mut b = BufferManager::new(6, 1);
        b.reserve(JobMemKey(1), 3, 5); // 5 reserved, min 3
        b.fix(addr(9, 0), false, true);
        b.fix(addr(9, 1), false, true); // steal -> 4
        b.fix(addr(9, 2), false, true); // steal -> 3
                                        // Excess exhausted: further OLTP misses recycle global LRU.
        let out = b.fix(addr(9, 3), false, true);
        assert!(matches!(out, FixOutcome::Miss { .. }), "{out:?}");
        assert_eq!(b.reserved_of(JobMemKey(1)), 3);
        b.check_invariants();
    }

    #[test]
    fn query_fixes_never_steal() {
        let mut b = BufferManager::new(6, 1);
        b.reserve(JobMemKey(1), 1, 5);
        b.fix(addr(9, 0), false, false);
        let out = b.fix(addr(9, 1), false, false);
        assert!(matches!(out, FixOutcome::Miss { .. }));
        assert_eq!(b.reserved_of(JobMemKey(1)), 5, "untouched");
    }

    #[test]
    fn try_grow_respects_queue_and_capacity() {
        let mut b = BufferManager::new(10, 1);
        b.reserve(JobMemKey(1), 2, 4);
        assert_eq!(b.try_grow(JobMemKey(1), 3).0, 3);
        assert_eq!(b.reserved_of(JobMemKey(1)), 7);
        b.reserve(JobMemKey(2), 9, 9); // queued
        assert_eq!(
            b.try_grow(JobMemKey(1), 2).0,
            0,
            "queued joins block growth"
        );
        b.check_invariants();
    }

    #[test]
    fn try_grow_displaces_global_pages() {
        let mut b = BufferManager::new(8, 1);
        b.reserve(JobMemKey(1), 2, 2);
        for p in 0..6 {
            b.fix(addr(1, p), true, false); // fill remaining frames dirty
        }
        let (grown, writebacks) = b.try_grow(JobMemKey(1), 4);
        assert_eq!(grown, 4);
        // 6 reserved + 6 global = 12 > 8 frames: 4 dirty pages displaced.
        assert_eq!(writebacks.len(), 4);
        b.check_invariants();
    }

    #[test]
    fn hot_set_counts_only_reused_pages() {
        let mut b = BufferManager::new(20, 1);
        // Sequential once-touched pages (a scan) are NOT hot.
        for p in 0..8 {
            b.fix(addr(1, p), false, false);
        }
        b.roll_epoch();
        assert_eq!(b.hot_pages(), 0, "once-touched pages are not hot");
        assert_eq!(b.free_pages_reported(), 20);
        // Re-referenced pages (OLTP working set) are hot.
        for _ in 0..3 {
            b.fix(addr(1, 0), false, false);
            b.fix(addr(1, 1), false, false);
        }
        b.roll_epoch();
        assert_eq!(b.hot_pages(), 2);
        assert_eq!(b.free_pages_reported(), 18);
        // Reservations reduce reported free memory.
        b.reserve(JobMemKey(1), 5, 5);
        assert_eq!(b.free_pages_reported(), 13);
        assert!((b.utilization() - 7.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn purge_object_drops_pages() {
        let mut b = BufferManager::new(10, 1);
        b.fix(addr(1, 0), true, false);
        b.fix(addr(2, 0), true, false);
        b.purge_object(1);
        assert!(!b.resident(addr(1, 0)));
        assert!(b.resident(addr(2, 0)));
        assert_eq!(b.global_in_use(), 1);
    }

    #[test]
    fn cancel_waiter_unblocks_queue() {
        let mut b = BufferManager::new(4, 1);
        b.reserve(JobMemKey(1), 3, 3);
        b.reserve(JobMemKey(2), 3, 3); // queued
        b.reserve(JobMemKey(3), 1, 1); // queued behind
        b.cancel_waiter(JobMemKey(2));
        b.release_all(JobMemKey(1));
        let adm = b.admit_waiters();
        assert_eq!(adm.len(), 1);
        assert_eq!(adm[0].job, JobMemKey(3));
    }

    proptest! {
        /// Random workloads keep frame accounting exact.
        #[test]
        fn prop_frame_accounting(ops in proptest::collection::vec((0u8..5, 1u64..30, 1u32..6), 1..300)) {
            let mut b = BufferManager::new(16, 2);
            let mut next_job = 0u64;
            let mut live_jobs: Vec<JobMemKey> = Vec::new();
            for (op, x, y) in ops {
                match op {
                    0 => { b.fix(addr(1, x), x % 2 == 0, false); }
                    1 => { b.fix(addr(2, x), false, true); }
                    2 => {
                        let job = JobMemKey(next_job);
                        next_job += 1;
                        if let ReserveOutcome::Granted { .. } = b.reserve(job, y.min(3), y) {
                            live_jobs.push(job);
                        } else {
                            b.cancel_waiter(job);
                        }
                    }
                    3 => {
                        if let Some(job) = live_jobs.pop() {
                            b.release_all(job);
                            for a in b.admit_waiters() {
                                live_jobs.push(a.job);
                            }
                        }
                    }
                    _ => {
                        if let Some(job) = live_jobs.first().copied() {
                            b.try_grow(job, y);
                        }
                    }
                }
                b.check_invariants();
                prop_assert!(b.global_in_use() + b.working_reserved() <= b.capacity());
            }
        }
    }
}
