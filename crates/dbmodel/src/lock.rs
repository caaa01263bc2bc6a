//! Distributed strict two-phase locking (per-PE lock tables).
//!
//! "For concurrency control, we employ distributed strict two-phase locking
//! (long read and write locks). Global deadlocks are resolved by a central
//! deadlock detection scheme." (§4)
//!
//! Each PE owns a [`LockManager`] over its local objects; lock requests are
//! granted FIFO (waiters never overtake), shared locks are compatible with
//! shared locks, and all locks are held until commit (`release_all`). The
//! central detector (see [`crate::deadlock`]) consumes the union of
//! [`LockManager::wait_edges`] across PEs.
//!
//! # Layout
//!
//! A debit-credit transaction takes four uncontended tuple locks and
//! releases them at commit, on every one of 1000 PEs. On the 1000-PE OLTP
//! soak each table grows to 64 buckets in the cold-start transient and
//! then holds about five locks, so the size of a bucket, not the contents
//! of an entry, sets the tables' footprint. Both maps are shaped for that:
//!
//! * a lock entry is 32 bytes (a 40-byte bucket with its key). It keeps
//!   its first holder (id, birth and mode) and a holder count inline.
//!   Co-holders (shared locks, in grant order) and the FIFO waiter queue
//!   live in one boxed side record that exists only under contention. An
//!   emptied record goes back to a pool in the manager, so a warm
//!   contended lock → commit cycle takes its record from there, not from
//!   the allocator;
//! * a held list is 40 bytes (a 48-byte bucket). It keeps a transaction's
//!   first four objects inline, with a length and the index of a buffer
//!   in the manager's spill pool for the rest; a retired list returns its
//!   buffer with its capacity;
//! * `release`/`release_all` reach each entry with one hash lookup and
//!   remove an emptied entry through the same lookup.
//!
//! The uncontended cycle therefore touches no allocator once the tables
//! are warm, and the tables need no entry pool.
//!
//! The maps keep their keys, their hasher and the order of the operations
//! on them. The hash table places and iterates buckets by hash and by the
//! history of inserts, removals and resizes alone, never by entry size, so
//! the bucket layout is the one the 96- and 72-byte buckets had, and so
//! are the orders of [`LockManager::wait_edges`] and
//! [`LockManager::births`]. That order must stay: the deadlock detector
//! can abort several victims in one pass, and the edge order can reach the
//! abort order. A capacity policy would change that history, since every
//! shrink rehashes a table and reorders its iteration. It also costs time:
//! shrinking on release reallocates on the hot path, and trimming every
//! table at each report round lowered the soak's peak RSS about as much as
//! this layout does but made its runs about half as slow again.
//!
//! A held list records one entry per grant, in grant order: an upgrade
//! granted from the wait queue appends its object a second time, and
//! `release_all` revisits such a repeat while the entry still exists. Only
//! a transaction that queues requests behind its own can tell; the engine
//! never does.

use simkit::fxhash::FxHashMap;
use simkit::SimTime;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::VecDeque;

/// Identity of a transaction for locking: globally unique id plus its birth
/// time (used by the youngest-victim abort policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnToken {
    pub id: u64,
    pub birth: SimTime,
}

/// Lock modes of strict 2PL (long read and write locks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    Granted,
    /// Enqueued; the owner will appear in `release_all` grants later.
    Waiting,
}

/// A holder record or a queued request.
type Request = (TxnToken, LockMode);

/// Bound on each free list (side records, spare spill capacity): enough
/// for every plausible steady state, small enough that a burst of
/// contention or of large transactions cannot pin memory.
const POOL_CAP: usize = 256;

/// The part of a lock entry that only contention needs.
#[derive(Debug, Default)]
struct Contention {
    /// Holders after the first, in grant order.
    co_holders: Vec<Request>,
    waiters: VecDeque<Request>,
}

impl Contention {
    fn is_empty(&self) -> bool {
        self.co_holders.is_empty() && self.waiters.is_empty()
    }
}

/// Emptied side records, kept boxed: a record drawn from here costs no
/// allocation, neither for the box nor for its buffers' capacity.
#[allow(clippy::vec_box)]
type SidePool = Vec<Box<Contention>>;

#[derive(Debug)]
struct LockEntry {
    /// First holder in grant order; stale while `n_holders == 0`.
    first: TxnToken,
    /// Co-holders and waiters; `None` between calls when there are none.
    side: Option<Box<Contention>>,
    /// `first` plus `side.co_holders`; nonzero between calls.
    n_holders: u32,
    /// Mode of `first`.
    mode: LockMode,
}

impl LockEntry {
    fn new(txn: TxnToken, mode: LockMode) -> Self {
        LockEntry {
            first: txn,
            side: None,
            n_holders: 1,
            mode,
        }
    }

    /// Holders in grant order.
    fn holders(&self) -> impl Iterator<Item = Request> + '_ {
        let first = (self.n_holders > 0).then_some((self.first, self.mode));
        first
            .into_iter()
            .chain(self.side.iter().flat_map(|s| s.co_holders.iter().copied()))
    }

    fn waiters(&self) -> impl Iterator<Item = &Request> + '_ {
        self.side.iter().flat_map(|s| s.waiters.iter())
    }

    fn front_waiter(&self) -> Option<Request> {
        self.side.as_ref()?.waiters.front().copied()
    }

    fn has_waiters(&self) -> bool {
        self.side.as_ref().is_some_and(|s| !s.waiters.is_empty())
    }

    fn is_empty(&self) -> bool {
        self.n_holders == 0 && !self.has_waiters()
    }

    /// The side record, drawn from `pool` if the entry has none.
    fn side_mut(&mut self, pool: &mut SidePool) -> &mut Contention {
        self.side
            .get_or_insert_with(|| pool.pop().unwrap_or_default())
    }

    fn push_holder(&mut self, (txn, mode): Request, pool: &mut SidePool) {
        if self.n_holders == 0 {
            self.first = txn;
            self.mode = mode;
        } else {
            self.side_mut(pool).co_holders.push((txn, mode));
        }
        self.n_holders += 1;
    }

    /// Drop `id`'s holder records, keeping the others in grant order.
    fn remove_holder(&mut self, id: u64) {
        let mut co = self.side.as_deref_mut().map(|s| &mut s.co_holders);
        if let Some(m) = &mut co {
            m.retain(|(t, _)| t.id != id);
        }
        if self.n_holders > 0 && self.first.id == id {
            // The next co-holder, if any, moves into the inline slot.
            match &mut co {
                Some(m) if !m.is_empty() => (self.first, self.mode) = m.remove(0),
                _ => self.n_holders = 0,
            }
        }
        self.n_holders = u32::from(self.n_holders > 0) + co.map_or(0, |m| m.len() as u32);
    }

    /// Hand an emptied side record back to `pool`.
    fn settle(&mut self, pool: &mut SidePool) {
        if let Some(side) = self.side.take_if(|s| s.is_empty()) {
            if pool.len() < POOL_CAP {
                pool.push(side);
            }
        }
    }
}

/// Held objects kept inline per transaction: a debit-credit transaction
/// takes four tuple locks.
const HELD_INLINE: usize = 4;

/// `Held::spill` of a list that has no spill buffer.
const NO_SPILL: u32 = u32::MAX;

/// Objects one transaction holds, in grant order: the first
/// [`HELD_INLINE`] inline, the rest in its buffer of the [`SpillPool`].
#[derive(Debug)]
struct Held {
    /// Slots `len..` hold stale copies, never read.
    inline: [u64; HELD_INLINE],
    len: u32,
    /// Index of this list's spill buffer, or [`NO_SPILL`].
    spill: u32,
}

impl Held {
    fn one(object: u64) -> Self {
        Held {
            inline: [object; HELD_INLINE],
            len: 1,
            spill: NO_SPILL,
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, i: usize, spills: &SpillPool) -> u64 {
        if i < HELD_INLINE {
            self.inline[i]
        } else {
            spills.bufs[self.spill as usize][i - HELD_INLINE]
        }
    }

    fn iter<'a>(&'a self, spills: &'a SpillPool) -> impl Iterator<Item = u64> + 'a {
        let spill: &[u64] = match self.spill {
            NO_SPILL => &[],
            i => &spills.bufs[i as usize],
        };
        self.inline[..self.len().min(HELD_INLINE)]
            .iter()
            .chain(spill)
            .copied()
    }

    fn push(&mut self, object: u64, spills: &mut SpillPool) {
        let len = self.len();
        if len < HELD_INLINE {
            self.inline[len] = object;
        } else {
            if self.spill == NO_SPILL {
                self.spill = spills.take();
            }
            spills.bufs[self.spill as usize].push(object);
        }
        self.len += 1;
    }

    /// Drop every copy of `object`, keeping the rest in order. Returns
    /// whether it was listed.
    fn remove(&mut self, object: u64, spills: &mut SpillPool) -> bool {
        let mut kept = 0;
        for i in 0..self.len() {
            let x = self.get(i, spills);
            if x == object {
                continue;
            }
            if kept < HELD_INLINE {
                self.inline[kept] = x;
            } else {
                spills.bufs[self.spill as usize][kept - HELD_INLINE] = x;
            }
            kept += 1;
        }
        if self.spill != NO_SPILL {
            spills.bufs[self.spill as usize].truncate(kept.saturating_sub(HELD_INLINE));
        }
        let removed = kept != self.len();
        self.len = kept as u32;
        removed
    }
}

/// Spill buffers of the held lists longer than [`HELD_INLINE`], indexed by
/// `Held::spill`. A retired list's buffer is emptied and its index reused,
/// so such a transaction does not allocate in steady state.
#[derive(Debug, Default)]
struct SpillPool {
    bufs: Vec<Vec<u64>>,
    /// Indices of `bufs` no live list uses.
    free: Vec<u32>,
}

impl SpillPool {
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.bufs.push(Vec::new());
            (self.bufs.len() - 1) as u32
        })
    }

    /// Return a retired held list's buffer.
    fn retire(&mut self, held: Held) {
        if held.spill == NO_SPILL {
            return;
        }
        let buf = &mut self.bufs[held.spill as usize];
        if self.free.len() < POOL_CAP {
            buf.clear();
        } else {
            *buf = Vec::new();
        }
        self.free.push(held.spill);
    }
}

/// Per-PE lock table.
#[derive(Debug, Default)]
pub struct LockManager {
    table: FxHashMap<u64, LockEntry>,
    /// Objects held per txn, in grant order, for O(held) release.
    held_by: FxHashMap<u64, Held>,
    /// Waiters currently enqueued across all entries. Lets `release_all`
    /// skip its whole-table abandoned-wait sweep in the common
    /// no-contention commit, where the sweep would visit every bucket
    /// just to find nothing.
    waiting: usize,
    /// Emptied side records (capacity kept), so contention does not
    /// allocate in steady state.
    side_pool: SidePool,
    spills: SpillPool,
    grants: u64,
    waits: u64,
}

/// Record `object` as newly held by `txn` (free function: callers hold
/// disjoint field borrows).
fn note_held(held_by: &mut FxHashMap<u64, Held>, spills: &mut SpillPool, txn: u64, object: u64) {
    match held_by.entry(txn) {
        MapEntry::Occupied(mut e) => e.get_mut().push(object, spills),
        MapEntry::Vacant(v) => {
            v.insert(Held::one(object));
        }
    }
}

impl LockManager {
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Request `mode` on `object` for `txn`.
    ///
    /// Re-requests by a holder are granted idempotently; a shared holder
    /// requesting exclusive upgrades in place when it is the only holder,
    /// otherwise it waits like any other request.
    pub fn lock(&mut self, txn: TxnToken, object: u64, mode: LockMode) -> LockOutcome {
        let entry = match self.table.entry(object) {
            MapEntry::Occupied(e) => e.into_mut(),
            MapEntry::Vacant(v) => {
                v.insert(LockEntry::new(txn, mode));
                note_held(&mut self.held_by, &mut self.spills, txn.id, object);
                self.grants += 1;
                return LockOutcome::Granted;
            }
        };
        let held_mode = entry
            .holders()
            .find(|(t, _)| t.id == txn.id)
            .map(|(_, m)| m);
        if let Some(held_mode) = held_mode {
            if held_mode == LockMode::Exclusive || mode == LockMode::Shared {
                return LockOutcome::Granted;
            }
            // A shared holder asking for exclusive: upgrade in place when
            // alone, otherwise queue the upgrade.
            if entry.n_holders == 1 {
                entry.mode = LockMode::Exclusive;
                self.grants += 1;
                return LockOutcome::Granted;
            }
        } else if entry.holders().all(|(_, m)| m.compatible(mode)) && !entry.has_waiters() {
            entry.push_holder((txn, mode), &mut self.side_pool);
            note_held(&mut self.held_by, &mut self.spills, txn.id, object);
            self.grants += 1;
            return LockOutcome::Granted;
        }
        entry
            .side_mut(&mut self.side_pool)
            .waiters
            .push_back((txn, mode));
        self.waiting += 1;
        self.waits += 1;
        LockOutcome::Waiting
    }

    /// Grant `entry`'s waiters from the front while they are compatible,
    /// appending each grant to `granted` and to its grantee's held list,
    /// then return an emptied side record to `side_pool`.
    fn promote_waiters(
        entry: &mut LockEntry,
        object: u64,
        granted: &mut Vec<(TxnToken, u64)>,
        waiting: &mut usize,
        held_by: &mut FxHashMap<u64, Held>,
        spills: &mut SpillPool,
        side_pool: &mut SidePool,
    ) {
        while let Some((txn, mode)) = entry.front_waiter() {
            if entry.holders().any(|(t, _)| t.id == txn.id) {
                // Upgrade case: the waiter already holds shared and is alone.
                if entry.n_holders != 1 || mode != LockMode::Exclusive {
                    break;
                }
                entry.mode = LockMode::Exclusive;
            } else if entry.holders().all(|(_, m)| m.compatible(mode)) {
                entry.push_holder((txn, mode), side_pool);
            } else {
                break;
            }
            entry.side_mut(side_pool).waiters.pop_front();
            *waiting -= 1;
            granted.push((txn, object));
            note_held(held_by, spills, txn.id, object);
        }
        entry.settle(side_pool);
    }

    /// Drop `txn`'s holder record on `object`, promote the waiters behind
    /// it and remove the entry if nothing is left, all through one lookup.
    fn release_holder(&mut self, txn: TxnToken, object: u64, granted: &mut Vec<(TxnToken, u64)>) {
        // Vacant only for a list entry left stale by a release that took
        // back a hold re-granted within the same `release_all` (a
        // transaction queued behind its own upgrade; see the tests).
        let MapEntry::Occupied(mut e) = self.table.entry(object) else {
            return;
        };
        let entry = e.get_mut();
        entry.remove_holder(txn.id);
        Self::promote_waiters(
            entry,
            object,
            granted,
            &mut self.waiting,
            &mut self.held_by,
            &mut self.spills,
            &mut self.side_pool,
        );
        if entry.is_empty() {
            e.remove();
        }
    }

    /// Release one object held by `txn` (early release for read-only
    /// operations — e.g. a scan dropping its fragment lock at scan end so
    /// a pending fragment migration is not serialized behind the whole
    /// query). Returns the `(txn, object)` pairs that became granted.
    pub fn release(&mut self, txn: TxnToken, object: u64) -> Vec<(TxnToken, u64)> {
        let mut granted = Vec::new();
        let MapEntry::Occupied(mut e) = self.held_by.entry(txn.id) else {
            return granted;
        };
        if !e.get_mut().remove(object, &mut self.spills) {
            // Not a holder: nothing to release.
            return granted;
        }
        if e.get().is_empty() {
            self.spills.retire(e.remove());
        }
        self.release_holder(txn, object, &mut granted);
        self.grants += granted.len() as u64;
        granted
    }

    /// Release everything `txn` holds (strict 2PL: at commit/abort) and
    /// remove it from any wait queues. Returns `(txn, object)` pairs that
    /// became granted — the engine resumes those transactions.
    pub fn release_all(&mut self, txn: TxnToken) -> Vec<(TxnToken, u64)> {
        let mut granted = Vec::new();
        if let Some(held) = self.held_by.remove(&txn.id) {
            // `held` keeps its spill buffer until it is retired below, so
            // the grants made meanwhile cannot reuse it.
            for i in 0..held.len() {
                let object = held.get(i, &self.spills);
                let repeat = (0..i).any(|j| held.get(j, &self.spills) == object);
                if !repeat || self.table.contains_key(&object) {
                    self.release_holder(txn, object, &mut granted);
                }
            }
            self.spills.retire(held);
        }
        // Drop any outstanding waits of this txn (abort path). With no
        // waiters anywhere the sweep cannot find anything — skip it.
        if self.waiting > 0 {
            let LockManager {
                table,
                held_by,
                waiting,
                side_pool,
                spills,
                ..
            } = self;
            table.retain(|&object, entry| {
                if let Some(side) = entry.side.as_deref_mut() {
                    let before = side.waiters.len();
                    side.waiters.retain(|(t, _)| t.id != txn.id);
                    let dropped = before - side.waiters.len();
                    if dropped > 0 {
                        *waiting -= dropped;
                        Self::promote_waiters(
                            entry,
                            object,
                            &mut granted,
                            waiting,
                            held_by,
                            spills,
                            side_pool,
                        );
                    }
                }
                !entry.is_empty()
            });
        }
        self.grants += granted.len() as u64;
        granted
    }

    /// Wait-for edges (waiter → holder) of this PE's lock table, fed to the
    /// central deadlock detector.
    pub fn wait_edges(&self) -> Vec<(u64, u64)> {
        let mut edges = Vec::new();
        for entry in self.table.values() {
            for (w, _) in entry.waiters() {
                for (h, _) in entry.holders() {
                    if w.id != h.id {
                        edges.push((w.id, h.id));
                    }
                }
                // Waiters also wait for earlier waiters (FIFO queue).
                for (w2, _) in entry.waiters() {
                    if w2.id == w.id {
                        break;
                    }
                    edges.push((w.id, w2.id));
                }
            }
        }
        edges
    }

    /// Birth times of all transactions known to this table.
    pub fn births(&self) -> Vec<TxnToken> {
        let mut txns = Vec::new();
        for entry in self.table.values() {
            txns.extend(entry.holders().map(|(t, _)| t));
            txns.extend(entry.waiters().map(|(t, _)| *t));
        }
        txns
    }

    /// No locks held or waited for (quiescence check for tests).
    pub fn is_quiescent(&self) -> bool {
        self.table.is_empty()
    }

    pub fn grants(&self) -> u64 {
        self.grants
    }

    pub fn waits(&self) -> u64 {
        self.waits
    }

    /// Panic unless the table is self-consistent and every transaction it
    /// names passes `live`:
    ///
    /// * every holder and waiter is live;
    /// * each held list matches its transaction's holder records, both
    ///   ways (a transaction that queued requests behind its own can leave
    ///   a stale entry and fail this; the engine never does);
    /// * the waiter count equals the number of queued waiters;
    /// * no entry is left with neither holders nor waiters, and a side
    ///   record exists only while its entry has co-holders or waiters.
    pub fn check_invariants(&self, live: impl Fn(u64) -> bool) {
        let mut waiters = 0;
        for (&object, entry) in &self.table {
            assert!(
                !entry.is_empty(),
                "object {object}: entry with no holders and no waiters"
            );
            assert!(
                entry.side.as_ref().is_none_or(|s| !s.is_empty()),
                "object {object}: empty side record kept"
            );
            for (t, _) in entry.holders().chain(entry.waiters().copied()) {
                assert!(live(t.id), "object {object}: txn {} is not live", t.id);
            }
            for (t, _) in entry.holders() {
                let listed = self
                    .held_by
                    .get(&t.id)
                    .is_some_and(|h| h.iter(&self.spills).any(|o| o == object));
                assert!(
                    listed,
                    "object {object}: holder {} not in its held list",
                    t.id
                );
            }
            waiters += entry.waiters().count();
        }
        for (&txn, held) in &self.held_by {
            assert!(!held.is_empty(), "txn {txn}: empty held list kept");
            for object in held.iter(&self.spills) {
                let holds = self
                    .table
                    .get(&object)
                    .is_some_and(|e| e.holders().any(|(t, _)| t.id == txn));
                assert!(holds, "txn {txn}: listed object {object} is not held");
            }
        }
        assert_eq!(self.waiting, waiters, "waiter count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TxnToken {
        TxnToken {
            id,
            birth: SimTime(id),
        }
    }

    /// Bucket sizes of the two maps (see the module's "Layout"): 96 and 72
    /// bytes with inline co-holder and waiter queues and a `Vec` spill.
    #[test]
    fn lock_table_buckets_stay_compact() {
        assert!(std::mem::size_of::<(u64, LockEntry)>() <= 40);
        assert!(std::mem::size_of::<(u64, Held)>() <= 48);
    }

    /// A side record exists only under contention and is recycled through
    /// the pool once the entry is uncontended again.
    #[test]
    fn side_records_are_pooled() {
        let mut lm = LockManager::new();
        lm.lock(t(1), 5, LockMode::Exclusive);
        assert!(lm.table[&5].side.is_none());
        lm.lock(t(2), 5, LockMode::Shared);
        assert!(lm.table[&5].side.is_some());
        lm.release_all(t(1));
        assert!(lm.table[&5].side.is_none(), "t2 holds alone");
        assert_eq!(lm.side_pool.len(), 1);
        lm.lock(t(3), 5, LockMode::Shared);
        assert_eq!(lm.side_pool.len(), 0, "co-holder reuses the record");
        lm.release_all(t(2));
        lm.release_all(t(3));
        assert!(lm.is_quiescent());
        assert_eq!(lm.side_pool.len(), 1);
    }

    /// Held lists longer than the inline slots share the spill pool; a
    /// retired list's buffer index is reused.
    #[test]
    fn spill_buffers_are_reused() {
        let mut lm = LockManager::new();
        for o in 0..6 {
            lm.lock(t(1), o, LockMode::Shared);
        }
        assert_eq!(lm.release(t(1), 4), vec![]);
        let held: Vec<u64> = lm.held_by[&1].iter(&lm.spills).collect();
        assert_eq!(held, vec![0, 1, 2, 3, 5]);
        lm.check_invariants(|_| true);
        lm.release_all(t(1));
        for o in 0..6 {
            lm.lock(t(2), o, LockMode::Shared);
        }
        assert_eq!(lm.spills.bufs.len(), 1, "one buffer serves both");
        lm.release_all(t(2));
        assert!(lm.is_quiescent());
        assert_eq!(lm.spills.free, vec![0]);
    }

    #[test]
    fn shared_locks_are_compatible() {
        let mut lm = LockManager::new();
        assert_eq!(lm.lock(t(1), 100, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.lock(t(2), 100, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.lock(t(3), 100, LockMode::Exclusive),
            LockOutcome::Waiting
        );
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut lm = LockManager::new();
        assert_eq!(lm.lock(t(1), 5, LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.lock(t(2), 5, LockMode::Shared), LockOutcome::Waiting);
        assert_eq!(lm.lock(t(3), 5, LockMode::Exclusive), LockOutcome::Waiting);
    }

    #[test]
    fn fifo_no_overtaking() {
        let mut lm = LockManager::new();
        lm.lock(t(1), 5, LockMode::Exclusive);
        lm.lock(t(2), 5, LockMode::Exclusive); // waits
                                               // t3's shared would be compatible with nothing held after release,
                                               // but must not overtake t2.
        lm.lock(t(3), 5, LockMode::Shared);
        let granted = lm.release_all(t(1));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0.id, 2);
    }

    #[test]
    fn release_grants_batch_of_compatible_waiters() {
        let mut lm = LockManager::new();
        lm.lock(t(1), 5, LockMode::Exclusive);
        lm.lock(t(2), 5, LockMode::Shared);
        lm.lock(t(3), 5, LockMode::Shared);
        let granted = lm.release_all(t(1));
        let ids: Vec<u64> = granted.iter().map(|(t, _)| t.id).collect();
        assert_eq!(ids, vec![2, 3], "both shared waiters granted together");
    }

    #[test]
    fn reentrant_requests_are_idempotent() {
        let mut lm = LockManager::new();
        assert_eq!(lm.lock(t(1), 5, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.lock(t(1), 5, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.lock(t(1), 5, LockMode::Exclusive),
            LockOutcome::Granted,
            "lone-holder upgrade"
        );
        assert_eq!(
            lm.lock(t(1), 5, LockMode::Shared),
            LockOutcome::Granted,
            "X covers S"
        );
    }

    #[test]
    fn upgrade_waits_with_other_holders() {
        let mut lm = LockManager::new();
        lm.lock(t(1), 5, LockMode::Shared);
        lm.lock(t(2), 5, LockMode::Shared);
        assert_eq!(lm.lock(t(1), 5, LockMode::Exclusive), LockOutcome::Waiting);
        let granted = lm.release_all(t(2));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].0.id, 1, "upgrade granted after S-holder left");
    }

    #[test]
    fn wait_edges_reflect_blocking() {
        let mut lm = LockManager::new();
        lm.lock(t(1), 5, LockMode::Exclusive);
        lm.lock(t(2), 5, LockMode::Exclusive);
        lm.lock(t(3), 5, LockMode::Exclusive);
        let mut edges = lm.wait_edges();
        edges.sort_unstable();
        // 2 waits for 1; 3 waits for 1 and for 2 (queued earlier).
        assert_eq!(edges, vec![(2, 1), (3, 1), (3, 2)]);
    }

    #[test]
    fn quiescent_after_release() {
        let mut lm = LockManager::new();
        lm.lock(t(1), 5, LockMode::Shared);
        lm.lock(t(1), 6, LockMode::Exclusive);
        lm.lock(t(2), 5, LockMode::Shared);
        lm.release_all(t(1));
        lm.release_all(t(2));
        assert!(lm.is_quiescent());
    }

    #[test]
    fn abort_removes_waits() {
        let mut lm = LockManager::new();
        lm.lock(t(1), 5, LockMode::Exclusive);
        lm.lock(t(2), 5, LockMode::Exclusive); // waiting
        lm.release_all(t(2)); // t2 aborts while waiting
        assert!(lm.wait_edges().is_empty());
        let granted = lm.release_all(t(1));
        assert!(granted.is_empty());
        assert!(lm.is_quiescent());
    }

    /// A transaction that queues requests behind its own (which the
    /// engine never does): the granted queued upgrade lists object 5
    /// twice, so `release_all` visits it twice, and the second visit takes
    /// back the shared lock the first visit had just granted to the same
    /// transaction from its own queue.
    #[test]
    fn queued_self_requests_revisit_repeated_objects() {
        let mut lm = LockManager::new();
        assert_eq!(lm.lock(t(2), 5, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.lock(t(3), 5, LockMode::Exclusive), LockOutcome::Waiting);
        assert_eq!(lm.lock(t(3), 5, LockMode::Exclusive), LockOutcome::Waiting);
        assert_eq!(lm.lock(t(3), 5, LockMode::Shared), LockOutcome::Waiting);
        // t3 is granted X, then its second X request as an upgrade; its S
        // request stays queued behind its own X.
        assert_eq!(lm.release_all(t(2)), vec![(t(3), 5), (t(3), 5)]);
        assert_eq!(lm.release_all(t(3)), vec![(t(3), 5)]);
        assert!(lm.is_quiescent(), "the repeat visit released the re-grant");
        assert_eq!(lm.lock(t(4), 5, LockMode::Exclusive), LockOutcome::Granted);
        assert!(lm.release_all(t(3)).is_empty());
        assert!(lm.release_all(t(4)).is_empty());
        assert!(lm.is_quiescent());
        assert_eq!((lm.grants(), lm.waits()), (5, 3));
    }

    type Requests = Vec<(TxnToken, LockMode)>;

    /// Naive reference table: entries and held lists in `Vec`s searched
    /// linearly, with the same FIFO, upgrade and release rules.
    #[derive(Default)]
    struct Model {
        /// `(object, holders, waiters)`.
        entries: Vec<(u64, Requests, Requests)>,
        /// `(txn, objects in grant order)`; a granted queued upgrade lists
        /// its object again.
        held: Vec<(u64, Vec<u64>)>,
        grants: u64,
        waits: u64,
    }

    impl Model {
        fn note(&mut self, txn: u64, object: u64) {
            match self.held.iter_mut().find(|(t, _)| *t == txn) {
                Some((_, objs)) => objs.push(object),
                None => self.held.push((txn, vec![object])),
            }
        }

        fn lock(&mut self, txn: TxnToken, object: u64, mode: LockMode) -> LockOutcome {
            let Some(i) = self.entries.iter().position(|e| e.0 == object) else {
                self.entries.push((object, vec![(txn, mode)], Vec::new()));
                self.note(txn.id, object);
                self.grants += 1;
                return LockOutcome::Granted;
            };
            let (_, holders, waiters) = &mut self.entries[i];
            if let Some(h) = holders.iter().position(|(t, _)| t.id == txn.id) {
                if holders[h].1 == LockMode::Exclusive || mode == LockMode::Shared {
                    return LockOutcome::Granted;
                }
                if holders.len() == 1 {
                    holders[h].1 = LockMode::Exclusive;
                    self.grants += 1;
                    return LockOutcome::Granted;
                }
                waiters.push((txn, LockMode::Exclusive));
                self.waits += 1;
                return LockOutcome::Waiting;
            }
            let fits = holders
                .iter()
                .all(|&(_, m)| m == LockMode::Shared && mode == LockMode::Shared);
            if fits && waiters.is_empty() {
                holders.push((txn, mode));
                self.note(txn.id, object);
                self.grants += 1;
                LockOutcome::Granted
            } else {
                waiters.push((txn, mode));
                self.waits += 1;
                LockOutcome::Waiting
            }
        }

        /// Grant entry `i`'s waiters from the front while they fit.
        fn promote(&mut self, i: usize, granted: &mut Vec<(TxnToken, u64)>) {
            let object = self.entries[i].0;
            loop {
                let (_, holders, waiters) = &mut self.entries[i];
                let Some(&(txn, mode)) = waiters.first() else {
                    break;
                };
                if let Some(h) = holders.iter().position(|(t, _)| t.id == txn.id) {
                    if holders.len() != 1 || mode != LockMode::Exclusive {
                        break;
                    }
                    holders[h].1 = LockMode::Exclusive;
                } else if holders
                    .iter()
                    .all(|&(_, m)| m == LockMode::Shared && mode == LockMode::Shared)
                {
                    holders.push((txn, mode));
                } else {
                    break;
                }
                waiters.remove(0);
                granted.push((txn, object));
                self.note(txn.id, object);
                self.grants += 1;
            }
        }

        /// Drop `txn`'s hold on `object` (if the entry exists), promote,
        /// and drop the entry once empty.
        fn unhold(&mut self, txn: u64, object: u64, granted: &mut Vec<(TxnToken, u64)>) {
            let Some(i) = self.entries.iter().position(|e| e.0 == object) else {
                return;
            };
            self.entries[i].1.retain(|(t, _)| t.id != txn);
            self.promote(i, granted);
            if self.entries[i].1.is_empty() && self.entries[i].2.is_empty() {
                self.entries.remove(i);
            }
        }

        fn release(&mut self, txn: TxnToken, object: u64) -> Vec<(TxnToken, u64)> {
            let mut granted = Vec::new();
            let Some(h) = self.held.iter().position(|(t, _)| *t == txn.id) else {
                return granted;
            };
            if !self.held[h].1.contains(&object) {
                return granted;
            }
            self.held[h].1.retain(|&o| o != object);
            if self.held[h].1.is_empty() {
                self.held.remove(h);
            }
            self.unhold(txn.id, object, &mut granted);
            granted
        }

        fn release_all(&mut self, txn: TxnToken) -> Vec<(TxnToken, u64)> {
            let mut granted = Vec::new();
            if let Some(h) = self.held.iter().position(|(t, _)| *t == txn.id) {
                let (_, objs) = self.held.remove(h);
                for object in objs {
                    self.unhold(txn.id, object, &mut granted);
                }
            }
            let mut i = 0;
            while i < self.entries.len() {
                let before = self.entries[i].2.len();
                self.entries[i].2.retain(|(t, _)| t.id != txn.id);
                if self.entries[i].2.len() != before {
                    self.promote(i, &mut granted);
                }
                if self.entries[i].1.is_empty() && self.entries[i].2.is_empty() {
                    self.entries.remove(i);
                } else {
                    i += 1;
                }
            }
            granted
        }

        fn is_waiting(&self, txn: u64) -> bool {
            self.entries
                .iter()
                .any(|(_, _, w)| w.iter().any(|(t, _)| t.id == txn))
        }

        fn wait_edges(&self) -> Vec<(u64, u64)> {
            let mut edges = Vec::new();
            for (_, holders, waiters) in &self.entries {
                for (i, (w, _)) in waiters.iter().enumerate() {
                    edges.extend(
                        holders
                            .iter()
                            .filter(|(h, _)| h.id != w.id)
                            .map(|(h, _)| (w.id, h.id)),
                    );
                    edges.extend(waiters[..i].iter().map(|(e, _)| (w.id, e.id)));
                }
            }
            edges.sort_unstable();
            edges
        }

        fn births(&self) -> Vec<TxnToken> {
            let mut txns: Vec<TxnToken> = self
                .entries
                .iter()
                .flat_map(|(_, h, w)| h.iter().chain(w).map(|&(t, _)| t))
                .collect();
            txns.sort_unstable();
            txns
        }
    }

    proptest::proptest! {
        /// Random lock traffic over ≤8 transactions and ≤6 objects: shared
        /// and exclusive requests, re-requests and upgrades, early
        /// releases, commits and aborts while waiting. After every op the
        /// table must agree with the naive [`Model`] on the outcome, the
        /// granted list in order, the wait-for edges, the births, the
        /// counters and quiescence, and pass its own invariant check.
        ///
        /// As in the engine, a waiting transaction issues no further lock
        /// request until it is granted; it may still release or abort.
        #[test]
        fn prop_matches_naive_model(
            n_txns in 1u64..9,
            n_objects in 1u64..7,
            ops in proptest::collection::vec((0u8..10, 0u64..8, 0u64..6), 1..501),
        ) {
            let mut lm = LockManager::new();
            let mut model = Model::default();
            for (kind, txn, object) in ops {
                let tok = t(txn % n_txns);
                let object = object % n_objects;
                match kind {
                    0..=5 => {
                        if model.is_waiting(tok.id) {
                            continue;
                        }
                        let mode = if kind < 3 { LockMode::Shared } else { LockMode::Exclusive };
                        proptest::prop_assert_eq!(
                            lm.lock(tok, object, mode),
                            model.lock(tok, object, mode)
                        );
                    }
                    6 => proptest::prop_assert_eq!(lm.release(tok, object), model.release(tok, object)),
                    _ => proptest::prop_assert_eq!(lm.release_all(tok), model.release_all(tok)),
                }
                let mut edges = lm.wait_edges();
                edges.sort_unstable();
                proptest::prop_assert_eq!(edges, model.wait_edges());
                let mut births = lm.births();
                births.sort_unstable();
                proptest::prop_assert_eq!(births, model.births());
                proptest::prop_assert_eq!(lm.grants(), model.grants);
                proptest::prop_assert_eq!(lm.waits(), model.waits);
                proptest::prop_assert_eq!(lm.is_quiescent(), model.entries.is_empty());
                lm.check_invariants(|id| id < n_txns);
            }
        }
    }
}
