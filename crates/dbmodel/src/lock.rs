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
//! releases them at commit, on every one of 1000 PEs, so the table is
//! shaped for that case:
//!
//! * an entry keeps its first holder inline and spills co-holders (shared
//!   locks) to a `Vec` in grant order; its waiter queue is a `VecDeque`,
//!   which allocates only when someone waits. An uncontended entry owns no
//!   heap buffer, so creating and dropping one per access is free;
//! * the per-transaction list of held objects keeps its first four
//!   objects inline and spills the rest to a `Vec` that is recycled
//!   through a small free list;
//! * `release`/`release_all` reach each entry with one hash lookup and
//!   remove an emptied entry through the same lookup.
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

/// Ordered list keeping its first `N` items inline and the rest in
/// `spill` (so `spill.len() == len.saturating_sub(N)`).
#[derive(Debug)]
struct SmallList<T: Copy, const N: usize> {
    len: usize,
    /// Slots `len..N` hold stale copies, never read.
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> SmallList<T, N> {
    fn one(x: T) -> Self {
        SmallList {
            len: 1,
            inline: [x; N],
            spill: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, i: usize) -> T {
        if i < N {
            self.inline[i]
        } else {
            self.spill[i - N]
        }
    }

    fn get_mut(&mut self, i: usize) -> &mut T {
        if i < N {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - N]
        }
    }

    fn iter(&self) -> std::iter::Chain<std::slice::Iter<'_, T>, std::slice::Iter<'_, T>> {
        self.inline[..self.len.min(N)].iter().chain(&self.spill)
    }

    fn push(&mut self, x: T) {
        if self.len < N {
            self.inline[self.len] = x;
        } else {
            self.spill.push(x);
        }
        self.len += 1;
    }

    /// Keep the items `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            let x = self.get(i);
            if keep(&x) {
                *self.get_mut(kept) = x;
                kept += 1;
            }
        }
        self.spill.truncate(kept.saturating_sub(N));
        self.len = kept;
    }
}

/// Held objects kept inline per transaction: a debit-credit transaction
/// takes four tuple locks.
const HELD_INLINE: usize = 4;

type Held = SmallList<u64, HELD_INLINE>;

#[derive(Debug)]
struct LockEntry {
    /// Holders in grant order; never empty between calls.
    holders: SmallList<(TxnToken, LockMode), 1>,
    waiters: VecDeque<(TxnToken, LockMode)>,
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
    /// Emptied spill buffers of retired held lists (capacity kept), so a
    /// transaction holding more than [`HELD_INLINE`] objects does not
    /// allocate in steady state.
    spill_pool: Vec<Vec<u64>>,
    grants: u64,
    waits: u64,
}

/// Bound on the spill free list: enough for every plausible steady state,
/// small enough that a burst of large transactions cannot pin memory.
const POOL_CAP: usize = 256;

/// Record `object` as newly held by `txn`, drawing a spill buffer from
/// the pool once the inline slots are full (free function: callers hold
/// disjoint field borrows).
fn note_held(held_by: &mut FxHashMap<u64, Held>, pool: &mut Vec<Vec<u64>>, txn: u64, object: u64) {
    match held_by.entry(txn) {
        MapEntry::Occupied(mut e) => {
            let held = e.get_mut();
            if held.len() == HELD_INLINE && held.spill.capacity() == 0 {
                held.spill = pool.pop().unwrap_or_default();
            }
            held.push(object);
        }
        MapEntry::Vacant(v) => {
            v.insert(Held::one(object));
        }
    }
}

/// Return a retired held list's spill buffer to the pool.
fn retire_held(pool: &mut Vec<Vec<u64>>, held: Held) {
    let mut spill = held.spill;
    if spill.capacity() > 0 && pool.len() < POOL_CAP {
        spill.clear();
        pool.push(spill);
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
                v.insert(LockEntry {
                    holders: SmallList::one((txn, mode)),
                    waiters: VecDeque::new(),
                });
                note_held(&mut self.held_by, &mut self.spill_pool, txn.id, object);
                self.grants += 1;
                return LockOutcome::Granted;
            }
        };
        // Already holding?
        if let Some(pos) = entry.holders.iter().position(|(t, _)| t.id == txn.id) {
            let held_mode = entry.holders.get(pos).1;
            match (held_mode, mode) {
                (LockMode::Exclusive, _) | (LockMode::Shared, LockMode::Shared) => {
                    return LockOutcome::Granted;
                }
                (LockMode::Shared, LockMode::Exclusive) => {
                    if entry.holders.len() == 1 {
                        entry.holders.get_mut(pos).1 = LockMode::Exclusive;
                        self.grants += 1;
                        return LockOutcome::Granted;
                    }
                    entry.waiters.push_back((txn, LockMode::Exclusive));
                    self.waiting += 1;
                    self.waits += 1;
                    return LockOutcome::Waiting;
                }
            }
        }
        let compatible_with_holders = entry.holders.iter().all(|(_, m)| m.compatible(mode));
        if compatible_with_holders && entry.waiters.is_empty() {
            entry.holders.push((txn, mode));
            note_held(&mut self.held_by, &mut self.spill_pool, txn.id, object);
            self.grants += 1;
            LockOutcome::Granted
        } else {
            entry.waiters.push_back((txn, mode));
            self.waiting += 1;
            self.waits += 1;
            LockOutcome::Waiting
        }
    }

    /// Grant `entry`'s waiters from the front while they are compatible,
    /// appending each grant to `granted` and to its grantee's held list.
    fn promote_waiters(
        entry: &mut LockEntry,
        object: u64,
        granted: &mut Vec<(TxnToken, u64)>,
        waiting: &mut usize,
        held_by: &mut FxHashMap<u64, Held>,
        pool: &mut Vec<Vec<u64>>,
    ) {
        while let Some(&(txn, mode)) = entry.waiters.front() {
            // Upgrade case: waiter already holds shared and is alone.
            if let Some(pos) = entry.holders.iter().position(|(t, _)| t.id == txn.id) {
                if entry.holders.len() == 1 && mode == LockMode::Exclusive {
                    entry.holders.get_mut(pos).1 = LockMode::Exclusive;
                    entry.waiters.pop_front();
                    *waiting -= 1;
                    granted.push((txn, object));
                    note_held(held_by, pool, txn.id, object);
                    continue;
                }
                break;
            }
            let ok = entry.holders.iter().all(|(_, m)| m.compatible(mode));
            if !ok {
                break;
            }
            entry.holders.push((txn, mode));
            entry.waiters.pop_front();
            *waiting -= 1;
            granted.push((txn, object));
            note_held(held_by, pool, txn.id, object);
        }
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
        entry.holders.retain(|(t, _)| t.id != txn.id);
        Self::promote_waiters(
            entry,
            object,
            granted,
            &mut self.waiting,
            &mut self.held_by,
            &mut self.spill_pool,
        );
        if entry.holders.is_empty() && entry.waiters.is_empty() {
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
        let held = e.get_mut();
        let before = held.len();
        held.retain(|&o| o != object);
        if held.len() == before {
            // Not a holder: nothing to release.
            return granted;
        }
        if held.is_empty() {
            retire_held(&mut self.spill_pool, e.remove());
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
            for (i, &object) in held.iter().enumerate() {
                let repeat = held.iter().take(i).any(|&o| o == object);
                if !repeat || self.table.contains_key(&object) {
                    self.release_holder(txn, object, &mut granted);
                }
            }
            retire_held(&mut self.spill_pool, held);
        }
        // Drop any outstanding waits of this txn (abort path). With no
        // waiters anywhere the sweep cannot find anything — skip it.
        if self.waiting > 0 {
            let LockManager {
                table,
                held_by,
                waiting,
                spill_pool,
                ..
            } = self;
            table.retain(|&object, entry| {
                let before = entry.waiters.len();
                entry.waiters.retain(|(t, _)| t.id != txn.id);
                if entry.waiters.len() != before {
                    *waiting -= before - entry.waiters.len();
                    Self::promote_waiters(
                        entry,
                        object,
                        &mut granted,
                        waiting,
                        held_by,
                        spill_pool,
                    );
                }
                !(entry.holders.is_empty() && entry.waiters.is_empty())
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
            for (w, _) in &entry.waiters {
                for (h, _) in entry.holders.iter() {
                    if w.id != h.id {
                        edges.push((w.id, h.id));
                    }
                }
                // Waiters also wait for earlier waiters (FIFO queue).
                for (w2, _) in &entry.waiters {
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
            for (t, _) in entry.holders.iter().chain(entry.waiters.iter()) {
                txns.push(*t);
            }
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
    /// * no entry is left with neither holders nor waiters.
    pub fn check_invariants(&self, live: impl Fn(u64) -> bool) {
        let mut waiters = 0;
        for (&object, entry) in &self.table {
            assert!(
                !(entry.holders.is_empty() && entry.waiters.is_empty()),
                "object {object}: entry with no holders and no waiters"
            );
            for (t, _) in entry.holders.iter().chain(&entry.waiters) {
                assert!(live(t.id), "object {object}: txn {} is not live", t.id);
            }
            for (t, _) in entry.holders.iter() {
                let listed = self
                    .held_by
                    .get(&t.id)
                    .is_some_and(|h| h.iter().any(|&o| o == object));
                assert!(
                    listed,
                    "object {object}: holder {} not in its held list",
                    t.id
                );
            }
            waiters += entry.waiters.len();
        }
        for (&txn, held) in &self.held_by {
            assert!(!held.is_empty(), "txn {txn}: empty held list kept");
            for &object in held.iter() {
                let holds = self
                    .table
                    .get(&object)
                    .is_some_and(|e| e.holders.iter().any(|(t, _)| t.id == txn));
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
