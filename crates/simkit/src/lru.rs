//! An exact LRU map with one-slot hits and lazily sized storage.
//!
//! Used for the disk-controller page caches and the global database buffer.
//! Eviction returns the victim so the caller can model write-back of dirty
//! pages.
//!
//! ### Design
//!
//! Every entry lives in one hash-map slot next to two stamps drawn from a
//! per-map monotone `u64` clock: `touched`, the stamp of its last use, and
//! `record`, the stamp of its one record in a min-heap of `(stamp, key)`
//! records. A hit writes only `touched` in the entry's own slot; the heap
//! is not touched. Both the map and the heap start empty and grow with the
//! live entries, never with `capacity`, so a large, mostly idle cache costs
//! no memory up front.
//!
//! The heap is revalidated lazily when a victim is needed. Its minimum
//! record `(s, k)` is
//! - an *orphan* left behind by `remove`, if `k` is absent or its slot's
//!   `record` is not `s`: it is dropped;
//! - *stale*, if `k` was touched since the record was pushed (`touched >
//!   s`): the record moves to `touched` and sinks;
//! - otherwise the victim.
//!
//! Eviction stays exact: every live key has exactly one valid record, whose
//! stamp is at most the key's `touched`. When the minimum valid record has
//! `touched == s`, every other live key has `touched ≥ record > s` (stamps
//! are unique), so `k` is the least recently used. Each stale move is paid
//! for by a hit and each orphan drop by a `remove`, so eviction costs
//! amortised O(log n). Orphans are compacted away in place once they
//! outnumber twice the live entries, which bounds the heap at a constant
//! factor of the live entries.

use crate::fxhash::FxHashMap;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::hash::Hash;

/// Orphan records tolerated per live entry before the heap is compacted.
const ORPHAN_FACTOR: usize = 2;

struct Slot<V> {
    /// Stamp of the entry's last use.
    touched: u64,
    /// Stamp carried by the entry's one valid heap record.
    record: u64,
    value: V,
}

/// A heap record, ordered so that `BinaryHeap` pops the *smallest* stamp.
/// Stamps are unique, so the key never takes part in the order.
struct Record<K> {
    stamp: u64,
    key: K,
}

impl<K> PartialEq for Record<K> {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp
    }
}

impl<K> Eq for Record<K> {}

impl<K> PartialOrd for Record<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Record<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.stamp.cmp(&self.stamp)
    }
}

/// Fixed-capacity LRU map.
pub struct LruMap<K, V> {
    map: FxHashMap<K, Slot<V>>,
    heap: BinaryHeap<Record<K>>,
    /// Heap records left behind by `remove` and `retain`.
    orphans: usize,
    clock: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Create an LRU with the given capacity (≥ 1). Allocates nothing.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be positive");
        LruMap {
            map: FxHashMap::default(),
            heap: BinaryHeap::new(),
            orphans: 0,
            clock: 0,
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up `key`, marking it most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// Mutable lookup, marking MRU on hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let now = self.tick();
        let slot = self.map.get_mut(key)?;
        slot.touched = now;
        Some(&mut slot.value)
    }

    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert `key → value` as MRU.
    ///
    /// Returns `Some((victim_key, victim_value))` if a *different* entry was
    /// evicted to make room; replacing an existing key returns `None` (the
    /// old value is dropped — page contents are not modelled).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let now = self.tick();
        if let Some(slot) = self.map.get_mut(&key) {
            slot.touched = now;
            slot.value = value;
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            self.evict_lru()
        } else {
            None
        };
        self.heap.push(Record {
            stamp: now,
            key: key.clone(),
        });
        self.map.insert(
            key,
            Slot {
                touched: now,
                record: now,
                value,
            },
        );
        evicted
    }

    /// Remove and return the least-recently-used entry.
    pub fn evict_lru(&mut self) -> Option<(K, V)> {
        loop {
            let mut top = self.heap.peek_mut()?;
            match self.map.get_mut(&top.key) {
                Some(slot) if slot.record == top.stamp => {
                    if slot.touched == top.stamp {
                        let Record { key, .. } = PeekMut::pop(top);
                        let slot = self
                            .map
                            .remove(&key)
                            .expect("a valid record names a live key");
                        return Some((key, slot.value));
                    }
                    slot.record = slot.touched;
                    top.stamp = slot.touched;
                }
                _ => {
                    PeekMut::pop(top);
                    self.orphans -= 1;
                }
            }
        }
    }

    /// Remove a specific key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.orphans += 1;
        self.compact_if_sparse();
        Some(slot.value)
    }

    /// Keep only the entries for which `keep` returns true, in no
    /// particular order. Recency of the kept entries is unchanged.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let before = self.map.len();
        self.map.retain(|k, slot| keep(k, &slot.value));
        self.orphans += before - self.map.len();
        self.compact_if_sparse();
    }

    /// Drop every orphan record in place once they outnumber
    /// `ORPHAN_FACTOR × len`; the heap keeps its buffer.
    fn compact_if_sparse(&mut self) {
        if self.orphans <= ORPHAN_FACTOR * self.map.len() {
            return;
        }
        let map = &self.map;
        self.heap
            .retain(|r| map.get(&r.key).is_some_and(|s| s.record == r.stamp));
        self.orphans = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Keys from most- to least-recently used.
    fn mru_keys<K: Clone, V>(l: &LruMap<K, V>) -> Vec<K> {
        let mut by_use: Vec<(u64, &K)> = l.map.iter().map(|(k, s)| (s.touched, k)).collect();
        by_use.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        by_use.into_iter().map(|(_, k)| k.clone()).collect()
    }

    #[test]
    fn hit_and_miss() {
        let mut l = LruMap::new(2);
        assert!(l.insert(1, "a").is_none());
        assert!(l.insert(2, "b").is_none());
        assert_eq!(l.get(&1), Some(&"a"));
        assert_eq!(l.get(&3), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut l = LruMap::new(2);
        l.insert(1, "a");
        l.insert(2, "b");
        l.get(&1); // 2 is now LRU
        let evicted = l.insert(3, "c").unwrap();
        assert_eq!(evicted, (2, "b"));
        assert!(l.contains(&1) && l.contains(&3));
    }

    #[test]
    fn reinsert_existing_does_not_evict() {
        let mut l = LruMap::new(2);
        l.insert(1, 10);
        l.insert(2, 20);
        assert!(l.insert(1, 11).is_none());
        assert_eq!(l.get(&1), Some(&11));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut l = LruMap::new(2);
        l.insert(1, "a");
        l.insert(2, "b");
        assert_eq!(l.remove(&1), Some("a"));
        assert!(l.insert(3, "c").is_none(), "no eviction needed");
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn mru_iteration_order() {
        let mut l = LruMap::new(3);
        l.insert(1, ());
        l.insert(2, ());
        l.insert(3, ());
        l.get(&1);
        assert_eq!(mru_keys(&l), vec![1, 3, 2]);
        assert_eq!(l.evict_lru(), Some((2, ())));
    }

    #[test]
    fn contains_does_not_touch() {
        let mut l = LruMap::new(2);
        l.insert(1, ());
        l.insert(2, ());
        assert!(l.contains(&1));
        let (k, _) = l.insert(3, ()).unwrap();
        assert_eq!(k, 1, "contains must not refresh recency");
    }

    #[test]
    fn retain_keeps_recency_of_survivors() {
        let mut l = LruMap::new(4);
        for k in 1..=4 {
            l.insert(k, ());
        }
        l.get(&1);
        l.retain(|k, _| k % 2 == 1);
        assert_eq!(mru_keys(&l), vec![1, 3]);
        assert_eq!(l.evict_lru(), Some((3, ())));
        assert_eq!(l.evict_lru(), Some((1, ())));
        assert_eq!(l.evict_lru(), None);
    }

    #[test]
    fn orphans_are_compacted_in_place() {
        let mut l = LruMap::new(8);
        for round in 0..100u32 {
            l.insert(round % 3, round);
            l.remove(&(round % 3));
        }
        assert!(l.is_empty());
        assert_eq!(l.heap.len(), 0, "every orphan was compacted away");
    }

    /// Decode one drawn `(code, key)` pair into an operation: 9 in 16
    /// draws are lookups (6 `get`, 3 `get_mut`), 4 `insert`, 2 `remove`,
    /// 1 `evict_lru`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u32),
        GetMut(u32),
        Insert(u32),
        Remove(u32),
        Evict,
    }

    impl Op {
        fn decode(code: u8, key: u32) -> Op {
            match code {
                0..=5 => Op::Get(key),
                6..=8 => Op::GetMut(key),
                9..=12 => Op::Insert(key),
                13..=14 => Op::Remove(key),
                _ => Op::Evict,
            }
        }
    }

    proptest! {
        /// Behaviour and the full MRU order match a naive VecDeque-based
        /// reference model after every operation. Drawing the key space
        /// (`keys`) at or below the capacity gives hit-heavy runs in which
        /// evictions meet many stale records; removes followed by
        /// re-inserts leave orphans that trip the compaction.
        #[test]
        fn prop_matches_reference(
            cap in 1usize..9,
            keys in 1u32..17,
            seq in proptest::collection::vec((0u8..16, 0u32..16), 1..2_001),
        ) {
            let mut lru = LruMap::new(cap);
            let mut model: VecDeque<(u32, u32)> = VecDeque::new(); // front = MRU
            for (step, (code, key)) in seq.into_iter().enumerate() {
                let value = step as u32;
                let op = Op::decode(code, key % keys);
                match op {
                    Op::Get(key) | Op::GetMut(key) => {
                                                let got = match op {
                            Op::Get(_) => lru.get(&key).copied(),
                            _ => lru.get_mut(&key).map(|v| {
                                *v += 1;
                                *v - 1
                            }),
                        };
                        if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                            let mut e = model.remove(pos).unwrap();
                            prop_assert_eq!(got, Some(e.1));
                            if matches!(op, Op::GetMut(_)) {
                                e.1 += 1;
                            }
                            model.push_front(e);
                        } else {
                            prop_assert!(got.is_none());
                        }
                    }
                    Op::Insert(key) => {
                                                let evicted = lru.insert(key, value);
                        if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                            model.remove(pos);
                            prop_assert!(evicted.is_none());
                        } else if model.len() == cap {
                            prop_assert_eq!(evicted, model.pop_back());
                        } else {
                            prop_assert!(evicted.is_none());
                        }
                        model.push_front((key, value));
                    }
                    Op::Remove(key) => {
                                                let got = lru.remove(&key);
                        let want = model
                            .iter()
                            .position(|(k, _)| *k == key)
                            .and_then(|pos| model.remove(pos))
                            .map(|e| e.1);
                        prop_assert_eq!(got, want);
                    }
                    Op::Evict => prop_assert_eq!(lru.evict_lru(), model.pop_back()),
                }
                prop_assert_eq!(lru.len(), model.len());
                let model_order: Vec<u32> = model.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(mru_keys(&lru), model_order);
                prop_assert!(lru.heap.len() <= lru.len() + ORPHAN_FACTOR * cap);
            }
        }
    }
}
