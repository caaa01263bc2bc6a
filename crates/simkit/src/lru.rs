//! An exact LRU map with one-slot hits and lazily sized storage.
//!
//! Used for the disk-controller page caches and the global database buffer.
//! Eviction returns the victim so the caller can model write-back of dirty
//! pages.
//!
//! ### Design
//!
//! Every entry lives in one hash-map slot next to `touched`, the stamp of
//! its last use, drawn from a per-map monotone `u64` clock. A hit writes
//! only that stamp, in the entry's own slot. The map starts empty and
//! grows with the live entries, never with `capacity`, so a large, mostly
//! idle cache costs no memory up front. No second index shadows the map:
//! each cached page is stored once.
//!
//! Victims come from a small *batch* of `(stamp, key)` records, sorted
//! largest stamp first, that `evict_lru` refills only when it runs dry. A
//! refill finds the oldest stamp `min` and sets a cut
//! `min + (clock − min + 1)·want / len`, with `want = max(len / 8, 1)`, so
//! that about one entry in eight falls at or below it when the stamps
//! spread evenly; it then collects every entry at or below the cut.
//! Eviction pops records off the batch's end and takes the first whose key
//! is still live with `touched` equal to the record's stamp. Any other
//! record names a key that was touched or removed since the scan, and is
//! dropped.
//!
//! Eviction stays exact. Every record's stamp is at most the cut and at
//! most the clock at its scan. Every live key outside the batch then had a
//! stamp above the cut, and every later hit or insert draws a stamp above
//! that clock. So while a key's record is valid, every live key without a
//! valid record is more recently used, and records pop in ascending stamp
//! order: the first valid one is the least recently used entry. A refill
//! reads the map twice and yields about `len / 8` victims, so eviction
//! reads about sixteen slots amortised while the batch's keys, the oldest
//! ones, stay cold. `remove` and `retain` touch only the map; the batch
//! never holds more records than there were live entries at its scan.

use crate::fxhash::FxHashMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// A refill collects about one live entry in this many.
const BATCH_SHARE: usize = 8;

struct Slot<V> {
    /// Stamp of the entry's last use.
    touched: u64,
    value: V,
}

/// Fixed-capacity LRU map.
pub struct LruMap<K, V> {
    map: FxHashMap<K, Slot<V>>,
    /// Eviction candidates `(stamp, key)`, largest stamp first.
    batch: Vec<(u64, K)>,
    clock: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Bytes of one hash-map entry: a key and its slot.
    pub fn entry_bytes() -> usize {
        std::mem::size_of::<(K, Slot<V>)>()
    }

    /// Create an LRU with the given capacity (≥ 1). Allocates nothing.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be positive");
        LruMap {
            map: FxHashMap::default(),
            batch: Vec::new(),
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
        self.map.insert(
            key,
            Slot {
                touched: now,
                value,
            },
        );
        evicted
    }

    /// Remove and return the least-recently-used entry.
    pub fn evict_lru(&mut self) -> Option<(K, V)> {
        loop {
            let Some((stamp, key)) = self.batch.pop() else {
                if self.map.is_empty() {
                    return None;
                }
                self.refill();
                continue;
            };
            if let Entry::Occupied(e) = self.map.entry(key) {
                if e.get().touched == stamp {
                    let (key, slot) = e.remove_entry();
                    return Some((key, slot.value));
                }
            }
        }
    }

    /// Collect every entry at or below the cut into the empty batch,
    /// largest stamp first. The map must not be empty.
    fn refill(&mut self) {
        let min = self
            .map
            .values()
            .map(|s| s.touched)
            .min()
            .expect("refill of an empty map");
        let len = self.map.len() as u128;
        let want = (len / BATCH_SHARE as u128).max(1);
        let span = u128::from(self.clock - min + 1);
        let cut = min + (span * want / len) as u64;
        self.batch.extend(
            self.map
                .iter()
                .filter(|(_, s)| s.touched <= cut)
                .map(|(k, s)| (s.touched, k.clone())),
        );
        self.batch.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
    }

    /// Remove a specific key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|slot| slot.value)
    }

    /// Keep only the entries for which `keep` returns true, in no
    /// particular order. Recency of the kept entries is unchanged.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.map.retain(|k, slot| keep(k, &slot.value));
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

    /// The exactness invariant: every live key with a valid batch record
    /// is older than every live key without one.
    fn batch_is_exact<K: Eq + Hash + Clone, V>(l: &LruMap<K, V>) -> bool {
        let (batched, others): (Vec<_>, Vec<_>) = l
            .map
            .iter()
            .map(|(k, s)| (s.touched, l.batch.contains(&(s.touched, k.clone()))))
            .partition(|&(_, in_batch)| in_batch);
        let newest_batched = batched.iter().map(|e| e.0).max();
        let oldest_other = others.iter().map(|e| e.0).min();
        match (newest_batched, oldest_other) {
            (Some(b), Some(o)) => b < o,
            _ => true,
        }
    }

    /// A disk-cache page is its `(object, page)` key and one stamp: 24
    /// bytes, where a second stamp for a heap record made it 32.
    #[test]
    fn disk_cache_entries_stay_compact() {
        assert!(std::mem::size_of::<((u64, u64), Slot<()>)>() <= 24);
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

    /// With evenly spread stamps a refill collects the oldest eighth; a
    /// record whose key was touched or re-inserted since is skipped.
    #[test]
    fn batch_holds_the_oldest_eighth_and_skips_stale_records() {
        let mut l = LruMap::new(64);
        for k in 0..64 {
            l.insert(k, ());
        }
        assert_eq!(l.evict_lru(), Some((0, ())));
        let batched: Vec<u32> = l.batch.iter().rev().map(|r| r.1).collect();
        assert_eq!(batched, (1..9).collect::<Vec<_>>());
        l.get(&1);
        l.remove(&2);
        l.insert(2, ());
        assert_eq!(l.evict_lru(), Some((3, ())));
        assert!(batch_is_exact(&l));
    }

    /// Decode one drawn `(code, key)` pair into an operation: 18 in 32
    /// draws are lookups (12 `get`, 6 `get_mut`), 8 `insert`, 3
    /// `remove`, 2 `evict_lru` and 1 `retain`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u32),
        GetMut(u32),
        Insert(u32),
        Remove(u32),
        Evict,
        /// Drop every key congruent to this residue mod 4.
        Retain(u32),
    }

    impl Op {
        fn decode(code: u8, key: u32) -> Op {
            match code {
                0..=11 => Op::Get(key),
                12..=17 => Op::GetMut(key),
                18..=25 => Op::Insert(key),
                26..=28 => Op::Remove(key),
                29..=30 => Op::Evict,
                _ => Op::Retain(key % 4),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Behaviour and the full MRU order match a naive VecDeque-based
        /// reference model after every operation. Capacities up to 64 give
        /// refills that collect several records; key spaces (`keys`) from
        /// one key to twice the capacity span hit-heavy runs, in which
        /// batch records go stale, and miss-heavy ones. Removes followed by
        /// re-inserts and `retain` leave records of dead keys behind.
        #[test]
        fn prop_matches_reference(
            cap in 1usize..65,
            keys_draw in 0u32..1_024,
            seq in proptest::collection::vec((0u8..32, 0u32..128), 1..2_001),
        ) {
            let keys = 1 + keys_draw % (2 * cap as u32);
            let mut lru = LruMap::new(cap);
            let mut model: VecDeque<(u32, u32)> = VecDeque::new(); // front = MRU
            for (step, (code, key)) in seq.into_iter().enumerate() {
                let value = step as u32;
                let op = Op::decode(code, key % keys);
                let len_before = lru.len();
                let batch_before = lru.batch.clone();
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
                    Op::Retain(residue) => {
                        lru.retain(|k, _| k % 4 != residue);
                        model.retain(|(k, _)| k % 4 != residue);
                    }
                }
                prop_assert_eq!(lru.len(), model.len());
                let model_order: Vec<u32> = model.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(mru_keys(&lru), model_order);
                // Without a refill, operations only pop the batch's end. A
                // refill scanned the `len_before` live entries and evicted
                // its oldest record.
                if !batch_before.starts_with(&lru.batch) {
                    prop_assert!(lru.batch.len() < len_before);
                }
                prop_assert!(batch_is_exact(&lru));
            }
        }
    }
}
