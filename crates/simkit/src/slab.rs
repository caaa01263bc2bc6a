//! A tiny generational slab for live simulation entities.
//!
//! Jobs (queries, transactions) are created and retired constantly; a slab
//! gives O(1) insert/remove/lookup with stable 8-byte keys, and the
//! generation tag catches use-after-free of stale job ids (events that race
//! with job completion), turning silent corruption into a `None`.

/// Key into a [`Slab`]: slot index plus generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabKey {
    index: u32,
    gen: u32,
}

impl SlabKey {
    /// Slot index (for diagnostics / compact per-job arrays).
    pub fn index(self) -> u32 {
        self.index
    }

    /// Pack into a `u64` (stable round-trip with [`SlabKey::from_raw`]).
    pub fn to_raw(self) -> u64 {
        (self.index as u64) << 32 | self.gen as u64
    }

    /// Unpack a key produced by [`SlabKey::to_raw`].
    pub fn from_raw(raw: u64) -> SlabKey {
        SlabKey {
            index: (raw >> 32) as u32,
            gen: raw as u32,
        }
    }

    /// A key that will never be live (useful as a sentinel).
    pub const DANGLING: SlabKey = SlabKey {
        index: u32::MAX,
        gen: u32::MAX,
    };
}

enum Slot<T> {
    Free { next_free: Option<u32>, gen: u32 },
    Full { value: T, gen: u32 },
}

/// Generational slab allocator.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, returning its key.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        match self.free_head {
            Some(i) => {
                let (next_free, gen) = match &self.slots[i as usize] {
                    Slot::Free { next_free, gen } => (*next_free, *gen),
                    Slot::Full { .. } => unreachable!("free list points at a full slot"),
                };
                self.free_head = next_free;
                self.slots[i as usize] = Slot::Full { value, gen };
                SlabKey { index: i, gen }
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot::Full { value, gen: 0 });
                SlabKey { index: i, gen: 0 }
            }
        }
    }

    /// Remove by key. Returns the value if the key was live.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        match slot {
            Slot::Full { gen, .. } if *gen == key.gen => {
                let next_gen = key.gen.wrapping_add(1);
                let old = std::mem::replace(
                    slot,
                    Slot::Free {
                        next_free: self.free_head,
                        gen: next_gen,
                    },
                );
                self.free_head = Some(key.index);
                self.len -= 1;
                match old {
                    Slot::Full { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.slots.get(key.index as usize)? {
            Slot::Full { value, gen } if *gen == key.gen => Some(value),
            _ => None,
        }
    }

    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.slots.get_mut(key.index as usize)? {
            Slot::Full { value, gen } if *gen == key.gen => Some(value),
            _ => None,
        }
    }

    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// Iterate live entries.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Full { value, gen } => Some((
                SlabKey {
                    index: i as u32,
                    gen: *gen,
                },
                value,
            )),
            Slot::Free { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_key_rejected_after_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        // Slot is reused but generation differs.
        assert_eq!(b.index(), a.index());
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn iter_sees_only_live() {
        let mut s = Slab::new();
        let keys: Vec<_> = (0..5).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.remove(keys[3]);
        let live: Vec<i32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    fn dangling_never_resolves() {
        let mut s: Slab<u8> = Slab::new();
        s.insert(1);
        assert!(s.get(SlabKey::DANGLING).is_none());
    }

    proptest! {
        /// Random interleavings of insert/remove keep len() consistent with
        /// a reference model and never resolve stale keys.
        #[test]
        fn prop_model(ops in proptest::collection::vec(0u8..3, 1..400)) {
            let mut slab = Slab::new();
            let mut live: Vec<(SlabKey, u32)> = Vec::new();
            let mut dead: Vec<SlabKey> = Vec::new();
            let mut next_val = 0u32;
            for op in ops {
                match op {
                    0 => {
                        let k = slab.insert(next_val);
                        live.push((k, next_val));
                        next_val += 1;
                    }
                    1 if !live.is_empty() => {
                        let (k, v) = live.remove(live.len() / 2);
                        prop_assert_eq!(slab.remove(k), Some(v));
                        dead.push(k);
                    }
                    _ => {
                        for k in &dead {
                            prop_assert!(slab.get(*k).is_none());
                        }
                    }
                }
                prop_assert_eq!(slab.len(), live.len());
                for (k, v) in &live {
                    prop_assert_eq!(slab.get(*k), Some(v));
                }
            }
        }
    }
}
