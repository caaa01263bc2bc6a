//! The future event list.
//!
//! An 8-ary min-heap that orders events by `(time, seq)`, where `seq` is a
//! monotonically increasing sequence number assigned at scheduling time.
//! The sequence number guarantees **deterministic FIFO tie-breaking** for
//! events scheduled at the same instant, which is what makes
//! whole-simulation runs reproducible across platforms.
//!
//! # Layout
//!
//! The keys and the payloads live in two vectors that move in lockstep:
//! slot `i` of `keys` orders slot `i` of `payloads`. A key is the pair
//! packed into one `u128` (`time` in the high half, `seq` in the low
//! half), so comparing keys is one integer compare and the sifts walk a
//! dense 16-byte array without touching a payload until its slot moves.
//! Eight children per node cut the depth of a binary heap to a third; at
//! the 2.5k-deep queues of the 1000-PE join soak a pop descends about
//! four levels, each reading one node's eight keys (128 contiguous bytes).
//! Payloads follow their keys by `swap`; moving them through a hole with
//! `unsafe` copies and unchecked indexing measured no faster.

use crate::time::SimTime;

/// Children per node. 8 measured a few percent faster than 4 on the
/// steady-state micro-bench (`event_queue/steady_state_2k5_live_40b`).
const ARITY: usize = 8;

/// `(time, seq)` packed so that integer order is event order.
#[inline]
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.0) << 64) | u128::from(seq)
}

#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// The smallest of `keys` (a node's children) and its heap index, where
/// `keys[0]` sits at index `first`. Branch-free selects; a full node's
/// fixed-length slice unrolls.
#[inline(always)]
fn min_child(keys: &[u128], first: usize) -> (usize, u128) {
    let mut best = first;
    let mut best_key = keys[0];
    for (c, &k) in keys.iter().enumerate().skip(1) {
        let less = k < best_key;
        best = if less { first + c } else { best };
        best_key = if less { k } else { best_key };
    }
    (best, best_key)
}

/// Min-ordered future event list with deterministic tie-breaking.
pub struct EventHeap<T> {
    /// Heap-ordered packed keys; every key is unique (its `seq` is).
    keys: Vec<u128>,
    /// `payloads[i]` belongs to `keys[i]`; both always have equal length.
    payloads: Vec<T>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventHeap<T> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventHeap {
            keys: Vec::with_capacity(cap),
            payloads: Vec::with_capacity(cap),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` lies before the time of the most recently popped
    /// event: scheduling into the past would silently corrupt causality.
    pub fn push(&mut self, time: SimTime, payload: T) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        let k = key(time, self.next_seq);
        self.next_seq += 1;
        let mut i = self.keys.len();
        self.keys.push(k);
        self.payloads.push(payload);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let pk = self.keys[parent];
            if pk < k {
                break;
            }
            self.keys[i] = pk;
            self.payloads.swap(parent, i);
            i = parent;
        }
        self.keys[i] = k;
    }

    /// Pop the earliest event, advancing the internal causality watermark.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.keys.is_empty() {
            return None;
        }
        // The last entry fills the root and sinks to its place.
        let top_key = self.keys.swap_remove(0);
        let top = self.payloads.swap_remove(0);
        let len = self.keys.len();
        if len > 0 {
            let k = self.keys[0];
            let mut i = 0;
            loop {
                let first = ARITY * i + 1;
                if first >= len {
                    break;
                }
                let (best, best_key) = if first + ARITY <= len {
                    min_child(&self.keys[first..first + ARITY], first)
                } else {
                    min_child(&self.keys[first..len], first)
                };
                if k < best_key {
                    break;
                }
                self.keys[i] = best_key;
                self.payloads.swap(i, best);
                i = best;
            }
            self.keys[i] = k;
        }
        let t = time_of(top_key);
        debug_assert!(t >= self.last_popped);
        self.last_popped = t;
        Some((t, top))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&k| time_of(k))
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total number of events ever scheduled (the next sequence number).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(SimTime(30), "c");
        h.push(SimTime(10), "a");
        h.push(SimTime(20), "b");
        assert_eq!(h.pop().unwrap(), (SimTime(10), "a"));
        assert_eq!(h.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(h.pop().unwrap(), (SimTime(30), "c"));
        assert!(h.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut h = EventHeap::new();
        let t = SimTime(5);
        for i in 0..100 {
            h.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(h.pop().unwrap().1, i);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut h = EventHeap::new();
        h.push(SimTime(10), ());
        h.pop();
        h.push(SimTime(9), ());
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = EventHeap::new();
        h.push(SimTime::ZERO + SimDur::from_millis(3), 1u8);
        h.push(SimTime::ZERO + SimDur::from_millis(1), 2u8);
        assert_eq!(h.peek_time(), Some(SimTime(1_000_000)));
        assert_eq!(h.pop().unwrap().0, SimTime(1_000_000));
    }

    #[test]
    fn counters() {
        let mut h = EventHeap::new();
        assert!(h.is_empty());
        h.push(SimTime(1), ());
        h.push(SimTime(2), ());
        assert_eq!(h.len(), 2);
        assert_eq!(h.scheduled_total(), 2);
        h.pop();
        assert_eq!(h.len(), 1);
        assert_eq!(h.scheduled_total(), 2);
    }

    proptest! {
        /// Oracle check against `std`'s `BinaryHeap` over `Reverse((time,
        /// seq, id))`: interleaved pushes, pops and peeks with heavy ties
        /// (times a few ns apart), pushes at exactly the last-popped time
        /// (offset 0) and growth past the initial capacity. Every popped
        /// `(time, id)`, every `len` and every `peek_time` must agree.
        #[test]
        fn prop_matches_binary_heap_oracle(
            cap in 0usize..16,
            ops in proptest::collection::vec((0u8..10, 0u64..8), 1..2000),
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut h = EventHeap::with_capacity(cap);
            let mut oracle = BinaryHeap::new();
            let mut now = 0u64;
            for (id, &(op, dt)) in ops.iter().enumerate() {
                match op {
                    // Pushes outnumber pops, so the heap grows well past
                    // its initial capacity.
                    0..=5 => {
                        h.push(SimTime(now + dt), id);
                        oracle.push(Reverse((now + dt, h.scheduled_total(), id)));
                    }
                    6..=8 => {
                        let want = oracle.pop().map(|Reverse((t, _, id))| (SimTime(t), id));
                        let got = h.pop();
                        prop_assert_eq!(got, want);
                        if let Some((t, _)) = got {
                            now = t.0;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(h.len(), oracle.len());
                prop_assert_eq!(h.peek_time(), oracle.peek().map(|Reverse((t, ..))| SimTime(*t)));
            }
            while let Some(Reverse((t, _, id))) = oracle.pop() {
                prop_assert_eq!(h.pop(), Some((SimTime(t), id)));
            }
            prop_assert!(h.is_empty());
        }

        /// Popping must yield a non-decreasing time sequence, and same-time
        /// events must come out in insertion order.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut h = EventHeap::new();
            for (i, t) in times.iter().enumerate() {
                h.push(SimTime(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = h.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO violated on tie");
                    }
                }
                last = Some((t, idx));
            }
        }
    }
}
