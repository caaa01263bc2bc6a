//! The future event list.
//!
//! A thin wrapper over `BinaryHeap` that orders events by `(time, seq)`,
//! where `seq` is a monotonically increasing sequence number assigned at
//! scheduling time. The sequence number guarantees **deterministic FIFO
//! tie-breaking** for events scheduled at the same instant, which is what
//! makes whole-simulation runs reproducible across platforms.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-ordered future event list with deterministic tie-breaking.
pub struct EventHeap<T> {
    heap: BinaryHeap<Entry<T>>,
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
        EventHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventHeap {
            heap: BinaryHeap::with_capacity(cap),
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Pop the earliest event, advancing the internal causality watermark.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.last_popped);
        self.last_popped = e.time;
        Some((e.time, e.payload))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
