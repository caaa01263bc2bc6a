//! Queueing resources.
//!
//! A [`FcfsServer`] models a service station with `units` identical servers
//! (CPUs of a PE, disks, a NIC): requests are served in FCFS order within
//! their priority class, with an optional **high** class that always
//! overtakes the normal class (the paper's local scheduling extension giving
//! OLTP transactions priority over complex queries — §1, [2, 8]).
//!
//! The server performs no event scheduling itself: callers `offer` a request
//! and, if it is granted immediately, schedule the returned completion time
//! into their [`EventHeap`](crate::EventHeap). When a completion fires the
//! caller invokes [`FcfsServer::complete`], which may hand back the next
//! request to schedule. This keeps the resource model decoupled from the
//! event loop and unit-testable in isolation.
//!
//! A server owns no queue storage. Its two FIFOs are chains of
//! eight-request blocks taken from a [`FifoPool`] that every server of
//! one device class shares (all CPUs of a system, say), passed to
//! `offer` and `complete`. A thousand-PE system has thousands of servers,
//! each idle most of the time and deeply backlogged some of the time;
//! per-server buffers would each keep the capacity of that server's worst
//! burst, while the pool holds the requests queued now plus at most two
//! partly used blocks per non-empty queue. A drained block goes to the
//! pool's free list, so a steady state makes no allocator call, and a
//! backlog is still served from consecutive memory.
//!
//! Busy time is accumulated as an integral of `busy_units × dt`, from which
//! both cumulative and windowed utilization can be derived — the windowed
//! form is what PEs periodically report to the load-balancing control node.

use crate::time::{SimDur, SimTime};
use std::marker::PhantomData;

/// Scheduling class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served only when no high-priority request waits.
    #[default]
    Normal,
    /// Overtakes all queued normal requests (still non-preemptive).
    High,
}

/// End of a list.
const NIL: u32 = u32::MAX;

/// Requests per block. A queue keeps its requests in arrival order in a
/// chain of blocks, so serving a backlog reads memory in sequence, and a
/// non-empty queue holds at most two partly used blocks.
const BLOCK: usize = 8;

/// Blocks per segment. The pool grows one segment at a time, so it never
/// copies a request and holds at most one segment beyond its high-water
/// mark.
const SEGMENT_BLOCKS: usize = 128;

/// One request slot (`tag == None` when unused): the service time and
/// the caller's tag. A tag whose `Option` fits a niche (the simulator's
/// completion token) adds no discriminant; `snsim`'s
/// `events_and_queue_slots_stay_small` pins the simulator's slot size.
#[derive(Debug)]
struct Slot<T> {
    service: SimDur,
    tag: Option<T>,
}

/// Block storage for the FIFOs of every [`FcfsServer`] of one device
/// class, with a free list of blocks.
#[derive(Debug)]
pub struct FifoPool<T> {
    /// Link of every block: the next block of its queue, or of the free
    /// list.
    next: Vec<u32>,
    /// The slots of blocks `SEGMENT_BLOCKS * i ..`, `BLOCK` per block.
    segments: Vec<Box<[Slot<T>]>>,
    /// Head of the free list.
    free: u32,
    /// Requests queued, over all servers of the pool.
    live: usize,
    /// Blocks in some server's queue.
    used: usize,
}

impl<T> Default for FifoPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoPool<T> {
    /// Bytes of one request slot of this pool.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// An empty pool; the first queued request allocates its first segment.
    pub fn new() -> Self {
        FifoPool {
            next: Vec::new(),
            segments: Vec::new(),
            free: NIL,
            live: 0,
            used: 0,
        }
    }

    /// Requests queued, over all servers of the pool.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Blocks in some server's queue.
    pub fn used_blocks(&self) -> usize {
        self.used
    }

    /// Blocks allocated (used or free).
    pub fn allocated_blocks(&self) -> usize {
        self.next.len()
    }

    /// Blocks on the free list, counted by walking it.
    pub fn free_blocks(&self) -> usize {
        let mut n = 0;
        let mut b = self.free;
        while b != NIL {
            assert!(
                (0..BLOCK).all(|k| self.slot(b, k).tag.is_none()),
                "free block {b} holds a request"
            );
            n += 1;
            b = self.next[b as usize];
        }
        n
    }

    fn slot(&self, block: u32, k: usize) -> &Slot<T> {
        let b = block as usize;
        &self.segments[b / SEGMENT_BLOCKS][b % SEGMENT_BLOCKS * BLOCK + k]
    }

    fn slot_mut(&mut self, block: u32, k: usize) -> &mut Slot<T> {
        let b = block as usize;
        &mut self.segments[b / SEGMENT_BLOCKS][b % SEGMENT_BLOCKS * BLOCK + k]
    }

    /// Take a free block, growing by one segment when the free list is
    /// empty.
    fn alloc_block(&mut self) -> u32 {
        if self.free == NIL {
            let base = self.next.len();
            assert!(
                base + SEGMENT_BLOCKS <= NIL as usize,
                "FIFO pool index overflow"
            );
            self.next
                .extend((base as u32 + 1..).take(SEGMENT_BLOCKS - 1));
            self.next.push(NIL);
            let slots = (0..SEGMENT_BLOCKS * BLOCK)
                .map(|_| Slot {
                    service: SimDur::ZERO,
                    tag: None,
                })
                .collect();
            self.segments.push(slots);
            self.free = base as u32;
        }
        let b = self.free;
        self.free = std::mem::replace(&mut self.next[b as usize], NIL);
        self.used += 1;
        b
    }

    fn free_block(&mut self, b: u32) {
        self.next[b as usize] = self.free;
        self.free = b;
        self.used -= 1;
    }
}

/// A FIFO list of requests through a [`FifoPool`]: the chain of blocks
/// from `head` to `tail`, whose first request is slot `head_off` of
/// `head`.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    head_off: u32,
    len: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
        head_off: 0,
        len: 0,
    };

    fn push_back<T>(&mut self, pool: &mut FifoPool<T>, service: SimDur, tag: T) {
        let pos = (self.head_off + self.len) as usize % BLOCK;
        if self.len == 0 {
            self.head = pool.alloc_block();
            self.tail = self.head;
        } else if pos == 0 {
            let b = pool.alloc_block();
            pool.next[self.tail as usize] = b;
            self.tail = b;
        }
        *pool.slot_mut(self.tail, pos) = Slot {
            service,
            tag: Some(tag),
        };
        pool.live += 1;
        self.len += 1;
    }

    fn pop_front<T>(&mut self, pool: &mut FifoPool<T>) -> Option<(SimDur, T)> {
        if self.len == 0 {
            return None;
        }
        let slot = pool.slot_mut(self.head, self.head_off as usize);
        let tag = slot.tag.take().expect("a queued slot holds a request");
        let service = slot.service;
        pool.live -= 1;
        self.len -= 1;
        self.head_off += 1;
        if self.len == 0 || self.head_off as usize == BLOCK {
            // An emptied queue's last block is its tail, whose link is NIL.
            let next = pool.next[self.head as usize];
            pool.free_block(self.head);
            self.head = next;
            self.head_off = 0;
            if self.len == 0 {
                self.tail = NIL;
            }
        }
        Some((service, tag))
    }
}

/// A grant: the caller must schedule a completion event at `done` and route
/// it back to [`FcfsServer::complete`] carrying `tag`.
#[derive(Debug, PartialEq, Eq)]
pub struct Grant<T> {
    pub done: SimTime,
    pub tag: T,
}

/// Multi-unit FCFS service station with two priority levels and busy-time
/// accounting. Its queued requests live in a [`FifoPool<T>`] that the
/// caller passes to [`FcfsServer::offer`] and [`FcfsServer::complete`];
/// every call on one server must pass the same pool.
#[derive(Debug)]
pub struct FcfsServer<T> {
    units: u32,
    busy: u32,
    queue_high: Fifo,
    queue_normal: Fifo,
    /// Integral of busy_units over time, in unit-nanoseconds.
    busy_integral: u128,
    last_change: SimTime,
    /// Total requests ever granted service.
    served: u64,
    /// Integral of queue length over time (for mean queue length).
    queue_integral: u128,
    tags: PhantomData<T>,
}

impl<T> FcfsServer<T> {
    /// Create a station with `units` parallel servers (≥ 1).
    pub fn new(units: u32) -> Self {
        assert!(units >= 1, "a server needs at least one unit");
        FcfsServer {
            units,
            busy: 0,
            queue_high: Fifo::EMPTY,
            queue_normal: Fifo::EMPTY,
            busy_integral: 0,
            last_change: SimTime::ZERO,
            served: 0,
            queue_integral: 0,
            tags: PhantomData,
        }
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_change, "server time went backwards");
        let dt = (now - self.last_change).as_nanos() as u128;
        self.busy_integral += dt * self.busy as u128;
        self.queue_integral += dt * self.queued() as u128;
        self.last_change = now;
    }

    /// Offer a request needing `service` time. Returns a [`Grant`] if a unit
    /// is free (the caller schedules the completion); otherwise the request
    /// is queued in `pool` and `None` is returned.
    pub fn offer(
        &mut self,
        pool: &mut FifoPool<T>,
        now: SimTime,
        service: SimDur,
        prio: Priority,
        tag: T,
    ) -> Option<Grant<T>> {
        self.advance(now);
        if self.busy < self.units {
            self.busy += 1;
            self.served += 1;
            Some(Grant {
                done: now + service,
                tag,
            })
        } else {
            let queue = match prio {
                Priority::High => &mut self.queue_high,
                Priority::Normal => &mut self.queue_normal,
            };
            queue.push_back(pool, service, tag);
            None
        }
    }

    /// Mark one in-service request finished. If another request waits, it is
    /// granted and returned so the caller can schedule its completion.
    pub fn complete(&mut self, pool: &mut FifoPool<T>, now: SimTime) -> Option<Grant<T>> {
        self.advance(now);
        debug_assert!(self.busy > 0, "complete() without an in-flight request");
        self.busy -= 1;
        let (service, tag) = self
            .queue_high
            .pop_front(pool)
            .or_else(|| self.queue_normal.pop_front(pool))?;
        self.busy += 1;
        self.served += 1;
        Some(Grant {
            done: now + service,
            tag,
        })
    }

    /// Number of configured units.
    pub fn units(&self) -> u32 {
        self.units
    }

    /// Requests currently being served.
    pub fn in_service(&self) -> u32 {
        self.busy
    }

    /// Requests waiting in either queue.
    pub fn queued(&self) -> usize {
        (self.queue_high.len + self.queue_normal.len) as usize
    }

    /// Total requests granted service so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Busy integral (unit-nanoseconds) up to `now`. Differencing two
    /// snapshots and dividing by `units × Δt` yields windowed utilization.
    ///
    /// Read-only: the integral is *projected* to `now` (accumulated value
    /// plus `busy × (now − last_change)`) without mutating the server, so
    /// periodic report-round samplers never need exclusive access.
    pub fn busy_integral_at(&self, now: SimTime) -> u128 {
        debug_assert!(now >= self.last_change, "sampling in the past");
        let dt = now.since(self.last_change).as_nanos() as u128;
        self.busy_integral + dt * self.busy as u128
    }

    /// Cumulative utilization in `[0, 1]` over `[t0, now]` (read-only).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.as_nanos() as u128 * self.units as u128;
        if span == 0 {
            0.0
        } else {
            self.busy_integral_at(now) as f64 / span as f64
        }
    }

    /// Mean queue length over `[0, now]` (read-only).
    pub fn mean_queue_len(&self, now: SimTime) -> f64 {
        let span = now.as_nanos() as u128;
        if span == 0 {
            0.0
        } else {
            let dt = now.since(self.last_change).as_nanos() as u128;
            let projected = self.queue_integral + dt * self.queued() as u128;
            projected as f64 / span as f64
        }
    }
}

/// Differencing helper for windowed utilization reports.
///
/// The control node of the load balancer samples each resource periodically;
/// a `UtilizationWindow` remembers the previous snapshot and converts the
/// busy-integral delta into a `[0, 1]` utilization for the elapsed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct UtilizationWindow {
    last_integral: u128,
    last_time: SimTime,
}

impl UtilizationWindow {
    /// Consume the current busy integral and return utilization since the
    /// previous call (or since t=0 for the first call).
    pub fn sample(&mut self, now: SimTime, busy_integral: u128, units: u32) -> f64 {
        let dt = (now - self.last_time).as_nanos() as u128 * units as u128;
        let di = busy_integral - self.last_integral;
        self.last_integral = busy_integral;
        self.last_time = now;
        if dt == 0 {
            0.0
        } else {
            (di as f64 / dt as f64).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn ms(x: u64) -> SimDur {
        SimDur::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::ZERO + ms(x)
    }

    #[test]
    fn grants_immediately_when_free() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        let g = s.offer(&mut p, at(0), ms(5), Priority::Normal, 7).unwrap();
        assert_eq!(g.done, at(5));
        assert_eq!(g.tag, 7);
        assert_eq!(s.in_service(), 1);
        assert_eq!(p.allocated_blocks(), 0, "a grant queues nothing");
    }

    #[test]
    fn queues_when_busy_and_hands_over_on_complete() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        assert!(s
            .offer(&mut p, at(0), ms(5), Priority::Normal, "a")
            .is_some());
        assert!(s
            .offer(&mut p, at(1), ms(3), Priority::Normal, "b")
            .is_none());
        assert_eq!(s.queued(), 1);
        assert_eq!(p.live(), 1);
        let g = s.complete(&mut p, at(5)).unwrap();
        assert_eq!(g.tag, "b");
        assert_eq!(g.done, at(8));
        assert!(s.complete(&mut p, at(8)).is_none());
        assert_eq!(s.in_service(), 0);
        assert_eq!(p.live(), 0);
        assert_eq!(p.free_blocks(), p.allocated_blocks());
    }

    #[test]
    fn high_priority_overtakes() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        s.offer(&mut p, at(0), ms(10), Priority::Normal, "running");
        s.offer(&mut p, at(1), ms(1), Priority::Normal, "normal1");
        s.offer(&mut p, at(2), ms(1), Priority::High, "oltp");
        s.offer(&mut p, at(3), ms(1), Priority::Normal, "normal2");
        assert_eq!(s.complete(&mut p, at(10)).unwrap().tag, "oltp");
        assert_eq!(s.complete(&mut p, at(11)).unwrap().tag, "normal1");
        assert_eq!(s.complete(&mut p, at(12)).unwrap().tag, "normal2");
    }

    #[test]
    fn multi_unit_parallelism() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(2));
        assert!(s
            .offer(&mut p, at(0), ms(4), Priority::Normal, 1u8)
            .is_some());
        assert!(s.offer(&mut p, at(0), ms(4), Priority::Normal, 2).is_some());
        assert!(s.offer(&mut p, at(0), ms(4), Priority::Normal, 3).is_none());
        let g = s.complete(&mut p, at(4)).unwrap();
        assert_eq!(g.tag, 3);
    }

    #[test]
    fn servers_sharing_a_pool_keep_their_own_order() {
        let mut p = FifoPool::new();
        let mut s = [FcfsServer::new(1), FcfsServer::new(1)];
        for (k, tag) in [
            (0, "a0"),
            (1, "b0"),
            (0, "a1"),
            (1, "b1"),
            (0, "a2"),
            (1, "b2"),
        ] {
            s[k].offer(&mut p, at(0), ms(1), Priority::Normal, tag);
        }
        assert_eq!(p.live(), 4);
        assert_eq!(s[1].complete(&mut p, at(1)).unwrap().tag, "b1");
        assert_eq!(s[0].complete(&mut p, at(1)).unwrap().tag, "a1");
        assert_eq!(s[0].complete(&mut p, at(2)).unwrap().tag, "a2");
        assert_eq!(s[1].complete(&mut p, at(2)).unwrap().tag, "b2");
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn queues_take_blocks_as_they_grow_and_return_them_drained() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        s.offer(&mut p, at(0), ms(1), Priority::Normal, 0u32);
        for round in 0..3 {
            for k in 0..2 * BLOCK as u32 + 1 {
                s.offer(&mut p, at(0), ms(1), Priority::Normal, k);
                let blocks = (k as usize + BLOCK) / BLOCK;
                assert_eq!(p.used_blocks(), blocks, "round {round}, {k}");
            }
            assert_eq!(p.allocated_blocks(), SEGMENT_BLOCKS, "round {round}");
            for k in 0..=2 * BLOCK {
                assert_eq!(s.complete(&mut p, at(0)).unwrap().tag, k as u32);
                // The head block goes back once its last request leaves.
                assert_eq!(
                    p.used_blocks(),
                    3 - (k + 1) / BLOCK - usize::from(k == 2 * BLOCK)
                );
            }
            assert_eq!(p.live(), 0);
            assert_eq!(p.free_blocks(), SEGMENT_BLOCKS);
        }
    }

    #[test]
    fn pool_grows_by_segments_and_keeps_order_across_them() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        s.offer(&mut p, at(0), ms(1), Priority::Normal, 0u32);
        let n = (SEGMENT_BLOCKS * BLOCK + 1) as u32;
        for k in 0..n {
            s.offer(&mut p, at(0), ms(1), Priority::Normal, k);
        }
        assert_eq!(p.allocated_blocks(), 2 * SEGMENT_BLOCKS);
        for k in 0..n {
            assert_eq!(s.complete(&mut p, at(0)).unwrap().tag, k);
        }
        assert_eq!(p.free_blocks(), 2 * SEGMENT_BLOCKS);
    }

    #[test]
    fn utilization_accounting() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        s.offer(&mut p, at(0), ms(5), Priority::Normal, ());
        s.complete(&mut p, at(5));
        // idle 5ms
        s.offer(&mut p, at(10), ms(10), Priority::Normal, ());
        s.complete(&mut p, at(20));
        let u = s.utilization(at(20));
        assert!((u - 0.75).abs() < 1e-9, "15ms busy of 20ms: {u}");
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn windowed_utilization() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        let mut w = UtilizationWindow::default();
        s.offer(&mut p, at(0), ms(10), Priority::Normal, ());
        s.complete(&mut p, at(10));
        let u1 = w.sample(at(10), s.busy_integral_at(at(10)), 1);
        assert!((u1 - 1.0).abs() < 1e-9);
        // Fully idle second window.
        let u2 = w.sample(at(30), s.busy_integral_at(at(30)), 1);
        assert!(u2.abs() < 1e-9);
    }

    #[test]
    fn mean_queue_len_integrates() {
        let (mut p, mut s) = (FifoPool::new(), FcfsServer::new(1));
        s.offer(&mut p, at(0), ms(10), Priority::Normal, 0u8);
        s.offer(&mut p, at(0), ms(10), Priority::Normal, 1); // queued 0..10
        s.complete(&mut p, at(10));
        s.complete(&mut p, at(20));
        let q = s.mean_queue_len(at(20));
        assert!(
            (q - 0.5).abs() < 1e-9,
            "one waiter for half the horizon: {q}"
        );
    }

    /// The per-server `VecDeque` station the pooled lists replaced.
    struct Reference {
        units: u32,
        busy: u32,
        high: VecDeque<(SimDur, u32)>,
        normal: VecDeque<(SimDur, u32)>,
        busy_integral: u128,
        last_change: SimTime,
    }

    impl Reference {
        fn new(units: u32) -> Self {
            Reference {
                units,
                busy: 0,
                high: VecDeque::new(),
                normal: VecDeque::new(),
                busy_integral: 0,
                last_change: SimTime::ZERO,
            }
        }

        fn advance(&mut self, now: SimTime) {
            self.busy_integral += (now - self.last_change).as_nanos() as u128 * self.busy as u128;
            self.last_change = now;
        }

        fn offer(
            &mut self,
            now: SimTime,
            service: SimDur,
            prio: Priority,
            tag: u32,
        ) -> Option<Grant<u32>> {
            self.advance(now);
            if self.busy < self.units {
                self.busy += 1;
                return Some(Grant {
                    done: now + service,
                    tag,
                });
            }
            match prio {
                Priority::High => self.high.push_back((service, tag)),
                Priority::Normal => self.normal.push_back((service, tag)),
            }
            None
        }

        fn complete(&mut self, now: SimTime) -> Option<Grant<u32>> {
            self.advance(now);
            self.busy -= 1;
            let (service, tag) = self.high.pop_front().or_else(|| self.normal.pop_front())?;
            self.busy += 1;
            Some(Grant {
                done: now + service,
                tag,
            })
        }
    }

    proptest! {
        /// Random offer/complete sequences on up to five servers of one
        /// to three units sharing one pool, both priorities: every grant,
        /// done time, busy integral and queued count equals the
        /// `VecDeque` station's, and the pool holds exactly the queued
        /// requests.
        #[test]
        fn prop_pooled_servers_match_vecdeque_reference(
            units in proptest::collection::vec(1u32..4, 1..6),
            ops in proptest::collection::vec((0usize..5, 0u64..3_000, 1u64..5_000, 0u8..5), 1..600),
        ) {
            let mut pool = FifoPool::new();
            let mut servers: Vec<FcfsServer<u32>> = units.iter().map(|&u| FcfsServer::new(u)).collect();
            let mut reference: Vec<Reference> = units.iter().map(|&u| Reference::new(u)).collect();
            let mut now = SimTime::ZERO;
            for (tag, &(idx, gap, service, op)) in ops.iter().enumerate() {
                let k = idx % servers.len();
                now += SimDur::from_nanos(gap);
                let (got, want) = if op >= 2 && reference[k].busy > 0 {
                    (servers[k].complete(&mut pool, now), reference[k].complete(now))
                } else {
                    let prio = if op == 1 { Priority::High } else { Priority::Normal };
                    let service = SimDur::from_nanos(service);
                    (
                        servers[k].offer(&mut pool, now, service, prio, tag as u32),
                        reference[k].offer(now, service, prio, tag as u32),
                    )
                };
                prop_assert_eq!(got, want);
                let r = &reference[k];
                prop_assert_eq!(servers[k].queued(), r.high.len() + r.normal.len());
                prop_assert_eq!(servers[k].in_service(), r.busy);
                for (s, r) in servers.iter().zip(&reference) {
                    let projected = r.busy_integral
                        + (now - r.last_change).as_nanos() as u128 * r.busy as u128;
                    prop_assert_eq!(s.busy_integral_at(now), projected);
                }
                let queued: usize = servers.iter().map(FcfsServer::queued).sum();
                prop_assert_eq!(pool.live(), queued);
                // Each non-empty queue holds at most two partly used blocks.
                let lists = servers.len() * 2;
                prop_assert!(pool.used_blocks() * BLOCK <= queued + lists * 2 * (BLOCK - 1));
            }
            prop_assert_eq!(pool.free_blocks() + pool.used_blocks(), pool.allocated_blocks());
        }
    }
}
