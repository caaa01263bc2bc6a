//! Generic event-dispatch kernel.
//!
//! Extracts the heap-driven simulation loop (previously hand-rolled inside
//! `snsim::System`) into a reusable pair:
//!
//! * [`EventQueue`] — the future event list plus the simulation clock and a
//!   processed-event counter. Handlers schedule follow-up events through it
//!   ([`EventQueue::at`] / [`EventQueue::after`]) while the dispatcher owns
//!   the pop-advance-dispatch cycle.
//! * [`Dispatcher`] — the loop itself: pop the earliest event, advance the
//!   clock, route the typed event into the [`Simulation`], then let the
//!   simulation quiesce (drain its internal work queues) before the next
//!   event. Deterministic: identical schedules replay identically.
//!
//! The simulation owns its queue (`queue_mut`) so handlers can borrow the
//! rest of their state freely while scheduling; the dispatcher only ever
//! touches the queue between handler invocations.

use crate::heap::EventHeap;
use crate::time::{SimDur, SimTime};

/// Future event list + clock for one simulation.
pub struct EventQueue<E> {
    fel: EventHeap<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            fel: EventHeap::with_capacity(cap),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time (the timestamp of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` at absolute time `t` (must not lie in the past).
    #[inline]
    pub fn at(&mut self, t: SimTime, ev: E) {
        self.fel.push(t, ev);
    }

    /// Schedule `ev` at `now + delay`.
    #[inline]
    pub fn after(&mut self, delay: SimDur, ev: E) {
        self.fel.push(self.now + delay, ev);
    }

    /// Time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.fel.peek_time()
    }

    /// Pop the next event, advancing the clock and the processed counter.
    pub fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.fel.pop()?;
        self.now = t;
        self.processed += 1;
        Some((t, ev))
    }

    /// Move the clock forward without an event (end-of-run fast-forward).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "clock must not run backwards");
        self.now = t;
    }

    /// Events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    pub fn len(&self) -> usize {
        self.fel.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fel.is_empty()
    }
}

/// A simulation drivable by the [`Dispatcher`]: an event queue plus a
/// handler for its typed events.
pub trait Simulation {
    type Event;

    /// The simulation's event queue (owned by the simulation so handlers
    /// can schedule while borrowing the rest of their state).
    fn queue_mut(&mut self) -> &mut EventQueue<Self::Event>;

    /// Handle one event at its scheduled time.
    fn handle(&mut self, now: SimTime, ev: Self::Event);

    /// Called after each handled event: drain internal work queues until
    /// quiescent. Default: nothing to drain.
    fn quiesce(&mut self) {}
}

/// The dispatch loop. Stateless: all run state lives in the simulation's
/// [`EventQueue`], so a run can be stopped and resumed at any horizon.
pub struct Dispatcher;

impl Dispatcher {
    /// Run `sim` until its queue is empty or the next event lies beyond
    /// `end`. The clock is left at `end`. Returns the number of events
    /// dispatched by this call.
    pub fn run_until<S: Simulation>(sim: &mut S, end: SimTime) -> u64 {
        let mut dispatched = 0;
        while let Some(t) = sim.queue_mut().peek_time() {
            if t > end {
                break;
            }
            let (t, ev) = sim.queue_mut().pop_next().expect("peeked event");
            sim.handle(t, ev);
            sim.quiesce();
            dispatched += 1;
        }
        sim.queue_mut().advance_to(end);
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy simulation: a counter that reschedules itself `ticks` times and
    /// drains a side queue after every event.
    struct Ticker {
        queue: EventQueue<u32>,
        handled: Vec<(u64, u32)>,
        drains: u32,
    }

    impl Simulation for Ticker {
        type Event = u32;

        fn queue_mut(&mut self) -> &mut EventQueue<u32> {
            &mut self.queue
        }

        fn handle(&mut self, now: SimTime, ev: u32) {
            self.handled.push((now.as_nanos(), ev));
            if ev < 3 {
                self.queue.after(SimDur::from_nanos(10), ev + 1);
            }
        }

        fn quiesce(&mut self) {
            self.drains += 1;
        }
    }

    #[test]
    fn drives_events_in_order_and_advances_clock() {
        let mut sim = Ticker {
            queue: EventQueue::new(),
            handled: Vec::new(),
            drains: 0,
        };
        sim.queue.at(SimTime(5), 0);
        let n = Dispatcher::run_until(&mut sim, SimTime(100));
        assert_eq!(n, 4);
        assert_eq!(sim.handled, vec![(5, 0), (15, 1), (25, 2), (35, 3)]);
        assert_eq!(sim.drains, 4, "quiesce runs after every event");
        assert_eq!(sim.queue.now(), SimTime(100), "clock lands on the horizon");
        assert_eq!(sim.queue.processed(), 4);
    }

    #[test]
    fn horizon_leaves_future_events_pending() {
        let mut sim = Ticker {
            queue: EventQueue::new(),
            handled: Vec::new(),
            drains: 0,
        };
        sim.queue.at(SimTime(5), 0);
        sim.queue.at(SimTime(50), 9);
        let n = Dispatcher::run_until(&mut sim, SimTime(40));
        assert_eq!(n, 4, "the tick chain fits; the t=50 event does not");
        assert_eq!(sim.queue.len(), 1);
        // Resume: the leftover event runs on the next call.
        let n2 = Dispatcher::run_until(&mut sim, SimTime(60));
        assert_eq!(n2, 1);
        assert_eq!(sim.handled.last(), Some(&(50, 9)));
    }

    #[test]
    fn relative_scheduling_tracks_clock() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.at(SimTime(7), 1);
        assert_eq!(q.pop_next(), Some((SimTime(7), 1)));
        q.after(SimDur::from_nanos(3), 2);
        assert_eq!(q.peek_time(), Some(SimTime(10)));
    }
}
