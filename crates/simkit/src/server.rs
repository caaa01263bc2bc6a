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
//! Busy time is accumulated as an integral of `busy_units × dt`, from which
//! both cumulative and windowed utilization can be derived — the windowed
//! form is what PEs periodically report to the load-balancing control node.

use crate::time::{SimDur, SimTime};
use std::collections::VecDeque;

/// Scheduling class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served only when no high-priority request waits.
    #[default]
    Normal,
    /// Overtakes all queued normal requests (still non-preemptive).
    High,
}

#[derive(Debug)]
struct Pending<T> {
    service: SimDur,
    tag: T,
}

/// A grant: the caller must schedule a completion event at `done` and route
/// it back to [`FcfsServer::complete`] carrying `tag`.
#[derive(Debug, PartialEq, Eq)]
pub struct Grant<T> {
    pub done: SimTime,
    pub tag: T,
}

/// Multi-unit FCFS service station with two priority levels and busy-time
/// accounting.
#[derive(Debug)]
pub struct FcfsServer<T> {
    units: u32,
    busy: u32,
    queue_high: VecDeque<Pending<T>>,
    queue_normal: VecDeque<Pending<T>>,
    /// Integral of busy_units over time, in unit-nanoseconds.
    busy_integral: u128,
    last_change: SimTime,
    /// Total requests ever granted service.
    served: u64,
    /// Integral of queue length over time (for mean queue length).
    queue_integral: u128,
}

impl<T> FcfsServer<T> {
    /// Create a station with `units` parallel servers (≥ 1).
    pub fn new(units: u32) -> Self {
        assert!(units >= 1, "a server needs at least one unit");
        FcfsServer {
            units,
            busy: 0,
            queue_high: VecDeque::new(),
            queue_normal: VecDeque::new(),
            busy_integral: 0,
            last_change: SimTime::ZERO,
            served: 0,
            queue_integral: 0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_change, "server time went backwards");
        let dt = (now - self.last_change).as_nanos() as u128;
        self.busy_integral += dt * self.busy as u128;
        self.queue_integral += dt * (self.queue_high.len() + self.queue_normal.len()) as u128;
        self.last_change = now;
    }

    /// Offer a request needing `service` time. Returns a [`Grant`] if a unit
    /// is free (the caller schedules the completion); otherwise the request
    /// is queued and `None` is returned.
    pub fn offer(
        &mut self,
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
            let p = Pending { service, tag };
            match prio {
                Priority::High => self.queue_high.push_back(p),
                Priority::Normal => self.queue_normal.push_back(p),
            }
            None
        }
    }

    /// Mark one in-service request finished. If another request waits, it is
    /// granted and returned so the caller can schedule its completion.
    pub fn complete(&mut self, now: SimTime) -> Option<Grant<T>> {
        self.advance(now);
        debug_assert!(self.busy > 0, "complete() without an in-flight request");
        self.busy -= 1;
        let next = self
            .queue_high
            .pop_front()
            .or_else(|| self.queue_normal.pop_front())?;
        self.busy += 1;
        self.served += 1;
        Some(Grant {
            done: now + next.service,
            tag: next.tag,
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
        self.queue_high.len() + self.queue_normal.len()
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
            let projected = self.queue_integral
                + dt * (self.queue_high.len() + self.queue_normal.len()) as u128;
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

    fn ms(x: u64) -> SimDur {
        SimDur::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::ZERO + ms(x)
    }

    #[test]
    fn grants_immediately_when_free() {
        let mut s: FcfsServer<u32> = FcfsServer::new(1);
        let g = s.offer(at(0), ms(5), Priority::Normal, 7).unwrap();
        assert_eq!(g.done, at(5));
        assert_eq!(g.tag, 7);
        assert_eq!(s.in_service(), 1);
    }

    #[test]
    fn queues_when_busy_and_hands_over_on_complete() {
        let mut s: FcfsServer<&str> = FcfsServer::new(1);
        assert!(s.offer(at(0), ms(5), Priority::Normal, "a").is_some());
        assert!(s.offer(at(1), ms(3), Priority::Normal, "b").is_none());
        assert_eq!(s.queued(), 1);
        let g = s.complete(at(5)).unwrap();
        assert_eq!(g.tag, "b");
        assert_eq!(g.done, at(8));
        assert!(s.complete(at(8)).is_none());
        assert_eq!(s.in_service(), 0);
    }

    #[test]
    fn high_priority_overtakes() {
        let mut s: FcfsServer<&str> = FcfsServer::new(1);
        s.offer(at(0), ms(10), Priority::Normal, "running");
        s.offer(at(1), ms(1), Priority::Normal, "normal1");
        s.offer(at(2), ms(1), Priority::High, "oltp");
        s.offer(at(3), ms(1), Priority::Normal, "normal2");
        assert_eq!(s.complete(at(10)).unwrap().tag, "oltp");
        assert_eq!(s.complete(at(11)).unwrap().tag, "normal1");
        assert_eq!(s.complete(at(12)).unwrap().tag, "normal2");
    }

    #[test]
    fn multi_unit_parallelism() {
        let mut s: FcfsServer<u8> = FcfsServer::new(2);
        assert!(s.offer(at(0), ms(4), Priority::Normal, 1).is_some());
        assert!(s.offer(at(0), ms(4), Priority::Normal, 2).is_some());
        assert!(s.offer(at(0), ms(4), Priority::Normal, 3).is_none());
        let g = s.complete(at(4)).unwrap();
        assert_eq!(g.tag, 3);
    }

    #[test]
    fn utilization_accounting() {
        let mut s: FcfsServer<()> = FcfsServer::new(1);
        s.offer(at(0), ms(5), Priority::Normal, ());
        s.complete(at(5));
        // idle 5ms
        s.offer(at(10), ms(10), Priority::Normal, ());
        s.complete(at(20));
        let u = s.utilization(at(20));
        assert!((u - 0.75).abs() < 1e-9, "15ms busy of 20ms: {u}");
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn windowed_utilization() {
        let mut s: FcfsServer<()> = FcfsServer::new(1);
        let mut w = UtilizationWindow::default();
        s.offer(at(0), ms(10), Priority::Normal, ());
        s.complete(at(10));
        let u1 = w.sample(at(10), s.busy_integral_at(at(10)), 1);
        assert!((u1 - 1.0).abs() < 1e-9);
        // Fully idle second window.
        let u2 = w.sample(at(30), s.busy_integral_at(at(30)), 1);
        assert!(u2.abs() < 1e-9);
    }

    #[test]
    fn mean_queue_len_integrates() {
        let mut s: FcfsServer<u8> = FcfsServer::new(1);
        s.offer(at(0), ms(10), Priority::Normal, 0);
        s.offer(at(0), ms(10), Priority::Normal, 1); // queued 0..10
        s.complete(at(10));
        s.complete(at(20));
        let q = s.mean_queue_len(at(20));
        assert!(
            (q - 0.5).abs() < 1e-9,
            "one waiter for half the horizon: {q}"
        );
    }
}
