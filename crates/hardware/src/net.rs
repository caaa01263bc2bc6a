//! Interconnection network.
//!
//! "The communication network models transmission of message packets of
//! fixed size. Messages exceeding the packet size (e.g., large sets of
//! result tuples) are disassembled into the required number of packets."
//! (§4)
//!
//! Each PE owns an egress link (FCFS): a message occupies its sender's link
//! for `packets × per_packet` and is delivered `latency` after the link
//! releases it. The fabric itself is contention-free (EDS-style scalable
//! interconnect); CPU costs for send/receive/copy are charged by the engine
//! per the Fig. 4 instruction table.
//!
//! # Self-timed links
//!
//! A FIFO link with one server needs no completion events: a message
//! starts when the link is free of everything sent before it, so
//! [`Network::send`] computes the release time on the spot as
//! `max(now, free_at) + wire` and the caller schedules the delivery
//! directly. No `LinkFree` event is scheduled to start the next queued
//! message. The link keeps only `free_at` and the total wire time it has
//! accepted; its busy integral follows exactly, because a FIFO link is
//! busy without a gap from `now` until `free_at`.

use crate::params::NetParams;
use simkit::{SimDur, SimTime};

/// One PE's egress link.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// Release time of the last message accepted (the link is idle from
    /// then on unless more is sent).
    free_at: SimTime,
    /// Wire time of every message accepted so far, in ns.
    wire_ns: u128,
}

/// Per-system network state: one egress link per PE.
pub struct Network {
    params: NetParams,
    egress: Vec<Link>,
    msgs: u64,
}

impl Network {
    pub fn new(params: NetParams, pes: usize) -> Self {
        Network {
            egress: vec![Link::default(); pes],
            params,
            msgs: 0,
        }
    }

    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Queue a message of `bytes` on `src`'s egress link and return its
    /// **link release** time: the link first finishes everything sent
    /// before it. The message arrives at the receiver at
    /// `release + latency()`.
    pub fn send(&mut self, now: SimTime, src: usize, bytes: u32) -> SimTime {
        self.msgs += 1;
        let wire = self.params.wire_time(bytes);
        let link = &mut self.egress[src];
        link.free_at = link.free_at.max(now) + wire;
        link.wire_ns += u128::from(wire.as_nanos());
        link.free_at
    }

    /// Propagation latency added to every delivery.
    pub fn latency(&self) -> SimDur {
        self.params.latency
    }

    /// Busy integral (unit-ns) of one PE's egress link up to `now`, for
    /// windowed utilization reports to the control node: the wire time
    /// accepted minus the part still ahead of `now`.
    pub fn link_busy_integral(&self, now: SimTime, src: usize) -> u128 {
        let link = &self.egress[src];
        link.wire_ns - u128::from(link.free_at.since(now).as_nanos())
    }

    pub fn messages_sent(&self) -> u64 {
        self.msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::server::FifoPool;
    use simkit::{FcfsServer, Priority};

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_micros(us)
    }

    #[test]
    fn wire_time_scales_with_packets() {
        let mut n = Network::new(NetParams::default(), 4);
        // 8 KB = 64 packets × 6.4 us = 409.6 us
        assert_eq!(n.params().packets(8192), 64);
        assert_eq!(n.send(at_us(0), 0, 8192), SimTime(4_096_000 / 10));
    }

    #[test]
    fn small_message_is_one_packet() {
        let mut n = Network::new(NetParams::default(), 2);
        assert_eq!(n.params().packets(16), 1);
        let done = n.send(at_us(0), 1, 16);
        assert_eq!(done, SimTime::ZERO + SimDur::from_nanos(6_400));
    }

    #[test]
    fn egress_serializes_per_sender() {
        let mut n = Network::new(NetParams::default(), 2);
        let packet = SimDur::from_nanos(6_400);
        assert_eq!(n.send(at_us(0), 0, 128), SimTime::ZERO + packet);
        // Queued behind the first message on the same link.
        assert_eq!(n.send(at_us(0), 0, 128), SimTime::ZERO + packet + packet);
        assert_eq!(
            n.send(at_us(0), 1, 128),
            SimTime::ZERO + packet,
            "other sender free"
        );
        // An idle link starts at once.
        assert_eq!(n.send(at_us(20), 0, 128), at_us(20) + packet);
        // Busy for two packets of the first 20 us, one more after.
        assert_eq!(n.link_busy_integral(at_us(20), 0), 12_800);
        assert_eq!(n.link_busy_integral(at_us(30), 0), 19_200);
    }

    #[test]
    fn counters() {
        let mut n = Network::new(NetParams::default(), 2);
        // 300 bytes over 128-byte packets: three packets on the wire.
        assert_eq!(n.params().packets(300), 3);
        let done = n.send(at_us(0), 0, 300);
        assert_eq!(done, SimTime::ZERO + SimDur::from_nanos(3 * 6_400));
        assert_eq!(n.messages_sent(), 1);
    }

    /// The event-driven link model the self-timed one replaced: an
    /// `FcfsServer::new(1)` per link, whose completions are fed back
    /// explicitly at their times (as `LinkFree` events once did).
    struct ReferenceLinks {
        links: Vec<FcfsServer<usize>>,
        pool: FifoPool<usize>,
        /// The in-flight transmission's completion time per link.
        inflight: Vec<Option<SimTime>>,
        /// Release time of each message, by send index, once granted.
        release: Vec<Option<SimTime>>,
    }

    impl ReferenceLinks {
        fn new(links: usize) -> Self {
            ReferenceLinks {
                links: (0..links).map(|_| FcfsServer::new(1)).collect(),
                pool: FifoPool::new(),
                inflight: vec![None; links],
                release: Vec::new(),
            }
        }

        /// Fire every link completion due at or before `now`.
        fn advance(&mut self, now: SimTime) {
            for l in 0..self.links.len() {
                while let Some(done) = self.inflight[l].filter(|&d| d <= now) {
                    self.inflight[l] = self.links[l].complete(&mut self.pool, done).map(|g| {
                        self.release[g.tag] = Some(g.done);
                        g.done
                    });
                }
            }
        }

        fn send(&mut self, now: SimTime, src: usize, wire: SimDur) {
            self.advance(now);
            let id = self.release.len();
            self.release.push(None);
            if let Some(g) = self.links[src].offer(&mut self.pool, now, wire, Priority::Normal, id)
            {
                self.release[id] = Some(g.done);
                self.inflight[src] = Some(g.done);
            }
        }
    }

    proptest! {
        /// Random send sequences over up to four links, with ties and
        /// idle gaps: every release time and the busy integral of every
        /// link at random sample instants equal the event-driven model's.
        #[test]
        fn prop_matches_event_driven_links(
            links in 1usize..5,
            ops in proptest::collection::vec((0usize..4, 0u64..20_000, 1u32..20_000, 0u8..4), 1..300),
        ) {
            let params = NetParams::default();
            let mut net = Network::new(params.clone(), links);
            let mut reference = ReferenceLinks::new(links);
            let mut release = Vec::new();
            let mut now = SimTime::ZERO;
            for &(src, gap, bytes, op) in &ops {
                now += SimDur::from_nanos(gap);
                if op == 0 {
                    reference.advance(now);
                    for l in 0..links {
                        prop_assert_eq!(
                            net.link_busy_integral(now, l),
                            reference.links[l].busy_integral_at(now)
                        );
                    }
                } else {
                    let src = src % links;
                    release.push(Some(net.send(now, src, bytes)));
                    reference.send(now, src, params.wire_time(bytes));
                }
            }
            reference.advance(SimTime(u64::MAX));
            prop_assert_eq!(release, reference.release);
        }
    }
}
