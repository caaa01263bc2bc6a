//! The engine ↔ simulator protocol.
//!
//! The engine is a set of deterministic state machines (jobs and their
//! subquery tasks). It never schedules events itself: handlers consume an
//! [`Input`], mutate per-PE state ([`crate::pe::Pe`]) synchronously, and
//! emit [`Action`]s that the simulator executes against the hardware model
//! (CPUs, disks, network, log disks). Completions come back as new
//! [`Input`]s addressed by [`Token`].
//!
//! This inversion keeps the engine free of event-loop and borrow-checker
//! entanglement, unit-testable with a scripted driver, and makes every
//! hardware interaction visible in one enum.

use dbmodel::RelationId;
use hardware::IoRequest;
use lb_core::costmodel::InstrCosts;
use serde::{Deserialize, Serialize};
use simkit::slab::SlabKey;

/// Processing element index.
pub type PeId = u32;
/// Job handle (slab key into the simulator's job table).
pub type JobId = SlabKey;
/// Task index within a job (scan instance, join instance, coordinator).
pub type TaskId = u32;

/// Task id of the coordinator pseudo-task.
pub const COORD_TASK: TaskId = u32::MAX;

/// What a completion means to the receiving task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// BOT / subquery-start CPU finished.
    Init,
    /// A page read finished (scan loop / delayed-join loop).
    PageIo,
    /// Page-batch processing CPU finished.
    PageCpu,
    /// Receive CPU of a message finished; the message is in the token.
    MsgCpu,
    /// A synchronous temp-file I/O finished (delayed join read).
    TempIo,
    /// CPU of one delayed-join page finished (drives the delayed loop;
    /// distinct from `PageCpu` so trailing batch completions are no-ops).
    DelayedCpu,
    /// Commit/termination CPU finished.
    TermCpu,
    /// Log force finished.
    LogIo,
    /// Send-side CPU of a message finished (handled by the simulator: the
    /// message then enters the network; never routed into a job).
    SendCpu,
    /// Generic wake-up (admission, lock grant) — payload distinguishes.
    Wake,
}

/// Completion routing token. Carried by every asynchronous request.
#[derive(Debug, Clone)]
pub struct Token {
    pub job: JobId,
    pub task: TaskId,
    pub step: Step,
    /// Message being charged receive-CPU (for `Step::MsgCpu`).
    pub msg: Option<Box<Msg>>,
}

impl Token {
    pub fn new(job: JobId, task: TaskId, step: Step) -> Token {
        Token {
            job,
            task,
            step,
            msg: None,
        }
    }
}

/// Why a join subquery is running: build input (inner), probe input
/// (outer), used to tag batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinPhase {
    Build,
    Probe,
}

/// Network message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgKind {
    /// Coordinator → control node: request a placement for a join.
    ControlReq {
        table_pages: f64,
        psu_opt: u32,
        psu_noio: u32,
        /// Scan nodes feeding the probe side (for the RateMatch baseline).
        outer_scan_nodes: u32,
        /// Relation id of the build input (lets data-locality-aware
        /// policies co-locate join processors with inner fragments).
        inner_rel: u32,
        /// Multi-join stage index: 0 for two-way joins and sorts, `k > 0`
        /// for the k-th follow-on stage (the broker may govern stages with
        /// a distinct placement policy).
        stage: u32,
    },
    /// Control node → coordinator: the placement decision.
    ControlRep { nodes: Vec<PeId> },
    /// Coordinator → join PE: prepare a join subquery (reserve memory).
    StartJoin {
        /// Expected local inner pages (for PPHJ partitioning).
        expected_inner_pages: u32,
        join_index: u32,
        joiners: u32,
    },
    /// Join PE → coordinator: memory granted, ready to receive.
    JoinReady,
    /// Coordinator → data PE: run a scan subquery of `phase`.
    StartScan {
        relation: RelationId,
        selectivity: f64,
        phase: JoinPhase,
        /// Join PEs to redistribute into (empty: send results to coord).
        dests: Vec<PeId>,
    },
    /// Scan → join PE: a batch of redistributed tuples. `last` piggybacks
    /// the end-of-stream marker of this (source, destination) pair on the
    /// final data message, avoiding a separate PhaseEnd round per pair.
    TupleBatch {
        phase: JoinPhase,
        tuples: u32,
        last: bool,
    },
    /// Scan → join PE: this scan source is done with `phase` (sent only
    /// when no partial data batch remained to carry the `last` flag).
    PhaseEnd { phase: JoinPhase },
    /// Join PE → coordinator: hash tables built (build phase complete).
    BuildDone,
    /// Join or scan PE → coordinator: result tuples.
    ResultBatch { tuples: u32 },
    /// Join PE → coordinator: probe + delayed partitions complete.
    JoinDone,
    /// Scan PE → coordinator: scan-only subquery complete.
    ScanDone,
    /// Coordinator → participant: commit (read-only: single phase).
    Commit,
    /// Participant → coordinator: commit acknowledged.
    CommitAck,
    /// Migration source → destination: one page of a fragment in flight
    /// (online rebalancing data traffic).
    MigrateBatch {
        /// Last page of the fragment.
        last: bool,
    },
    /// Migration destination → source: all pages durably written.
    MigrateDone,
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    pub from: PeId,
    pub to: PeId,
    pub job: JobId,
    /// Receiving task at the destination.
    pub task: TaskId,
    pub bytes: u32,
    pub kind: MsgKind,
}

/// Asynchronous requests emitted by engine handlers.
#[derive(Debug, Clone)]
pub enum Action {
    /// Request CPU on `pe`.
    Cpu {
        pe: PeId,
        instr: u64,
        oltp: bool,
        token: Token,
    },
    /// Synchronous I/O on a data disk; completion routed via token.
    Io {
        pe: PeId,
        disk: u32,
        req: IoRequest,
        token: Token,
    },
    /// Asynchronous I/O (buffer write-back, partition spill): no
    /// completion is routed, but the disk is occupied.
    IoAsync { pe: PeId, disk: u32, req: IoRequest },
    /// Synchronous write to the dedicated log disk.
    LogWrite { pe: PeId, pages: u32, token: Token },
    /// Send a message (send-CPU must have been charged by the caller).
    /// Boxed: the message rides one heap allocation end-to-end (action →
    /// send token → network → delivery), keeping `Action`, `Ev` and the
    /// event heap entries small.
    Send(Box<Msg>),
    /// A job finished; the simulator records metrics and releases MPL.
    JobDone { job: JobId },
    /// Wake another job blocked on memory at `pe` (admission after
    /// release); granted pages are in `pages`.
    MemoryGranted { job: JobId, pe: PeId, pages: u32 },
    /// A join working space lost a frame to an OLTP steal.
    MemoryStolen { job: JobId, pe: PeId, pages: u32 },
    /// A lock wait ended (granted by a release on `pe`).
    LockGranted { job: JobId, pe: PeId, object: u64 },
    /// Deliver `InKind::Alarm { pe }` to the job after `after` elapses
    /// (memory-wait timeouts).
    Alarm {
        job: JobId,
        pe: PeId,
        after: simkit::SimDur,
    },
}

/// An input event routed into a job's state machine.
#[derive(Debug, Clone)]
pub struct Input {
    /// Addressed task ([`COORD_TASK`] for the coordinator).
    pub task: TaskId,
    pub kind: InKind,
}

/// Payload of an [`Input`].
#[derive(Debug, Clone)]
pub enum InKind {
    /// The job was admitted by its coordinator's transaction manager.
    Start,
    /// An asynchronous service completed.
    Step(Step),
    /// A message arrived (receive CPU already charged). Boxed so the
    /// common step/grant inputs stay small on the dispatch queue.
    Msg(Box<Msg>),
    /// A queued working-space reservation at `pe` was granted `pages`.
    MemGrant { pe: PeId, pages: u32 },
    /// OLTP stole `pages` from this job's working space at `pe`.
    MemSteal { pe: PeId, pages: u32 },
    /// A lock wait ended at `pe`.
    LockGrant { pe: PeId, object: u64 },
    /// A timer set via [`Action::Alarm`] fired.
    Alarm { pe: PeId },
}

/// Static engine parameters (instruction costs and layout constants).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    pub instr: InstrCosts,
    /// Tuples per 8 KB page / message buffer.
    pub tuples_per_page: u32,
    /// Page size in bytes (message sizing).
    pub page_bytes: u32,
    /// Bytes of a control/ack message.
    pub ctrl_msg_bytes: u32,
    /// PPHJ fudge factor.
    pub fudge: f64,
    /// Extra per-transaction OLTP pathlength (request handling beyond the
    /// modelled steps; calibrated so 100 TPS ≈ 50% CPU as in §5.3).
    pub oltp_extra_instr: u64,
    /// B+-tree fanout for the analytic index model.
    pub btree_fanout: u32,
    /// Number of data disks per PE (for temp/relation disk mapping).
    pub disks_per_pe: u32,
    /// Striping chunk: consecutive runs of this many pages live on one
    /// disk, successive chunks round-robin over the PE's disks ("relations
    /// and indices can be declustered across an arbitrary number of
    /// disks", §4). Matches the prefetch group so sequential prefetching
    /// still amortizes.
    pub disk_stripe_pages: u32,
    /// How long a join subquery waits in the FCFS memory queue before
    /// degrading to disk-resident (GRACE-style) processing. Bounds the
    /// cross-node hold-and-wait convoy without abandoning the paper's
    /// memory-queue semantics.
    pub mem_wait_timeout: simkit::SimDur,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            instr: InstrCosts::default(),
            tuples_per_page: 20,
            page_bytes: 8192,
            ctrl_msg_bytes: 128,
            fudge: 1.05,
            oltp_extra_instr: 30_000,
            btree_fanout: 400,
            disks_per_pe: 10,
            disk_stripe_pages: 4,
            mem_wait_timeout: simkit::SimDur::from_millis(3_000),
        }
    }
}

impl EngineConfig {
    /// CPU instructions to receive a message of `bytes` (receive + copy,
    /// with the 8 KB copy cost prorated to the actual size).
    pub fn recv_instr(&self, bytes: u32) -> u64 {
        self.instr.recv_msg + self.copy_instr(bytes)
    }

    /// CPU instructions to send a message of `bytes`.
    pub fn send_instr(&self, bytes: u32) -> u64 {
        self.instr.send_msg + self.copy_instr(bytes)
    }

    fn copy_instr(&self, bytes: u32) -> u64 {
        (self.instr.copy_8k as u128 * bytes.max(1) as u128).div_ceil(self.page_bytes as u128) as u64
    }

    /// Message bytes for `t` tuples of `tuple_bytes` each.
    pub fn batch_bytes(&self, t: u32, tuple_bytes: u32) -> u32 {
        (t * tuple_bytes).min(self.page_bytes).max(64)
    }

    /// Which data disk a relation page lives on: chunk-wise striping over
    /// all disks of the PE, offset per relation so different relations'
    /// low pages do not pile onto the same disk.
    pub fn disk_of_rel_page(&self, rel: RelationId, page: u64) -> u32 {
        ((rel.0 as u64 + page / self.disk_stripe_pages.max(1) as u64) % self.disks_per_pe as u64)
            as u32
    }

    /// Which data disk a temporary partition file lives on (whole file on
    /// one disk: temp partitions are written/read strictly sequentially).
    pub fn disk_of_temp(&self, salt: u64) -> u32 {
        (salt % self.disks_per_pe as u64) as u32
    }
}

/// Part `i` of `t` items split into `k` near-equal parts — models uniform
/// hash partitioning of a batch. The `t % k` one-larger parts start at
/// part `r % k` and wrap around, so a caller can rotate the remainder
/// across batches. Computed per part, so splitting a batch allocates
/// nothing.
pub fn even_share(t: u64, k: u32, r: u32, i: u32) -> u64 {
    let k = k.max(1);
    let base = t / u64::from(k);
    let rem = t % u64::from(k);
    base + u64::from(u64::from((i + k - r % k) % k) < rem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_and_send_costs_scale_with_size() {
        let c = EngineConfig::default();
        // Small control messages pay only a prorated copy cost.
        assert_eq!(c.recv_instr(128), 10_000 + 79);
        assert_eq!(c.recv_instr(8192), 15_000);
        assert_eq!(c.recv_instr(16_384), 20_000);
        assert_eq!(c.send_instr(8192), 10_000);
        assert!(c.send_instr(128) < 5_100);
    }

    #[test]
    fn batch_bytes_clamped_to_page() {
        let c = EngineConfig::default();
        assert_eq!(c.batch_bytes(20, 400), 8_000);
        assert_eq!(c.batch_bytes(40, 400), 8_192);
        assert_eq!(c.batch_bytes(0, 400), 64);
    }

    #[test]
    fn split_even_conserves_and_balances() {
        let split = |t, k, r| (0..k).map(|i| even_share(t, k, r, i)).collect::<Vec<_>>();
        assert_eq!(split(10, 3, 0), vec![4, 3, 3]);
        assert_eq!(split(9, 3, 0), vec![3, 3, 3]);
        assert_eq!(split(2, 5, 0), vec![1, 1, 0, 0, 0]);
        assert_eq!(split(0, 4, 0), vec![0, 0, 0, 0]);
        // The remainder starts at part `r` and wraps.
        assert_eq!(split(10, 3, 1), vec![3, 4, 3]);
        assert_eq!(split(2, 5, 4), vec![1, 0, 0, 0, 1]);
        assert_eq!(split(7, 4, 6), vec![2, 1, 2, 2]);
        for (t, k) in [(100u64, 7u32), (5, 9), (0, 1), (13, 13)] {
            for r in 0..2 * k {
                let parts = split(t, k, r);
                assert_eq!(parts.iter().sum::<u64>(), t);
                let max = *parts.iter().max().unwrap();
                let min = *parts.iter().min().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn disk_striping_spreads_chunks() {
        let c = EngineConfig::default();
        // Pages 0..3 on one disk (prefetch group), 4..7 on the next.
        assert_eq!(c.disk_of_rel_page(RelationId(0), 0), 0);
        assert_eq!(c.disk_of_rel_page(RelationId(0), 3), 0);
        assert_eq!(c.disk_of_rel_page(RelationId(0), 4), 1);
        assert_eq!(c.disk_of_rel_page(RelationId(0), 39), 9);
        assert_eq!(c.disk_of_rel_page(RelationId(0), 40), 0);
        // Relations are offset from each other.
        assert_eq!(c.disk_of_rel_page(RelationId(1), 0), 1);
        assert_eq!(c.disk_of_temp(25), 5);
        // A 63-page scan touches most disks roughly evenly.
        let mut counts = [0u32; 10];
        for p in 0..63 {
            counts[c.disk_of_rel_page(RelationId(0), p) as usize] += 1;
        }
        assert!(counts.iter().all(|&n| n >= 3));
    }
}
