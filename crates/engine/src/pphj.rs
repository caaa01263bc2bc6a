//! Partially Preemptible Hash Join (PPHJ) — the memory-adaptive local join
//! algorithm of Pang, Carey & Livny \[23\], as used by the paper:
//!
//! "The PPHJ algorithm partitions both join inputs into p partitions with
//! p = ⌈√(F·b_i)⌉ … To make sure that each A partition can be held in
//! memory, a minimum of p pages must be available for join processing. The
//! algorithm tries to keep as many A partitions as possible in memory to
//! allow a direct join processing with the outer relation. In the case that
//! memory has to be taken away from the join due to higher-priority
//! transactions, one or more memory-resident A partitions are written to
//! disk. … Arriving tuples from the outer relation B can only be processed
//! directly if the corresponding A partition is in memory. Otherwise, the B
//! tuple is inserted into a temporary B partition that is written to disk.
//! For disk-resident partitions the actual join processing is deferred
//! until all tuples from the outer relation have been received." (§4)
//!
//! One [`JoinTask`] instance runs per selected join processor; its input
//! arrives as redistributed [`MsgKind::TupleBatch`] messages from the scan
//! subqueries.

use crate::api::{even_share, JobId, JoinPhase, MsgKind, PeId, Step, TaskId, Token};
use crate::coordinator::Worker;
use crate::ctx::Ctx;
use hardware::{IoKind, IoRequest};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JState {
    Created,
    /// CPU for subquery initialization in flight.
    Init,
    /// Waiting in the FCFS memory queue.
    WaitMem,
    /// Receiving build input.
    Build,
    /// Receiving probe input.
    Probe,
    /// Joining disk-resident partitions.
    Delayed,
    /// JoinDone sent; waiting for commit.
    Done,
    Committed,
}

#[derive(Debug, Clone, Copy, Default)]
struct Part {
    /// Build tuples reflected in the in-memory hash table.
    a_mem: u64,
    /// Build tuples spilled to disk (including buffered partial pages).
    a_disk: u64,
    /// Hash-table pages currently held for this partition.
    pages_mem: u32,
    /// Partition still memory-resident?
    resident: bool,
    /// Tuples in the 1-page output buffer of a spilled partition.
    a_buf: u32,
    /// Full pages written to the temporary A file.
    a_disk_pages: u64,
    /// Probe tuples buffered/spilled for deferred processing.
    b_buf: u32,
    b_disk: u64,
    b_disk_pages: u64,
    /// Temp object ids (0 = not yet allocated).
    temp_a: u64,
    temp_b: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DelayedPhase {
    ReadA,
    ReadB,
}

/// One PPHJ join subquery.
#[derive(Debug)]
pub struct JoinTask {
    pub job: JobId,
    pub task_id: TaskId,
    pub pe: PeId,
    pub coord: PeId,
    a_srcs: u32,
    b_srcs: u32,
    expected_pages: u32,
    expected_probe: u64,

    state: JState,
    part_count: u32,
    parts: Vec<Part>,
    reserved: u32,
    used: u32,
    rr_cursor: u32,

    a_ends: u32,
    b_ends: u32,
    total_a: u64,
    total_b_seen: u64,

    // Result streaming with exact conservation at join end.
    result_carry: f64,
    results_emitted: u64,
    result_acc: u32,

    // Delayed processing cursor.
    delayed_part: usize,
    delayed_phase: DelayedPhase,
    delayed_page: u64,

    // Statistics.
    pub spill_pages_written: u64,
    pub temp_pages_read: u64,
    pub mem_wait: bool,
}

impl JoinTask {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        job: JobId,
        task_id: TaskId,
        pe: PeId,
        coord: PeId,
        a_srcs: u32,
        b_srcs: u32,
        expected_pages: u32,
        expected_probe: u64,
    ) -> JoinTask {
        JoinTask {
            job,
            task_id,
            pe,
            coord,
            a_srcs,
            b_srcs,
            expected_pages,
            expected_probe,
            state: JState::Created,
            part_count: 0,
            parts: Vec::new(),
            reserved: 0,
            used: 0,
            rr_cursor: 0,
            a_ends: 0,
            b_ends: 0,
            total_a: 0,
            total_b_seen: 0,
            result_carry: 0.0,
            results_emitted: 0,
            result_acc: 0,
            delayed_part: 0,
            delayed_phase: DelayedPhase::ReadA,
            delayed_page: 0,
            spill_pages_written: 0,
            temp_pages_read: 0,
            mem_wait: false,
        }
    }

    fn token(&self, step: Step) -> Token {
        Token::new(self.job, self.task_id, step)
    }

    /// PPHJ partition count: ⌈√(F · b_local)⌉ (the paper's formula),
    /// bounded by the pages actually granted (the algorithm adapts the
    /// partitioning to the memory it gets).
    fn ideal_part_count(&self, fudge: f64) -> u32 {
        ((self.expected_pages as f64 * fudge).max(1.0).sqrt().ceil() as u32).max(1)
    }

    fn reserve_memory(&mut self, ctx: &mut Ctx) {
        // Paper semantics (§4): ask for the full fudged share of the hash
        // table; "a join query is only started at a node if the minimal
        // space requirements of p pages are available. Otherwise, the join
        // query is forced to wait in a memory queue (FCFS)". A timeout
        // bounds the cross-node hold-and-wait convoy: a subquery that
        // waits too long degrades to disk-resident (GRACE-style)
        // processing with zero reserved pages instead of stalling its
        // whole join indefinitely.
        let min = self.ideal_part_count(ctx.cfg.fudge);
        // `expected_pages` already carries the fudge factor (it is the
        // node's share of b_i · F); add one page per partition for the
        // per-partition page rounding of the growing hash tables.
        let desired = (self.expected_pages + min).max(min);
        let key = Ctx::mem_key(self.job, self.pe);
        match ctx.pes[self.pe as usize].buffer.reserve(key, min, desired) {
            dbmodel::buffer::ReserveOutcome::Granted { pages, writebacks } => {
                ctx.emit_writebacks(self.pe, &writebacks);
                self.become_ready(ctx, pages);
            }
            dbmodel::buffer::ReserveOutcome::Queued => {
                self.state = JState::WaitMem;
                self.mem_wait = true;
                ctx.out.push(crate::api::Action::Alarm {
                    job: self.job,
                    pe: self.pe,
                    after: ctx.cfg.mem_wait_timeout,
                });
            }
        }
    }

    /// Admission from the FCFS memory queue.
    pub fn mem_granted(&mut self, ctx: &mut Ctx, pages: u32) {
        if self.state != JState::WaitMem {
            // Already degraded via the timeout: the raced grant must be
            // returned to the pool (it was registered under our key).
            ctx.release_memory(self.job, self.pe);
            return;
        }
        self.become_ready(ctx, pages);
    }

    /// Memory-wait timeout: leave the queue and continue with whatever is
    /// reservable right now (possibly nothing → disk-resident GRACE mode).
    pub fn mem_wait_timeout(&mut self, ctx: &mut Ctx) {
        if self.state != JState::WaitMem {
            return; // grant arrived first
        }
        let key = Ctx::mem_key(self.job, self.pe);
        ctx.pes[self.pe as usize].buffer.cancel_waiter(key);
        // Cancelling may unblock the queue behind us.
        let admissions = ctx.pes[self.pe as usize].buffer.admit_waiters();
        for a in admissions {
            ctx.emit_writebacks(self.pe, &a.writebacks);
            let job = Ctx::job_of_mem_key(a.job, self.pe);
            ctx.out.push(crate::api::Action::MemoryGranted {
                job,
                pe: self.pe,
                pages: a.pages,
            });
        }
        let desired = self.expected_pages + self.ideal_part_count(ctx.cfg.fudge);
        let (pages, writebacks) = ctx.pes[self.pe as usize]
            .buffer
            .reserve_best_effort(key, desired);
        ctx.emit_writebacks(self.pe, &writebacks);
        self.become_ready(ctx, pages);
    }

    fn become_ready(&mut self, ctx: &mut Ctx, pages: u32) {
        self.reserved = pages;
        self.part_count = self.ideal_part_count(ctx.cfg.fudge).min(pages.max(1));
        self.parts = vec![
            Part {
                resident: pages > 0,
                ..Part::default()
            };
            self.part_count as usize
        ];
        self.state = JState::Build;
        ctx.send_to(
            self.pe,
            self.coord,
            self.job,
            crate::api::COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::JoinReady,
        );
    }

    /// OLTP stole `pages` from our working space.
    pub fn mem_stolen(&mut self, ctx: &mut Ctx, pages: u32) {
        if matches!(self.state, JState::Done | JState::Committed) {
            return; // working space already released
        }
        self.reserved = self.reserved.saturating_sub(pages);
        while self.used > self.reserved {
            if !self.spill_one(ctx, usize::MAX) {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Build phase
    // ------------------------------------------------------------------

    /// The partition count and the first partition of this batch's
    /// remainder: the remainder rotates across batches so partitions stay
    /// balanced. Partition `i` receives
    /// [`even_share`]`(tuples, k, r, i)` tuples.
    fn next_rr(&mut self) -> (u32, u32) {
        let k = self.part_count.max(1);
        let r = self.rr_cursor % k;
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        (k, r)
    }

    fn build_batch(&mut self, tuples: u32, ctx: &mut Ctx) {
        self.total_a += tuples as u64;
        let (k, r) = self.next_rr();
        let bf = ctx.cfg.tuples_per_page;
        let c = ctx.cfg.instr;
        let mut mem_tuples = 0u64;
        let mut disk_tuples = 0u64;
        let mut io_count = 0u64;
        for i in 0..k as usize {
            let share = even_share(tuples as u64, k, r, i as u32);
            if share == 0 {
                continue;
            }
            if self.parts[i].resident {
                let needed = (((self.parts[i].a_mem + share) as f64) * ctx.cfg.fudge / bf as f64)
                    .ceil() as u32;
                let grow = needed.saturating_sub(self.parts[i].pages_mem);
                if grow > 0 && !self.ensure_space(grow, i, ctx) {
                    // Could not hold it: partition (now) spilled; tuples go
                    // to its output buffer below.
                } else if self.parts[i].resident {
                    self.parts[i].a_mem += share;
                    self.parts[i].pages_mem = needed.max(self.parts[i].pages_mem);
                    mem_tuples += share;
                    continue;
                }
            }
            // Disk-resident: buffer and flush full pages.
            disk_tuples += share;
            self.parts[i].a_disk += share;
            self.parts[i].a_buf += share as u32;
            io_count += self.flush_part_buf(i, false, true, ctx);
        }
        let instr = mem_tuples * c.insert_ht + disk_tuples * c.write_out + io_count * c.io;
        ctx.cpu(self.pe, instr.max(1), false, self.token(Step::PageCpu));
    }

    /// Make room for `grow` pages for partition `grower`. Returns false if
    /// the grower itself had to be spilled.
    fn ensure_space(&mut self, grow: u32, grower: usize, ctx: &mut Ctx) -> bool {
        loop {
            if self.used + grow <= self.reserved {
                self.used += grow;
                return true;
            }
            // Ask the buffer manager for more memory first.
            let want = grow - (self.reserved - self.used);
            let key = Ctx::mem_key(self.job, self.pe);
            let (got, writebacks) = ctx.pes[self.pe as usize].buffer.try_grow(key, want);
            ctx.emit_writebacks(self.pe, &writebacks);
            self.reserved += got;
            if self.used + grow <= self.reserved {
                self.used += grow;
                return true;
            }
            // Spill the largest resident partition (possibly the grower).
            if !self.spill_one(ctx, grower) {
                // Nothing spillable but the grower itself.
                if self.parts[grower].resident {
                    self.spill_part(grower, ctx);
                }
                return false;
            }
            if !self.parts[grower].resident {
                return false;
            }
        }
    }

    /// Spill the largest resident partition other than `prefer_not`.
    /// Returns false if no such partition exists.
    fn spill_one(&mut self, ctx: &mut Ctx, prefer_not: usize) -> bool {
        let victim = self
            .parts
            .iter()
            .enumerate()
            .filter(|(i, p)| p.resident && *i != prefer_not && p.pages_mem > 0)
            .max_by_key(|(_, p)| p.pages_mem)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                self.spill_part(i, ctx);
                true
            }
            None => false,
        }
    }

    /// Write partition `i`'s hash-table pages to its temporary A file.
    fn spill_part(&mut self, i: usize, ctx: &mut Ctx) {
        debug_assert!(self.parts[i].resident);
        if self.parts[i].temp_a == 0 {
            self.parts[i].temp_a = ctx.alloc_temp();
        }
        let pages = self.parts[i].pages_mem;
        if pages > 0 {
            let disk = ctx.disk_of_page(self.parts[i].temp_a, 0);
            ctx.out.push(crate::api::Action::IoAsync {
                pe: self.pe,
                disk,
                req: IoRequest {
                    object: self.parts[i].temp_a,
                    page: self.parts[i].a_disk_pages,
                    kind: IoKind::Write { pages },
                },
            });
            self.spill_pages_written += pages as u64;
            self.parts[i].a_disk_pages += pages as u64;
        }
        self.parts[i].a_disk += self.parts[i].a_mem;
        self.parts[i].a_mem = 0;
        self.used -= pages;
        self.parts[i].pages_mem = 0;
        self.parts[i].resident = false;
        // Keep one page as the output buffer for future arrivals.
        if self.used < self.reserved {
            self.used += 1;
        }
    }

    /// Flush full buffer pages of a spilled partition (`a_side` selects the
    /// A or B buffer). Returns the number of write I/Os issued.
    fn flush_part_buf(&mut self, i: usize, force: bool, a_side: bool, ctx: &mut Ctx) -> u64 {
        let bf = ctx.cfg.tuples_per_page;
        let mut ios = 0;
        loop {
            let buf = if a_side {
                self.parts[i].a_buf
            } else {
                self.parts[i].b_buf
            };
            if buf >= bf || (force && buf > 0) {
                let t = buf.min(bf);
                let obj = if a_side {
                    if self.parts[i].temp_a == 0 {
                        self.parts[i].temp_a = ctx.alloc_temp();
                    }
                    self.parts[i].temp_a
                } else {
                    if self.parts[i].temp_b == 0 {
                        self.parts[i].temp_b = ctx.alloc_temp();
                    }
                    self.parts[i].temp_b
                };
                let page = if a_side {
                    self.parts[i].a_disk_pages
                } else {
                    self.parts[i].b_disk_pages
                };
                let disk = ctx.disk_of_page(obj, 0);
                ctx.out.push(crate::api::Action::IoAsync {
                    pe: self.pe,
                    disk,
                    req: IoRequest {
                        object: obj,
                        page,
                        kind: IoKind::Write { pages: 1 },
                    },
                });
                self.spill_pages_written += 1;
                ios += 1;
                if a_side {
                    self.parts[i].a_buf -= t;
                    self.parts[i].a_disk_pages += 1;
                } else {
                    self.parts[i].b_buf -= t;
                    self.parts[i].b_disk_pages += 1;
                }
                if buf == t {
                    break;
                }
            } else {
                break;
            }
        }
        ios
    }

    // ------------------------------------------------------------------
    // Probe phase
    // ------------------------------------------------------------------

    fn probe_batch(&mut self, tuples: u32, ctx: &mut Ctx) {
        self.total_b_seen += tuples as u64;
        let (k, r) = self.next_rr();
        let c = ctx.cfg.instr;
        let mut probe_tuples = 0u64;
        let mut disk_tuples = 0u64;
        let mut io_count = 0u64;
        let mut results = 0u64;
        for i in 0..k as usize {
            let share = even_share(tuples as u64, k, r, i as u32);
            if share == 0 {
                continue;
            }
            if self.parts[i].resident {
                probe_tuples += share;
                // Streaming result estimate: a_i matches arrive uniformly
                // over the expected probe share of this partition.
                let b_expect = (self.expected_probe as f64 / self.part_count as f64).max(1.0);
                let ratio = self.parts[i].a_mem as f64 / b_expect;
                self.result_carry += share as f64 * ratio;
            } else {
                disk_tuples += share;
                self.parts[i].b_disk += share;
                self.parts[i].b_buf += share as u32;
                io_count += self.flush_part_buf(i, false, false, ctx);
            }
        }
        while self.result_carry >= 1.0 {
            self.result_carry -= 1.0;
            results += 1;
        }
        let results = self.emit_results(results, false, ctx);
        let instr = probe_tuples * c.probe_ht
            + disk_tuples * c.write_out
            + io_count * c.io
            + results * c.write_out;
        ctx.cpu(self.pe, instr.max(1), false, self.token(Step::PageCpu));
    }

    /// Queue `results` result tuples (capped so the task never produces
    /// more than its build-tuple count); flush full 8 KB batches to the
    /// coordinator. Returns the number of results actually queued.
    fn emit_results(&mut self, results: u64, force: bool, ctx: &mut Ctx) -> u64 {
        let results = results.min(self.total_a.saturating_sub(self.results_emitted));
        self.results_emitted += results;
        self.result_acc += results as u32;
        let bf = ctx.cfg.tuples_per_page;
        let mut msgs = 0;
        while self.result_acc >= bf || (force && self.result_acc > 0) {
            let t = self.result_acc.min(bf);
            self.result_acc -= t;
            let bytes = ctx.cfg.batch_bytes(t, 400);
            ctx.send_to(
                self.pe,
                self.coord,
                self.job,
                crate::api::COORD_TASK,
                bytes,
                MsgKind::ResultBatch { tuples: t },
            );
            msgs += 1;
            if self.result_acc == 0 {
                break;
            }
        }
        let _ = msgs;
        results
    }

    /// All probe sources done: join the disk-resident partitions.
    fn finish_probe(&mut self, ctx: &mut Ctx) {
        self.state = JState::Delayed;
        self.delayed_part = 0;
        self.delayed_phase = DelayedPhase::ReadA;
        self.delayed_page = 0;
        self.delayed_advance(ctx);
    }

    // ------------------------------------------------------------------
    // Delayed join processing of disk-resident partitions
    // ------------------------------------------------------------------

    fn delayed_advance(&mut self, ctx: &mut Ctx) {
        loop {
            if self.delayed_part >= self.parts.len() {
                self.finish_join(ctx);
                return;
            }
            let i = self.delayed_part;
            if self.parts[i].resident && self.parts[i].a_disk == 0 && self.parts[i].b_disk == 0 {
                self.delayed_part += 1;
                continue;
            }
            // Flush partial buffers before reading the partition back.
            if self.delayed_phase == DelayedPhase::ReadA && self.delayed_page == 0 {
                self.flush_part_buf(i, true, true, ctx);
                self.flush_part_buf(i, true, false, ctx);
            }
            let (obj, pages) = match self.delayed_phase {
                DelayedPhase::ReadA => (self.parts[i].temp_a, self.parts[i].a_disk_pages),
                DelayedPhase::ReadB => (self.parts[i].temp_b, self.parts[i].b_disk_pages),
            };
            if self.delayed_page >= pages || obj == 0 {
                match self.delayed_phase {
                    DelayedPhase::ReadA => {
                        self.delayed_phase = DelayedPhase::ReadB;
                        self.delayed_page = 0;
                        continue;
                    }
                    DelayedPhase::ReadB => {
                        self.delayed_part += 1;
                        self.delayed_phase = DelayedPhase::ReadA;
                        self.delayed_page = 0;
                        continue;
                    }
                }
            }
            // Read the next temp page.
            let disk = ctx.disk_of_page(obj, 0);
            let remaining = (pages - self.delayed_page) as u32;
            ctx.out.push(crate::api::Action::Io {
                pe: self.pe,
                disk,
                req: IoRequest {
                    object: obj,
                    page: self.delayed_page,
                    kind: IoKind::SeqRead {
                        run_remaining: remaining,
                    },
                },
                token: self.token(Step::TempIo),
            });
            self.temp_pages_read += 1;
            return;
        }
    }

    /// Temp page arrived: charge CPU for its tuples, then continue.
    fn delayed_page_cpu(&mut self, ctx: &mut Ctx) {
        let c = ctx.cfg.instr;
        let bf = ctx.cfg.tuples_per_page as u64;
        let instr = match self.delayed_phase {
            DelayedPhase::ReadA => bf * c.insert_ht + c.io,
            DelayedPhase::ReadB => {
                // Matches stream out as the spilled B pages are probed.
                let ratio = self.total_a as f64 / self.expected_probe.max(1) as f64;
                self.result_carry += bf as f64 * ratio;
                let mut results = 0u64;
                while self.result_carry >= 1.0 {
                    self.result_carry -= 1.0;
                    results += 1;
                }
                let results = self.emit_results(results, false, ctx);
                bf * c.probe_ht + c.io + results * c.write_out
            }
        };
        self.delayed_page += 1;
        ctx.cpu(self.pe, instr, false, self.token(Step::DelayedCpu));
    }

    fn finish_join(&mut self, ctx: &mut Ctx) {
        // Settle the exact result count: every build tuple of this task
        // matches exactly once (§5.1), so the task must have produced
        // `total_a` results when it finishes.
        let residual = self.total_a.saturating_sub(self.results_emitted);
        self.emit_results(residual, true, ctx);
        self.state = JState::Done;
        // The operator is finished: release the working space now (not at
        // commit) so waiting joins are admitted as early as possible.
        ctx.release_memory(self.job, self.pe);
        ctx.send_to(
            self.pe,
            self.coord,
            self.job,
            crate::api::COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::JoinDone,
        );
    }

    pub fn results_produced(&self) -> u64 {
        self.results_emitted
    }

    pub fn build_tuples(&self) -> u64 {
        self.total_a
    }
}

impl Worker for JoinTask {
    /// StartJoin received: charge subquery-init CPU.
    fn start(&mut self, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, JState::Created);
        self.state = JState::Init;
        ctx.cpu(
            self.pe,
            ctx.cfg.instr.init_txn,
            false,
            self.token(Step::Init),
        );
    }

    /// Dispatch a completion step.
    fn on_step(&mut self, step: Step, ctx: &mut Ctx) {
        match (self.state, step) {
            (JState::Init, Step::Init) => self.reserve_memory(ctx),
            // Trailing batch-processing completions are no-ops in any later
            // state — the FCFS CPU queue already enforced their cost.
            (_, Step::PageCpu) => {}
            (JState::Delayed, Step::DelayedCpu) => self.delayed_advance(ctx),
            (JState::Delayed, Step::TempIo) => self.delayed_page_cpu(ctx),
            (JState::Committed, Step::TermCpu) => {}
            (s, st) => unreachable!("join task: step {st:?} in state {s:?}"),
        }
    }

    /// A redistributed tuple batch arrived. `last` marks the end of this
    /// (source, destination) stream, piggybacked on the data message.
    fn on_batch(&mut self, phase: JoinPhase, tuples: u32, last: bool, ctx: &mut Ctx) {
        match phase {
            JoinPhase::Build => {
                debug_assert_eq!(self.state, JState::Build, "batch outside build phase");
                self.build_batch(tuples, ctx);
            }
            JoinPhase::Probe => {
                debug_assert_eq!(self.state, JState::Probe, "batch outside probe phase");
                self.probe_batch(tuples, ctx);
            }
        }
        if last {
            self.on_phase_end(phase, ctx);
        }
    }

    /// A scan source finished its phase.
    fn on_phase_end(&mut self, phase: JoinPhase, ctx: &mut Ctx) {
        match phase {
            JoinPhase::Build => {
                self.a_ends += 1;
                debug_assert!(self.a_ends <= self.a_srcs);
                if self.a_ends == self.a_srcs {
                    self.state = JState::Probe;
                    ctx.send_to(
                        self.pe,
                        self.coord,
                        self.job,
                        crate::api::COORD_TASK,
                        ctx.cfg.ctrl_msg_bytes,
                        MsgKind::BuildDone,
                    );
                }
            }
            JoinPhase::Probe => {
                self.b_ends += 1;
                debug_assert!(self.b_ends <= self.b_srcs);
                if self.b_ends == self.b_srcs {
                    self.finish_probe(ctx);
                }
            }
        }
    }

    /// Commit received: charge termination CPU and acknowledge.
    fn commit(&mut self, ctx: &mut Ctx) {
        debug_assert!(matches!(self.state, JState::Done));
        self.state = JState::Committed;
        ctx.cpu(
            self.pe,
            ctx.cfg.instr.term_txn,
            false,
            self.token(Step::TermCpu),
        );
        ctx.send_to(
            self.pe,
            self.coord,
            self.job,
            crate::api::COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::CommitAck,
        );
    }
}
