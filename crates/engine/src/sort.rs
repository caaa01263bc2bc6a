//! Parallel sort with dynamic redistribution (§7: "we believe the
//! principles behind our strategies are equally valid for other relational
//! operators that use a dynamic redistribution of their input for parallel
//! execution (e.g., sort)").
//!
//! A sort query scans its relation in parallel, range-partitions the
//! output across `p` dynamically chosen sort processors (modelled as the
//! same redistribution machinery the join uses), sorts locally with an
//! external-merge scheme whose memory comes from the same working-space
//! pool as PPHJ (runs spill when the reservation cannot grow), and streams
//! the sorted result to the coordinator. This module holds the sort
//! subquery; [`crate::coordinator`] runs the query.

use crate::api::{Action, JobId, JoinPhase, MsgKind, PeId, Step, TaskId, Token};
use crate::coordinator::Worker;
use crate::ctx::Ctx;
use hardware::{IoKind, IoRequest};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SState {
    Created,
    Init,
    /// Receiving redistributed tuples.
    Receive,
    /// Reading spilled runs back for the merge.
    MergeRead,
    /// Final sort/merge CPU.
    MergeCpu,
    Done,
    Committed,
}

/// One sort subquery on a chosen sort processor.
#[derive(Debug)]
pub struct SortTask {
    pub job: JobId,
    pub task_id: TaskId,
    pub pe: PeId,
    pub coord: PeId,
    srcs: u32,
    expected_pages: u32,

    state: SState,
    reserved: u32,
    /// Tuples currently buffered in memory (the open run).
    mem_tuples: u64,
    mem_pages: u32,
    /// Spilled run pages on the temp file.
    run_pages: u64,
    temp_obj: u64,
    ends_seen: u32,
    total_in: u64,
    results_sent: u64,
    merge_page: u64,

    pub spill_pages_written: u64,
    pub temp_pages_read: u64,
}

impl SortTask {
    pub fn new(
        job: JobId,
        task_id: TaskId,
        pe: PeId,
        coord: PeId,
        srcs: u32,
        expected_pages: u32,
    ) -> SortTask {
        SortTask {
            job,
            task_id,
            pe,
            coord,
            srcs,
            expected_pages,
            state: SState::Created,
            reserved: 0,
            mem_tuples: 0,
            mem_pages: 0,
            run_pages: 0,
            temp_obj: 0,
            ends_seen: 0,
            total_in: 0,
            results_sent: 0,
            merge_page: 0,
            spill_pages_written: 0,
            temp_pages_read: 0,
        }
    }

    fn token(&self, step: Step) -> Token {
        Token::new(self.job, self.task_id, step)
    }

    fn reserve(&mut self, ctx: &mut Ctx) {
        // Best-effort: sort degrades to more/smaller runs under pressure.
        let key = Ctx::mem_key(self.job, self.pe);
        let (pages, writebacks) = ctx.pes[self.pe as usize]
            .buffer
            .reserve_best_effort(key, self.expected_pages.max(2));
        ctx.emit_writebacks(self.pe, &writebacks);
        self.reserved = pages;
        self.state = SState::Receive;
        ctx.send_to(
            self.pe,
            self.coord,
            self.job,
            crate::api::COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::JoinReady,
        );
    }

    /// Read spilled runs back, one page at a time.
    fn advance_merge(&mut self, ctx: &mut Ctx) {
        if self.merge_page >= self.run_pages {
            self.final_sort(ctx);
            return;
        }
        let disk = ctx.disk_of_page(self.temp_obj, 0);
        let remaining = (self.run_pages - self.merge_page) as u32;
        ctx.out.push(Action::Io {
            pe: self.pe,
            disk,
            req: IoRequest {
                object: self.temp_obj,
                page: self.merge_page,
                kind: IoKind::SeqRead {
                    run_remaining: remaining,
                },
            },
            token: self.token(Step::TempIo),
        });
        self.temp_pages_read += 1;
    }

    /// Final n·log n sort/merge of everything this node received, then the
    /// sorted stream goes to the coordinator.
    fn final_sort(&mut self, ctx: &mut Ctx) {
        self.state = SState::MergeCpu;
        let c = ctx.cfg.instr;
        let n = self.total_in.max(2);
        let log2 = 64 - n.leading_zeros() as u64;
        let instr = n * c.hash_tuple * log2 / 4 + n * c.write_out;
        ctx.cpu(self.pe, instr.max(1), false, self.token(Step::DelayedCpu));
    }

    fn emit_results(&mut self, ctx: &mut Ctx) {
        let bf = ctx.cfg.tuples_per_page;
        let mut remaining = self.total_in - self.results_sent;
        while remaining > 0 {
            let t = (remaining as u32).min(bf);
            remaining -= t as u64;
            self.results_sent += t as u64;
            let bytes = ctx.cfg.batch_bytes(t, 400);
            ctx.send_to(
                self.pe,
                self.coord,
                self.job,
                crate::api::COORD_TASK,
                bytes,
                MsgKind::ResultBatch { tuples: t },
            );
        }
        self.state = SState::Done;
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
}

impl Worker for SortTask {
    fn start(&mut self, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, SState::Created);
        self.state = SState::Init;
        ctx.cpu(
            self.pe,
            ctx.cfg.instr.init_txn,
            false,
            self.token(Step::Init),
        );
    }

    /// A redistributed batch arrived: run-formation CPU, spill when the
    /// open run exceeds the reservation.
    fn on_batch(&mut self, phase: JoinPhase, tuples: u32, last: bool, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, SState::Receive);
        self.total_in += tuples as u64;
        self.mem_tuples += tuples as u64;
        let bf = ctx.cfg.tuples_per_page;
        let needed = (self.mem_tuples as f64 / bf as f64).ceil() as u32;
        let mut spill_ios = 0u64;
        if needed > self.mem_pages {
            let grow = needed - self.mem_pages;
            let key = Ctx::mem_key(self.job, self.pe);
            let have = self.reserved.saturating_sub(self.mem_pages);
            if have < grow {
                let (got, writebacks) = ctx.pes[self.pe as usize].buffer.try_grow(key, grow - have);
                ctx.emit_writebacks(self.pe, &writebacks);
                self.reserved += got;
            }
            if self.mem_pages + grow <= self.reserved.max(1) {
                self.mem_pages = needed;
            } else {
                // Spill the open run and start a new one.
                if self.temp_obj == 0 {
                    self.temp_obj = ctx.alloc_temp();
                }
                let pages = self.mem_pages.max(1);
                let disk = ctx.disk_of_page(self.temp_obj, 0);
                ctx.out.push(Action::IoAsync {
                    pe: self.pe,
                    disk,
                    req: IoRequest {
                        object: self.temp_obj,
                        page: self.run_pages,
                        kind: IoKind::Write { pages },
                    },
                });
                self.spill_pages_written += pages as u64;
                self.run_pages += pages as u64;
                spill_ios += 1;
                self.mem_tuples = tuples as u64;
                self.mem_pages = (self.mem_tuples as f64 / bf as f64).ceil() as u32;
            }
        }
        // Run formation: one comparison-insert per tuple.
        let c = ctx.cfg.instr;
        let instr = tuples as u64 * (c.read_tuple + c.hash_tuple) + spill_ios * c.io;
        ctx.cpu(self.pe, instr.max(1), false, self.token(Step::PageCpu));
        if last {
            self.on_phase_end(phase, ctx);
        }
    }

    /// A scan source finished.
    fn on_phase_end(&mut self, _phase: JoinPhase, ctx: &mut Ctx) {
        self.ends_seen += 1;
        debug_assert!(self.ends_seen <= self.srcs);
        if self.ends_seen == self.srcs {
            if self.run_pages > 0 {
                self.state = SState::MergeRead;
                self.merge_page = 0;
                self.advance_merge(ctx);
            } else {
                self.final_sort(ctx);
            }
        }
    }

    fn on_step(&mut self, step: Step, ctx: &mut Ctx) {
        match (self.state, step) {
            (SState::Init, Step::Init) => self.reserve(ctx),
            (_, Step::PageCpu) => {}
            (SState::MergeRead, Step::TempIo) => {
                let c = ctx.cfg.instr;
                self.merge_page += 1;
                let instr = ctx.cfg.tuples_per_page as u64 * c.hash_tuple + c.io;
                // DelayedCpu drives the merge-read loop (PageCpu is the
                // generic no-op for trailing batch completions).
                ctx.cpu(self.pe, instr, false, self.token(Step::DelayedCpu));
            }
            (SState::MergeRead, Step::DelayedCpu) => self.advance_merge(ctx),
            (SState::MergeCpu, Step::DelayedCpu) => self.emit_results(ctx),
            (SState::Committed, Step::TermCpu) => {}
            (s, st) => unreachable!("sort task: step {st:?} in state {s:?}"),
        }
    }

    /// Commit: termination CPU + ack (memory already released).
    fn commit(&mut self, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, SState::Done);
        self.state = SState::Committed;
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
