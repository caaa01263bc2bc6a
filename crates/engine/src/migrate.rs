//! Online fragment migration (the data traffic behind rebalancing).
//!
//! A [`MigrationJob`] re-homes one fragment from its current PE to a
//! target PE, modelled as *real* resource consumption rather than an
//! instantaneous map flip:
//!
//! 1. take an **exclusive fragment lock** at the source PE — running
//!    scans of the fragment (shared holders) finish first, and new scans
//!    block until the migration commits;
//! 2. read every fragment page sequentially from the source disks;
//! 3. ship each page over the network (send/receive CPU charged by the
//!    regular message machinery);
//! 4. write the pages at the destination disks;
//! 5. release the lock and complete — the simulator then flips the
//!    fragment's home in the `PartitionMap` and refreshes the broker's
//!    locality view.
//!
//! The catalog keeps addressing the fragment at the source PE for the
//! whole flight (readers blocked by the lock never observe a half-moved
//! fragment).

use crate::api::{Action, InKind, Input, JobId, MsgKind, PeId, Step, Token, COORD_TASK};
use crate::ctx::{object, Ctx};
use dbmodel::catalog::RelationId;
use dbmodel::lock::{LockMode, LockOutcome, TxnToken};
use hardware::{IoKind, IoRequest};
use simkit::slab::SlabKey;
use simkit::{SimDur, SimTime};

/// Retry cadence while the fragment is busy with scans.
const LOCK_RETRY: SimDur = SimDur::from_millis(200);
/// Give up after this many busy polls (the controller will re-plan).
const MAX_LOCK_ATTEMPTS: u32 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    Queued,
    WaitLock,
    Init,
    Transfer,
    Release,
    Done,
}

/// One in-flight fragment migration.
pub struct MigrationJob {
    pub relation: RelationId,
    pub fragment: u32,
    pub from: PeId,
    pub to: PeId,
    /// Tuples being moved (recorded in `Summary::tuples_moved`).
    pub tuples: u64,
    pub submitted: SimTime,

    state: MState,
    pages: u64,
    /// Source-side page offset of the fragment (its current home).
    page_base: u64,
    /// Destination-side page offset: what scans will compute once the
    /// fragment's home flips (sum of lower-indexed co-resident fragments
    /// already at the target PE).
    dest_base: u64,
    /// Reads issued so far (a window of them is kept in flight so the
    /// source PE's striped disks work in parallel).
    pages_issued: u64,
    /// Read completions shipped to the destination.
    pages_sent: u64,
    /// Batches received at the destination (addresses the writes; writes
    /// may still be in flight, so this can run ahead of completions).
    pages_received: u64,
    pages_written: u64,
    lock_attempts: u32,
    transferred: bool,
}

impl MigrationJob {
    pub fn new(
        relation: RelationId,
        fragment: u32,
        from: PeId,
        to: PeId,
        tuples: u64,
        submitted: SimTime,
    ) -> MigrationJob {
        MigrationJob {
            relation,
            fragment,
            from,
            to,
            tuples,
            submitted,
            state: MState::Queued,
            pages: 0,
            page_base: 0,
            dest_base: 0,
            pages_issued: 0,
            pages_sent: 0,
            pages_received: 0,
            pages_written: 0,
            lock_attempts: 0,
            transferred: false,
        }
    }

    /// Did the transfer run? `false` when the migration gave up on a
    /// persistently busy fragment — the caller must then leave the
    /// partition map untouched.
    pub fn transferred(&self) -> bool {
        self.transferred
    }

    fn txn(&self, job: JobId) -> TxnToken {
        TxnToken {
            id: job.to_raw(),
            birth: self.submitted,
        }
    }

    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        debug_assert_eq!(input.task, COORD_TASK);
        match (self.state, input.kind) {
            (MState::Queued, InKind::Start) => {
                self.pages = ctx.catalog.fragment_pages(self.relation, self.fragment);
                self.page_base = ctx.catalog.fragment_page_base(self.relation, self.fragment);
                // Write where post-flip scans will look: past the pages of
                // lower-indexed fragments already homed at the target.
                // (Higher-indexed co-residents shift on the flip — cache
                // aliasing from that is accepted modeling slack.)
                self.dest_base = ctx
                    .catalog
                    .fragments(self.relation)
                    .iter()
                    .enumerate()
                    .filter(|&(i, f)| (i as u32) < self.fragment && f.pe == self.to)
                    .map(|(_, f)| {
                        f.tuples
                            .div_ceil(ctx.catalog.relation(self.relation).blocking_factor as u64)
                    })
                    .sum();
                self.try_lock(job, ctx);
            }
            (MState::WaitLock, InKind::Alarm { .. }) => self.try_lock(job, ctx),
            (MState::Init, InKind::Step(Step::Init)) => {
                self.state = MState::Transfer;
                if self.pages == 0 {
                    // Degenerate empty fragment: nothing to ship.
                    self.finish_transfer(job, ctx);
                    return;
                }
                // Prime a window of reads so the PE's striped disks work
                // in parallel (one stripe cycle in flight).
                let window = (ctx.cfg.disks_per_pe * ctx.cfg.disk_stripe_pages).max(1) as u64;
                for _ in 0..window.min(self.pages) {
                    self.issue_read(job, ctx);
                }
            }
            (MState::Transfer, InKind::Step(Step::PageIo)) => {
                // A source page is in memory: ship it, top up the window.
                self.pages_sent += 1;
                ctx.send_to(
                    self.from,
                    self.to,
                    job,
                    COORD_TASK,
                    ctx.cfg.page_bytes,
                    MsgKind::MigrateBatch {
                        last: self.pages_sent == self.pages,
                    },
                );
                if self.pages_issued < self.pages {
                    self.issue_read(job, ctx);
                }
            }
            (MState::Transfer, InKind::Msg(msg)) => match msg.kind {
                MsgKind::MigrateBatch { .. } => {
                    // Write the received page at the destination (count
                    // arrivals, not completions: several writes may be in
                    // flight and each needs its own page address).
                    let page = self.dest_base + self.pages_received;
                    self.pages_received += 1;
                    ctx.out.push(Action::Io {
                        pe: self.to,
                        disk: ctx.disk_of_page(object::data(self.relation), page),
                        req: IoRequest {
                            object: object::data(self.relation),
                            page,
                            kind: IoKind::Write { pages: 1 },
                        },
                        token: Token::new(job, COORD_TASK, Step::TempIo),
                    });
                }
                MsgKind::MigrateDone => self.finish_transfer(job, ctx),
                other => unreachable!("migration: message {other:?}"),
            },
            (MState::Transfer, InKind::Step(Step::TempIo)) => {
                self.pages_written += 1;
                if self.pages_written == self.pages {
                    ctx.send_to(
                        self.to,
                        self.from,
                        job,
                        COORD_TASK,
                        ctx.cfg.ctrl_msg_bytes,
                        MsgKind::MigrateDone,
                    );
                }
            }
            (MState::Release, InKind::Step(Step::TermCpu)) => {
                self.state = MState::Done;
                ctx.out.push(Action::JobDone { job });
            }
            (s, k) => unreachable!("migration: input {k:?} in state {s:?}"),
        }
    }

    /// Poll for the exclusive fragment lock. The migration never *queues*
    /// for it: queuing would make every newly arriving scan wait behind
    /// the X request, and — since a join's scans hold one fragment while
    /// waiting for another — two in-flight migrations could close a
    /// genuine deadlock cycle through two joins. Try-lock + timed retry
    /// means the migration only ever holds the lock outright, so it can
    /// never participate in a wait cycle.
    fn try_lock(&mut self, job: JobId, ctx: &mut Ctx) {
        let txn = self.txn(job);
        let outcome = ctx.pes[self.from as usize].locks.lock(
            txn,
            object::frag_lock(self.relation, self.fragment),
            LockMode::Exclusive,
        );
        if outcome == LockOutcome::Waiting {
            // Withdraw the queued request entirely and poll again later.
            let grants = ctx.pes[self.from as usize].locks.release_all(txn);
            for (t, obj) in grants {
                ctx.out.push(Action::LockGranted {
                    job: SlabKey::from_raw(t.id),
                    pe: self.from,
                    object: obj,
                });
            }
            self.lock_attempts += 1;
            if self.lock_attempts >= MAX_LOCK_ATTEMPTS {
                // Persistently busy: abandon; the controller re-plans.
                self.state = MState::Done;
                ctx.out.push(Action::JobDone { job });
                return;
            }
            self.state = MState::WaitLock;
            ctx.out.push(Action::Alarm {
                job,
                pe: self.from,
                after: LOCK_RETRY,
            });
            return;
        }
        self.begin(job, ctx);
    }

    /// Lock held: charge the setup CPU at the source.
    fn begin(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = MState::Init;
        self.transferred = true;
        ctx.cpu(
            self.from,
            ctx.cfg.instr.init_txn,
            false,
            Token::new(job, COORD_TASK, Step::Init),
        );
    }

    /// Issue the next sequential source-page read (buffer bypassed: a bulk
    /// utility read, not a cached access).
    fn issue_read(&mut self, job: JobId, ctx: &mut Ctx) {
        let page = self.page_base + self.pages_issued;
        let remaining = self.pages - self.pages_issued;
        self.pages_issued += 1;
        ctx.out.push(Action::Io {
            pe: self.from,
            disk: ctx.disk_of_page(object::data(self.relation), page),
            req: IoRequest {
                object: object::data(self.relation),
                page,
                kind: IoKind::SeqRead {
                    run_remaining: remaining as u32,
                },
            },
            token: Token::new(job, COORD_TASK, Step::PageIo),
        });
    }

    /// All pages durable at the destination: release the fragment lock
    /// (waking blocked scans) and terminate at the source.
    fn finish_transfer(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = MState::Release;
        let grants = ctx.pes[self.from as usize].locks.release_all(self.txn(job));
        for (txn, obj) in grants {
            ctx.out.push(Action::LockGranted {
                job: SlabKey::from_raw(txn.id),
                pe: self.from,
                object: obj,
            });
        }
        ctx.cpu(
            self.from,
            ctx.cfg.instr.term_txn,
            false,
            Token::new(job, COORD_TASK, Step::TermCpu),
        );
    }
}
