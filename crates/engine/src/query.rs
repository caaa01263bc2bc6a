//! Update statements (with and without index support), a query type of
//! §4 that runs at one PE. The other single-relation queries, the
//! relation and index scans, run under [`crate::coordinator`].

use crate::api::{Action, InKind, Input, JobId, PeId, Step, Token, COORD_TASK};
use crate::ctx::{object, Ctx};
use dbmodel::catalog::{PageAddr, RelationId};
use dbmodel::lock::{LockMode, LockOutcome, TxnToken};
use dbmodel::log::ForceOutcome;
use hardware::IoKind;
use simkit::slab::SlabKey;
use simkit::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QState {
    Queued,
    Init,
    Running,
    Commit,
    Done,
}

/// An update statement: locate `tuples` tuples (via the index or by a full
/// fragment scan) on the coordinator's local fragment, update them, force
/// the log.
pub struct UpdateJob {
    pub class: u32,
    pub pe: PeId,
    pub relation: RelationId,
    pub tuples: u32,
    pub via_index: bool,
    pub submitted: SimTime,

    state: QState,
    updated: u32,
    pending_ios: u32,
    io_instr: u64,
    scan_page: u64,
    seed: u64,
}

impl UpdateJob {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        class: u32,
        pe: PeId,
        relation: RelationId,
        tuples: u32,
        via_index: bool,
        submitted: SimTime,
        seed: u64,
    ) -> UpdateJob {
        UpdateJob {
            class,
            pe,
            relation,
            tuples,
            via_index,
            submitted,
            state: QState::Queued,
            updated: 0,
            pending_ios: 0,
            io_instr: 0,
            scan_page: 0,
            seed,
        }
    }

    fn txn(&self, job: JobId) -> TxnToken {
        TxnToken {
            id: job.to_raw(),
            birth: self.submitted,
        }
    }

    fn next_rand(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let mut z = self.seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    }

    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        debug_assert_eq!(input.task, COORD_TASK);
        match (self.state, input.kind) {
            (QState::Queued, InKind::Start) => {
                self.state = QState::Init;
                ctx.cpu(
                    self.pe,
                    ctx.cfg.instr.init_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::Init),
                );
            }
            (QState::Init, InKind::Step(Step::Init)) => {
                self.state = QState::Running;
                self.advance(job, ctx);
            }
            (QState::Running, InKind::Step(Step::PageIo)) => {
                debug_assert!(self.pending_ios > 0);
                self.pending_ios -= 1;
                if self.pending_ios == 0 {
                    self.charge_cpu(job, ctx);
                }
            }
            (QState::Running, InKind::Step(Step::PageCpu)) => {
                self.advance(job, ctx);
            }
            (QState::Running, InKind::LockGrant { .. }) => {
                self.fetch_target(job, ctx);
            }
            (QState::Commit, InKind::Step(Step::LogIo)) => {
                let pe = self.pe;
                let grants = ctx.pes[pe as usize].locks.release_all(self.txn(job));
                for (txn, obj) in grants {
                    ctx.out.push(Action::LockGranted {
                        job: SlabKey::from_raw(txn.id),
                        pe,
                        object: obj,
                    });
                }
                ctx.cpu(
                    pe,
                    ctx.cfg.instr.term_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::TermCpu),
                );
            }
            (QState::Commit, InKind::Step(Step::TermCpu)) => {
                self.state = QState::Done;
                ctx.out.push(Action::JobDone { job });
            }
            (s, k) => unreachable!("update job: {k:?} in {s:?}"),
        }
    }

    /// Advance to the next update target (or commit).
    fn advance(&mut self, job: JobId, ctx: &mut Ctx) {
        if self.updated >= self.tuples {
            self.state = QState::Commit;
            let pe = &mut ctx.pes[self.pe as usize];
            pe.log.append(self.tuples + 1);
            match pe.log.force(ctx.now) {
                ForceOutcome::Write { pages } => ctx.out.push(Action::LogWrite {
                    pe: self.pe,
                    pages,
                    token: Token::new(job, COORD_TASK, Step::LogIo),
                }),
                ForceOutcome::Joined => ctx.pes[self.pe as usize].log_waiters.push(job),
            }
            return;
        }
        let frag_tuples = ctx.catalog.tuples_at(self.relation, self.pe).max(1);
        let tuple = self.next_rand() % frag_tuples;
        let lock_obj = object::tuple_lock(self.relation, tuple);
        if ctx.pes[self.pe as usize]
            .locks
            .lock(self.txn(job), lock_obj, LockMode::Exclusive)
            == LockOutcome::Waiting
        {
            return; // resumed by LockGrant
        }
        self.fetch_target(job, ctx);
    }

    /// Fetch the pages needed to update one tuple.
    fn fetch_target(&mut self, job: JobId, ctx: &mut Ctx) {
        let frag_tuples = ctx.catalog.tuples_at(self.relation, self.pe);
        let frag_pages = ctx.catalog.pages_at(self.relation, self.pe).max(1);
        self.pending_ios = 0;
        self.io_instr = 0;
        let token = Token::new(job, COORD_TASK, Step::PageIo);
        if self.via_index {
            let tuple = self.next_rand() % frag_tuples.max(1);
            let tree = dbmodel::btree::BTreeModel::new(ctx.cfg.btree_fanout, frag_tuples);
            for lvl in 0..tree.height() {
                let addr = PageAddr::new(object::index(self.relation), lvl as u64);
                if ctx.fix_page(self.pe, addr, false, false, IoKind::RandRead, token.clone()) {
                    self.pending_ios += 1;
                    self.io_instr += ctx.cfg.instr.io;
                }
            }
            let data = PageAddr::new(object::data(self.relation), tuple % frag_pages);
            if ctx.fix_page(self.pe, data, true, false, IoKind::RandRead, token) {
                self.pending_ios += 1;
                self.io_instr += ctx.cfg.instr.io;
            }
        } else {
            // No index: sequential walk of the fragment until the target.
            let addr = PageAddr::new(object::data(self.relation), self.scan_page % frag_pages);
            self.scan_page += 1;
            if ctx.fix_page(
                self.pe,
                addr,
                true,
                false,
                IoKind::SeqRead {
                    run_remaining: (frag_pages - (self.scan_page - 1) % frag_pages) as u32,
                },
                token,
            ) {
                self.pending_ios += 1;
                self.io_instr += ctx.cfg.instr.io;
            }
        }
        if self.pending_ios == 0 {
            self.charge_cpu(job, ctx);
        }
    }

    fn charge_cpu(&mut self, job: JobId, ctx: &mut Ctx) {
        let c = ctx.cfg.instr;
        let instr = c.read_tuple + c.write_out + self.io_instr;
        self.io_instr = 0;
        self.updated += 1;
        ctx.cpu(
            self.pe,
            instr,
            false,
            Token::new(job, COORD_TASK, Step::PageCpu),
        );
    }
}
