//! OLTP transactions (debit-credit style, §5.1/§5.3).
//!
//! Affinity-routed: the whole transaction runs on its arrival PE against
//! the local fragment of the OLTP relation. Each of the `selects` accesses
//! traverses the non-clustered B+-tree (upper levels buffer-resident, leaf
//! and data pages competing for frames with everything else), updates the
//! tuple in place (dirty pages written back asynchronously on eviction),
//! appends log records and forces the log at commit.
//!
//! OLTP page fixes run with **priority**: under memory pressure they steal
//! frames from co-located join working spaces (the PPHJ contract), which
//! is the mechanism behind the heterogeneous-workload results of Fig. 9.

use crate::api::{Action, InKind, Input, JobId, PeId, Step, Token, COORD_TASK};
use crate::ctx::{object, Ctx};
use dbmodel::btree::BTreeModel;
use dbmodel::catalog::{PageAddr, RelationId};
use dbmodel::lock::{LockMode, LockOutcome, TxnToken};
use dbmodel::log::ForceOutcome;
use hardware::IoKind;
use simkit::slab::SlabKey;
use simkit::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OState {
    Queued,
    Init,
    Access,
    WaitLock,
    LogForce,
    Term,
    Done,
}

/// One OLTP transaction.
pub struct OltpJob {
    pub class: u32,
    pub pe: PeId,
    pub relation: RelationId,
    pub selects: u32,
    pub updates: u32,
    pub submitted: SimTime,

    state: OState,
    access_done: u32,
    /// Pages still to fetch synchronously for the current access.
    pending_ios: u32,
    io_instr: u64,
    tuple_seed: u64,
    /// The tuple of the current access: locked first, then read (and, for
    /// an update, written) through the index.
    tuple: u64,
}

impl OltpJob {
    pub fn new(
        class: u32,
        pe: PeId,
        relation: RelationId,
        selects: u32,
        updates: u32,
        submitted: SimTime,
        tuple_seed: u64,
    ) -> OltpJob {
        OltpJob {
            class,
            pe,
            relation,
            selects,
            updates,
            submitted,
            state: OState::Queued,
            access_done: 0,
            pending_ios: 0,
            io_instr: 0,
            tuple_seed,
            tuple: 0,
        }
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
            (OState::Queued, InKind::Start) => {
                self.state = OState::Init;
                ctx.cpu(
                    self.pe,
                    ctx.cfg.instr.init_txn + ctx.cfg.oltp_extra_instr,
                    true,
                    Token::new(job, COORD_TASK, Step::Init),
                );
            }
            (OState::Init, InKind::Step(Step::Init)) => {
                self.state = OState::Access;
                self.next_access(job, ctx);
            }
            (OState::WaitLock, InKind::LockGrant { .. }) => {
                self.state = OState::Access;
                self.do_access(job, ctx);
            }
            (OState::Access, InKind::Step(Step::PageIo)) => {
                debug_assert!(self.pending_ios > 0);
                self.pending_ios -= 1;
                self.continue_access(job, ctx);
            }
            (OState::Access, InKind::Step(Step::PageCpu)) => {
                self.access_done += 1;
                self.next_access(job, ctx);
            }
            (OState::LogForce, InKind::Step(Step::LogIo)) => {
                self.after_log(job, ctx);
            }
            (OState::Term, InKind::Step(Step::TermCpu)) => {
                self.state = OState::Done;
                ctx.out.push(Action::JobDone { job });
            }
            (s, k) => unreachable!("oltp: input {k:?} in state {s:?}"),
        }
    }

    /// Begin the next index select (or move to commit).
    fn next_access(&mut self, job: JobId, ctx: &mut Ctx) {
        if self.access_done >= self.selects {
            self.start_log(job, ctx);
            return;
        }
        // Lock the target tuple (X for updates, S otherwise); the access
        // that follows, at once or after a lock wait, reads this tuple.
        let frag_tuples = ctx.catalog.tuples_at(self.relation, self.pe).max(1);
        self.tuple = self.pick_tuple(frag_tuples);
        let mode = if self.access_done < self.updates {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        let lock_obj = object::tuple_lock(self.relation, self.tuple);
        let outcome = ctx.pes[self.pe as usize]
            .locks
            .lock(self.txn(job), lock_obj, mode);
        if outcome == LockOutcome::Waiting {
            self.state = OState::WaitLock;
            return;
        }
        self.do_access(job, ctx);
    }

    fn pick_tuple(&mut self, frag_tuples: u64) -> u64 {
        // SplitMix-style deterministic per-access tuple choice.
        self.tuple_seed = self
            .tuple_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678_9ABC_DEF1);
        let mut z = self.tuple_seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        z % frag_tuples
    }

    /// Fix the locked tuple's index path + data page; queue the misses
    /// sequentially.
    fn do_access(&mut self, job: JobId, ctx: &mut Ctx) {
        let frag_tuples = ctx.catalog.tuples_at(self.relation, self.pe).max(1);
        let frag_pages = ctx.catalog.pages_at(self.relation, self.pe).max(1);
        let tree = BTreeModel::new(ctx.cfg.btree_fanout, frag_tuples);
        let leaf = self.tuple / ctx.cfg.btree_fanout as u64;
        let data_page = self.tuple % frag_pages;

        self.pending_ios = 0;
        self.io_instr = 0;
        let token = Token::new(job, COORD_TASK, Step::PageIo);
        // Upper index levels: pages 0..h-1 of the index object (tiny, hot).
        for lvl in 0..tree.height().saturating_sub(1) {
            let addr = PageAddr::new(object::index(self.relation), lvl as u64);
            if ctx.fix_page(self.pe, addr, false, true, IoKind::RandRead, token.clone()) {
                self.pending_ios += 1;
                self.io_instr += ctx.cfg.instr.io;
            }
        }
        // Leaf page (offset past the upper levels).
        let leaf_addr = PageAddr::new(object::index(self.relation), 64 + leaf);
        if ctx.fix_page(
            self.pe,
            leaf_addr,
            false,
            true,
            IoKind::RandRead,
            token.clone(),
        ) {
            self.pending_ios += 1;
            self.io_instr += ctx.cfg.instr.io;
        }
        // Data page, dirtied by the update.
        let write = self.access_done < self.updates;
        let data_addr = PageAddr::new(object::data(self.relation), data_page);
        if ctx.fix_page(self.pe, data_addr, write, true, IoKind::RandRead, token) {
            self.pending_ios += 1;
            self.io_instr += ctx.cfg.instr.io;
        }
        self.continue_access(job, ctx);
    }

    /// When all page fetches for this access have completed, charge its CPU.
    fn continue_access(&mut self, job: JobId, ctx: &mut Ctx) {
        if self.pending_ios > 0 {
            return;
        }
        let c = ctx.cfg.instr;
        let write = self.access_done < self.updates;
        let instr = c.read_tuple + if write { c.write_out } else { 0 } + self.io_instr;
        self.io_instr = 0;
        ctx.cpu(
            self.pe,
            instr,
            true,
            Token::new(job, COORD_TASK, Step::PageCpu),
        );
    }

    /// All accesses done: append log records and force the log.
    fn start_log(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = OState::LogForce;
        let pe = &mut ctx.pes[self.pe as usize];
        pe.log.append(self.updates + 1); // updates + commit record
        match pe.log.force(ctx.now) {
            ForceOutcome::Write { pages } => {
                ctx.out.push(Action::LogWrite {
                    pe: self.pe,
                    pages,
                    token: Token::new(job, COORD_TASK, Step::LogIo),
                });
            }
            ForceOutcome::Joined => {
                pe.log_waiters.push(job);
            }
        }
    }

    /// Log durable: release locks, terminate.
    fn after_log(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = OState::Term;
        let pe = self.pe;
        let grants = ctx.pes[pe as usize].locks.release_all(self.txn(job));
        for (txn, object) in grants {
            ctx.out.push(Action::LockGranted {
                job: SlabKey::from_raw(txn.id),
                pe,
                object,
            });
        }
        ctx.cpu(
            pe,
            ctx.cfg.instr.term_txn,
            true,
            Token::new(job, COORD_TASK, Step::TermCpu),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::EngineConfig;
    use crate::Pe;
    use dbmodel::catalog::{Catalog, IndexKind, Relation};
    use dbmodel::log::LogParams;
    use dbmodel::RelationPlacement;
    use simkit::{SimRng, Slab};

    fn account_catalog(tuples: u64) -> Catalog {
        let mut c = Catalog::new();
        c.add(
            Relation {
                id: RelationId(0),
                name: "ACCOUNT".into(),
                tuples,
                tuple_bytes: 400,
                blocking_factor: 20,
                index: IndexKind::NonClusteredBTree,
                memory_resident: false,
                pinned: true,
            },
            RelationPlacement::uniform(tuples, 0, 1),
        );
        c
    }

    /// Two-phase locking covers the updated tuple: the X lock an update
    /// takes is on the tuple whose leaf and data page it then reads, so a
    /// second transaction asking for that tuple waits.
    #[test]
    fn update_locks_the_tuple_it_accesses() {
        let catalog = account_catalog(1_000_000);
        let cfg = EngineConfig::default();
        let mut pes = vec![Pe::new(0, 1_000, 1, 64, LogParams::default())];
        let (mut rng, mut temp, mut out) = (SimRng::new(1), 0, Vec::new());
        let mut jobs: Slab<()> = Slab::new();
        let (id, other) = (jobs.insert(()), jobs.insert(()));
        for seed in 0..20 {
            let mut job = OltpJob::new(0, 0, RelationId(0), 1, 1, SimTime::ZERO, seed);
            let mut ctx = Ctx {
                now: SimTime::ZERO,
                cfg: &cfg,
                catalog: &catalog,
                pes: &mut pes,
                rng: &mut rng,
                out: &mut out,
                temp_counter: &mut temp,
                control_pe: 0,
            };
            for kind in [InKind::Start, InKind::Step(Step::Init)] {
                job.handle(
                    id,
                    Input {
                        task: COORD_TASK,
                        kind,
                    },
                    &mut ctx,
                );
            }
            assert_eq!(job.state, OState::Access, "an uncontended lock is granted");
            let pages = catalog.pages_at(RelationId(0), 0);
            let read: Vec<(u64, u64)> = out
                .drain(..)
                .filter_map(|a| match a {
                    Action::Io { req, .. } => Some((req.object, req.page)),
                    _ => None,
                })
                .collect();
            let leaf = 64 + job.tuple / cfg.btree_fanout as u64;
            assert!(
                read.contains(&(object::index(RelationId(0)), leaf)),
                "{read:?}"
            );
            assert!(read.contains(&(object::data(RelationId(0)), job.tuple % pages)));
            let locks = &mut pes[0].locks;
            let probe = TxnToken {
                id: other.to_raw(),
                birth: SimTime::ZERO,
            };
            let obj = object::tuple_lock(RelationId(0), job.tuple);
            assert_eq!(
                locks.lock(probe, obj, LockMode::Shared),
                LockOutcome::Waiting
            );
            // Back to an empty lock table for the next seed.
            locks.release_all(job.txn(id));
            locks.release_all(probe);
            assert!(locks.is_quiescent());
        }
    }
}
