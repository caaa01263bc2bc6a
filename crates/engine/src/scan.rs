//! Scan subqueries (relation scan, clustered / non-clustered index scan)
//! with PAROP-style redistribution of the output.
//!
//! A [`ScanTask`] runs on one data PE, reads its fragment sequentially
//! (clustered access reads only the qualifying page range; prefetching is
//! exploited by the disk model), filters by selectivity and redistributes
//! qualifying tuples to the consumer set: per-destination 8 KB output
//! buffers are flushed as [`MsgKind::TupleBatch`] messages when full —
//! this per-(source, destination) batching is what makes redistribution
//! overhead grow with the degree of join parallelism (footnote 8 of the
//! paper).
//!
//! With an empty destination set the output streams to the coordinator as
//! [`MsgKind::ResultBatch`] (stand-alone scan queries).

use crate::api::{even_share, Action, JobId, JoinPhase, MsgKind, PeId, Step, TaskId, Token};
use crate::ctx::{object, Ctx};
use dbmodel::btree::{BTreeModel, ScanPlan};
use dbmodel::catalog::{PageAddr, RelationId};
use dbmodel::lock::{LockMode, LockOutcome, TxnToken};
use hardware::IoKind;
use std::rc::Rc;

/// Exact total scan output (tuples) of a clustered-index selection over
/// all fragments — matches what the per-fragment [`ScanTask`] plans emit,
/// including per-fragment rounding.
pub fn expected_scan_output(catalog: &dbmodel::Catalog, rel: RelationId, selectivity: f64) -> u64 {
    catalog
        .fragments(rel)
        .iter()
        .map(|f| ((f.tuples as f64) * selectivity).round() as u64)
        .sum()
}

/// What the scan reads.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanSource {
    /// A fragment of a base relation (addressed by fragment index in the
    /// partition map, not by a PE range — the task's PE is the fragment's
    /// home at job-planning time).
    Fragment {
        relation: RelationId,
        /// Fragment index in the relation's [`dbmodel::RelationPlacement`].
        fragment: u32,
        selectivity: f64,
        access: ScanAccess,
    },
    /// Tuples already in memory at this PE (multi-way join intermediate).
    Memory { tuples: u64 },
}

/// Access path of a fragment scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanAccess {
    /// Full scan: every page read, every tuple examined.
    Full,
    /// Clustered B+-tree: only the qualifying range is read.
    Clustered,
    /// Non-clustered B+-tree: random data page per qualifying tuple.
    NonClustered,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Created,
    WaitLock,
    Init,
    IndexDescend,
    DataLoop,
    Done,
}

/// One scan subquery instance.
#[derive(Debug)]
pub struct ScanTask {
    pub job: JobId,
    pub task_id: TaskId,
    pub pe: PeId,
    pub coord: PeId,
    pub phase: JoinPhase,
    /// Consumers; empty → results to coordinator. Shared by every scan
    /// of one placement (a join at 1000 PEs has ~1000 scans per side).
    pub dests: Rc<[PeId]>,
    source: ScanSource,
    txn: TxnToken,
    /// Per-destination `(weight, credit)` of the deterministic weighted
    /// round-robin; `None` means uniform round-robin. Only skewed
    /// partitioning functions (§7 outlook) send unequal subjoin shares,
    /// so only they allocate this.
    wrr: Option<Box<[(f64, f64)]>>,

    state: State,
    // plan
    index_pages: u32,
    data_pages: u64,
    /// Page offset of this fragment within its PE's page space for the
    /// relation (non-zero only when fragments share a home PE).
    page_base: u64,
    tuples_read_total: u64,
    tuples_out_total: u64,
    rand_access: bool,
    // progress
    idx_done: u32,
    pages_done: u64,
    read_done: u64,
    out_done: u64,
    out_acc: Vec<u32>,
    next_dest: usize,
    io_pending_instr: u64,
    pub pages_io: u64,
}

impl ScanTask {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        job: JobId,
        task_id: TaskId,
        pe: PeId,
        coord: PeId,
        phase: JoinPhase,
        dests: Rc<[PeId]>,
        source: ScanSource,
        txn: TxnToken,
    ) -> ScanTask {
        ScanTask {
            job,
            task_id,
            pe,
            coord,
            phase,
            dests,
            source,
            txn,
            wrr: None,
            state: State::Created,
            index_pages: 0,
            data_pages: 0,
            page_base: 0,
            tuples_read_total: 0,
            tuples_out_total: 0,
            rand_access: false,
            idx_done: 0,
            pages_done: 0,
            read_done: 0,
            out_done: 0,
            out_acc: Vec::new(),
            next_dest: 0,
            io_pending_instr: 0,
            pages_io: 0,
        }
    }

    fn token(&self, step: Step) -> Token {
        Token::new(self.job, self.task_id, step)
    }

    /// Install a skewed partitioning function (weights normalized inside).
    pub fn set_weights(&mut self, weights: &[f64]) {
        debug_assert_eq!(weights.len(), self.dests.len().max(1));
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            self.wrr = Some(weights.iter().map(|w| (w / total, 0.0)).collect());
        }
    }

    /// Compute the access plan for this fragment.
    fn plan(&mut self, ctx: &Ctx) {
        match &self.source {
            ScanSource::Fragment {
                relation,
                fragment,
                selectivity,
                access,
            } => {
                let frag = ctx.catalog.fragment(*relation, *fragment);
                let frag_tuples = frag.tuples;
                let frag_pages = ctx.catalog.fragment_pages(*relation, *fragment);
                self.page_base = ctx.catalog.fragment_page_base(*relation, *fragment);
                let tree = BTreeModel::new(ctx.cfg.btree_fanout, frag_tuples);
                let plan = match access {
                    ScanAccess::Full => {
                        ScanPlan::relation_scan(frag_pages, frag_tuples, *selectivity)
                    }
                    ScanAccess::Clustered => {
                        ScanPlan::clustered_index_scan(tree, frag_pages, frag_tuples, *selectivity)
                    }
                    ScanAccess::NonClustered => {
                        ScanPlan::non_clustered_index_scan(tree, frag_tuples, *selectivity)
                    }
                };
                self.index_pages = plan.index_pages;
                self.data_pages = plan.seq_data_pages + plan.rand_data_pages;
                self.rand_access = plan.rand_data_pages > 0;
                self.tuples_read_total = plan.tuples_read;
                self.tuples_out_total = plan.tuples_out;
            }
            ScanSource::Memory { tuples } => {
                self.index_pages = 0;
                // Process in message-buffer sized batches, one CPU grant per
                // "page" of tuples.
                self.data_pages = tuples.div_ceil(ctx.cfg.tuples_per_page as u64);
                self.rand_access = false;
                self.tuples_read_total = *tuples;
                self.tuples_out_total = *tuples;
            }
        }
        self.out_acc = vec![0; self.dests.len().max(1)];
    }

    /// Entry point: the StartScan message was received.
    pub fn start(&mut self, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, State::Created);
        self.plan(ctx);
        if let ScanSource::Fragment {
            relation, fragment, ..
        } = self.source
        {
            let outcome = ctx.pes[self.pe as usize].locks.lock(
                self.txn,
                object::frag_lock(relation, fragment),
                LockMode::Shared,
            );
            if outcome == LockOutcome::Waiting {
                self.state = State::WaitLock;
                return;
            }
        }
        self.begin_init(ctx);
    }

    /// A lock wait ended.
    pub fn lock_granted(&mut self, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, State::WaitLock);
        self.begin_init(ctx);
    }

    fn begin_init(&mut self, ctx: &mut Ctx) {
        self.state = State::Init;
        ctx.cpu(
            self.pe,
            ctx.cfg.instr.init_txn,
            false,
            self.token(Step::Init),
        );
    }

    /// Dispatch a completion step to the task.
    pub fn on_step(&mut self, step: Step, ctx: &mut Ctx) {
        match (self.state, step) {
            (State::Init, Step::Init) => {
                self.state = State::IndexDescend;
                self.advance_index(ctx);
            }
            (State::IndexDescend, Step::PageIo) => {
                self.idx_done += 1;
                self.advance_index(ctx);
            }
            (State::DataLoop, Step::PageIo) => {
                self.pages_io += 1;
                self.process_page(ctx);
            }
            (State::DataLoop, Step::PageCpu) => {
                self.after_page(ctx);
            }
            (s, st) => unreachable!("scan task: step {st:?} in state {s:?}"),
        }
    }

    /// Descend the B+-tree (random single-page reads through the buffer).
    fn advance_index(&mut self, ctx: &mut Ctx) {
        let relation = match &self.source {
            ScanSource::Fragment { relation, .. } => *relation,
            ScanSource::Memory { .. } => {
                self.state = State::DataLoop;
                self.advance_data(ctx);
                return;
            }
        };
        while self.idx_done < self.index_pages {
            let addr = PageAddr::new(object::index(relation), self.idx_done as u64);
            let waiting = ctx.fix_page(
                self.pe,
                addr,
                false,
                false,
                IoKind::RandRead,
                self.token(Step::PageIo),
            );
            if waiting {
                self.io_pending_instr += ctx.cfg.instr.io;
                return; // resumes at (IndexDescend, PageIo)
            }
            self.idx_done += 1;
        }
        self.state = State::DataLoop;
        self.advance_data(ctx);
    }

    /// Issue the next data page (or finish).
    fn advance_data(&mut self, ctx: &mut Ctx) {
        if self.pages_done >= self.data_pages {
            self.finish(ctx);
            return;
        }
        match &self.source {
            ScanSource::Memory { .. } => {
                // No I/O: straight to CPU.
                self.process_page(ctx);
            }
            ScanSource::Fragment { relation, .. } => {
                let addr = PageAddr::new(object::data(*relation), self.page_base + self.page_no());
                let kind = if self.rand_access {
                    IoKind::RandRead
                } else {
                    IoKind::SeqRead {
                        run_remaining: (self.data_pages - self.pages_done) as u32,
                    }
                };
                let waiting =
                    ctx.fix_page(self.pe, addr, false, false, kind, self.token(Step::PageIo));
                if waiting {
                    self.io_pending_instr += ctx.cfg.instr.io;
                    return; // resumes at (DataLoop, PageIo)
                }
                self.process_page(ctx);
            }
        }
    }

    /// Page number of the current data page. Non-clustered access targets
    /// pseudo-random pages of the fragment (deterministic stride pattern).
    fn page_no(&self) -> u64 {
        if self.rand_access {
            // Deterministic "random" probe: large-stride walk.
            (self.pages_done * 2_654_435_761) % self.data_pages.max(1)
        } else {
            self.pages_done
        }
    }

    /// Charge the CPU for one page worth of work.
    fn process_page(&mut self, ctx: &mut Ctx) {
        let c = &ctx.cfg.instr;
        let bf = ctx.cfg.tuples_per_page as u64;
        let reads = (self.tuples_read_total - self.read_done).min(self.reads_per_page(bf));
        let outs = self.outs_for(reads, bf);
        self.read_done += reads;
        let mut instr = reads * c.read_tuple + outs * (c.hash_tuple + c.write_out);
        if self.io_pending_instr > 0 {
            // CPU overhead of the I/O(s) that produced this page.
            instr += self.io_pending_instr;
            self.io_pending_instr = 0;
        }
        self.stage_outputs(outs);
        ctx.cpu(self.pe, instr.max(1), false, self.token(Step::PageCpu));
    }

    fn reads_per_page(&self, bf: u64) -> u64 {
        match &self.source {
            ScanSource::Fragment { access, .. } => match access {
                ScanAccess::Full => bf,
                // Clustered range scan touches only qualifying tuples;
                // non-clustered reads exactly one tuple per page access.
                ScanAccess::Clustered => bf,
                ScanAccess::NonClustered => 1,
            },
            ScanSource::Memory { .. } => bf,
        }
    }

    fn outs_for(&self, reads: u64, _bf: u64) -> u64 {
        match &self.source {
            ScanSource::Fragment {
                access,
                selectivity,
                ..
            } => match access {
                ScanAccess::Full => {
                    // Filter applies per read tuple; keep global conservation.
                    let remaining_out = self.tuples_out_total - self.out_done;
                    let remaining_pages = self.data_pages - self.pages_done;
                    if remaining_pages <= 1 {
                        remaining_out
                    } else {
                        (((reads as f64) * selectivity).round() as u64).min(remaining_out)
                    }
                }
                ScanAccess::Clustered | ScanAccess::NonClustered => {
                    (self.tuples_out_total - self.out_done).min(reads)
                }
            },
            ScanSource::Memory { .. } => (self.tuples_out_total - self.out_done).min(reads),
        }
    }

    /// Distribute `outs` qualifying tuples over the consumers: uniform
    /// round-robin, or weighted (deterministic WRR) when a skewed
    /// partitioning function is installed.
    ///
    /// Round-robin sends tuple `j` to `(next_dest + j) % k`, so each
    /// destination's count is an [`even_share`] whose one-larger parts
    /// start at the cursor — computed per destination, not per tuple.
    fn stage_outputs(&mut self, outs: u64) {
        self.out_done += outs;
        let k = self.out_acc.len();
        match &mut self.wrr {
            None => {
                let r = (self.next_dest % k) as u32;
                for (i, acc) in self.out_acc.iter_mut().enumerate() {
                    *acc += even_share(outs, k as u32, r, i as u32) as u32;
                }
                self.next_dest += outs as usize;
            }
            Some(wrr) => {
                for _ in 0..outs {
                    let mut best = 0usize;
                    for i in 0..k.min(wrr.len()) {
                        wrr[i].1 += wrr[i].0;
                        if wrr[i].1 > wrr[best].1 {
                            best = i;
                        }
                    }
                    wrr[best].1 -= 1.0;
                    self.out_acc[best] += 1;
                }
            }
        }
    }

    /// After the page CPU: flush any full output buffers, then next page.
    fn after_page(&mut self, ctx: &mut Ctx) {
        self.flush(ctx, false);
        self.pages_done += 1;
        self.advance_data(ctx);
    }

    fn flush(&mut self, ctx: &mut Ctx, finishing: bool) {
        for i in 0..self.out_acc.len() {
            self.flush_dest(ctx, i, finishing);
        }
    }

    /// Send destination `i`'s full output buffers (and, when `finishing`,
    /// its partial one).
    fn flush_dest(&mut self, ctx: &mut Ctx, i: usize, finishing: bool) {
        let bf = ctx.cfg.tuples_per_page;
        while self.out_acc[i] >= bf || (finishing && self.out_acc[i] > 0) {
            let t = self.out_acc[i].min(bf);
            self.out_acc[i] -= t;
            let bytes = ctx.cfg.batch_bytes(t, 400);
            if self.dests.is_empty() {
                ctx.send_to(
                    self.pe,
                    self.coord,
                    self.job,
                    crate::api::COORD_TASK,
                    bytes,
                    MsgKind::ResultBatch { tuples: t },
                );
            } else {
                // The very last batch of this pair carries the
                // end-of-stream marker (no separate PhaseEnd message).
                let last = finishing && self.out_acc[i] == 0;
                ctx.send_to(
                    self.pe,
                    self.dests[i],
                    self.job,
                    i as TaskId, // join task index = position in dests
                    bytes,
                    MsgKind::TupleBatch {
                        phase: self.phase,
                        tuples: t,
                        last,
                    },
                );
            }
            if self.out_acc[i] == 0 {
                break;
            }
        }
    }

    /// All pages processed: flush partials (carrying end-of-stream flags)
    /// and send explicit PhaseEnd only where no partial batch remained.
    ///
    /// The fragment lock is released **here**, not at commit: the scan is
    /// read-only and re-reads nothing, so holding the shared lock to the
    /// end of the whole query would only serialize pending fragment
    /// migrations behind multi-second joins.
    fn finish(&mut self, ctx: &mut Ctx) {
        if let Some(object) = self.lock_object() {
            let pe = self.pe;
            for (txn, obj) in ctx.pes[pe as usize].locks.release(self.txn, object) {
                ctx.out.push(Action::LockGranted {
                    job: simkit::slab::SlabKey::from_raw(txn.id),
                    pe,
                    object: obj,
                });
            }
        }
        if self.dests.is_empty() {
            self.flush(ctx, true);
            ctx.send_to(
                self.pe,
                self.coord,
                self.job,
                crate::api::COORD_TASK,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::ScanDone,
            );
        } else {
            // All final batches go out first, then the PhaseEnds in index
            // order. A drained slot records whether its destination still
            // needs one (1) or got the end-of-stream flag on a batch (0).
            for i in 0..self.out_acc.len() {
                let needs_explicit = self.out_acc[i] == 0;
                self.flush_dest(ctx, i, true);
                self.out_acc[i] = u32::from(needs_explicit);
            }
            for i in 0..self.out_acc.len() {
                if self.out_acc[i] == 1 {
                    ctx.send_to(
                        self.pe,
                        self.dests[i],
                        self.job,
                        i as TaskId,
                        ctx.cfg.ctrl_msg_bytes,
                        MsgKind::PhaseEnd { phase: self.phase },
                    );
                }
            }
        }
        // The output buffers are empty for good.
        self.out_acc = Vec::new();
        self.wrr = None;
        self.state = State::Done;
    }

    /// The commit message arrived: release local locks.
    /// Returns lock grants to forward as actions.
    pub fn commit(&mut self, ctx: &mut Ctx) -> Vec<(TxnToken, u64)> {
        ctx.pes[self.pe as usize].locks.release_all(self.txn)
    }

    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// The fragment lock this scan takes (None for in-memory sources);
    /// used by job coordinators to route lock grants to the right task.
    pub fn lock_object(&self) -> Option<u64> {
        match &self.source {
            ScanSource::Fragment {
                relation, fragment, ..
            } => Some(object::frag_lock(*relation, *fragment)),
            ScanSource::Memory { .. } => None,
        }
    }

    /// One-line diagnostic summary.
    pub fn debug_state(&self) -> String {
        format!(
            "scan pe={} st={:?} phase={:?} idx={}/{} pages={}/{} out={}/{}",
            self.pe,
            self.state,
            self.phase,
            self.idx_done,
            self.index_pages,
            self.pages_done,
            self.data_pages,
            self.out_done,
            self.tuples_out_total,
        )
    }

    pub fn tuples_out(&self) -> u64 {
        self.out_done
    }

    /// What the scan reads.
    pub fn source(&self) -> &ScanSource {
        &self.source
    }

    /// The transaction the scan's locks belong to.
    pub fn txn(&self) -> TxnToken {
        self.txn
    }

    /// Normalized weight of destination `i` under a skewed partitioning
    /// function (`None`: uniform round-robin).
    pub fn weight(&self, i: usize) -> Option<f64> {
        self.wrr.as_ref().map(|w| w[i].0)
    }

    /// Output-side slots the scan holds on the heap (per-destination
    /// accumulators and weighted round-robin state); zero once finished.
    pub fn output_slots(&self) -> usize {
        self.out_acc.capacity() + self.wrr.as_ref().map_or(0, |w| w.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::slab::SlabKey;
    use simkit::SimTime;

    fn scan_to(k: u32) -> ScanTask {
        ScanTask::new(
            SlabKey::DANGLING,
            0,
            0,
            0,
            JoinPhase::Build,
            (0..k).collect::<Vec<PeId>>().into(),
            ScanSource::Memory { tuples: 0 },
            TxnToken {
                id: 0,
                birth: SimTime::ZERO,
            },
        )
    }

    /// Stage `outs` from `cursor` and compare with the per-tuple loop
    /// `out_acc[next_dest % k] += 1; next_dest += 1` (the oracle).
    fn check_split(outs: u64, k: u32, cursor: usize, pre: &[u32]) -> Result<(), TestCaseError> {
        let mut scan = scan_to(k);
        scan.out_acc = pre[..k as usize].to_vec();
        scan.next_dest = cursor;
        let mut oracle = scan.out_acc.clone();
        let mut next = cursor;
        for _ in 0..outs {
            oracle[next % k as usize] += 1;
            next += 1;
        }
        scan.stage_outputs(outs);
        prop_assert_eq!(&scan.out_acc, &oracle);
        prop_assert_eq!(scan.next_dest, next);
        prop_assert_eq!(scan.out_done, outs);
        Ok(())
    }

    proptest! {
        /// The arithmetic round-robin split stages exactly what the
        /// per-tuple loop would, from any cursor, and leaves the same
        /// cursor.
        #[test]
        fn even_split_matches_per_tuple_round_robin(
            outs in 0u64..10_001,
            k in 1u32..65,
            cursor in 0usize..1_000_000,
            pre in collection::vec(0u32..100, 64),
        ) {
            check_split(outs, k, cursor, &pre)?;
        }
    }

    /// The range ends the random draw is unlikely to hit exactly.
    #[test]
    fn even_split_matches_at_the_edges() {
        let pre = [7u32; 64];
        for k in [1u32, 2, 63, 64] {
            for outs in [
                0u64,
                1,
                u64::from(k) - 1,
                u64::from(k),
                u64::from(k) + 1,
                10_000,
            ] {
                for cursor in [0usize, k as usize - 1, k as usize, 999_999] {
                    check_split(outs, k, cursor, &pre).unwrap();
                }
            }
        }
    }
}
