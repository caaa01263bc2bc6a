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
//!
//! Every scan of one side of a job (the inner or outer input of a join,
//! the input of a sort, a scan query) runs the same selection for the
//! same transaction and feeds the same consumers. That plan is one
//! [`ScanSide`], kept by the owning job and passed to each scan's
//! handlers; a [`ScanTask`] holds only its fragment's state. At 1000 PEs
//! a join holds about a thousand scans per side, so the shared plan and
//! `u32` page counters keep a scan small (`scan_task_stays_within_104_bytes`
//! pins its size). Its per-destination output state is allocated at start
//! and freed at finish.

use crate::api::{
    even_share, Action, InKind, JobId, JoinPhase, MsgKind, Nodes, PeId, Step, TaskId, Token,
    COORD_TASK,
};
use crate::ctx::{object, Ctx};
use dbmodel::btree::{BTreeModel, ScanPlan};
use dbmodel::catalog::{PageAddr, RelationId};
use dbmodel::lock::{LockMode, LockOutcome, TxnToken};
use hardware::IoKind;
use simkit::slab::SlabKey;

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

/// What the scans of one side read.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanSource {
    /// A base relation: each scan reads one fragment, addressed by its
    /// index in the partition map (the task's PE is the fragment's home
    /// at job-planning time).
    Relation {
        relation: RelationId,
        selectivity: f64,
        access: ScanAccess,
    },
    /// Tuples already in memory at the scan's PE (multi-way join
    /// intermediate).
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

/// The plan every scan of one side of a job shares.
#[derive(Debug)]
pub struct ScanSide {
    pub job: JobId,
    pub coord: PeId,
    pub phase: JoinPhase,
    /// Consumers; empty → results to coordinator. Scan output to
    /// destination `i` goes to task `i` (the job's consumer tasks come
    /// first).
    pub dests: Nodes,
    pub txn: TxnToken,
    pub source: ScanSource,
    /// Task id of the side's first scan; scans of one side have
    /// consecutive ids.
    pub first: TaskId,
    /// Normalized per-destination weights of a skewed partitioning
    /// function (§7 outlook); `None` means uniform round-robin.
    weights: Option<Box<[f64]>>,
}

impl ScanSide {
    pub fn new(
        job: JobId,
        coord: PeId,
        phase: JoinPhase,
        dests: Nodes,
        txn: TxnToken,
        source: ScanSource,
        first: TaskId,
    ) -> ScanSide {
        ScanSide {
            job,
            coord,
            phase,
            dests,
            txn,
            source,
            first,
            weights: None,
        }
    }

    /// Install a skewed partitioning function (weights normalized inside).
    pub fn set_weights(&mut self, weights: &[f64]) {
        debug_assert_eq!(weights.len(), self.dests.len().max(1));
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            self.weights = Some(weights.iter().map(|w| w / total).collect());
        }
    }

    /// Normalized weight of destination `i` under a skewed partitioning
    /// function (`None`: uniform round-robin).
    pub fn weight(&self, i: usize) -> Option<f64> {
        self.weights.as_ref().map(|w| w[i])
    }

    /// Non-clustered access reads a random data page per tuple; the
    /// other paths read their pages in sequence.
    fn rand_access(&self) -> bool {
        matches!(
            self.source,
            ScanSource::Relation {
                access: ScanAccess::NonClustered,
                ..
            }
        )
    }

    /// The scan of `scans` (all of this side) blocked on lock `object` at
    /// `pe`. Matching on the lock object (a fragment lock) keeps routing
    /// exact when several fragments of one relation share a home PE.
    pub fn waiting_at(&self, scans: &[ScanTask], pe: PeId, object: u64) -> Option<usize> {
        scans
            .iter()
            .position(|s| s.pe == pe && !s.is_done() && s.lock_object(self) == Some(object))
    }
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

/// Per-destination output state, allocated at start and freed at finish.
#[derive(Debug)]
enum Out {
    /// Not started, or finished.
    Idle,
    /// Tuples staged per destination (uniform round-robin).
    Even(Box<[u32]>),
    /// `(credit, staged tuples)` per destination of the deterministic
    /// weighted round-robin.
    Weighted(Box<[(f64, u32)]>),
}

/// A page count of one fragment.
fn pages(n: u64) -> u32 {
    u32::try_from(n).expect("a fragment's page count fits in u32")
}

/// One scan subquery instance: the state of one fragment's scan.
#[derive(Debug)]
pub struct ScanTask {
    pub task_id: TaskId,
    /// The fragment's home PE at planning time.
    pub pe: PeId,
    fragment: u32,
    state: State,
    // plan
    index_pages: u32,
    data_pages: u32,
    /// Page offset of this fragment within its PE's page space for the
    /// relation (non-zero only when fragments share a home PE). Read at
    /// start, like the rest of the plan.
    page_base: u32,
    tuples_read_total: u64,
    tuples_out_total: u64,
    // progress
    idx_done: u32,
    pages_done: u32,
    /// I/Os whose CPU overhead the next page's CPU request charges.
    io_pending: u32,
    read_done: u64,
    out_done: u64,
    next_dest: usize,
    out: Out,
}

impl ScanTask {
    /// Scan `fragment` (ignored for in-memory sources) at `pe`.
    pub fn new(task_id: TaskId, pe: PeId, fragment: u32) -> ScanTask {
        ScanTask {
            task_id,
            pe,
            fragment,
            state: State::Created,
            index_pages: 0,
            data_pages: 0,
            page_base: 0,
            tuples_read_total: 0,
            tuples_out_total: 0,
            idx_done: 0,
            pages_done: 0,
            io_pending: 0,
            read_done: 0,
            out_done: 0,
            next_dest: 0,
            out: Out::Idle,
        }
    }

    fn token(&self, side: &ScanSide, step: Step) -> Token {
        Token::new(side.job, self.task_id, step)
    }

    /// Compute the access plan for this fragment.
    fn plan(&mut self, side: &ScanSide, ctx: &Ctx) {
        match side.source {
            ScanSource::Relation {
                relation,
                selectivity,
                access,
            } => {
                let frag_tuples = ctx.catalog.fragment(relation, self.fragment).tuples;
                let frag_pages = ctx.catalog.fragment_pages(relation, self.fragment);
                self.page_base = pages(ctx.catalog.fragment_page_base(relation, self.fragment));
                let tree = BTreeModel::new(ctx.cfg.btree_fanout, frag_tuples);
                let plan = match access {
                    ScanAccess::Full => {
                        ScanPlan::relation_scan(frag_pages, frag_tuples, selectivity)
                    }
                    ScanAccess::Clustered => {
                        ScanPlan::clustered_index_scan(tree, frag_pages, frag_tuples, selectivity)
                    }
                    ScanAccess::NonClustered => {
                        ScanPlan::non_clustered_index_scan(tree, frag_tuples, selectivity)
                    }
                };
                self.index_pages = plan.index_pages;
                self.data_pages = pages(plan.seq_data_pages + plan.rand_data_pages);
                self.tuples_read_total = plan.tuples_read;
                self.tuples_out_total = plan.tuples_out;
            }
            ScanSource::Memory { tuples } => {
                self.index_pages = 0;
                // Process in message-buffer sized batches, one CPU grant per
                // "page" of tuples.
                self.data_pages = pages(tuples.div_ceil(ctx.cfg.tuples_per_page as u64));
                self.tuples_read_total = tuples;
                self.tuples_out_total = tuples;
            }
        }
        let k = side.dests.len().max(1);
        self.out = match &side.weights {
            None => Out::Even(vec![0; k].into()),
            Some(_) => Out::Weighted(vec![(0.0, 0); k].into()),
        };
    }

    /// Route an input addressed to this scan.
    pub fn handle(&mut self, side: &ScanSide, kind: InKind, ctx: &mut Ctx) {
        match kind {
            InKind::Msg(msg) => match msg.kind {
                MsgKind::StartScan { .. } => self.start(side, ctx),
                MsgKind::Commit => self.commit(side, ctx),
                other => unreachable!("scan task: unexpected message {other:?}"),
            },
            InKind::Step(Step::TermCpu) => {}
            InKind::Step(step) => self.on_step(side, step, ctx),
            InKind::LockGrant { .. } => self.lock_granted(side, ctx),
            other => unreachable!("scan task: unexpected input {other:?}"),
        }
    }

    /// Entry point: the StartScan message was received.
    pub fn start(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, State::Created);
        self.plan(side, ctx);
        if let Some(object) = self.lock_object(side) {
            let outcome = ctx.pes[self.pe as usize]
                .locks
                .lock(side.txn, object, LockMode::Shared);
            if outcome == LockOutcome::Waiting {
                self.state = State::WaitLock;
                return;
            }
        }
        self.begin_init(side, ctx);
    }

    /// A lock wait ended.
    pub fn lock_granted(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, State::WaitLock);
        self.begin_init(side, ctx);
    }

    fn begin_init(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        self.state = State::Init;
        ctx.cpu(
            self.pe,
            ctx.cfg.instr.init_txn,
            false,
            self.token(side, Step::Init),
        );
    }

    /// Dispatch a completion step to the task.
    pub fn on_step(&mut self, side: &ScanSide, step: Step, ctx: &mut Ctx) {
        match (self.state, step) {
            (State::Init, Step::Init) => {
                self.state = State::IndexDescend;
                self.advance_index(side, ctx);
            }
            (State::IndexDescend, Step::PageIo) => {
                self.idx_done += 1;
                self.advance_index(side, ctx);
            }
            (State::DataLoop, Step::PageIo) => self.process_page(side, ctx),
            (State::DataLoop, Step::PageCpu) => self.after_page(side, ctx),
            (s, st) => unreachable!("scan task: step {st:?} in state {s:?}"),
        }
    }

    /// Descend the B+-tree (random single-page reads through the buffer).
    fn advance_index(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        let relation = match side.source {
            ScanSource::Relation { relation, .. } => relation,
            ScanSource::Memory { .. } => {
                self.state = State::DataLoop;
                self.advance_data(side, ctx);
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
                self.token(side, Step::PageIo),
            );
            if waiting {
                self.io_pending += 1;
                return; // resumes at (IndexDescend, PageIo)
            }
            self.idx_done += 1;
        }
        self.state = State::DataLoop;
        self.advance_data(side, ctx);
    }

    /// Issue the next data page (or finish).
    fn advance_data(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        if self.pages_done >= self.data_pages {
            self.finish(side, ctx);
            return;
        }
        match side.source {
            ScanSource::Memory { .. } => {
                // No I/O: straight to CPU.
                self.process_page(side, ctx);
            }
            ScanSource::Relation { relation, .. } => {
                let rand = side.rand_access();
                let page = u64::from(self.page_base) + self.page_no(rand);
                let addr = PageAddr::new(object::data(relation), page);
                let kind = if rand {
                    IoKind::RandRead
                } else {
                    IoKind::SeqRead {
                        run_remaining: self.data_pages - self.pages_done,
                    }
                };
                let waiting = ctx.fix_page(
                    self.pe,
                    addr,
                    false,
                    false,
                    kind,
                    self.token(side, Step::PageIo),
                );
                if waiting {
                    self.io_pending += 1;
                    return; // resumes at (DataLoop, PageIo)
                }
                self.process_page(side, ctx);
            }
        }
    }

    /// Page number of the current data page. Non-clustered access targets
    /// pseudo-random pages of the fragment (deterministic stride pattern).
    fn page_no(&self, rand: bool) -> u64 {
        let done = u64::from(self.pages_done);
        if rand {
            // Deterministic "random" probe: large-stride walk.
            (done * 2_654_435_761) % u64::from(self.data_pages.max(1))
        } else {
            done
        }
    }

    /// Charge the CPU for one page worth of work.
    fn process_page(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        let c = &ctx.cfg.instr;
        let bf = ctx.cfg.tuples_per_page as u64;
        // A clustered range scan touches only qualifying tuples;
        // non-clustered access reads one tuple per page access.
        let per_page = if side.rand_access() { 1 } else { bf };
        let reads = (self.tuples_read_total - self.read_done).min(per_page);
        let outs = self.outs_for(side, reads);
        self.read_done += reads;
        let mut instr = reads * c.read_tuple + outs * (c.hash_tuple + c.write_out);
        // CPU overhead of the I/O(s) that produced this page.
        instr += u64::from(self.io_pending) * c.io;
        self.io_pending = 0;
        self.stage_outputs(side, outs);
        ctx.cpu(
            self.pe,
            instr.max(1),
            false,
            self.token(side, Step::PageCpu),
        );
    }

    fn outs_for(&self, side: &ScanSide, reads: u64) -> u64 {
        let remaining_out = self.tuples_out_total - self.out_done;
        match side.source {
            ScanSource::Relation {
                access: ScanAccess::Full,
                selectivity,
                ..
            } => {
                // Filter applies per read tuple; keep global conservation.
                if self.data_pages - self.pages_done <= 1 {
                    remaining_out
                } else {
                    (((reads as f64) * selectivity).round() as u64).min(remaining_out)
                }
            }
            _ => remaining_out.min(reads),
        }
    }

    /// Distribute `outs` qualifying tuples over the consumers: uniform
    /// round-robin, or weighted (deterministic WRR) when a skewed
    /// partitioning function is installed.
    ///
    /// Round-robin sends tuple `j` to `(next_dest + j) % k`, so each
    /// destination's count is an [`even_share`] whose one-larger parts
    /// start at the cursor — computed per destination, not per tuple.
    fn stage_outputs(&mut self, side: &ScanSide, outs: u64) {
        self.out_done += outs;
        match &mut self.out {
            Out::Idle => unreachable!("scan staged output before start"),
            Out::Even(acc) => {
                let k = acc.len();
                let r = (self.next_dest % k) as u32;
                for (i, a) in acc.iter_mut().enumerate() {
                    *a += even_share(outs, k as u32, r, i as u32) as u32;
                }
                self.next_dest += outs as usize;
            }
            Out::Weighted(wrr) => {
                let weights = side.weights.as_deref().expect("a weighted side");
                for _ in 0..outs {
                    let mut best = 0usize;
                    for i in 0..wrr.len() {
                        wrr[i].0 += weights[i];
                        if wrr[i].0 > wrr[best].0 {
                            best = i;
                        }
                    }
                    wrr[best].0 -= 1.0;
                    wrr[best].1 += 1;
                }
            }
        }
    }

    /// Tuples staged for destination `i`.
    fn staged(&mut self, i: usize) -> &mut u32 {
        match &mut self.out {
            Out::Idle => unreachable!("scan output read before start"),
            Out::Even(acc) => &mut acc[i],
            Out::Weighted(wrr) => &mut wrr[i].1,
        }
    }

    fn dest_count(&self) -> usize {
        match &self.out {
            Out::Idle => 0,
            Out::Even(acc) => acc.len(),
            Out::Weighted(wrr) => wrr.len(),
        }
    }

    /// After the page CPU: flush any full output buffers, then next page.
    fn after_page(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        for i in 0..self.dest_count() {
            self.flush_dest(side, ctx, i, false);
        }
        self.pages_done += 1;
        self.advance_data(side, ctx);
    }

    /// Send destination `i`'s full output buffers (and, when `finishing`,
    /// its partial one).
    fn flush_dest(&mut self, side: &ScanSide, ctx: &mut Ctx, i: usize, finishing: bool) {
        let bf = ctx.cfg.tuples_per_page;
        loop {
            let staged = self.staged(i);
            if !(*staged >= bf || (finishing && *staged > 0)) {
                break;
            }
            let t = (*staged).min(bf);
            *staged -= t;
            let left = *staged;
            let bytes = ctx.cfg.batch_bytes(t, 400);
            if side.dests.is_empty() {
                ctx.send_to(
                    self.pe,
                    side.coord,
                    side.job,
                    COORD_TASK,
                    bytes,
                    MsgKind::ResultBatch { tuples: t },
                );
            } else {
                // The very last batch of this pair carries the
                // end-of-stream marker (no separate PhaseEnd message).
                ctx.send_to(
                    self.pe,
                    side.dests[i],
                    side.job,
                    i as TaskId, // consumer task index = position in dests
                    bytes,
                    MsgKind::TupleBatch {
                        phase: side.phase,
                        tuples: t,
                        last: finishing && left == 0,
                    },
                );
            }
            if left == 0 {
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
    fn finish(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        if let Some(object) = self.lock_object(side) {
            let pe = self.pe;
            for (txn, obj) in ctx.pes[pe as usize].locks.release(side.txn, object) {
                ctx.out.push(Action::LockGranted {
                    job: SlabKey::from_raw(txn.id),
                    pe,
                    object: obj,
                });
            }
        }
        let k = self.dest_count();
        if side.dests.is_empty() {
            for i in 0..k {
                self.flush_dest(side, ctx, i, true);
            }
            ctx.send_to(
                self.pe,
                side.coord,
                side.job,
                COORD_TASK,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::ScanDone,
            );
        } else {
            // All final batches go out first, then the PhaseEnds in index
            // order. A drained slot records whether its destination still
            // needs one (1) or got the end-of-stream flag on a batch (0).
            for i in 0..k {
                let needs_explicit = *self.staged(i) == 0;
                self.flush_dest(side, ctx, i, true);
                *self.staged(i) = u32::from(needs_explicit);
            }
            for i in 0..k {
                if *self.staged(i) == 1 {
                    ctx.send_to(
                        self.pe,
                        side.dests[i],
                        side.job,
                        i as TaskId,
                        ctx.cfg.ctrl_msg_bytes,
                        MsgKind::PhaseEnd { phase: side.phase },
                    );
                }
            }
        }
        // The output buffers are empty for good.
        self.out = Out::Idle;
        self.state = State::Done;
    }

    /// The commit message arrived: release local locks (forwarding the
    /// grants), charge the termination CPU and acknowledge.
    fn commit(&mut self, side: &ScanSide, ctx: &mut Ctx) {
        let pe = self.pe;
        for (txn, object) in ctx.pes[pe as usize].locks.release_all(side.txn) {
            ctx.out.push(Action::LockGranted {
                job: SlabKey::from_raw(txn.id),
                pe,
                object,
            });
        }
        ctx.cpu(
            pe,
            ctx.cfg.instr.term_txn,
            false,
            self.token(side, Step::TermCpu),
        );
        ctx.send_to(
            pe,
            side.coord,
            side.job,
            COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::CommitAck,
        );
    }

    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// The fragment lock this scan takes (None for in-memory sources);
    /// used by job coordinators to route lock grants to the right task.
    pub fn lock_object(&self, side: &ScanSide) -> Option<u64> {
        match side.source {
            ScanSource::Relation { relation, .. } => {
                Some(object::frag_lock(relation, self.fragment))
            }
            ScanSource::Memory { .. } => None,
        }
    }

    pub fn tuples_out(&self) -> u64 {
        self.out_done
    }

    /// The fragment the scan reads (in the side's relation).
    pub fn fragment(&self) -> u32 {
        self.fragment
    }

    /// Output-side slots the scan holds on the heap (per-destination
    /// accumulators and weighted round-robin state); zero once finished.
    pub fn output_slots(&self) -> usize {
        self.dest_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::slab::SlabKey;
    use simkit::SimTime;

    fn side_to(k: u32) -> ScanSide {
        ScanSide::new(
            SlabKey::DANGLING,
            0,
            JoinPhase::Build,
            Nodes::new((0..k).collect()),
            TxnToken {
                id: 0,
                birth: SimTime::ZERO,
            },
            ScanSource::Memory { tuples: 0 },
            0,
        )
    }

    fn staged(scan: &ScanTask) -> Vec<u32> {
        match &scan.out {
            Out::Even(acc) => acc.to_vec(),
            other => panic!("not a uniform scan: {other:?}"),
        }
    }

    /// Stage `outs` from `cursor` and compare with the per-tuple loop
    /// `out_acc[next_dest % k] += 1; next_dest += 1` (the oracle).
    fn check_split(outs: u64, k: u32, cursor: usize, pre: &[u32]) -> Result<(), TestCaseError> {
        let side = side_to(k);
        let mut scan = ScanTask::new(0, 0, 0);
        scan.out = Out::Even(pre[..k as usize].into());
        scan.next_dest = cursor;
        let mut oracle = staged(&scan);
        let mut next = cursor;
        for _ in 0..outs {
            oracle[next % k as usize] += 1;
            next += 1;
        }
        scan.stage_outputs(&side, outs);
        prop_assert_eq!(&staged(&scan), &oracle);
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

    /// A join at 1000 PEs holds about a thousand scans per side: a field
    /// that re-bloats the per-fragment state fails here.
    #[test]
    fn scan_task_stays_within_104_bytes() {
        let size = std::mem::size_of::<ScanTask>();
        assert!(size <= 104, "ScanTask is {size} bytes");
    }
}
