//! The coordinator of every parallel query: two-way and multi-way hash
//! joins, parallel sorts and scan queries.
//!
//! All of them run one protocol (§2 of the paper; Garofalakis &
//! Ioannidis describe an operator the same way, as a sequence of phases
//! over one set of workers). The coordinator obtains a placement from
//! the control node (degree of parallelism + processors), starts one
//! worker subquery per selected PE (which reserves its working memory),
//! waits until every worker is ready, drives one scan side per phase
//! with a barrier between phases, merges the result stream and commits
//! with the read-only single-phase optimization. The shapes:
//!
//! * a two-way join: PPHJ [`JoinTask`] workers; the **building phase**
//!   scans the inner relation A, redistributed to the join processors,
//!   then the **probing phase** scans B with the same partitioning
//!   function;
//! * a multi-way join: the same two sides once per stage of a left-deep
//!   chain, each stage with its own placement;
//! * a parallel sort (§7): [`SortTask`] workers fed by one side;
//! * a scan query: one side, no workers and no placement; its scans
//!   stream their results to the coordinator.
//!
//! **Multi-way materialization.** Stage k joins the scan output of its
//! build relation with the result of stage k − 1. That intermediate is
//! materialized at the coordinator, which received the previous stage's
//! result stream, and is redistributed from there by one in-memory scan
//! (no I/O); a pipelined executor would instead stream stage k − 1's
//! results straight into stage k. Every stage asks the load balancer
//! for a fresh placement, so a three-way join exercises the strategy
//! twice under the then-current system state.
//!
//! Task ids: the workers first (`0..p`, so a scan's destination index is
//! its consumer's task id), then the scans of each side in side order.
//! The worker table is typed: join tasks or sort tasks, two vectors of
//! which at most one is in use. What the scans of one side share —
//! relation, selectivity, phase, destinations, transaction, partitioning
//! weights — is one [`ScanSide`], whose destination list is the
//! placement: the [`Nodes`] pointer the control node's reply carried,
//! adopted as is. The first side's scans are built at placement (at
//! `Init` for a scan query), a join's probe scans when its probe starts;
//! the fragment homes they read are the catalog's snapshot at placement
//! (at `Init` for a scan query).

use crate::api::{
    Action, ControlReq, InKind, Input, JobId, JoinPhase, MsgKind, Nodes, PeId, Step, TaskId, Token,
    COORD_TASK,
};
use crate::ctx::Ctx;
use crate::pphj::JoinTask;
use crate::scan::{ScanAccess, ScanSide, ScanSource, ScanTask};
use crate::sort::SortTask;
use dbmodel::catalog::RelationId;
use dbmodel::lock::TxnToken;
use simkit::SimTime;
use std::rc::Rc;

/// Planner data of one placed stage: a join's (or one multi-way stage's)
/// build input, or a sort's input.
#[derive(Debug, Clone, Copy)]
pub struct StagePlan {
    /// Build-side relation of this stage (a sort's relation).
    pub inner: RelationId,
    /// `b_i · F` of the stage's build input.
    pub table_pages: f64,
    pub psu_opt: u32,
    pub psu_noio: u32,
    /// Expected build-side scan output (tuples), which is also the
    /// stage's result.
    pub inner_out: u64,
}

/// What a coordinated query runs, with its planner numbers.
#[derive(Debug, Clone)]
pub enum QueryPlan {
    /// A hash join over `stages.len() + 1` relations: stage 0 joins
    /// `stages[0].inner` with `outer`, stage k > 0 joins
    /// `stages[k].inner` with the result of stage k − 1. One stage is a
    /// two-way join.
    Join {
        outer: RelationId,
        selectivity: f64,
        /// Expected outer scan output (tuples).
        outer_out: u64,
        /// Redistribution skew (Zipf theta over join processors);
        /// 0 = uniform.
        skew: f64,
        stages: Rc<[StagePlan]>,
    },
    /// A parallel sort of a clustered selection of `stage.inner`.
    Sort { selectivity: f64, stage: StagePlan },
    /// A read-only scan query over one relation.
    Scan {
        relation: RelationId,
        selectivity: f64,
        access: ScanAccess,
    },
}

/// Per-join record of the placement decision (for metrics).
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    pub degree: u32,
    pub result_tuples: u64,
    pub spill_pages: u64,
    pub temp_reads: u64,
    pub mem_waits: u32,
}

/// A worker subquery of a placed query. The coordinator's worker table
/// holds one kind; this is the protocol both kinds speak.
pub trait Worker {
    /// `StartJoin` received: charge the subquery-init CPU.
    fn start(&mut self, ctx: &mut Ctx);
    /// A redistributed batch of `phase` arrived; `last` marks the end of
    /// its (source, destination) stream, piggybacked on the data.
    fn on_batch(&mut self, phase: JoinPhase, tuples: u32, last: bool, ctx: &mut Ctx);
    /// A scan source finished `phase`.
    fn on_phase_end(&mut self, phase: JoinPhase, ctx: &mut Ctx);
    /// One of the task's own CPU or I/O requests completed.
    fn on_step(&mut self, step: Step, ctx: &mut Ctx);
    /// Commit received: charge the termination CPU and acknowledge.
    fn commit(&mut self, ctx: &mut Ctx);

    /// Route an input addressed to this task.
    fn handle(&mut self, kind: InKind, ctx: &mut Ctx) {
        match kind {
            InKind::Msg(msg) => match msg.kind {
                MsgKind::StartJoin { .. } => self.start(ctx),
                MsgKind::TupleBatch {
                    phase,
                    tuples,
                    last,
                } => self.on_batch(phase, tuples, last, ctx),
                MsgKind::PhaseEnd { phase } => self.on_phase_end(phase, ctx),
                MsgKind::Commit => self.commit(ctx),
                other => unreachable!("worker: unexpected message {other:?}"),
            },
            InKind::Step(step) => self.on_step(step, ctx),
            other => unreachable!("worker: unexpected input {other:?}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Queued,
    Init,
    WaitPlacement,
    /// Waiting for every worker's `JoinReady`.
    WaitReady,
    /// The last open side is scanning.
    Scan,
    Commit,
    Done,
}

/// A join, multi-way join, parallel sort or scan query.
pub struct Coordinator {
    pub class: u32,
    pub coord: PeId,
    pub submitted: SimTime,
    plan: QueryPlan,
    state: State,
    /// The current stage of a multi-way join (0 otherwise).
    stage: u32,
    /// Tuples the current join stage probes: the outer scan output, then
    /// the previous stage's result.
    probe_tuples: u64,
    /// A join's tasks, one per PE of the placement: task id = index.
    joins: Vec<JoinTask>,
    /// A sort's tasks, one per PE of the placement: task id = index.
    sorts: Vec<SortTask>,
    /// The scans of every open side, in side order: task id = `p` + index.
    scans: Vec<ScanTask>,
    /// The open sides, in phase order.
    sides: Vec<ScanSide>,
    /// Where a join's probe scans run, snapshot at placement: the home PE
    /// of every outer fragment, by fragment index, or the coordinator
    /// alone (holding the intermediate) after stage 0.
    probe_homes: Rc<[PeId]>,
    /// Inputs counted toward the current barrier.
    arrived: u32,
    result_tuples: u64,
}

/// Subjoin share weights: uniform, or Zipf-distributed under a skewed
/// partitioning function. Sorted descending so the largest subjoin lands
/// on `placement[0]` — which LUM/integrated strategies order by most-free
/// memory first (the paper's §7 "assign larger subjoins to less loaded
/// nodes").
fn share_weights(skew: f64, p: u32) -> Vec<f64> {
    if skew <= 0.0 {
        return vec![1.0 / p as f64; p as usize];
    }
    let raw: Vec<f64> = (1..=p).map(|i| 1.0 / (i as f64).powf(skew)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

impl Coordinator {
    pub fn new(class: u32, coord: PeId, submitted: SimTime, plan: QueryPlan) -> Coordinator {
        let probe_tuples = match plan {
            QueryPlan::Join { outer_out, .. } => outer_out,
            _ => 0,
        };
        Coordinator {
            class,
            coord,
            submitted,
            plan,
            state: State::Queued,
            stage: 0,
            probe_tuples,
            joins: Vec::new(),
            sorts: Vec::new(),
            scans: Vec::new(),
            sides: Vec::new(),
            probe_homes: Rc::default(),
            arrived: 0,
            result_tuples: 0,
        }
    }

    fn txn(&self, job: JobId) -> TxnToken {
        TxnToken {
            id: job.to_raw(),
            birth: self.submitted,
        }
    }

    /// The join tasks (task id = index).
    pub fn joins(&self) -> &[JoinTask] {
        &self.joins
    }

    /// The scans of every open side (task id = `p` + index).
    pub fn scans(&self) -> &[ScanTask] {
        &self.scans
    }

    /// The open sides, in phase order: a join's build side, then (from
    /// its probe phase on) its probe side.
    pub fn sides(&self) -> &[ScanSide] {
        &self.sides
    }

    /// A join's metrics: the final stage's degree, spills and memory
    /// waits. `None` for sorts and scan queries.
    pub fn join_outcome(&self) -> Option<JoinOutcome> {
        if !matches!(self.plan, QueryPlan::Join { .. }) {
            return None;
        }
        let mut o = JoinOutcome {
            degree: self.joins.len() as u32,
            result_tuples: self.result_tuples,
            ..JoinOutcome::default()
        };
        for j in &self.joins {
            o.spill_pages += j.spill_pages_written;
            o.temp_reads += j.temp_pages_read;
            o.mem_waits += u32::from(j.mem_wait);
        }
        Some(o)
    }

    /// The current stage's planner numbers; `None` for a scan query,
    /// which is not placed.
    fn placed(&self) -> Option<StagePlan> {
        match &self.plan {
            QueryPlan::Join { stages, .. } => Some(stages[self.stage as usize]),
            QueryPlan::Sort { stage, .. } => Some(*stage),
            QueryPlan::Scan { .. } => None,
        }
    }

    fn workers(&self) -> usize {
        self.joins.len() + self.sorts.len()
    }

    /// What side `k` of the current stage reads, with the relation and
    /// selectivity its `StartScan` names (a multi-way stage's in-memory
    /// probe names the base outer relation).
    fn side_plan(&self, k: usize) -> (RelationId, f64, ScanSource) {
        let (relation, selectivity, access) = match &self.plan {
            QueryPlan::Join {
                outer,
                selectivity,
                stages,
                ..
            } => {
                let relation = match k {
                    0 => stages[self.stage as usize].inner,
                    _ => *outer,
                };
                if k > 0 && self.stage > 0 {
                    let tuples = self.probe_tuples;
                    return (relation, *selectivity, ScanSource::Memory { tuples });
                }
                (relation, *selectivity, ScanAccess::Clustered)
            }
            QueryPlan::Sort { selectivity, stage } => {
                (stage.inner, *selectivity, ScanAccess::Clustered)
            }
            QueryPlan::Scan {
                relation,
                selectivity,
                access,
            } => (*relation, *selectivity, *access),
        };
        let source = ScanSource::Relation {
            relation,
            selectivity,
            access,
        };
        (relation, selectivity, source)
    }

    /// Main dispatch. Memory and lock wake-ups are addressed by PE (the
    /// simulator does not know task ids); they are routed to the join
    /// task or the waiting scan at that PE here.
    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        match (input.task, input.kind) {
            (_, InKind::MemGrant { pe, pages }) => {
                if let Some(j) = self.join_at(pe) {
                    j.mem_granted(ctx, pages);
                }
            }
            (_, InKind::MemSteal { pe, pages }) => {
                if let Some(j) = self.join_at(pe) {
                    j.mem_stolen(ctx, pages);
                }
            }
            (_, InKind::Alarm { pe }) => {
                if let Some(j) = self.join_at(pe) {
                    j.mem_wait_timeout(ctx);
                }
            }
            (_, InKind::LockGrant { pe, object }) => {
                if let Some(i) = self.scan_waiting_at(pe, object) {
                    let side = Self::side_of(&self.sides, self.scans[i].task_id);
                    self.scans[i].lock_granted(side, ctx);
                }
            }
            (COORD_TASK, InKind::Msg(msg)) => self.on_msg(job, msg.kind, ctx),
            (COORD_TASK, kind) => self.on_input(job, kind, ctx),
            (tid, kind) => self.task_input(tid, kind, ctx),
        }
    }

    fn join_at(&mut self, pe: PeId) -> Option<&mut JoinTask> {
        self.joins.iter_mut().find(|j| j.pe == pe)
    }

    /// The scan (index into `scans`) waiting on lock `object` at `pe`:
    /// the sides are searched in order.
    fn scan_waiting_at(&self, pe: PeId, object: u64) -> Option<usize> {
        let p = self.workers();
        self.sides.iter().enumerate().find_map(|(k, side)| {
            let lo = side.first as usize - p;
            let hi = self
                .sides
                .get(k + 1)
                .map_or(self.scans.len(), |next| next.first as usize - p);
            side.waiting_at(&self.scans[lo..hi], pe, object)
                .map(|i| lo + i)
        })
    }

    /// The side scan `tid` belongs to.
    fn side_of(sides: &[ScanSide], tid: TaskId) -> &ScanSide {
        sides
            .iter()
            .rev()
            .find(|side| side.first <= tid)
            .expect("a scan belongs to an open side")
    }

    /// Route an input to a subquery task.
    fn task_input(&mut self, tid: TaskId, kind: InKind, ctx: &mut Ctx) {
        let i = tid as usize;
        let p = self.workers();
        if i >= p {
            let side = Self::side_of(&self.sides, tid);
            self.scans[i - p].handle(side, kind, ctx);
            return;
        }
        match self.joins.get_mut(i) {
            Some(j) => j.handle(kind, ctx),
            None => self.sorts[i].handle(kind, ctx),
        }
    }

    fn on_input(&mut self, job: JobId, kind: InKind, ctx: &mut Ctx) {
        match (self.state, kind) {
            (State::Queued, InKind::Start) => {
                self.state = State::Init;
                ctx.cpu(
                    self.coord,
                    ctx.cfg.instr.init_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::Init),
                );
            }
            (State::Init, InKind::Step(Step::Init)) => match self.placed() {
                Some(stage) => self.request_placement(job, stage, ctx),
                None => {
                    // A scan query: one scan per fragment, where the
                    // fragment is now, with results to the coordinator.
                    let (relation, _, _) = self.side_plan(0);
                    let homes = ctx.catalog.fragment_homes(relation);
                    self.open_side(job, Nodes::default(), &homes);
                    self.start_side(job, ctx);
                }
            },
            (State::Commit, InKind::Step(Step::TermCpu)) => {
                self.state = State::Done;
                match self.next_stage() {
                    Some(stage) => self.request_placement(job, stage, ctx),
                    None => ctx.out.push(Action::JobDone { job }),
                }
            }
            (state, other) => unreachable!("coordinator: input {other:?} in {state:?}"),
        }
    }

    fn on_msg(&mut self, job: JobId, msg: MsgKind, ctx: &mut Ctx) {
        match (self.state, msg) {
            (State::WaitPlacement, MsgKind::ControlRep { nodes }) => self.place(job, nodes, ctx),
            (State::WaitReady, MsgKind::JoinReady) => {
                if self.barrier(self.workers()) {
                    self.start_side(job, ctx);
                }
            }
            // A join's build phase is over: its probe side starts.
            (State::Scan, MsgKind::BuildDone) if self.sides.len() == 1 => {
                if self.barrier(self.joins.len()) {
                    let dests = Nodes::clone(&self.sides[0].dests);
                    let homes = Rc::clone(&self.probe_homes);
                    self.open_side(job, dests, &homes);
                    self.start_side(job, ctx);
                }
            }
            (State::Scan, MsgKind::ResultBatch { tuples }) => {
                self.result_tuples += u64::from(tuples);
            }
            // The done barrier: every worker's `JoinDone`, or every scan's
            // `ScanDone` in a query without workers.
            (State::Scan, MsgKind::JoinDone) if self.workers() > 0 => {
                if self.barrier(self.workers()) {
                    self.start_commit(job, ctx);
                }
            }
            (State::Scan, MsgKind::ScanDone) if self.workers() == 0 => {
                if self.barrier(self.scans.len()) {
                    self.start_commit(job, ctx);
                }
            }
            (State::Commit, MsgKind::CommitAck) => {
                if self.barrier(self.workers() + self.scans.len()) {
                    ctx.cpu(
                        self.coord,
                        ctx.cfg.instr.term_txn,
                        false,
                        Token::new(job, COORD_TASK, Step::TermCpu),
                    );
                }
            }
            (state, other) => unreachable!("coordinator: message {other:?} in {state:?}"),
        }
    }

    /// Count one input toward the current barrier: true, and the count
    /// reset, when the `need`-th arrived.
    fn barrier(&mut self, need: usize) -> bool {
        self.arrived += 1;
        let full = self.arrived as usize == need;
        if full {
            self.arrived = 0;
        }
        full
    }

    /// Ask the control node to place `stage`.
    fn request_placement(&mut self, job: JobId, stage: StagePlan, ctx: &mut Ctx) {
        self.state = State::WaitPlacement;
        let outer_scan_nodes = match &self.plan {
            // Later stages probe the intermediate at the coordinator.
            QueryPlan::Join { .. } if self.stage > 0 => 1,
            QueryPlan::Join { outer, .. } => ctx.catalog.scan_pe_count(*outer),
            _ => ctx.catalog.scan_pe_count(stage.inner),
        };
        ctx.send_to(
            self.coord,
            ctx.control_pe,
            job,
            COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::ControlReq(Box::new(ControlReq {
                table_pages: stage.table_pages,
                psu_opt: stage.psu_opt,
                psu_noio: stage.psu_noio,
                outer_scan_nodes,
                inner_rel: stage.inner.0,
                stage: self.stage,
            })),
        );
    }

    /// The control node answered: build and start the worker subqueries
    /// and build the first side's scans. A join's probe scans are built
    /// when its probe phase starts.
    fn place(&mut self, job: JobId, nodes: Nodes, ctx: &mut Ctx) {
        debug_assert!(!nodes.is_empty());
        let stage = self.placed().expect("only a placed query gets a placement");
        let p = nodes.len() as u32;
        let coord = self.coord;
        let homes = ctx.catalog.fragment_homes(stage.inner);
        let srcs = homes.len() as u32;
        let start = |ctx: &mut Ctx, i: usize, pe: PeId, expected_inner_pages: u32| {
            ctx.send_to(
                coord,
                pe,
                job,
                i as TaskId,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartJoin {
                    expected_inner_pages,
                    join_index: i as u32,
                    joiners: p,
                },
            );
        };
        if let QueryPlan::Join { outer, skew, .. } = self.plan {
            let weights = share_weights(skew, p);
            self.probe_homes = match self.stage {
                0 => ctx.catalog.fragment_homes(outer),
                _ => Rc::from([coord].as_slice()),
            };
            let b_srcs = self.probe_homes.len() as u32;
            self.joins.reserve_exact(nodes.len());
            for (i, (&pe, &w)) in nodes.iter().zip(&weights).enumerate() {
                let expected_inner_pages = ((stage.table_pages * w).ceil() as u32).max(1);
                let expected_probe = ((self.probe_tuples as f64 * w).ceil() as u64).max(1);
                self.joins.push(JoinTask::new(
                    job,
                    i as TaskId,
                    pe,
                    coord,
                    srcs,
                    b_srcs,
                    expected_inner_pages,
                    expected_probe,
                ));
                start(ctx, i, pe, expected_inner_pages);
            }
        } else {
            let expected = ((stage.table_pages / p as f64).ceil() as u32).max(1);
            self.sorts.reserve_exact(nodes.len());
            for (i, &pe) in nodes.iter().enumerate() {
                self.sorts
                    .push(SortTask::new(job, i as TaskId, pe, coord, srcs, expected));
                start(ctx, i, pe, expected);
            }
        }
        self.state = State::WaitReady;
        self.open_side(job, nodes, &homes);
    }

    /// Open the next side of the current stage: its plan, and one scan
    /// per fragment in `homes` with task ids after every existing task.
    fn open_side(&mut self, job: JobId, dests: Nodes, homes: &[PeId]) {
        let k = self.sides.len();
        if k == 0 {
            // A join opens two sides per stage, a sort or a scan query one.
            self.sides
                .reserve_exact(if self.joins.is_empty() { 1 } else { 2 });
        }
        let first = (self.workers() + self.scans.len()) as TaskId;
        let phase = match k {
            0 => JoinPhase::Build,
            _ => JoinPhase::Probe,
        };
        let (_, _, source) = self.side_plan(k);
        let mut side = ScanSide::new(job, self.coord, phase, dests, self.txn(job), source, first);
        if let QueryPlan::Join { skew, .. } = self.plan {
            if skew > 0.0 {
                side.set_weights(&share_weights(skew, self.joins.len() as u32));
            }
        }
        self.sides.push(side);
        self.scans.reserve_exact(homes.len());
        for (frag, &pe) in homes.iter().enumerate() {
            self.scans
                .push(ScanTask::new(first + frag as TaskId, pe, frag as u32));
        }
    }

    /// Start the scans of the last open side.
    fn start_side(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = State::Scan;
        let k = self.sides.len() - 1;
        let phase = self.sides[k].phase;
        let (relation, selectivity, _) = self.side_plan(k);
        let first = self.sides[k].first as usize - self.workers();
        for scan in &self.scans[first..] {
            ctx.send_to(
                self.coord,
                scan.pe,
                job,
                scan.task_id,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartScan {
                    relation,
                    selectivity,
                    phase,
                },
            );
        }
    }

    /// Commit: the workers, then the scans, in task-id order.
    fn start_commit(&mut self, job: JobId, ctx: &mut Ctx) {
        if let Some(stage) = self.placed() {
            debug_assert_eq!(
                self.result_tuples, stage.inner_out,
                "tuple conservation: {} results, {} expected",
                self.result_tuples, stage.inner_out
            );
        }
        self.state = State::Commit;
        let joins = self.joins.iter().map(|j| j.pe);
        let sorts = self.sorts.iter().map(|s| s.pe);
        let scans = self.scans.iter().map(|s| s.pe);
        for (tid, pe) in joins.chain(sorts).chain(scans).enumerate() {
            ctx.send_to(
                self.coord,
                pe,
                job,
                tid as TaskId,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::Commit,
            );
        }
    }

    /// Chain a multi-way join into its next stage, whose probe input is
    /// the result just produced; `None` when the query is complete.
    fn next_stage(&mut self) -> Option<StagePlan> {
        let QueryPlan::Join { stages, .. } = &self.plan else {
            return None;
        };
        let next = *stages.get(self.stage as usize + 1)?;
        self.stage += 1;
        self.probe_tuples = self.result_tuples;
        self.result_tuples = 0;
        self.joins.clear();
        self.scans.clear();
        self.sides.clear();
        Some(next)
    }
}
