//! The parallel hash-join query: coordinator state machine.
//!
//! Execution follows §2 of the paper: the coordinator obtains a placement
//! from the control node (degree of parallelism + join processors), starts
//! join subqueries (which reserve PPHJ memory), runs the **building phase**
//! (parallel scan of the inner relation A, redistributed to the join
//! processors), then the **probing phase** (scan of B, redistributed with
//! the same partitioning function), merges the result stream and commits
//! with the read-only single-phase optimization.
//!
//! The job keeps two typed task tables: the `p` join tasks (task ids
//! `0..p`, so a scan's destination index is its consumer's task id) and
//! the scans (ids `p..`): the inner scans from placement on, the outer
//! scans appended when the probe phase starts. What the scans of one side
//! share — relation, selectivity, phase, destinations, transaction,
//! partitioning weights — is one [`ScanSide`] per side, passed to their
//! handlers. The sides' destination list is the placement: the
//! [`Nodes`] pointer the control node's reply carried, adopted as is.

use crate::api::{
    Action, ControlReq, InKind, Input, JobId, JoinPhase, Msg, MsgKind, Nodes, PeId, Step, TaskId,
    Token, COORD_TASK,
};
use crate::ctx::Ctx;
use crate::pphj::JoinTask;
use crate::scan::{ScanAccess, ScanSide, ScanSource, ScanTask};
use dbmodel::catalog::RelationId;
use dbmodel::lock::TxnToken;
use simkit::SimTime;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    Queued,
    Init,
    WaitPlacement,
    WaitReady,
    Build,
    Probe,
    Commit,
    Done,
}

/// Per-job record of the placement decision (for metrics).
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    pub degree: u32,
    pub result_tuples: u64,
    pub spill_pages: u64,
    pub temp_reads: u64,
    pub mem_waits: u32,
}

/// A two-way parallel hash-join query.
pub struct JoinJob {
    pub class: u32,
    pub coord: PeId,
    pub inner: RelationId,
    pub outer: RelationId,
    pub selectivity: f64,
    pub submitted: SimTime,

    // Planner inputs for the load balancer.
    pub table_pages: f64,
    pub psu_opt: u32,
    pub psu_noio: u32,
    /// Expected inner/outer scan outputs (tuples).
    pub inner_out: u64,
    pub outer_out: u64,

    /// Redistribution skew (Zipf theta over join processors); 0 = uniform.
    pub skew: f64,
    /// Multi-way support: probe side streamed from the coordinator's
    /// in-memory intermediate instead of scanning `outer`.
    pub probe_override: Option<u64>,
    /// Multi-join stage index carried in placement requests (0 = first).
    pub stage: u32,
    /// Emit `JobDone` at commit (false for intermediate multi-way stages).
    pub finalize: bool,

    state: CState,
    /// Join tasks, one per PE of the placement: task id = index.
    joins: Vec<JoinTask>,
    /// Inner (A) scans, then — from the probe phase on — outer (B)
    /// scans: task id = `p` + index.
    scans: Vec<ScanTask>,
    /// The plan the inner scans share (from placement on); its `dests`
    /// is the placement.
    build: Option<ScanSide>,
    /// The plan the outer scans share (from the probe phase on).
    probe: Option<ScanSide>,
    /// Probe-scan sources: the home PE of every fragment at placement
    /// time, by fragment index (the catalog's shared snapshot), or the
    /// coordinator alone (holding the in-memory intermediate) for
    /// multi-way stages.
    b_frags: Rc<[PeId]>,
    ready_cnt: u32,
    builddone_cnt: u32,
    joindone_cnt: u32,
    ack_cnt: u32,
    pub result_tuples: u64,
    /// Set when the job (stage) completed; consumed by multi-way driver.
    pub stage_complete: bool,
}

impl JoinJob {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        class: u32,
        coord: PeId,
        inner: RelationId,
        outer: RelationId,
        selectivity: f64,
        submitted: SimTime,
        table_pages: f64,
        psu_opt: u32,
        psu_noio: u32,
        inner_out: u64,
        outer_out: u64,
    ) -> JoinJob {
        JoinJob {
            class,
            coord,
            inner,
            outer,
            selectivity,
            submitted,
            table_pages,
            psu_opt,
            psu_noio,
            inner_out,
            outer_out,
            skew: 0.0,
            probe_override: None,
            stage: 0,
            finalize: true,
            state: CState::Queued,
            joins: Vec::new(),
            scans: Vec::new(),
            build: None,
            probe: None,
            b_frags: Rc::default(),
            ready_cnt: 0,
            builddone_cnt: 0,
            joindone_cnt: 0,
            ack_cnt: 0,
            result_tuples: 0,
            stage_complete: false,
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

    /// The scans (task id = `p` + index): inner, then outer.
    pub fn scans(&self) -> &[ScanTask] {
        &self.scans
    }

    /// The plan the inner scans share (once placed).
    pub fn build_side(&self) -> Option<&ScanSide> {
        self.build.as_ref()
    }

    /// The plan the outer scans share (once the probe phase started).
    pub fn probe_side(&self) -> Option<&ScanSide> {
        self.probe.as_ref()
    }

    /// The side scan `tid` belongs to.
    fn side_of<'a>(
        build: &'a Option<ScanSide>,
        probe: &'a Option<ScanSide>,
        tid: TaskId,
    ) -> &'a ScanSide {
        match probe {
            Some(side) if tid >= side.first => side,
            _ => build.as_ref().expect("a scan belongs to a placed join"),
        }
    }

    pub fn outcome(&self) -> JoinOutcome {
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
        o
    }

    /// Reset transient state for reuse as the next multi-way stage.
    pub fn reset_for_stage(
        &mut self,
        inner: RelationId,
        table_pages: f64,
        psu_opt: u32,
        psu_noio: u32,
        inner_out: u64,
        probe_tuples: u64,
    ) {
        self.inner = inner;
        self.table_pages = table_pages;
        self.psu_opt = psu_opt;
        self.psu_noio = psu_noio;
        self.inner_out = inner_out;
        self.outer_out = probe_tuples;
        self.probe_override = Some(probe_tuples);
        self.stage += 1;
        self.state = CState::Init;
        self.joins.clear();
        self.scans.clear();
        self.build = None;
        self.probe = None;
        self.b_frags = Rc::default();
        self.ready_cnt = 0;
        self.builddone_cnt = 0;
        self.joindone_cnt = 0;
        self.ack_cnt = 0;
        self.result_tuples = 0;
        self.stage_complete = false;
    }

    /// Kick off a (next) stage: request a placement from the control node.
    pub fn request_placement(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = CState::WaitPlacement;
        ctx.send_to(
            self.coord,
            ctx.control_pe,
            job,
            COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::ControlReq(Box::new(ControlReq {
                table_pages: self.table_pages,
                psu_opt: self.psu_opt,
                psu_noio: self.psu_noio,
                outer_scan_nodes: match self.probe_override {
                    Some(_) => 1,
                    None => ctx.catalog.scan_pe_count(self.outer),
                },
                inner_rel: self.inner.0,
                stage: self.stage,
            })),
        );
    }

    /// Main dispatch. Memory and lock wake-ups are addressed by PE (the
    /// simulator does not know task ids); they are routed to the matching
    /// task here.
    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        match &input.kind {
            InKind::MemGrant { pe, pages } => {
                let (pe, pages) = (*pe, *pages);
                if let Some(tid) = self.join_task_at(pe) {
                    self.task_input(tid, InKind::MemGrant { pe, pages }, ctx);
                }
                return;
            }
            InKind::MemSteal { pe, pages } => {
                let (pe, pages) = (*pe, *pages);
                if let Some(tid) = self.join_task_at(pe) {
                    self.task_input(tid, InKind::MemSteal { pe, pages }, ctx);
                }
                return;
            }
            InKind::LockGrant { pe, object } => {
                let (pe, object) = (*pe, *object);
                if let Some(tid) = self.scan_task_at(pe, object) {
                    self.task_input(tid, InKind::LockGrant { pe, object }, ctx);
                }
                return;
            }
            InKind::Alarm { pe } => {
                let pe = *pe;
                if let Some(tid) = self.join_task_at(pe) {
                    self.task_input(tid, InKind::Alarm { pe }, ctx);
                }
                return;
            }
            _ => {}
        }
        match input.task {
            COORD_TASK => self.coordinator(job, input.kind, ctx),
            t => self.task_input(t, input.kind, ctx),
        }
    }

    fn join_task_at(&self, pe: PeId) -> Option<TaskId> {
        self.joins
            .iter()
            .position(|j| j.pe == pe)
            .map(|i| i as TaskId)
    }

    /// Scan task waiting on `object` at `pe`: an inner scan first, then
    /// an outer one.
    fn scan_task_at(&self, pe: PeId, object: u64) -> Option<TaskId> {
        let p = self.joins.len();
        let n_build = self
            .probe
            .as_ref()
            .map_or(self.scans.len(), |side| side.first as usize - p);
        let (inner, outer) = self.scans.split_at(n_build);
        let found = self
            .build
            .as_ref()
            .and_then(|side| side.waiting_at(inner, pe, object))
            .or_else(|| {
                let side = self.probe.as_ref()?;
                side.waiting_at(outer, pe, object).map(|i| n_build + i)
            });
        found.map(|i| (p + i) as TaskId)
    }

    fn coordinator(&mut self, job: JobId, kind: InKind, ctx: &mut Ctx) {
        match kind {
            InKind::Start => {
                debug_assert_eq!(self.state, CState::Queued);
                self.state = CState::Init;
                ctx.cpu(
                    self.coord,
                    ctx.cfg.instr.init_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::Init),
                );
            }
            InKind::Step(Step::Init) => {
                self.request_placement(job, ctx);
            }
            InKind::Msg(msg) => self.coord_msg(job, *msg, ctx),
            InKind::Step(Step::TermCpu) => {
                debug_assert_eq!(self.state, CState::Commit);
                self.state = CState::Done;
                self.stage_complete = true;
                if self.finalize {
                    ctx.out.push(Action::JobDone { job });
                }
            }
            other => unreachable!("join coordinator: unexpected input {other:?}"),
        }
    }

    fn coord_msg(&mut self, job: JobId, msg: Msg, ctx: &mut Ctx) {
        match msg.kind {
            MsgKind::ControlRep { nodes } => {
                debug_assert_eq!(self.state, CState::WaitPlacement);
                self.place(job, nodes, ctx);
            }
            MsgKind::JoinReady => {
                debug_assert_eq!(self.state, CState::WaitReady);
                self.ready_cnt += 1;
                if self.ready_cnt as usize == self.joins.len() {
                    self.start_build(job, ctx);
                }
            }
            MsgKind::BuildDone => {
                debug_assert_eq!(self.state, CState::Build);
                self.builddone_cnt += 1;
                if self.builddone_cnt as usize == self.joins.len() {
                    self.start_probe(job, ctx);
                }
            }
            MsgKind::ResultBatch { tuples } => {
                self.result_tuples += tuples as u64;
            }
            MsgKind::JoinDone => {
                debug_assert_eq!(self.state, CState::Probe);
                self.joindone_cnt += 1;
                if self.joindone_cnt as usize == self.joins.len() {
                    self.start_commit(job, ctx);
                }
            }
            MsgKind::CommitAck => {
                debug_assert_eq!(self.state, CState::Commit);
                self.ack_cnt += 1;
                if self.ack_cnt as usize == self.joins.len() + self.scans.len() {
                    ctx.cpu(
                        self.coord,
                        ctx.cfg.instr.term_txn,
                        false,
                        Token::new(job, COORD_TASK, Step::TermCpu),
                    );
                }
            }
            other => unreachable!("join coordinator: unexpected message {other:?}"),
        }
    }

    /// Subjoin share weights: uniform, or Zipf-distributed under a skewed
    /// partitioning function. Sorted descending so the largest subjoin
    /// lands on `placement[0]` — which LUM/integrated strategies order by
    /// most-free memory first (the paper's §7 "assign larger subjoins to
    /// less loaded nodes").
    fn share_weights(&self, p: u32) -> Vec<f64> {
        if self.skew <= 0.0 {
            return vec![1.0 / p as f64; p as usize];
        }
        let raw: Vec<f64> = (1..=p).map(|i| 1.0 / (i as f64).powf(self.skew)).collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }

    /// The control node answered: build the join tasks and the inner
    /// scans, and start the join subqueries. The outer scans are built
    /// when the probe phase starts.
    fn place(&mut self, job: JobId, nodes: Nodes, ctx: &mut Ctx) {
        debug_assert!(!nodes.is_empty());
        let p = nodes.len() as u32;
        let weights = self.share_weights(p);
        let a_frags = ctx.catalog.fragment_homes(self.inner);
        self.b_frags = match self.probe_override {
            None => ctx.catalog.fragment_homes(self.outer),
            Some(_) => Rc::from([self.coord].as_slice()),
        };
        let a_srcs = a_frags.len() as u32;
        let b_srcs = self.b_frags.len() as u32;

        // Task ids: joins first (so scan destination index == task id).
        self.joins.clear();
        self.joins.reserve_exact(nodes.len());
        for (i, &pe) in nodes.iter().enumerate() {
            let expected_inner_pages = ((self.table_pages * weights[i]).ceil() as u32).max(1);
            let expected_probe = ((self.outer_out as f64 * weights[i]).ceil() as u64).max(1);
            self.joins.push(JoinTask::new(
                job,
                i as TaskId,
                pe,
                self.coord,
                a_srcs,
                b_srcs,
                expected_inner_pages,
                expected_probe,
            ));
        }
        // Start the join subqueries.
        self.state = CState::WaitReady;
        for (i, &pe) in nodes.iter().enumerate() {
            let expected_inner_pages = ((self.table_pages * weights[i]).ceil() as u32).max(1);
            ctx.send_to(
                self.coord,
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
        }
        // Inner (A) scan tasks, one per fragment.
        let mut side = ScanSide::new(
            job,
            self.coord,
            JoinPhase::Build,
            nodes,
            self.txn(job),
            ScanSource::Relation {
                relation: self.inner,
                selectivity: self.selectivity,
                access: ScanAccess::Clustered,
            },
            p,
        );
        if self.skew > 0.0 {
            side.set_weights(&weights);
        }
        self.build = Some(side);
        self.scans.clear();
        self.scans.reserve_exact(a_frags.len());
        for (frag, &pe) in a_frags.iter().enumerate() {
            self.scans
                .push(ScanTask::new(p + frag as TaskId, pe, frag as u32));
        }
    }

    fn start_build(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = CState::Build;
        for scan in &self.scans {
            ctx.send_to(
                self.coord,
                scan.pe,
                job,
                scan.task_id,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartScan {
                    relation: self.inner,
                    selectivity: self.selectivity,
                    phase: JoinPhase::Build,
                },
            );
        }
    }

    /// The build phase is over: build the outer (B) scans (ids follow the
    /// inner scans) and start them.
    fn start_probe(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = CState::Probe;
        let first = (self.joins.len() + self.scans.len()) as TaskId;
        let source = match self.probe_override {
            None => ScanSource::Relation {
                relation: self.outer,
                selectivity: self.selectivity,
                access: ScanAccess::Clustered,
            },
            Some(tuples) => ScanSource::Memory { tuples },
        };
        let build = self.build.as_ref().expect("a probing join was placed");
        let mut side = ScanSide::new(
            job,
            self.coord,
            JoinPhase::Probe,
            Nodes::clone(&build.dests),
            self.txn(job),
            source,
            first,
        );
        if self.skew > 0.0 {
            side.set_weights(&self.share_weights(self.joins.len() as u32));
        }
        self.probe = Some(side);
        self.scans.reserve_exact(self.b_frags.len());
        for (frag, &pe) in self.b_frags.iter().enumerate() {
            let tid = first + frag as TaskId;
            self.scans.push(ScanTask::new(tid, pe, frag as u32));
            ctx.send_to(
                self.coord,
                pe,
                job,
                tid,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartScan {
                    relation: self.outer,
                    selectivity: self.selectivity,
                    phase: JoinPhase::Probe,
                },
            );
        }
    }

    fn start_commit(&mut self, job: JobId, ctx: &mut Ctx) {
        debug_assert_eq!(
            self.result_tuples, self.inner_out,
            "tuple conservation: {} results, {} expected",
            self.result_tuples, self.inner_out
        );
        self.state = CState::Commit;
        let joins = self.joins.iter().map(|j| j.pe);
        let scans = self.scans.iter().map(|s| s.pe);
        for (tid, pe) in joins.chain(scans).enumerate() {
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

    /// Route an input to a subquery task.
    fn task_input(&mut self, tid: TaskId, kind: InKind, ctx: &mut Ctx) {
        let idx = tid as usize;
        let p = self.joins.len();
        if idx >= p {
            debug_assert!(idx < p + self.scans.len(), "task {tid} out of range");
            let side = Self::side_of(&self.build, &self.probe, tid);
            self.scans[idx - p].handle(side, kind, ctx);
            return;
        }
        let j = &mut self.joins[idx];
        match kind {
            InKind::Msg(msg) => match msg.kind {
                MsgKind::StartJoin { .. } => j.start(ctx),
                MsgKind::TupleBatch {
                    phase,
                    tuples,
                    last,
                } => j.on_batch(phase, tuples, last, ctx),
                MsgKind::PhaseEnd { phase } => j.on_phase_end(phase, ctx),
                MsgKind::Commit => j.commit(ctx),
                other => unreachable!("join task: unexpected message {other:?}"),
            },
            InKind::Step(step) => j.on_step(step, ctx),
            InKind::MemGrant { pages, .. } => j.mem_granted(ctx, pages),
            InKind::MemSteal { pages, .. } => j.mem_stolen(ctx, pages),
            InKind::Alarm { .. } => j.mem_wait_timeout(ctx),
            other => unreachable!("join task: unexpected input {other:?}"),
        }
    }
}
