//! Scripted-driver tests for the engine's task state machines: a minimal
//! synchronous interpreter feeds completions straight back (zero time),
//! so scan and PPHJ logic is verified independent of the event loop.

use dbmodel::catalog::Catalog;
use dbmodel::lock::TxnToken;
use dbmodel::log::LogParams;
use engine::api::{Action, EngineConfig, JoinPhase, MsgKind};
use engine::ctx::Ctx;
use engine::pphj::JoinTask;
use engine::scan::{ScanAccess, ScanSource, ScanTask};
use engine::Pe;
use simkit::{SimRng, SimTime, Slab};

/// Harness state: PEs + action log.
struct Driver {
    pes: Vec<Pe>,
    catalog: Catalog,
    cfg: EngineConfig,
    rng: SimRng,
    temp: u64,
    actions: Vec<Action>,
    job: simkit::slab::SlabKey,
}

impl Driver {
    fn new(n: u32, buffer_pages: u32) -> Driver {
        let mut slab: Slab<u8> = Slab::new();
        let job = slab.insert(0);
        Driver {
            pes: (0..n)
                .map(|i| Pe::new(i, buffer_pages, 1, 64, LogParams::default()))
                .collect(),
            catalog: Catalog::paper_default(n),
            cfg: EngineConfig::default(),
            rng: SimRng::new(7),
            temp: 0,
            actions: Vec::new(),
            job,
        }
    }

    fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            now: SimTime::ZERO,
            cfg: &self.cfg,
            catalog: &self.catalog,
            pes: &mut self.pes,
            rng: &mut self.rng,
            out: &mut self.actions,
            temp_counter: &mut self.temp,
            control_pe: 0,
        }
    }

    /// Drain the action log, feeding completions back synchronously.
    /// Returns the messages sent. `scan`/`join` receive their steps.
    fn pump_scan(&mut self, scan: &mut ScanTask, max_iters: usize) -> Vec<MsgKind> {
        let mut msgs = Vec::new();
        for _ in 0..max_iters {
            let pending = std::mem::take(&mut self.actions);
            if pending.is_empty() {
                break;
            }
            for a in pending {
                match a {
                    Action::Cpu { token, .. } => {
                        let mut ctx = self.ctx();
                        scan.on_step(token.step, &mut ctx);
                    }
                    Action::Io { token, .. } => {
                        let mut ctx = self.ctx();
                        scan.on_step(token.step, &mut ctx);
                    }
                    Action::IoAsync { .. } => {}
                    Action::Send(m) => msgs.push(m.kind),
                    other => panic!("scan emitted unexpected action {other:?}"),
                }
            }
        }
        msgs
    }

    fn pump_join(&mut self, join: &mut JoinTask, max_iters: usize) -> Vec<MsgKind> {
        let mut msgs = Vec::new();
        for _ in 0..max_iters {
            let pending = std::mem::take(&mut self.actions);
            if pending.is_empty() {
                break;
            }
            for a in pending {
                match a {
                    Action::Cpu { token, .. } => {
                        let mut ctx = self.ctx();
                        join.on_step(token.step, &mut ctx);
                    }
                    Action::Io { token, .. } => {
                        // Temp reads come back as TempIo.
                        let mut ctx = self.ctx();
                        join.on_step(token.step, &mut ctx);
                    }
                    Action::IoAsync { .. } => {}
                    Action::Send(m) => msgs.push(m.kind),
                    Action::MemoryGranted { .. } => {}
                    Action::Alarm { .. } => {
                        // Memory-wait timeout fires immediately in the
                        // scripted driver (exercises the GRACE path).
                        let mut ctx = self.ctx();
                        join.mem_wait_timeout(&mut ctx);
                    }
                    other => panic!("join emitted unexpected action {other:?}"),
                }
            }
        }
        msgs
    }
}

fn txn(d: &Driver) -> TxnToken {
    TxnToken {
        id: d.job.to_raw(),
        birth: SimTime::ZERO,
    }
}

#[test]
fn scan_emits_exact_output_with_last_flags() {
    let mut d = Driver::new(10, 50);
    // A fragment at PE 0: 125 000 tuples, 1% → 1 250 out, to 4 dests.
    let t = txn(&d);
    let mut scan = ScanTask::new(
        d.job,
        100,
        0,
        9,
        JoinPhase::Build,
        vec![5, 6, 7, 8],
        ScanSource::Fragment {
            relation: dbmodel::RelationId(0),
            fragment: 0,
            selectivity: 0.01,
            access: ScanAccess::Clustered,
        },
        t,
    );
    {
        let mut ctx = d.ctx();
        scan.start(&mut ctx);
    }
    let msgs = d.pump_scan(&mut scan, 10_000);
    assert!(scan.is_done());
    let mut per_dest = [0u64; 4];
    let mut lasts = 0;
    let mut phase_ends = 0;
    for m in &msgs {
        match m {
            MsgKind::TupleBatch { tuples, last, .. } => {
                // Round-robin: tuple j goes to dest j % 4; totals checked
                // in aggregate below (message order identifies dest only
                // via the Msg task, which pump drops — so track totals).
                per_dest[0] += *tuples as u64; // aggregate only
                if *last {
                    lasts += 1;
                }
            }
            MsgKind::PhaseEnd { .. } => phase_ends += 1,
            other => panic!("unexpected message {other:?}"),
        }
    }
    assert_eq!(per_dest[0], 1_250, "exact scan output");
    assert_eq!(scan.tuples_out(), 1_250);
    assert_eq!(
        lasts + phase_ends,
        4,
        "each destination gets exactly one end-of-stream marker"
    );
}

#[test]
fn scan_weighted_distribution_respects_weights() {
    let mut d = Driver::new(10, 50);
    let t = txn(&d);
    let mut scan = ScanTask::new(
        d.job,
        100,
        0,
        9,
        JoinPhase::Build,
        vec![5, 6],
        ScanSource::Memory { tuples: 1_000 },
        t,
    );
    scan.set_weights(vec![3.0, 1.0]);
    {
        let mut ctx = d.ctx();
        scan.start(&mut ctx);
    }
    let msgs = d.pump_scan(&mut scan, 10_000);
    let total: u64 = msgs
        .iter()
        .filter_map(|m| match m {
            MsgKind::TupleBatch { tuples, .. } => Some(*tuples as u64),
            _ => None,
        })
        .sum();
    assert_eq!(total, 1_000, "weighted distribution conserves tuples");
}

#[test]
fn pphj_conserves_results_in_memory() {
    let mut d = Driver::new(4, 50);
    let mut join = JoinTask::new(d.job, 0, 1, 0, 2, 2, 20, 1_000);
    {
        let mut ctx = d.ctx();
        join.start(&mut ctx);
    }
    // Drive Init → reserve → ready.
    let ready = d.pump_join(&mut join, 100);
    assert!(ready.iter().any(|m| matches!(m, MsgKind::JoinReady)));

    // Build: 2 sources × 200 tuples.
    for src in 0..2 {
        let mut ctx = d.ctx();
        join.on_batch(JoinPhase::Build, 200, false, &mut ctx);
        let _ = src;
    }
    d.pump_join(&mut join, 100);
    for _ in 0..2 {
        let mut ctx = d.ctx();
        join.on_phase_end(JoinPhase::Build, &mut ctx);
    }
    let msgs = d.pump_join(&mut join, 100);
    assert!(
        msgs.iter().any(|m| matches!(m, MsgKind::BuildDone)),
        "build phase must complete"
    );
    assert_eq!(join.build_tuples(), 400);

    // Probe: 2 sources × 500 tuples, then phase end. Result batches
    // stream during probing, so accumulate messages across pumps.
    let mut msgs = Vec::new();
    for _ in 0..2 {
        let mut ctx = d.ctx();
        join.on_batch(JoinPhase::Probe, 500, false, &mut ctx);
    }
    msgs.extend(d.pump_join(&mut join, 100));
    for _ in 0..2 {
        let mut ctx = d.ctx();
        join.on_phase_end(JoinPhase::Probe, &mut ctx);
    }
    msgs.extend(d.pump_join(&mut join, 100_000));
    let results: u64 = msgs
        .iter()
        .filter_map(|m| match m {
            MsgKind::ResultBatch { tuples } => Some(*tuples as u64),
            _ => None,
        })
        .sum();
    assert!(
        msgs.iter().any(|m| matches!(m, MsgKind::JoinDone)),
        "join must finish"
    );
    assert_eq!(
        results, 400,
        "every build tuple produces exactly one result"
    );
    assert_eq!(join.results_produced(), 400);
}

#[test]
fn pphj_spills_under_tiny_memory_and_still_conserves() {
    // 5-page buffer: the 20-page table cannot stay resident.
    let mut d = Driver::new(4, 5);
    let mut join = JoinTask::new(d.job, 0, 1, 0, 1, 1, 20, 800);
    {
        let mut ctx = d.ctx();
        join.start(&mut ctx);
    }
    d.pump_join(&mut join, 100);
    {
        let mut ctx = d.ctx();
        join.on_batch(JoinPhase::Build, 400, true, &mut ctx); // last build batch
    }
    let msgs = d.pump_join(&mut join, 100);
    assert!(msgs.iter().any(|m| matches!(m, MsgKind::BuildDone)));
    let mut msgs = Vec::new();
    {
        let mut ctx = d.ctx();
        join.on_batch(JoinPhase::Probe, 800, true, &mut ctx); // last probe batch
    }
    msgs.extend(d.pump_join(&mut join, 100_000));
    let results: u64 = msgs
        .iter()
        .filter_map(|m| match m {
            MsgKind::ResultBatch { tuples } => Some(*tuples as u64),
            _ => None,
        })
        .sum();
    assert!(msgs.iter().any(|m| matches!(m, MsgKind::JoinDone)));
    assert_eq!(results, 400, "conservation holds through spills");
    assert!(
        join.spill_pages_written > 0,
        "a 20-page table cannot fit in a 5-page buffer"
    );
    assert!(
        join.temp_pages_read > 0,
        "delayed join read partitions back"
    );
    // Memory released at JoinDone.
    d.pes[1].buffer.check_invariants();
    assert_eq!(d.pes[1].buffer.working_reserved(), 0);
}

#[test]
fn pphj_sheds_memory_when_stolen() {
    let mut d = Driver::new(4, 50);
    let mut join = JoinTask::new(d.job, 0, 1, 0, 1, 1, 30, 500);
    {
        let mut ctx = d.ctx();
        join.start(&mut ctx);
    }
    d.pump_join(&mut join, 100);
    {
        let mut ctx = d.ctx();
        join.on_batch(JoinPhase::Build, 500, false, &mut ctx);
    }
    d.pump_join(&mut join, 100);
    let before = d.pes[1].buffer.working_reserved();
    assert!(before > 0);
    // OLTP steals most of the working space (the buffer-manager side
    // happens in the real path; here we exercise the task's reaction).
    {
        let mut ctx = d.ctx();
        join.mem_stolen(&mut ctx, before.saturating_sub(2));
    }
    // The task spilled partitions rather than exceeding its allotment.
    assert!(
        join.spill_pages_written > 0,
        "losing all but 2 of {before} pages must force spills"
    );
}
