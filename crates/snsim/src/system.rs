//! The integrated Shared Nothing system simulator — orchestration glue.
//!
//! `System` wires three layers together and owns none of their logic:
//!
//! * **event dispatch** — the heap-driven loop lives in
//!   [`simkit::Dispatcher`]; `System` implements [`simkit::Simulation`],
//!   handling typed resource-completion events ([`Ev`]) and draining the
//!   engine's action/input protocol after each one;
//! * **resource brokering** — per-node CPU/memory/disk state and every
//!   placement decision (join, multi-join stage, scan coordinator, OLTP
//!   home node) live behind [`lb_core::ResourceBroker`]; `System` only
//!   reports utilization samples and forwards placement requests;
//! * **planning** — per-class planner numbers and job fabrication live in
//!   [`crate::planner::Planner`].
//!
//! Single-threaded and fully deterministic for a given seed.

use crate::config::SimConfig;
use crate::metrics::{ClassSummary, Metrics, Summary};
use crate::planner::Planner;
use crate::profile::{Phase, ProfileAcc, ProfileReport};
use dbmodel::catalog::Catalog;
use dbmodel::deadlock;
use dbmodel::log::LogParams;
use engine::api::{Action, InKind, Input, Msg, MsgKind, Step, Token, COORD_TASK};
use engine::migrate::MigrationJob;
use engine::{Job, JobId, Pe, PeId};
use hardware::{Cpu, DiskId, DiskSubsystem, Network};
use lb_core::rebalance::{FragmentInfo, MigrationPlan, RebalanceController};
use lb_core::{
    DataLocality, JoinRequest, PlacementRequest, ResourceBroker, ResourceKind, ResourceVector,
    WorkClass,
};
use sched::{AdmissionTicket, ResourceSignals, Scheduler};
use simkit::server::UtilizationWindow;
use simkit::stats::OnlineStats;
use simkit::{Dispatcher, EventQueue, SimDur, SimRng, SimTime, Simulation, Slab};
use std::collections::VecDeque;
use workload::queries::CoordinatorPlacement;
use workload::ArrivalSpec;

/// Reference to a workload class (queries first, then OLTP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassRef {
    Query(usize),
    Oltp(usize),
}

impl ClassRef {
    fn index(self, queries: usize) -> usize {
        match self {
            ClassRef::Query(i) => i,
            ClassRef::Oltp(i) => queries + i,
        }
    }
}

/// Simulator events (typed resource completions + periodic services).
/// Public only because it is `System`'s `Simulation::Event` type; outside
/// code never constructs these.
#[doc(hidden)]
pub enum Ev {
    Arrival(ClassRef),
    CpuDone {
        pe: PeId,
        token: Token,
    },
    IoDone {
        pe: PeId,
        disk: u32,
        token: Option<Token>,
    },
    LogDone {
        pe: PeId,
        token: Option<Token>,
    },
    /// No longer scheduled: egress links compute their release times at
    /// send (`hardware::net`). Kept because `perfbench`'s `Kind::of`
    /// names it; delete with the next benchmark change.
    LinkFree {
        pe: PeId,
    },
    // Boxed: keeps `Ev` (and every event-heap entry) at the size of the
    // small hot variants; the box is the same allocation the engine made
    // when the message was sent.
    Deliver(Box<Msg>),
    ControlTick,
    DeadlockTick,
    WarmupMark,
    Retry(ClassRef, PeId),
    Alarm {
        job: JobId,
        pe: PeId,
    },
}

/// OLTP arrivals as a modulated Poisson stream over the class's total
/// system rate (same sampling as the inline `rng.exp` it replaced, so
/// unmodulated runs stay bit-identical).
fn oltp_arrivals(class: &workload::OltpClass, n: u32) -> workload::ArrivalProcess {
    workload::ArrivalProcess::new(
        ArrivalSpec::PoissonTotal {
            rate: class.total_tps(n),
        },
        n,
    )
    .with_modulation(class.modulation)
}

/// Job-private seed stream: SplitMix-style mix of the run seed and a
/// monotone counter (shared by [`System::next_seed`] and the planner's
/// seeder closure so the two can never diverge).
fn derive_seed(seed: u64, counter: u64) -> u64 {
    seed ^ counter.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Per-class admission-ticket costs, resolved once per run (cost-model
/// estimates for query classes, trivial degree-1 costs for OLTP).
struct TicketTemplate {
    mem_pages: f64,
    cpu_work_ms: f64,
    degree: u32,
    degree_floor: u32,
    weight: f64,
}

/// The simulator.
pub struct System {
    pub cfg: SimConfig,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) pes: Vec<Pe>,
    pub(crate) cpus: Vec<Cpu<Token>>,
    pub(crate) disks: Vec<DiskSubsystem<Option<Token>>>,
    pub(crate) log_disks: Vec<DiskSubsystem<Option<Token>>>,
    pub(crate) net: Network,
    /// Jobs are checked out (`Option::take`) during dispatch so handlers
    /// can borrow the rest of the system without aliasing the slab.
    pub(crate) jobs: Slab<Option<Job>>,
    pub(crate) broker: Box<dyn ResourceBroker>,
    pub(crate) planner: Planner,
    pub(crate) catalog: Catalog,
    /// Admission controller between arrivals and launch (the default
    /// FCFS/MPL policy passes everything straight through).
    pub(crate) sched: Scheduler,
    /// Per-class ticket costs (queries first, then OLTP).
    class_tickets: Vec<TicketTemplate>,
    /// Reused buffer for jobs the scheduler hands back on each pump (no
    /// per-arrival allocation).
    admit_scratch: Vec<u64>,
    /// Online rebalancing controller (None = static placement).
    pub(crate) rebalancer: Option<RebalanceController>,
    /// Reused per-report-round scratch for the rebalancer's fragment
    /// snapshot (the sampling loop allocates nothing per round).
    frag_scratch: Vec<FragmentInfo>,
    pub(crate) cpu_windows: Vec<UtilizationWindow>,
    pub(crate) disk_windows: Vec<UtilizationWindow>,
    pub(crate) net_windows: Vec<UtilizationWindow>,
    /// Per-PE resource vectors staged by the sampling phase of each
    /// control tick, then merged into the broker in PE order; staging
    /// lets the profiler time hardware sampling and the broker's report
    /// merge as separate rows. Pre-sized to `n_pes`: the tick allocates
    /// nothing.
    tick_scratch: Vec<ResourceVector>,
    /// Jobs currently parked in MPL input queues, summed over all PEs.
    /// Maintained at the two queue transitions (`try_admit` miss, `finish`
    /// hand-off) so the per-arrival backlog watermark does not rescan
    /// every PE — at 1000 PEs that scan dominated the arrival path.
    queued_inputs: usize,

    pub(crate) rng_arrivals: Vec<SimRng>,
    pub(crate) rng_place: SimRng,
    pub(crate) rng_coord: SimRng,
    pub(crate) rng_seed_counter: u64,

    pub metrics: Metrics,
    /// Wall-clock phase accumulators (`lab --profile`); `None` in normal
    /// runs. Never serialized, never read by the model — cannot affect a
    /// [`Summary`].
    prof: Option<Box<ProfileAcc>>,
    /// Observability recorder (`trace` knob); `None` when tracing is
    /// disabled, so every hook site is a single pointer test. The
    /// recorder only receives copies of values the round already
    /// computed — it never draws from a sim RNG stream and never feeds
    /// anything back into the model, so a [`Summary`] cannot depend on it.
    obs: Option<Box<obs::Recorder>>,
    /// Per-node bottleneck scores staged for the recorder at each
    /// placement decision (empty unless tracing).
    obs_scores: Vec<f64>,
    pub(crate) temp_counter: u64,
    pub(crate) actions: Vec<Action>,
    /// Reused by [`System::drain_actions`] so the by-value action loop
    /// allocates nothing in steady state.
    pub(crate) action_scratch: VecDeque<Action>,
    pub(crate) pending: VecDeque<(JobId, Input)>,

    // Utilization snapshots (taken at the warm-up mark).
    pub(crate) cpu_busy_at_warmup: Vec<u128>,
    pub(crate) disk_busy_at_warmup: u128,
    pub(crate) net_busy_at_warmup: u128,
    pub(crate) mem_util_samples: OnlineStats,
    pub(crate) warmup_time: SimTime,
}

impl System {
    pub fn new(cfg: SimConfig) -> System {
        let n = cfg.n_pes as usize;
        let catalog = cfg.build_catalog();
        let cost = lb_core::CostModel::new(cfg.cost_params());
        let planner = Planner::new(&cfg.workload, &catalog, &cost, cfg.n_pes);
        let mut broker = cfg.build_broker();
        // Register the placement layer with the broker so policies can
        // see where the data lives (refreshed after every migration).
        broker.set_locality(DataLocality {
            tuples: catalog.placement().tuples_by_node(cfg.n_pes),
        });
        let rebalancer = cfg.placement.rebalance.map(RebalanceController::new);
        let sched = cfg.build_scheduler();
        let mut class_tickets: Vec<TicketTemplate> = Vec::with_capacity(cfg.workload.class_count());
        for (i, q) in cfg.workload.queries.iter().enumerate() {
            let e = planner.admission_estimate(i);
            class_tickets.push(TicketTemplate {
                mem_pages: e.mem_pages,
                cpu_work_ms: e.cpu_work_ms,
                degree: e.degree,
                degree_floor: e.degree_floor,
                weight: cfg.admission.weight_for(&q.name),
            });
        }
        for o in &cfg.workload.oltp {
            class_tickets.push(TicketTemplate {
                mem_pages: 0.0,
                cpu_work_ms: 0.0,
                degree: 1,
                degree_floor: 1,
                weight: cfg.admission.weight_for(&o.name),
            });
        }

        let root = SimRng::new(cfg.seed);
        let class_count = cfg.workload.class_count();
        let rng_arrivals = (0..class_count).map(|i| root.fork(10 + i as u64)).collect();

        let mut class_names: Vec<String> = cfg
            .workload
            .queries
            .iter()
            .map(|q| q.name.clone())
            .collect();
        class_names.extend(cfg.workload.oltp.iter().map(|o| o.name.clone()));
        let warmup_time = SimTime::ZERO + cfg.warmup;
        let metrics = Metrics::new(class_names, warmup_time);

        let log_params = LogParams {
            records_per_page: cfg.log.records_per_page,
            group_commit_window: cfg.log.group_commit_window,
        };
        let log_disk_params = {
            let mut d = cfg.hw.disk.clone();
            d.disks_per_pe = 1;
            d.cache_pages = 0;
            d
        };

        let obs = cfg
            .trace
            .enabled
            .then(|| Box::new(obs::Recorder::new(cfg.trace, n)));
        let mut sys = System {
            events: EventQueue::with_capacity(1 << 16),
            pes: (0..n)
                .map(|i| {
                    Pe::new(
                        i as u32,
                        cfg.buffer_pages,
                        cfg.global_floor,
                        cfg.mpl,
                        log_params,
                    )
                })
                .collect(),
            cpus: (0..n).map(|i| Cpu::new(cfg.cpu_params_for(i))).collect(),
            disks: (0..n)
                .map(|_| DiskSubsystem::new(cfg.hw.disk.clone()))
                .collect(),
            log_disks: (0..n)
                .map(|_| DiskSubsystem::new(log_disk_params.clone()))
                .collect(),
            net: Network::new(cfg.hw.net.clone(), n),
            jobs: Slab::new(),
            broker,
            planner,
            catalog,
            sched,
            class_tickets,
            admit_scratch: Vec::with_capacity(16),
            rebalancer,
            frag_scratch: Vec::new(),
            cpu_windows: vec![UtilizationWindow::default(); n],
            disk_windows: vec![UtilizationWindow::default(); n],
            net_windows: vec![UtilizationWindow::default(); n],
            tick_scratch: vec![ResourceVector::default(); n],
            queued_inputs: 0,
            rng_arrivals,
            rng_place: root.fork(1),
            rng_coord: root.fork(2),
            rng_seed_counter: 0,
            metrics,
            prof: None,
            obs,
            obs_scores: Vec::new(),
            temp_counter: 0,
            actions: Vec::with_capacity(64),
            action_scratch: VecDeque::with_capacity(64),
            pending: VecDeque::new(),
            cpu_busy_at_warmup: vec![0; n],
            disk_busy_at_warmup: 0,
            net_busy_at_warmup: 0,
            mem_util_samples: OnlineStats::new(),
            warmup_time,
            cfg,
        };
        sys.prime();
        sys
    }

    /// Schedule initial events.
    fn prime(&mut self) {
        let n = self.cfg.n_pes;
        for (i, q) in self.cfg.workload.queries.clone().iter().enumerate() {
            match q.arrival {
                ArrivalSpec::SingleUser => {
                    self.events
                        .at(SimTime::ZERO, Ev::Arrival(ClassRef::Query(i)));
                }
                spec => {
                    let gap = workload::ArrivalProcess::new(spec, n)
                        .with_modulation(q.modulation)
                        .next_interarrival_at(SimTime::ZERO, &mut self.rng_arrivals[i]);
                    if let Some(gap) = gap {
                        self.events
                            .at(SimTime::ZERO + gap, Ev::Arrival(ClassRef::Query(i)));
                    }
                }
            }
        }
        let nq = self.cfg.workload.queries.len();
        for (i, o) in self.cfg.workload.oltp.clone().iter().enumerate() {
            let gap = oltp_arrivals(o, n)
                .next_interarrival_at(SimTime::ZERO, &mut self.rng_arrivals[nq + i]);
            if let Some(gap) = gap {
                self.events
                    .at(SimTime::ZERO + gap, Ev::Arrival(ClassRef::Oltp(i)));
            }
        }
        self.events
            .at(SimTime::ZERO + self.cfg.control_interval, Ev::ControlTick);
        self.events
            .at(SimTime::ZERO + self.cfg.deadlock_interval, Ev::DeadlockTick);
        self.events.at(self.warmup_time, Ev::WarmupMark);
    }

    // -----------------------------------------------------------------
    // Job creation
    // -----------------------------------------------------------------

    fn next_seed(&mut self) -> u64 {
        self.rng_seed_counter += 1;
        derive_seed(self.cfg.seed, self.rng_seed_counter)
    }

    fn spawn(&mut self, class: ClassRef, pe_hint: Option<PeId>) {
        self.metrics.arrivals += 1;
        let nq = self.cfg.workload.queries.len();
        let class_idx = class.index(nq) as u32;
        let now = self.events.now();
        let job = match class {
            ClassRef::Query(i) => {
                let coord = match pe_hint {
                    Some(pe) => pe,
                    None => match self.cfg.workload.queries[i].coordinator {
                        CoordinatorPlacement::Fixed(pe) => pe.min(self.cfg.n_pes - 1),
                        CoordinatorPlacement::Random => {
                            let req =
                                PlacementRequest::coordinator(WorkClass::Scan, 0, self.cfg.n_pes);
                            self.broker.place_one(&req, &mut self.rng_coord)
                        }
                    },
                };
                let seed_base = self.cfg.seed;
                let mut counter = self.rng_seed_counter;
                let t0 = self.prof_t0();
                let job = self
                    .planner
                    .make_query_job(i, class_idx, coord, now, &mut || {
                        counter += 1;
                        seed_base ^ counter.wrapping_mul(0x2545_F491_4F6C_DD1D)
                    });
                self.prof_add(t0, Phase::SubQueryPlanning);
                self.rng_seed_counter = counter;
                job
            }
            ClassRef::Oltp(i) => {
                let pe = match pe_hint {
                    Some(pe) => pe,
                    None => {
                        let (first, count) =
                            self.cfg.workload.oltp[i].nodes.resolve(self.cfg.n_pes);
                        let req = PlacementRequest::coordinator(WorkClass::Oltp, first, count);
                        self.broker
                            .place_one(&req, &mut self.rng_coord)
                            .min(self.cfg.n_pes - 1)
                    }
                };
                let seed = self.next_seed();
                // Borrow the spec in place — cloning it would allocate
                // (the class name is a `String`) once per arrival.
                let spec = &self.cfg.workload.oltp[i];
                Planner::make_oltp_job(spec, class_idx, pe, now, seed)
            }
        };
        let coord = job.coord_pe();
        let id = self.jobs.insert(Some(job));
        if let Some(o) = self.obs.as_mut() {
            o.arrival(
                Self::t_ms(now),
                id.to_raw(),
                self.metrics.class_name(class_idx),
            );
        }
        // Admission: the ticket carries the class's cost-model estimates;
        // the scheduler decides now / shrunk / wait / reject. The default
        // FcfsMpl policy admits unconditionally, which reduces to exactly
        // the pre-admission-layer launch path.
        let t = &self.class_tickets[class_idx as usize];
        let ticket = AdmissionTicket {
            class: class_idx,
            coord,
            mem_pages: t.mem_pages,
            cpu_work_ms: t.cpu_work_ms,
            degree: t.degree,
            degree_floor: t.degree_floor,
            weight: t.weight,
            submitted: now,
        };
        // Closed-loop (single-user) classes relaunch only on completion:
        // dropping one arrival would silence the class forever, so the
        // queue bound never applies to them.
        let droppable = match class {
            ClassRef::Query(i) => !self.cfg.workload.queries[i].arrival.is_single_user(),
            ClassRef::Oltp(_) => true,
        };
        if !self.sched.submit(id.to_raw(), ticket, droppable) {
            // Queue bound exceeded: the query never enters the system
            // (the scheduler counted the rejection).
            self.jobs.remove(id);
            if let Some(o) = self.obs.as_mut() {
                o.rejected(Self::t_ms(now), id.to_raw());
            }
            return;
        }
        self.pump_admissions();
        self.note_backlog();
    }

    /// Start everything the admission scheduler releases: each job takes
    /// (or queues for) its coordinator's MPL slot exactly as before the
    /// admission layer existed.
    fn pump_admissions(&mut self) {
        let t0 = self.prof_t0();
        let now = self.events.now();
        let mut ready = std::mem::take(&mut self.admit_scratch);
        self.sched.pump_into(now, &mut ready);
        for &raw in &ready {
            let id = simkit::slab::SlabKey::from_raw(raw);
            let Some(Some(body)) = self.jobs.get(id) else {
                continue;
            };
            let coord = body.coord_pe() as usize;
            let submitted = body.submitted();
            if self.pes[coord].try_admit(id) {
                self.metrics.record_queue_wait(now - submitted, now);
                if let Some(o) = self.obs.as_mut() {
                    o.admitted(
                        Self::t_ms(now),
                        raw,
                        (now - submitted).as_millis_f64(),
                        self.sched.degree_cap(raw),
                    );
                }
                self.pending.push_back((
                    id,
                    Input {
                        task: COORD_TASK,
                        kind: InKind::Start,
                    },
                ));
            } else {
                self.queued_inputs += 1;
            }
        }
        ready.clear();
        self.admit_scratch = ready;
        self.prof_add(t0, Phase::SubAdmissionPump);
    }

    /// Release a finished coordinator's MPL slot and start the next job
    /// queued on it, recording how long it waited.
    fn finish_coord_slot(&mut self, coord: PeId) {
        if let Some(next) = self.pes[coord as usize].finish() {
            self.queued_inputs -= 1;
            let now = self.events.now();
            if let Some(Some(body)) = self.jobs.get(next) {
                let wait = now - body.submitted();
                self.metrics.record_queue_wait(wait, now);
                if let Some(o) = self.obs.as_mut() {
                    o.admitted(
                        Self::t_ms(now),
                        next.to_raw(),
                        wait.as_millis_f64(),
                        self.sched.degree_cap(next.to_raw()),
                    );
                }
            }
            self.pending.push_back((
                next,
                Input {
                    task: COORD_TASK,
                    kind: InKind::Start,
                },
            ));
        }
    }

    /// Watermark the backlog (admission queue + every MPL input queue).
    /// Called where the backlog can grow — on arrivals.
    fn note_backlog(&mut self) {
        let depth = self.sched.queue_len() + self.queued_inputs;
        debug_assert_eq!(
            self.queued_inputs,
            self.pes.iter().map(|p| p.input_queue_len()).sum::<usize>()
        );
        self.metrics.note_queue_depth(depth as u64);
    }

    fn schedule_next_arrival(&mut self, class: ClassRef) {
        let n = self.cfg.n_pes;
        let nq = self.cfg.workload.queries.len();
        let now = self.events.now();
        match class {
            ClassRef::Query(i) => {
                let q = &self.cfg.workload.queries[i];
                let (spec, modulation) = (q.arrival, q.modulation);
                if spec.is_single_user() {
                    return; // next instance launched on completion
                }
                if let Some(gap) = workload::ArrivalProcess::new(spec, n)
                    .with_modulation(modulation)
                    .next_interarrival_at(now, &mut self.rng_arrivals[i])
                {
                    self.events.after(gap, Ev::Arrival(class));
                }
            }
            ClassRef::Oltp(i) => {
                let process = oltp_arrivals(&self.cfg.workload.oltp[i], n);
                if let Some(gap) = process.next_interarrival_at(now, &mut self.rng_arrivals[nq + i])
                {
                    self.events.after(gap, Ev::Arrival(class));
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Event handling (driven by simkit::Dispatcher)
    // -----------------------------------------------------------------

    /// Run until the configured horizon; returns the summary.
    pub fn run(&mut self) -> Summary {
        let end = SimTime::ZERO + self.cfg.sim_time;
        Dispatcher::run_until(self, end);
        self.finalize()
    }

    /// Turn on wall-clock phase profiling (see [`crate::profile`]).
    pub fn enable_profiling(&mut self) {
        self.prof = Some(Box::default());
    }

    /// Freeze the profiling accumulators into a report; `wall` is the
    /// run's total wall clock as measured by the caller.
    pub fn profile_report(&self, wall: std::time::Duration) -> ProfileReport {
        match &self.prof {
            Some(acc) => acc.report(wall),
            None => ProfileReport::empty(),
        }
    }

    /// Start a phase timer (no-op unless profiling is enabled).
    #[inline]
    pub(crate) fn prof_t0(&self) -> Option<std::time::Instant> {
        if self.prof.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Close a phase timer opened by [`System::prof_t0`].
    #[inline]
    pub(crate) fn prof_add(&mut self, t0: Option<std::time::Instant>, phase: Phase) {
        if let (Some(t0), Some(p)) = (t0, self.prof.as_mut()) {
            p.add(phase, t0.elapsed());
        }
    }

    pub(crate) fn dispatch_event(&mut self, ev: Ev) {
        let now = self.events.now();
        match ev {
            Ev::Arrival(class) => {
                self.spawn(class, None);
                self.schedule_next_arrival(class);
            }
            Ev::Retry(class, pe) => {
                self.spawn(class, Some(pe));
            }
            Ev::Alarm { job, pe } => {
                self.pending.push_back((
                    job,
                    Input {
                        task: COORD_TASK,
                        kind: InKind::Alarm { pe },
                    },
                ));
            }
            Ev::CpuDone { pe, token } => {
                // Pump the CPU queue first (frees the unit at this instant).
                if let Some(next) = self.cpus[pe as usize].complete(now) {
                    self.events.at(
                        next.done,
                        Ev::CpuDone {
                            pe,
                            token: next.tag,
                        },
                    );
                }
                self.handle_cpu_token(pe, token);
            }
            Ev::IoDone { pe, disk, token } => {
                if let Some(next) = self.disks[pe as usize].complete(now, DiskId(disk)) {
                    self.events.at(
                        next.done,
                        Ev::IoDone {
                            pe,
                            disk,
                            token: next.tag,
                        },
                    );
                }
                if let Some(token) = token {
                    self.route_token(token, None);
                }
            }
            Ev::LogDone { pe, token } => {
                if let Some(next) = self.log_disks[pe as usize].complete(now, DiskId(0)) {
                    self.events.at(
                        next.done,
                        Ev::LogDone {
                            pe,
                            token: next.tag,
                        },
                    );
                }
                self.pes[pe as usize].log.write_done();
                // Wake the forcing job and all group-commit joiners.
                if let Some(token) = token {
                    self.route_token(token, None);
                }
                let waiters = std::mem::take(&mut self.pes[pe as usize].log_waiters);
                for job in waiters {
                    self.pending.push_back((
                        job,
                        Input {
                            task: COORD_TASK,
                            kind: InKind::Step(Step::LogIo),
                        },
                    ));
                }
            }
            Ev::LinkFree { .. } => {}
            Ev::Deliver(msg) => self.deliver(msg),
            Ev::ControlTick => {
                self.control_tick();
                self.events
                    .after(self.cfg.control_interval, Ev::ControlTick);
            }
            Ev::DeadlockTick => {
                self.deadlock_tick();
                self.events
                    .after(self.cfg.deadlock_interval, Ev::DeadlockTick);
            }
            Ev::WarmupMark => {
                for (i, cpu) in self.cpus.iter().enumerate() {
                    self.cpu_busy_at_warmup[i] = cpu.busy_integral(now);
                }
                self.disk_busy_at_warmup = self.disks.iter().map(|d| d.busy_integral(now)).sum();
                self.net_busy_at_warmup = (0..self.pes.len())
                    .map(|pe| self.net.link_busy_integral(now, pe))
                    .sum();
            }
        }
    }

    /// The broker computes a placement (strategy decision point). All four
    /// placed work classes flow through here or through [`System::spawn`]:
    /// two-way joins and sorts arrive with `stage == 0`, multi-join stages
    /// with `stage > 0`.
    pub(crate) fn handle_control_req(&mut self, msg: Msg) {
        let MsgKind::ControlReq {
            table_pages,
            psu_opt,
            psu_noio,
            outer_scan_nodes,
            inner_rel,
            stage,
        } = msg.kind
        else {
            unreachable!()
        };
        // Malleable admission: a shrunken query carries a degree cap that
        // every placement strategy honours (0 = unconstrained).
        let degree_cap = self.sched.degree_cap(msg.job.to_raw());
        let req = PlacementRequest::join(
            stage,
            JoinRequest {
                table_pages,
                psu_opt,
                psu_noio,
                outer_scan_nodes,
                inner_rel,
                degree_cap,
            },
            self.cfg.n_pes,
        );
        // Tracing: snapshot every node's bottleneck score from the
        // broker's *current* view before the decision consumes it, so the
        // explain digest sees exactly what the policy saw. Pure `&self`
        // reads — the placement RNG stream is untouched.
        if self.obs.is_some() {
            self.obs_scores.clear();
            for node in 0..self.cfg.n_pes {
                self.obs_scores.push(self.broker.bottleneck(node));
            }
        }
        let placement = self.broker.place(&req, &mut self.rng_place);
        if let Some(o) = self.obs.as_mut() {
            o.placement(
                Self::t_ms(self.events.now()),
                msg.job.to_raw(),
                stage,
                self.broker.policy_name(WorkClass::Join { stage }),
                &self.obs_scores,
                &placement.nodes,
            );
        }
        let bytes = self.cfg.engine.ctrl_msg_bytes + 4 * placement.nodes.len() as u32;
        let reply = Msg {
            from: self.cfg.control_pe,
            to: msg.from,
            job: msg.job,
            task: COORD_TASK,
            bytes,
            kind: MsgKind::ControlRep {
                nodes: placement.nodes,
            },
        };
        self.actions.push(Action::Send(Box::new(reply)));
        self.drain_actions();
    }

    /// A job completed: metrics, MPL slot, single-user relaunch.
    pub(crate) fn job_done(&mut self, job: JobId) {
        let Some(body) = self.jobs.remove(job).flatten() else {
            return;
        };
        // Migrations are system utilities, not workload: flip the
        // fragment's home (unless the move gave up on a busy fragment),
        // refresh the broker's locality view, count it.
        if let Job::Migrate(m) = &body {
            if m.transferred() {
                self.catalog
                    .placement_mut()
                    .move_fragment(m.relation.0, m.fragment, m.to);
                self.broker.set_locality(DataLocality {
                    tuples: self.catalog.placement().tuples_by_node(self.cfg.n_pes),
                });
                self.metrics.record_migration(m.tuples);
            }
            if let Some(o) = self.obs.as_mut() {
                let now = self.events.now();
                o.migration_end(Self::t_ms(now), m.from, m.to, m.tuples, m.transferred());
            }
            if let Some(rc) = &mut self.rebalancer {
                rc.migration_finished(m.relation.0, m.fragment);
            }
            return;
        }
        let now = self.events.now();
        let class = body.class();
        let submitted = body.submitted();
        self.metrics.record_completion(class, submitted, now);
        if let Some(o) = self.obs.as_mut() {
            o.completed(
                Self::t_ms(now),
                job.to_raw(),
                self.metrics.class_name(class),
                (now - submitted).as_millis_f64(),
            );
        }
        if let Job::Join(j) = &body {
            let o = j.outcome();
            self.metrics.record_join(
                o.degree,
                o.spill_pages,
                o.temp_reads,
                o.mem_waits,
                o.result_tuples,
                now,
            );
        }
        if let Job::MultiJoin(m) = &body {
            let o = m.join.outcome();
            self.metrics.record_join(
                o.degree,
                o.spill_pages,
                o.temp_reads,
                o.mem_waits,
                o.result_tuples,
                now,
            );
        }
        let coord = body.coord_pe();
        // Hand the admitted resources back, free the MPL slot, then let
        // the scheduler admit whatever now fits.
        self.sched.release(job.to_raw());
        self.finish_coord_slot(coord);
        self.pump_admissions();
        // Single-user classes: launch the next instance immediately.
        let nq = self.cfg.workload.queries.len();
        if (class as usize) < nq
            && self.cfg.workload.queries[class as usize]
                .arrival
                .is_single_user()
        {
            self.spawn(ClassRef::Query(class as usize), None);
        }
    }

    // -----------------------------------------------------------------
    // Periodic services
    // -----------------------------------------------------------------

    /// One report round: every PE samples its windowed per-resource state
    /// — CPU, memory, disk and egress link — into one [`ResourceVector`]
    /// report, then adaptive policies observe the refreshed state.
    ///
    /// The sampling loop is allocation-free: each node's vector is a
    /// stack-built `Copy` value, the broker overwrites per-kind columns in
    /// place, and the windowed samplers difference read-only busy
    /// integrals (no exclusive access to the fabric or the disks).
    fn control_tick(&mut self) {
        let now = self.events.now();
        let measuring = now >= self.warmup_time;
        // Phase 1 — sample every PE into `tick_scratch` (and roll its
        // buffer epoch). Phase 2 — merge into the broker in PE order.
        let t_sample = self.prof_t0();
        for pe in 0..self.cfg.n_pes as usize {
            self.tick_scratch[pe] = self.sample_pe(now, pe);
        }
        self.prof_add(t_sample, Phase::SubBrokerSample);
        let t_merge = self.prof_t0();
        for pe in 0..self.cfg.n_pes as usize {
            let v = self.tick_scratch[pe];
            self.broker.report(pe as u32, v);
            if measuring {
                self.metrics.record_util_sample(&v);
            }
        }
        self.broker.end_report_round();
        self.prof_add(t_merge, Phase::SubBrokerMerge);
        if measuring {
            let mem: f64 = self.pes.iter().map(|p| p.buffer.utilization()).sum::<f64>()
                / self.pes.len() as f64;
            self.mem_util_samples.record(mem);
        }
        // The admission controller rides the same report rounds as the
        // adaptive placement controller: feed it the refreshed per-kind
        // signals, then give the queue a chance (Malleable's hot-mode
        // flip can unblock admissions without any completion).
        let mut signals = ResourceSignals::default();
        for kind in ResourceKind::ALL {
            signals.set(kind, self.broker.avg(kind));
        }
        // Brokers with a failure detector shrink the live-capacity signal
        // while nodes are under suspicion (1.0 otherwise — no-op).
        let suspected = self.broker.suspected_nodes();
        if suspected > 0 {
            let n = self.pes.len() as f64;
            signals.set_live_frac((n - f64::from(suspected)) / n);
        }
        self.sched.on_report(&signals);
        self.pump_admissions();
        // Rebalancing rides the same report rounds the adaptive
        // controller observes. The fragment snapshot reuses a per-run
        // scratch vector: no allocation per round.
        if self.rebalancer.is_some() {
            let t_plan = self.prof_t0();
            // Pinned relations (affinity-routed OLTP data) never move.
            self.frag_scratch.clear();
            for rel in 0..self.catalog.len() as u32 {
                if self.catalog.relation(dbmodel::RelationId(rel)).pinned {
                    continue;
                }
                for (i, f) in self
                    .catalog
                    .placement()
                    .relation(rel)
                    .fragments()
                    .iter()
                    .enumerate()
                {
                    self.frag_scratch.push(FragmentInfo {
                        relation: rel,
                        fragment: i as u32,
                        pe: f.pe,
                        tuples: f.tuples,
                    });
                }
            }
            let rc = self.rebalancer.as_mut().expect("checked above");
            let plans = rc.on_report_round(self.broker.control(), &self.frag_scratch);
            for plan in plans {
                self.start_migration(plan);
            }
            self.prof_add(t_plan, Phase::SubRebalancePlanning);
        }
        // Tracing: close the round with one cluster sample (the series is
        // clocked by these report rounds, not wall time).
        if self.obs.is_some() {
            self.observe_round(now);
        }
    }

    /// Sim time in milliseconds (observability timestamps only).
    fn t_ms(now: SimTime) -> f64 {
        now.as_nanos() as f64 / 1e6
    }

    /// End-of-round observability sample (tracing only): suspicion diffs,
    /// per-kind average and cross-node p95 utilization, backlog gauges and
    /// run-total counters. Pure reads of state the round already computed
    /// — no RNG draws, no model mutation.
    fn observe_round(&mut self, now: SimTime) {
        let t = Self::t_ms(now);
        let n = self.cfg.n_pes;
        for node in 0..n {
            let suspected = self.broker.control().is_suspected(node);
            self.obs
                .as_mut()
                .expect("tracing enabled")
                .suspicion(t, node, suspected);
        }
        let mut util_avg = [0.0; ResourceKind::COUNT];
        let mut util_p95 = [0.0; ResourceKind::COUNT];
        for kind in ResourceKind::ALL {
            util_avg[kind.index()] = self.broker.avg(kind);
            util_p95[kind.index()] = self
                .obs
                .as_mut()
                .expect("tracing enabled")
                .cross_node_p95(self.broker.utils(kind));
        }
        let completions_total: u64 = self.metrics.classes.iter().map(|c| c.completed).sum();
        let input = obs::RoundInput {
            t_ms: t,
            util_avg,
            util_p95,
            admission_backlog: self.sched.queue_len() as u32,
            mpl_backlog: self.queued_inputs as u32,
            oldest_wait_ms: self.sched.oldest_waiting_ms(now),
            suspected: self.broker.suspected_nodes(),
            n_nodes: n,
            policy: self.broker.policy_name(WorkClass::Join { stage: 0 }),
            policy_switches: self.broker.policy_switches(),
            arrivals_total: self.metrics.arrivals,
            rejections_total: self.sched.rejected(),
            shrunk_total: self.sched.shrunk(),
            completions_total,
        };
        self.obs.as_mut().expect("tracing enabled").round(input);
    }

    /// Sample one PE's windowed per-resource state into a vector, rolling
    /// its buffer epoch.
    fn sample_pe(&mut self, now: SimTime, pe: usize) -> ResourceVector {
        let cpu = &self.cpus[pe];
        let disks = &self.disks[pe];
        let buffer = &mut self.pes[pe].buffer;
        let v = ResourceVector {
            cpu: self.cpu_windows[pe].sample(now, cpu.busy_integral(now), cpu.units()),
            mem: buffer.utilization(),
            disk: self.disk_windows[pe].sample(now, disks.busy_integral(now), disks.disks()),
            net: self.net_windows[pe].sample(now, self.net.link_busy_integral(now, pe), 1),
            free_pages: buffer.free_pages_reported(),
        };
        buffer.roll_epoch();
        v
    }

    /// Launch one fragment migration as an engine job (real disk/network
    /// traffic; bypasses MPL admission — it is a system utility).
    fn start_migration(&mut self, plan: MigrationPlan) {
        let t0 = self.prof_t0();
        let now = self.events.now();
        if let Some(o) = self.obs.as_mut() {
            o.migration_start(Self::t_ms(now), plan.from, plan.to, plan.tuples);
        }
        let job = Job::Migrate(Box::new(MigrationJob::new(
            dbmodel::RelationId(plan.relation),
            plan.fragment,
            plan.from,
            plan.to,
            plan.tuples,
            now,
        )));
        let id = self.jobs.insert(Some(job));
        self.pending.push_back((
            id,
            Input {
                task: COORD_TASK,
                kind: InKind::Start,
            },
        ));
        self.prof_add(t0, Phase::SubMigration);
    }

    fn deadlock_tick(&mut self) {
        let mut edges = Vec::new();
        let mut births = Vec::new();
        for pe in &self.pes {
            edges.extend(pe.locks.wait_edges());
            births.extend(pe.locks.births());
        }
        if edges.is_empty() {
            return;
        }
        let victims = deadlock::find_victims(&edges, &births);
        for raw in victims {
            let id = simkit::slab::SlabKey::from_raw(raw);
            self.abort_job(id);
        }
    }

    /// Abort a deadlock victim (OLTP/update transactions only; joins take
    /// only shared relation locks and cannot deadlock). The victim is
    /// retried after a short back-off, per the usual 2PL policy.
    fn abort_job(&mut self, job: JobId) {
        let Some(body) = self.jobs.remove(job).flatten() else {
            return;
        };
        self.metrics.deadlock_victims += 1;
        self.metrics.aborted += 1;
        if let Some(o) = self.obs.as_mut() {
            o.aborted(Self::t_ms(self.events.now()), job.to_raw());
        }
        let (class, pe) = (body.class(), body.coord_pe());
        // Release everything it holds — at *every* PE: a parallel query's
        // scan locks live in the lock tables of the data PEs, not the
        // coordinator's, and leaking one would block later fragment
        // migrations (and their dependents) forever.
        let txn = dbmodel::lock::TxnToken {
            id: job.to_raw(),
            birth: body.submitted(),
        };
        for held_pe in 0..self.pes.len() as u32 {
            let grants = self.pes[held_pe as usize].locks.release_all(txn);
            for (t, object) in grants {
                self.pending.push_back((
                    simkit::slab::SlabKey::from_raw(t.id),
                    Input {
                        task: COORD_TASK,
                        kind: InKind::LockGrant {
                            pe: held_pe,
                            object,
                        },
                    },
                ));
            }
        }
        self.sched.release(job.to_raw());
        self.finish_coord_slot(pe);
        self.pump_admissions();
        // Retry with the same class on the same node.
        let nq = self.cfg.workload.queries.len();
        let class_ref = if (class as usize) < nq {
            ClassRef::Query(class as usize)
        } else {
            ClassRef::Oltp(class as usize - nq)
        };
        self.events
            .after(SimDur::from_millis(1), Ev::Retry(class_ref, pe));
        self.drain();
    }

    // -----------------------------------------------------------------
    // Finalization
    // -----------------------------------------------------------------

    fn finalize(&mut self) -> Summary {
        let now = self.events.now();
        let measured = now.since(self.warmup_time);
        let measured_s = measured.as_secs_f64().max(1e-9);
        let window_units = measured.as_nanos() as u128;

        let mut cpu_utils = Vec::with_capacity(self.cpus.len());
        for (i, cpu) in self.cpus.iter().enumerate() {
            let delta = cpu.busy_integral(now) - self.cpu_busy_at_warmup[i];
            let cap = window_units * cpu.units() as u128;
            cpu_utils.push(if cap == 0 {
                0.0
            } else {
                delta as f64 / cap as f64
            });
        }
        let avg_cpu = cpu_utils.iter().sum::<f64>() / cpu_utils.len().max(1) as f64;
        let max_cpu = cpu_utils.iter().copied().fold(0.0, f64::max);

        let disk_units: u128 = self.disks.iter().map(|d| d.disks() as u128).sum();
        let disk_delta: u128 = self
            .disks
            .iter()
            .map(|d| d.busy_integral(now))
            .sum::<u128>()
            - self.disk_busy_at_warmup;
        let avg_disk = if window_units * disk_units == 0 {
            0.0
        } else {
            disk_delta as f64 / (window_units * disk_units) as f64
        };

        let net_delta: u128 = (0..self.pes.len())
            .map(|pe| self.net.link_busy_integral(now, pe))
            .sum::<u128>()
            - self.net_busy_at_warmup;
        let net_units = self.pes.len() as u128;
        let avg_net = if window_units * net_units == 0 {
            0.0
        } else {
            net_delta as f64 / (window_units * net_units) as f64
        };

        let fault_stats = self.broker.fault_stats();

        let classes = self
            .metrics
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| ClassSummary {
                name: self.metrics.class_name(i as u32).to_string(),
                completed: c.completed,
                mean_ms: c.resp.mean(),
                p95_ms: c.hist.quantile(0.95).as_millis_f64(),
                throughput: c.completed as f64 / measured_s,
            })
            .collect();

        Summary {
            n_pes: self.cfg.n_pes,
            strategy: self
                .broker
                .policy_name(WorkClass::Join { stage: 0 })
                .to_string(),
            sim_seconds: now.as_secs_f64(),
            measured_seconds: measured_s,
            events: self.events.processed(),
            classes,
            avg_cpu_util: avg_cpu,
            max_cpu_util: max_cpu,
            avg_disk_util: avg_disk,
            avg_mem_util: self.mem_util_samples.mean(),
            avg_net_util: avg_net,
            p95_cpu_util: self.metrics.util_quantile(ResourceKind::Cpu, 0.95),
            p95_mem_util: self.metrics.util_quantile(ResourceKind::Mem, 0.95),
            p95_disk_util: self.metrics.util_quantile(ResourceKind::Disk, 0.95),
            p95_net_util: self.metrics.util_quantile(ResourceKind::Net, 0.95),
            avg_join_degree: self.metrics.joins.degree.mean(),
            spill_pages: self.metrics.joins.spill_pages,
            temp_reads: self.metrics.joins.temp_reads,
            mem_waits: self.metrics.joins.mem_waits,
            messages: self.net.messages_sent(),
            aborted: self.metrics.aborted,
            deadlock_victims: self.metrics.deadlock_victims,
            policy_switches: self.broker.policy_switches(),
            migrations: self.metrics.migrations,
            tuples_moved: self.metrics.tuples_moved,
            arrivals: self.metrics.arrivals,
            queue_wait_ms_mean: self.metrics.queue_wait.mean(),
            queue_wait_ms_p95: self.metrics.queue_hist.quantile(0.95).as_millis_f64(),
            peak_queue_depth: self.metrics.peak_queue_depth,
            shrunk_admissions: self.sched.shrunk(),
            rejected: self.sched.rejected(),
            stale_reads_p95_ms: fault_stats.stale_reads_p95_ms,
            false_suspicions: fault_stats.false_suspicions,
            suspected_node_rounds: fault_stats.suspected_node_rounds,
        }
    }

    // -----------------------------------------------------------------
    // Verification hooks for integration tests / diagnostics
    // -----------------------------------------------------------------

    pub fn quiescent_locks(&self) -> bool {
        self.pes.iter().all(|p| p.locks.is_quiescent())
    }

    pub fn live_jobs(&self) -> usize {
        self.jobs.len()
    }

    pub fn events_processed(&self) -> u64 {
        self.events.processed()
    }

    pub fn check_buffer_invariants(&self) {
        for pe in &self.pes {
            pe.buffer.check_invariants();
        }
    }

    /// Panic unless every PE's lock table is consistent with itself and
    /// with the job table: every holder and waiter is a live job, held
    /// lists match holder records both ways, the waiter count is exact,
    /// and no empty entry lingers.
    pub fn check_lock_invariants(&self) {
        let live = |id| self.jobs.contains(simkit::slab::SlabKey::from_raw(id));
        for pe in &self.pes {
            pe.locks.check_invariants(live);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The broker (placement-layer diagnostics).
    pub fn broker(&self) -> &dyn ResourceBroker {
        &*self.broker
    }

    /// Extract a traced run's observability outputs (`None` when the
    /// `trace` knob was off). Call after [`System::run`]; the recorder is
    /// consumed.
    pub fn take_trace(&mut self) -> Option<obs::TraceOutput> {
        self.obs.take().map(|r| r.finish())
    }
}

impl Simulation for System {
    type Event = Ev;

    fn queue_mut(&mut self) -> &mut EventQueue<Ev> {
        &mut self.events
    }

    fn handle(&mut self, _now: SimTime, ev: Ev) {
        if self.prof.is_none() {
            self.dispatch_event(ev);
            return;
        }
        let phase = match &ev {
            Ev::Arrival(_) | Ev::Retry(..) => Phase::Arrival,
            Ev::CpuDone { .. } => Phase::CpuDone,
            Ev::IoDone { .. } => Phase::IoDone,
            Ev::LogDone { .. } => Phase::LogDone,
            Ev::Deliver(_) | Ev::LinkFree { .. } => Phase::Network,
            Ev::ControlTick => Phase::ControlTick,
            Ev::DeadlockTick | Ev::WarmupMark | Ev::Alarm { .. } => Phase::OtherEvent,
        };
        let t0 = std::time::Instant::now();
        self.dispatch_event(ev);
        let d = t0.elapsed();
        self.prof.as_mut().expect("profiling enabled").add(phase, d);
    }

    fn quiesce(&mut self) {
        if self.prof.is_none() {
            self.drain();
            return;
        }
        let t0 = std::time::Instant::now();
        self.drain();
        let d = t0.elapsed();
        self.prof
            .as_mut()
            .expect("profiling enabled")
            .add(Phase::EngineDrain, d);
    }
}
