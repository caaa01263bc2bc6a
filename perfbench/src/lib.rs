//! Outside-in wall-time benchmark of the `snsim` simulator.
//!
//! The benchmark sits outside the program. A workload is a committed
//! scenario spec with the benchmark's seed and run length patched into
//! its base knobs, lowered with `snsim::scenario::configs`. Timed runs
//! call the program's own entry points (`System::run`, and
//! `snsim::run_parallel` for the scaling ratio). The traced pass
//! drives each `System` with [`drive`], a loop over the public
//! `Simulation` methods that times a deterministic sample of events by
//! their `snsim::system::Ev` kind, then calls `System::run()`, which
//! finds nothing left before the horizon and returns the `Summary`.
//! README.md lists the workloads and explains the output.

use simkit::{SimTime, Simulation};
use snsim::system::Ev;
use snsim::{SimConfig, Summary, System};
use std::time::{Duration, Instant};
use workload::scenario::{ScenarioRun, ScenarioSpec};

/// End-to-end metrics, `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("simkit.events", "count"),
    ("simkit.events_per_s", "1/s"),
    ("simkit.pop_ns", "ns"),
    ("simkit.queue_len_max", "count"),
    ("hardware.cpu_done_n", "count"),
    ("hardware.cpu_done_ns", "ns"),
    ("hardware.io_done_n", "count"),
    ("hardware.io_done_ns", "ns"),
    ("hardware.log_done_n", "count"),
    ("hardware.log_done_ns", "ns"),
    ("hardware.net_n", "count"),
    ("hardware.net_ns", "ns"),
    ("engine.drain_ns", "ns"),
    ("engine.drain_share", "ratio"),
    ("snsim.arrival_n", "count"),
    ("snsim.arrival_ns", "ns"),
    ("lb_core.tick_n", "count"),
    ("lb_core.tick_ns", "ns"),
    ("sched.queue_wait_ms_p95", "ms"),
    ("sched.peak_queue_depth", "count"),
    ("sched.rejected", "count"),
    ("sched.shrunk", "count"),
    ("obs.on_cost", "ratio"),
    ("experiment.serial_s", "s"),
    ("experiment.scaling", "ratio"),
    ("setup.lower_s", "s"),
    ("setup.system_new_s", "s"),
    ("model.cpu_util", "ratio"),
    ("model.disk_util", "ratio"),
    ("model.net_util", "ratio"),
    ("model.mem_util", "ratio"),
    ("model.messages", "count"),
    ("model.spill_pages", "count"),
    ("model.temp_reads", "count"),
    ("model.mem_waits", "count"),
    ("trace.overhead", "ratio"),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `thousand_pe_soak`: 1000 PEs of pure debit-credit OLTP.
    OltpSoak,
    /// `thousand_pe_soak_joins`: the same fabric under a join-dominant load.
    JoinSoak,
    /// `flash_crowd` with the observability knob on.
    AdmissionObs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OltpSoak,
        Workload::JoinSoak,
        Workload::AdmissionObs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpSoak => "oltp_soak",
            Workload::JoinSoak => "join_soak",
            Workload::AdmissionObs => "admission_obs",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec_json(self) -> &'static str {
        match self {
            Workload::OltpSoak => include_str!("../../scenarios/thousand_pe_soak.json"),
            Workload::JoinSoak => include_str!("../../scenarios/thousand_pe_soak_joins.json"),
            Workload::AdmissionObs => include_str!("../../scenarios/flash_crowd.json"),
        }
    }

    /// Simulated `(run, warm-up)` seconds patched over the spec's own.
    /// The soaks are shortened so a run holds several repetitions; the
    /// flash crowd is lengthened to 15 burst periods, so that its host
    /// time depends less on how one seed's bursts fall.
    pub fn length(self) -> (f64, f64) {
        match self {
            Workload::OltpSoak => (2.5, 0.5),
            Workload::JoinSoak => (1.5, 0.5),
            Workload::AdmissionObs => (300.0, 15.0),
        }
    }

    /// Whether the timed runs have the observability (`trace`) knob on.
    pub fn trace_knob(self) -> bool {
        self == Workload::AdmissionObs
    }
}

/// A workload's run points, lowered to simulator configurations.
pub struct Lowered {
    pub points: Vec<(ScenarioRun, SimConfig)>,
    /// Host time spent parsing the spec and lowering it.
    pub lower: Duration,
}

impl Lowered {
    pub fn configs(&self) -> Vec<SimConfig> {
        self.points.iter().map(|(_, cfg)| cfg.clone()).collect()
    }
}

/// Parse the workload's spec, patch `seed` and the simulated `(run,
/// warm-up)` seconds into its base knobs, and lower every run point.
pub fn lower(w: Workload, seed: u64, (sim, warmup): (f64, f64)) -> Result<Lowered, String> {
    let t0 = Instant::now();
    let mut spec: ScenarioSpec = serde_json::from_str(w.spec_json())
        .map_err(|e| format!("{}: invalid scenario spec: {e}", w.name()))?;
    spec.base.seed = seed;
    spec.base.sim_secs = sim;
    spec.base.warmup_secs = warmup;
    if w.trace_knob() {
        spec.base.trace = obs::TraceConfig::on();
    }
    let points = snsim::scenario::configs(&spec);
    let lower = t0.elapsed();
    // `drive` replays the sequential dispatcher only, and every run must
    // take the benchmark's seed.
    if let Some((run, _)) = points
        .iter()
        .find(|(_, cfg)| cfg.seed != seed || cfg.exec_threads != 0)
    {
        return Err(format!(
            "{}: run {} is not a sequential run on the benchmark seed",
            w.name(),
            run.label()
        ));
    }
    Ok(Lowered { points, lower })
}

/// FNV-1a hash of a Summary's JSON serialization.
pub fn sim_digest(summary: &Summary) -> u64 {
    let json = serde_json::to_string(summary).expect("a Summary always serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Event kinds the traced pass buckets by, one per layer row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Arrival` and `Retry`: workload draw, admission and placement.
    Arrival,
    CpuDone,
    IoDone,
    LogDone,
    /// `Deliver` and `LinkFree`.
    Net,
    /// `ControlTick`: the broker's report round.
    Tick,
    /// `DeadlockTick`, `WarmupMark` and `Alarm`.
    Other,
}

pub const KINDS: usize = 7;

impl Kind {
    pub fn of(ev: &Ev) -> Kind {
        match ev {
            Ev::Arrival(_) | Ev::Retry(..) => Kind::Arrival,
            Ev::CpuDone { .. } => Kind::CpuDone,
            Ev::IoDone { .. } => Kind::IoDone,
            Ev::LogDone { .. } => Kind::LogDone,
            Ev::Deliver(_) | Ev::LinkFree { .. } => Kind::Net,
            Ev::ControlTick => Kind::Tick,
            Ev::DeadlockTick | Ev::WarmupMark | Ev::Alarm { .. } => Kind::Other,
        }
    }
}

/// Every `STRIDE`-th event by dispatch index is timed. Control ticks,
/// rare and costing milliseconds each, are timed every time.
pub const STRIDE: u64 = 16;

/// Per-kind counts (exact) and sampled host times from [`drive`].
#[derive(Debug, Clone, Default)]
pub struct LayerTrace {
    /// Events dispatched, by kind.
    pub count: [u64; KINDS],
    /// Timed events by kind, and their summed `handle` and `quiesce` ns.
    pub timed: [u64; KINDS],
    pub handle_ns: [u64; KINDS],
    pub drain_ns: [u64; KINDS],
    /// Timed queue reads (`peek_time` + `pop_next`) and their summed ns.
    pub pops_timed: u64,
    pub pop_ns: u64,
    /// Longest future event list seen after an event's drain.
    pub queue_len_max: usize,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn mean(sum: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

impl LayerTrace {
    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Mean `handle` ns of one event of `kind` (0 when none was timed).
    pub fn handle_mean_ns(&self, kind: Kind) -> f64 {
        let k = kind as usize;
        mean(self.handle_ns[k], self.timed[k])
    }

    /// Estimated total ns over all events: each kind's sample mean times
    /// its exact count, so the always-timed ticks are not over-weighted.
    fn estimate(&self, sums: &[u64; KINDS]) -> f64 {
        (0..KINDS)
            .map(|k| mean(sums[k], self.timed[k]) * self.count[k] as f64)
            .sum()
    }

    pub fn est_handle_ns(&self) -> f64 {
        self.estimate(&self.handle_ns)
    }

    pub fn est_drain_ns(&self) -> f64 {
        self.estimate(&self.drain_ns)
    }

    pub fn est_pop_ns(&self) -> f64 {
        mean(self.pop_ns, self.pops_timed) * self.events() as f64
    }
}

/// Dispatch every event up to `end` exactly as `simkit::Dispatcher`
/// does, counting events by kind and timing a deterministic sample.
pub fn drive(sys: &mut System, end: SimTime, tr: &mut LayerTrace) {
    let mut index: u64 = 0;
    loop {
        let sampled = index.is_multiple_of(STRIDE);
        index += 1;
        let t0 = sampled.then(Instant::now);
        match sys.queue_mut().peek_time() {
            Some(t) if t <= end => {}
            _ => break,
        }
        let (t, ev) = sys.queue_mut().pop_next().expect("peeked event");
        let kind = Kind::of(&ev);
        let k = kind as usize;
        tr.count[k] += 1;
        if sampled || kind == Kind::Tick {
            let t1 = Instant::now();
            if let Some(t0) = t0 {
                tr.pop_ns += ns(t1 - t0);
                tr.pops_timed += 1;
            }
            sys.handle(t, ev);
            let t2 = Instant::now();
            sys.quiesce();
            let t3 = Instant::now();
            tr.timed[k] += 1;
            tr.handle_ns[k] += ns(t2 - t1);
            tr.drain_ns[k] += ns(t3 - t2);
        } else {
            sys.handle(t, ev);
            sys.quiesce();
        }
        tr.queue_len_max = tr.queue_len_max.max(sys.queue_mut().len());
    }
}

/// Finish a built simulator with the program's own loop and return its
/// Summary, taking the outputs the trace knob produced (if on) as a
/// caller of a traced run would.
pub fn run_to_end(sys: &mut System) -> Summary {
    let summary = sys.run();
    std::hint::black_box(sys.take_trace());
    summary
}
