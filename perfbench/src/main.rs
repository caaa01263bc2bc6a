//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` is spent (at least
//! [`MIN_REPS`] times untraced, once traced), prints one line per run
//! and metric, and ends with one JSON object: `correct`, `attempted`,
//! `failed` and the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics as medians over the repetitions.

use perfbench::{
    drive, lower, run_to_end, sim_digest, Kind, LayerTrace, Lowered, Workload, END_TO_END,
    PER_LAYER,
};
use serde_json::Value;
use simkit::SimTime;
use snsim::{run_parallel, SimConfig, Summary, System};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fewest untraced repetitions a run reports a median over.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run `f`, turning a panic into `None` (the panic message still reaches
/// standard error through the default hook).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Simulations attempted and failed over the whole command. A run fails
/// when it panics, breaks the buffer invariants, or yields a `sim_digest`
/// other than the one its first execution produced: repeats, the
/// parallel, knob-flipped and traced passes must all agree.
struct Tally {
    attempted: u64,
    failed: u64,
    digests: Vec<Option<u64>>,
}

impl Tally {
    fn new(runs: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            digests: vec![None; runs],
        }
    }

    fn record(&mut self, run: usize, what: &str, summary: Option<&Summary>) {
        self.attempted += 1;
        let Some(summary) = summary else {
            self.failed += 1;
            eprintln!("run {run} ({what}): panicked or broke an invariant");
            return;
        };
        let digest = sim_digest(summary);
        match self.digests[run] {
            None => self.digests[run] = Some(digest),
            Some(first) if first != digest => {
                self.failed += 1;
                eprintln!("run {run} ({what}): sim_digest {digest:016x} != {first:016x}");
            }
            Some(_) => {}
        }
    }
}

/// One simulation run in this thread: build, run to the horizon (through
/// [`drive`] when `trace` is given), check the buffer invariants.
struct Serial {
    summary: Option<Summary>,
    new: Duration,
    run: Duration,
}

fn run_serial(cfg: SimConfig, trace: Option<&mut LayerTrace>) -> Serial {
    let end = SimTime::ZERO + cfg.sim_time;
    let t0 = Instant::now();
    let Some(mut sys) = guarded(|| System::new(cfg)) else {
        return Serial {
            summary: None,
            new: t0.elapsed(),
            run: Duration::ZERO,
        };
    };
    let t1 = Instant::now();
    let summary = guarded(|| {
        if let Some(tr) = trace {
            drive(&mut sys, end, tr);
        }
        run_to_end(&mut sys)
    });
    let run = t1.elapsed();
    let summary = summary.filter(|_| guarded(|| sys.check_buffer_invariants()).is_some());
    Serial {
        summary,
        new: t1 - t0,
        run,
    }
}

/// `snsim::run_parallel` over every configuration, timed. A panic in any
/// run fails them all: the call cannot say which one it was.
fn run_all_parallel(cfgs: Vec<SimConfig>) -> (Vec<Option<Summary>>, Duration) {
    let n = cfgs.len();
    let t0 = Instant::now();
    let out = guarded(|| run_parallel(cfgs));
    let wall = t0.elapsed();
    let summaries = match out {
        Some(s) => s.into_iter().map(Some).collect(),
        None => vec![None; n],
    };
    (summaries, wall)
}

/// Set-up is timed in rounds, at least [`SETUP_MIN_ROUNDS`] per
/// repetition and until [`SETUP_MIN_TIME`] is spent; `setup_s` is the
/// median round.
const SETUP_MIN_ROUNDS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(100);

/// Set-up rounds, each timed in two parts: parsing and lowering the
/// spec, then building (and dropping) every configuration's `System`.
#[derive(Default)]
struct Setup {
    lower_s: Vec<f64>,
    system_new_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl Setup {
    fn rounds(&mut self, w: Workload, seed: u64) {
        let start = Instant::now();
        let mut n = 0;
        while n < SETUP_MIN_ROUNDS || start.elapsed() < SETUP_MIN_TIME {
            let low = lower(w, seed, w.length()).expect("the spec lowered before timing");
            let mut new = Duration::ZERO;
            for cfg in low.configs() {
                let t0 = Instant::now();
                let sys = guarded(|| System::new(cfg));
                new += t0.elapsed();
                drop(sys);
            }
            self.lower_s.push(low.lower.as_secs_f64());
            self.system_new_s.push(new.as_secs_f64());
            self.total_s.push((low.lower + new).as_secs_f64());
            n += 1;
        }
    }
}

/// Build and run each configuration with `System::run` in turn. Returns
/// the summed `System::new` and run times and the summaries.
fn serial_pass(low: &Lowered, tally: &mut Tally) -> (Duration, Duration, Vec<Option<Summary>>) {
    let (mut new, mut run) = (Duration::ZERO, Duration::ZERO);
    let mut summaries = Vec::new();
    for (i, cfg) in low.configs().into_iter().enumerate() {
        let r = run_serial(cfg, None);
        new += r.new;
        run += r.run;
        tally.record(i, "System::run", r.summary.as_ref());
        summaries.push(r.summary);
    }
    (new, run, summaries)
}

/// One traced repetition: every per-layer metric, by name.
fn layer_rep(
    w: Workload,
    low: &Lowered,
    tally: &mut Tally,
) -> (BTreeMap<&'static str, f64>, Vec<Option<Summary>>) {
    // (a) Serial, untraced: the reference for events/s, trace overhead,
    // the serial side of the scaling ratio and the modelled outputs.
    let (new_s, run_s, summaries) = serial_pass(low, tally);
    // (b) The same configurations through `run_parallel`.
    let (par, par_wall) = run_all_parallel(low.configs());
    for (i, s) in par.iter().enumerate() {
        tally.record(i, "run_parallel", s.as_ref());
    }
    // (c) The observability knob flipped: its Summary must not change.
    let mut flipped_s = Duration::ZERO;
    for (i, cfg) in low.configs().into_iter().enumerate() {
        let knob = if cfg.trace.enabled {
            obs::TraceConfig::default()
        } else {
            obs::TraceConfig::on()
        };
        let r = run_serial(cfg.with_trace(knob), None);
        flipped_s += r.run;
        tally.record(i, "trace knob flipped", r.summary.as_ref());
    }
    // (d) This crate's loop with sampled per-kind timing.
    let mut tr = LayerTrace::default();
    let mut traced_s = Duration::ZERO;
    for (i, cfg) in low.configs().into_iter().enumerate() {
        let r = run_serial(cfg, Some(&mut tr));
        traced_s += r.run;
        tally.record(i, "traced", r.summary.as_ref());
    }

    let ok: Vec<&Summary> = summaries.iter().flatten().collect();
    let n = ok.len().max(1) as f64;
    let sum = |f: fn(&Summary) -> u64| ok.iter().map(|s| f(s)).sum::<u64>() as f64;
    let avg = |f: fn(&Summary) -> f64| ok.iter().map(|s| f(s)).sum::<f64>() / n;
    let max = |f: fn(&Summary) -> f64| ok.iter().map(|s| f(s)).fold(0.0, f64::max);
    let (on, off) = if w.trace_knob() {
        (run_s, flipped_s)
    } else {
        (flipped_s, run_s)
    };
    let events = tr.events() as f64;
    let (handle, drain, pop) = (tr.est_handle_ns(), tr.est_drain_ns(), tr.est_pop_ns());
    let net = Kind::Net as usize;
    let serial = (new_s + run_s).as_secs_f64();
    let m = BTreeMap::from([
        ("simkit.events", events),
        ("simkit.events_per_s", events / run_s.as_secs_f64()),
        ("simkit.pop_ns", pop / events.max(1.0)),
        ("simkit.queue_len_max", tr.queue_len_max as f64),
        (
            "hardware.cpu_done_n",
            tr.count[Kind::CpuDone as usize] as f64,
        ),
        ("hardware.cpu_done_ns", tr.handle_mean_ns(Kind::CpuDone)),
        ("hardware.io_done_n", tr.count[Kind::IoDone as usize] as f64),
        ("hardware.io_done_ns", tr.handle_mean_ns(Kind::IoDone)),
        (
            "hardware.log_done_n",
            tr.count[Kind::LogDone as usize] as f64,
        ),
        ("hardware.log_done_ns", tr.handle_mean_ns(Kind::LogDone)),
        ("hardware.net_n", tr.count[net] as f64),
        ("hardware.net_ns", tr.handle_mean_ns(Kind::Net)),
        ("engine.drain_ns", drain / events.max(1.0)),
        (
            "engine.drain_share",
            drain / (handle + drain + pop).max(1.0),
        ),
        ("snsim.arrival_n", tr.count[Kind::Arrival as usize] as f64),
        ("snsim.arrival_ns", tr.handle_mean_ns(Kind::Arrival)),
        ("lb_core.tick_n", tr.count[Kind::Tick as usize] as f64),
        ("lb_core.tick_ns", tr.handle_mean_ns(Kind::Tick)),
        ("sched.queue_wait_ms_p95", max(|s| s.queue_wait_ms_p95)),
        ("sched.peak_queue_depth", max(|s| s.peak_queue_depth as f64)),
        ("sched.rejected", sum(|s| s.rejected)),
        ("sched.shrunk", sum(|s| s.shrunk_admissions)),
        ("obs.on_cost", on.as_secs_f64() / off.as_secs_f64()),
        ("experiment.serial_s", serial),
        ("experiment.scaling", serial / par_wall.as_secs_f64()),
        ("model.cpu_util", avg(|s| s.avg_cpu_util)),
        ("model.disk_util", avg(|s| s.avg_disk_util)),
        ("model.net_util", avg(|s| s.avg_net_util)),
        ("model.mem_util", avg(|s| s.avg_mem_util)),
        ("model.messages", sum(|s| s.messages)),
        ("model.spill_pages", sum(|s| s.spill_pages)),
        ("model.temp_reads", sum(|s| s.temp_reads)),
        ("model.mem_waits", sum(|s| s.mem_waits)),
        (
            "trace.overhead",
            traced_s.as_secs_f64() / run_s.as_secs_f64(),
        ),
    ]);
    (m, summaries)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Repeat `rep` until `budget` would be overrun by one more repetition of
/// median length, and at least `min_reps` times.
fn repeat<T>(budget: Duration, min_reps: usize, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        out.push(rep());
        times.push(t0.elapsed().as_secs_f64());
        let next = start.elapsed().as_secs_f64() + median(&mut times.clone());
        if out.len() >= min_reps && next > budget.as_secs_f64() {
            return out;
        }
    }
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Print one line per run point: its label, `sim_digest` and headline
/// modelled results.
fn print_runs(low: &Lowered, summaries: &[Option<Summary>]) {
    for (i, ((run, _), s)) in low.points.iter().zip(summaries).enumerate() {
        let label = run.label().replace(' ', ",");
        match s {
            Some(s) => println!(
                "run {i} {label} sim_digest {:016x} model.join_ms {:.3} model.oltp_ms {}",
                sim_digest(s),
                s.join_resp_ms(),
                s.oltp_resp_ms()
                    .map_or("none".into(), |v| format!("{v:.3}")),
            ),
            None => println!("run {i} {label} failed"),
        }
    }
}

fn metric_object(names: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> Value {
    Value::Object(
        names
            .iter()
            .map(|&(name, unit)| {
                let v = values[name];
                println!("{name} {v} {unit}");
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(v)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<Value, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let low = lower(w, args.seed, w.length())?;
    let mut tally = Tally::new(low.points.len());
    println!(
        "workload {} seed {} runs_per_rep {} trace {}",
        w.name(),
        args.seed,
        low.points.len(),
        u8::from(args.trace)
    );
    let mut printed = false;
    let mut setup = Setup::default();
    let (names, values): (&[(&str, &str)], BTreeMap<&str, f64>) = if args.trace {
        let reps = repeat(budget, 1, || {
            setup.rounds(w, args.seed);
            let (m, summaries) = layer_rep(w, &low, &mut tally);
            if !printed {
                print_runs(&low, &summaries);
                printed = true;
            }
            m
        });
        let mut values: BTreeMap<&str, f64> = reps[0]
            .keys()
            .map(|&name| {
                let mut v: Vec<f64> = reps.iter().map(|m| m[name]).collect();
                (name, median(&mut v))
            })
            .collect();
        values.insert("setup.lower_s", median(&mut setup.lower_s));
        values.insert("setup.system_new_s", median(&mut setup.system_new_s));
        (&PER_LAYER, values)
    } else {
        let mut walls = repeat(budget, MIN_REPS, || {
            setup.rounds(w, args.seed);
            let (_, wall, summaries) = serial_pass(&low, &mut tally);
            if !printed {
                print_runs(&low, &summaries);
                printed = true;
            }
            wall.as_secs_f64()
        });
        println!("reps {} wall_s_each {walls:?}", walls.len());
        let values = BTreeMap::from([
            ("wall_s", median(&mut walls)),
            ("setup_s", median(&mut setup.total_s)),
            ("peak_rss_mb", peak_rss_mb()?),
        ]);
        (&END_TO_END, values)
    };
    let metrics = metric_object(names, &values);
    println!("runs {} count", tally.attempted);
    println!("runs_failed {} count", tally.failed);
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), metrics),
    ]))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(json) => println!("{}", serde_json::to_string(&json).expect("JSON writes")),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
