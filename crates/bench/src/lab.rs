//! The scenario-lab runner: execute declarative [`ScenarioSpec`]s and
//! collect labelled result rows.
//!
//! This is the engine behind `cargo run --release --bin lab` and behind
//! the thin `fig*` wrappers: a spec is expanded (`workload::scenario`),
//! lowered to configurations (`snsim::scenario`), fanned out over all
//! cores (`snsim::run_parallel`), and the per-run [`Summary`] values come
//! back as [`LabRow`]s carrying their sweep-axis labels. Results are
//! written under `results/<scenario>.runs.json` and
//! `results/<scenario>.csv` (the `.runs.json` suffix keeps lab output
//! from clobbering the legacy `results/<fig>.json` series files written
//! by [`crate::write_results_json`]).

use snsim::{run_parallel, SimConfig, Summary};
use std::path::{Path, PathBuf};
use workload::scenario::{ScenarioRun, ScenarioSpec};

/// Run-length selection for a whole scenario execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLength {
    /// Use each run's `sim_secs` / `warmup_secs` from the spec.
    Spec,
    /// Override with the long figure-quality runs (120 s / 20 s).
    Full,
    /// Override with very short smoke runs (8 s / 2 s) for CI.
    Smoke,
}

impl RunLength {
    /// Parse from process args (`--full`, `--smoke`).
    pub fn from_args() -> RunLength {
        let mut len = RunLength::Spec;
        for a in std::env::args() {
            match a.as_str() {
                "--full" => len = RunLength::Full,
                "--smoke" => len = RunLength::Smoke,
                _ => {}
            }
        }
        len
    }

    fn apply(self, cfg: SimConfig) -> SimConfig {
        use simkit::SimDur;
        match self {
            RunLength::Spec => cfg,
            RunLength::Full => cfg.with_sim_time(SimDur::from_secs(120), SimDur::from_secs(20)),
            RunLength::Smoke => cfg.with_sim_time(SimDur::from_secs(8), SimDur::from_secs(2)),
        }
    }
}

/// One completed run: its sweep-axis labels plus the simulator summary.
#[derive(Debug, Clone)]
pub struct LabRow {
    /// `(axis, value)` pairs in expansion order.
    pub axes: Vec<(String, String)>,
    /// Series key: the `strategy` axis value (or the base strategy
    /// label), with the `admission` axis value appended as
    /// `strategy@admission` when admission policies are swept.
    pub strategy: String,
    /// X key: all non-series axis values joined with `/` (`"base"` if
    /// nothing else was swept).
    pub x: String,
    /// The simulator's output for this run.
    pub summary: Summary,
}

impl LabRow {
    /// Value of one sweep axis, if it was swept.
    pub fn axis(&self, name: &str) -> Option<&str> {
        self.axes
            .iter()
            .find(|(a, _)| a == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a scenario spec from JSON text, defaulting an empty `name` to
/// `fallback_name` (the file stem).
pub fn parse_spec(json: &str, fallback_name: &str) -> Result<ScenarioSpec, String> {
    let mut spec: ScenarioSpec =
        serde_json::from_str(json).map_err(|e| format!("invalid scenario spec: {e}"))?;
    if spec.name.is_empty() {
        spec.name = fallback_name.to_string();
    }
    Ok(spec)
}

/// Load a scenario spec from a JSON file.
pub fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scenario");
    parse_spec(&json, stem)
}

fn row_keys(run: &ScenarioRun) -> (String, String) {
    let mut strategy = run
        .axis("strategy")
        .map(str::to_string)
        .unwrap_or_else(|| run.knobs.strategy.label());
    // A swept admission policy is a series dimension like the strategy:
    // figures compare "OPT-IO-CPU@fcfs" against "OPT-IO-CPU@malleable".
    if let Some(admission) = run.axis("admission") {
        strategy = format!("{strategy}@{admission}");
    }
    let rest: Vec<&str> = run
        .axes
        .iter()
        .filter(|(a, _)| a != "strategy" && a != "admission")
        .map(|(_, v)| v.as_str())
        .collect();
    let x = if rest.is_empty() {
        "base".to_string()
    } else {
        rest.join("/")
    };
    (strategy, x)
}

/// Execute every run of a scenario in parallel, preserving expansion
/// order in the returned rows.
pub fn run_scenario(spec: &ScenarioSpec, len: RunLength) -> Vec<LabRow> {
    let lowered = snsim::scenario::configs(spec);
    let (runs, cfgs): (Vec<ScenarioRun>, Vec<SimConfig>) = lowered
        .into_iter()
        .map(|(run, cfg)| (run, len.apply(cfg)))
        .unzip();
    let summaries = run_parallel(cfgs);
    runs.into_iter()
        .zip(summaries)
        .map(|(run, summary)| {
            let (strategy, x) = row_keys(&run);
            LabRow {
                axes: run.axes,
                strategy,
                x,
                summary,
            }
        })
        .collect()
}

/// Execute every run of a scenario **serially** with wall-clock phase
/// profiling enabled, merging the per-run phase breakdowns into one
/// report. Serial on purpose: profiling measures where the simulator
/// spends time, and concurrent runs on shared cores would distort every
/// number. Summaries are bit-identical to [`run_scenario`]'s.
pub fn run_scenario_profiled(
    spec: &ScenarioSpec,
    len: RunLength,
) -> (Vec<LabRow>, snsim::ProfileReport) {
    let lowered = snsim::scenario::configs(spec);
    let mut report = snsim::ProfileReport::empty();
    let rows = lowered
        .into_iter()
        .map(|(run, cfg)| {
            let (summary, r) = snsim::run_one_profiled(len.apply(cfg));
            report.merge(&r);
            let (strategy, x) = row_keys(&run);
            LabRow {
                axes: run.axes,
                strategy,
                x,
                summary,
            }
        })
        .collect();
    (rows, report)
}

/// Execute every run of a scenario **serially** with the observability
/// layer forced on, returning each run's trace output alongside its row.
/// Serial so a traced 1000-PE soak never holds more than one run's event
/// buffer at a time; summaries stay bit-identical to [`run_scenario`]'s
/// (the recorder only reads state — see `tests/obs_parity.rs`).
pub fn run_scenario_traced(spec: &ScenarioSpec, len: RunLength) -> Vec<(LabRow, obs::TraceOutput)> {
    let lowered = snsim::scenario::configs(spec);
    lowered
        .into_iter()
        .map(|(run, cfg)| {
            let mut cfg = len.apply(cfg);
            cfg.trace.enabled = true;
            let (summary, trace) = snsim::run_one_traced(cfg);
            let trace = trace.expect("trace enabled");
            let (strategy, x) = row_keys(&run);
            (
                LabRow {
                    axes: run.axes,
                    strategy,
                    x,
                    summary,
                },
                trace,
            )
        })
        .collect()
}

fn write_results_file(path: &PathBuf, contents: String) -> Option<PathBuf> {
    match std::fs::write(path, contents) {
        Ok(()) => Some(path.clone()),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Serialize every traced run's round samples to
/// `results/<name>.timeseries.json` (one entry per run, keyed by the
/// run's series/x labels; schema documented in README.md).
pub fn write_timeseries_json(name: &str, traced: &[(LabRow, obs::TraceOutput)]) -> Option<PathBuf> {
    let runs: Vec<serde_json::Value> = traced
        .iter()
        .map(|(row, t)| {
            serde_json::json!({
                "strategy": row.strategy,
                "x": row.x,
                "rounds_seen": t.timeseries.rounds_seen,
                "stride": t.timeseries.stride,
                "samples": t.timeseries.samples,
            })
        })
        .collect();
    let payload = serde_json::json!({
        "scenario": name,
        "runs": serde_json::Value::Array(runs),
    });
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.timeseries.json"));
    match serde_json::to_string_pretty(&payload) {
        Ok(json) => write_results_file(&path, json),
        Err(e) => {
            eprintln!("warning: could not serialize {name} timeseries: {e}");
            None
        }
    }
}

/// Flatten every traced run's round samples to
/// `results/<name>.timeseries.csv`, one row per retained sample.
pub fn write_timeseries_csv(name: &str, traced: &[(LabRow, obs::TraceOutput)]) -> Option<PathBuf> {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(out, "scenario,strategy,x,round,t_ms");
    for k in obs::KIND_NAMES {
        let _ = write!(out, ",{k}_avg");
    }
    for k in obs::KIND_NAMES {
        let _ = write!(out, ",{k}_p95");
    }
    let _ = writeln!(
        out,
        ",admission_backlog,mpl_backlog,oldest_wait_ms,live_nodes,suspected_nodes,\
         inflight_migrations,arrivals,rejections,shrunk,completions,policy"
    );
    for (row, t) in traced {
        for s in &t.timeseries.samples {
            let _ = write!(
                out,
                "{},{},{},{},{:.3}",
                csv_escape(name),
                csv_escape(&row.strategy),
                csv_escape(&row.x),
                s.round,
                s.t_ms,
            );
            for v in &s.util_avg {
                let _ = write!(out, ",{v:.4}");
            }
            for v in &s.util_p95 {
                let _ = write!(out, ",{v:.4}");
            }
            let _ = writeln!(
                out,
                ",{},{},{:.3},{},{},{},{},{},{},{},{}",
                s.admission_backlog,
                s.mpl_backlog,
                s.oldest_wait_ms,
                s.live_nodes,
                s.suspected_nodes,
                s.inflight_migrations,
                s.arrivals,
                s.rejections,
                s.shrunk,
                s.completions,
                csv_escape(&s.policy),
            );
        }
    }
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    write_results_file(&dir.join(format!("{name}.timeseries.csv")), out)
}

/// Serialize every traced run's placement-decision digest to
/// `results/<name>.explain.json`.
pub fn write_explain_json(name: &str, traced: &[(LabRow, obs::TraceOutput)]) -> Option<PathBuf> {
    let runs: Vec<serde_json::Value> = traced
        .iter()
        .map(|(row, t)| {
            serde_json::json!({
                "strategy": row.strategy,
                "x": row.x,
                "events_dropped": t.events_dropped,
                "explain": t.explain,
            })
        })
        .collect();
    let payload = serde_json::json!({
        "scenario": name,
        "runs": serde_json::Value::Array(runs),
    });
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.explain.json"));
    match serde_json::to_string_pretty(&payload) {
        Ok(json) => write_results_file(&path, json),
        Err(e) => {
            eprintln!("warning: could not serialize {name} explain: {e}");
            None
        }
    }
}

/// Write every traced run's lifecycle events to
/// `results/<name>.trace.jsonl`. Runs are separated by a
/// `{"ev":"run",...}` header line so the stream stays one valid JSONL
/// file across a sweep.
pub fn write_trace_jsonl(name: &str, traced: &[(LabRow, obs::TraceOutput)]) -> Option<PathBuf> {
    use std::fmt::Write;
    let mut out = String::new();
    for (row, t) in traced {
        let header = serde_json::json!({
            "ev": "run",
            "strategy": row.strategy,
            "x": row.x,
            "events": t.events.len() as u64,
            "events_dropped": t.events_dropped,
        });
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string(&header).unwrap_or_default()
        );
        for line in &t.events {
            let _ = writeln!(out, "{line}");
        }
    }
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    write_results_file(&dir.join(format!("{name}.trace.jsonl")), out)
}

/// Print the `--explain` digest: per run, per policy — decision counts,
/// win margins between the best and runner-up candidate scores, and the
/// top-K "why node X" winner table.
pub fn print_explain(name: &str, traced: &[(LabRow, obs::TraceOutput)]) {
    for (row, t) in traced {
        println!("== explain `{name}` {}@{}", row.strategy, row.x);
        if t.explain.is_empty() {
            println!("   (no placement decisions recorded)");
            continue;
        }
        for e in &t.explain {
            println!(
                "   policy {:>12}: {} decisions, margin mean {:.4} (min {:.4}, max {:.4}), \
                 {} clear wins",
                e.policy, e.decisions, e.margin_mean, e.margin_min, e.margin_max, e.clear_wins
            );
            for n in &e.top_nodes {
                println!(
                    "      node {:>4}: {} wins, mean bottleneck at win {:.4}",
                    n.node, n.wins, n.mean_score_at_win
                );
            }
        }
        if t.events_dropped > 0 {
            println!(
                "   ({} events dropped past the retention cap)",
                t.events_dropped
            );
        }
    }
}

/// Serialize a profile report to `results/<name>.profile.json`.
pub fn write_profile_json(name: &str, report: &snsim::ProfileReport) -> Option<PathBuf> {
    let rows: Vec<serde_json::Value> = report
        .rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "phase": r.phase,
                "calls": r.calls,
                "secs": r.secs,
                "share": if report.total_wall_secs > 0.0 {
                    r.secs / report.total_wall_secs
                } else {
                    0.0
                },
            })
        })
        .collect();
    let payload = serde_json::json!({
        "scenario": name,
        "runs": report.runs,
        "total_wall_secs": report.total_wall_secs,
        "phases": serde_json::Value::Array(rows),
    });
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.profile.json"));
    match serde_json::to_string_pretty(&payload) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write {}: {e}", path.display());
                None
            }
        },
        Err(e) => {
            eprintln!("warning: could not serialize {name} profile: {e}");
            None
        }
    }
}

/// Group rows into figure-style series: one series per strategy key, one
/// x-entry per distinct x key, both in first-appearance order. `metric`
/// extracts the plotted value.
pub fn series_by_strategy(
    rows: &[LabRow],
    metric: impl Fn(&Summary) -> f64,
) -> (Vec<String>, Vec<(String, Vec<f64>)>) {
    let mut xs: Vec<String> = Vec::new();
    for row in rows {
        if !xs.contains(&row.x) {
            xs.push(row.x.clone());
        }
    }
    // xs is complete at this point, so every series vector can be
    // allocated at its final length up front.
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for row in rows {
        let xi = xs.iter().position(|x| *x == row.x).expect("x registered");
        let entry = match series.iter_mut().find(|(name, _)| *name == row.strategy) {
            Some(e) => e,
            None => {
                series.push((row.strategy.clone(), vec![f64::NAN; xs.len()]));
                series.last_mut().expect("just pushed")
            }
        };
        entry.1[xi] = metric(&row.summary);
    }
    (xs, series)
}

/// Convert lab rows to the `(series, points)` shape of
/// [`crate::write_results_json`], grouping by strategy.
pub fn rows_by_strategy(rows: &[LabRow]) -> Vec<(String, Vec<Summary>)> {
    let mut grouped: Vec<(String, Vec<Summary>)> = Vec::new();
    for row in rows {
        match grouped.iter_mut().find(|(name, _)| *name == row.strategy) {
            Some((_, sums)) => sums.push(row.summary.clone()),
            None => grouped.push((row.strategy.clone(), vec![row.summary.clone()])),
        }
    }
    grouped
}

/// Print the scenario's headline table (join response time, plus OLTP
/// response time when any run has an OLTP class).
pub fn print_tables(spec: &ScenarioSpec, rows: &[LabRow]) {
    let (xs, series) = series_by_strategy(rows, Summary::join_resp_ms);
    println!(
        "{}",
        snsim::format_table(
            &format!("{} — join response time [ms]", spec.name),
            "x",
            &xs,
            &series,
        )
    );
    if rows.iter().any(|r| r.summary.oltp_resp_ms().is_some()) {
        let (xs, series) = series_by_strategy(rows, |s| s.oltp_resp_ms().unwrap_or(f64::NAN));
        println!(
            "{}",
            snsim::format_table(
                &format!("{} — OLTP response time [ms]", spec.name),
                "x",
                &xs,
                &series,
            )
        );
    }
}

/// Serialize rows (axes + full summaries) to `results/<name>.runs.json`.
pub fn write_lab_json(name: &str, rows: &[LabRow]) -> Option<PathBuf> {
    let payload: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "axes": serde_json::Value::Object(
                    r.axes
                        .iter()
                        .map(|(a, v)| (a.clone(), serde_json::Value::Str(v.clone())))
                        .collect(),
                ),
                "strategy": r.strategy,
                "x": r.x,
                "summary": r.summary,
            })
        })
        .collect();
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.runs.json"));
    match serde_json::to_string_pretty(&payload) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write {}: {e}", path.display());
                None
            }
        },
        Err(e) => {
            eprintln!("warning: could not serialize {name}: {e}");
            None
        }
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Write the headline metrics to `results/<name>.csv`, one row per run
/// with one column per sweep axis.
pub fn write_lab_csv(name: &str, rows: &[LabRow]) -> Option<PathBuf> {
    use std::fmt::Write;
    // The strategy axis gets its own fixed column below.
    let axis_names: Vec<String> = rows
        .first()
        .map(|r| {
            r.axes
                .iter()
                .map(|(a, _)| a.clone())
                .filter(|a| a != "strategy")
                .collect()
        })
        .unwrap_or_default();
    let mut out = String::new();
    let _ = write!(out, "scenario");
    for a in &axis_names {
        let _ = write!(out, ",{}", csv_escape(a));
    }
    let _ = writeln!(
        out,
        ",strategy,n_pes,join_resp_ms,oltp_resp_ms,avg_cpu_util,avg_disk_util,\
         avg_mem_util,avg_net_util,p95_cpu_util,p95_mem_util,p95_disk_util,\
         p95_net_util,avg_join_degree,policy_switches,events,\
         stale_reads_p95_ms,false_suspicions,suspected_node_rounds"
    );
    for r in rows {
        let _ = write!(out, "{}", csv_escape(name));
        for a in &axis_names {
            let v = r
                .axes
                .iter()
                .find(|(name, _)| name == a)
                .map(|(_, v)| v.as_str())
                .unwrap_or("");
            let _ = write!(out, ",{}", csv_escape(v));
        }
        let s = &r.summary;
        let oltp = s
            .oltp_resp_ms()
            .map(|v| format!("{v:.3}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            ",{},{},{:.3},{oltp},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.3},{},{},\
             {:.1},{},{}",
            csv_escape(&r.strategy),
            s.n_pes,
            s.join_resp_ms(),
            s.avg_cpu_util,
            s.avg_disk_util,
            s.avg_mem_util,
            s.avg_net_util,
            s.p95_cpu_util,
            s.p95_mem_util,
            s.p95_disk_util,
            s.p95_net_util,
            s.avg_join_degree,
            s.policy_switches,
            s.events,
            s.stale_reads_p95_ms,
            s.false_suspicions,
            s.suspected_node_rounds,
        );
    }
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, out) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Run a bundled figure spec (embedded JSON) and return its rows: the
/// shared path of the thin `fig*` wrappers.
pub fn run_embedded(json: &str, name: &str, len: RunLength) -> (ScenarioSpec, Vec<LabRow>) {
    let spec = parse_spec(json, name).unwrap_or_else(|e| panic!("bundled spec {name}: {e}"));
    let rows = run_scenario(&spec, len);
    (spec, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::scenario::{Knobs, StrategySpec, Sweep};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            base: Knobs {
                n_pes: 10,
                sim_secs: 4.0,
                warmup_secs: 1.0,
                ..Knobs::default()
            },
            sweep: Sweep {
                strategy: vec![
                    StrategySpec(lb_core::Strategy::MinIo),
                    StrategySpec(lb_core::Strategy::OptIoCpu),
                ],
                n_pes: vec![10, 20],
                ..Sweep::default()
            },
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn scenario_rows_carry_axes_and_group_into_series() {
        let spec = tiny_spec();
        let rows = run_scenario(&spec, RunLength::Spec);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.summary.events > 0));
        let (xs, series) = series_by_strategy(&rows, Summary::join_resp_ms);
        assert_eq!(xs, vec!["10", "20"]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, "MIN-IO");
        assert_eq!(series[1].0, "OPT-IO-CPU");
        assert!(series.iter().all(|(_, ys)| ys.len() == 2));
        let grouped = rows_by_strategy(&rows);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].1.len(), 2);
    }

    #[test]
    fn spec_name_falls_back_to_file_stem() {
        let spec = parse_spec("{}", "from-file").unwrap();
        assert_eq!(spec.name, "from-file");
        assert_eq!(spec.run_count(), 1);
        assert!(parse_spec("{", "x").is_err());
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
