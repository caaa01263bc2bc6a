//! Experiment harness: run configurations (optionally in parallel across
//! threads), aggregate replications, format result tables.
//!
//! Every simulation itself is single-threaded and deterministic; the
//! harness fans independent (configuration, seed) points out over a
//! `std::thread::scope` and collects [`Summary`] values behind a mutex,
//! so sweeps use all cores without perturbing any individual run.

use crate::config::SimConfig;
use crate::metrics::Summary;
use crate::profile::ProfileReport;
use crate::system::System;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Run one configuration to completion.
pub fn run_one(cfg: SimConfig) -> Summary {
    System::new(cfg).run()
}

/// Run one configuration with wall-clock phase profiling enabled. The
/// summary is bit-identical to [`run_one`] on the same configuration —
/// profiling only reads the wall clock around phases.
pub fn run_one_profiled(cfg: SimConfig) -> (Summary, ProfileReport) {
    let t0 = std::time::Instant::now();
    let mut sys = System::new(cfg);
    sys.enable_profiling();
    let summary = sys.run();
    let report = sys.profile_report(t0.elapsed());
    (summary, report)
}

/// Run one configuration and extract its observability outputs. With the
/// `trace` knob off this is exactly [`run_one`] (the trace half is
/// `None`); with it on, the summary is still bit-identical to the
/// untraced run — the recorder only reads state, never feeds back.
pub fn run_one_traced(cfg: SimConfig) -> (Summary, Option<obs::TraceOutput>) {
    let mut sys = System::new(cfg);
    let summary = sys.run();
    let trace = sys.take_trace();
    (summary, trace)
}

/// Run `reps` replications with derived seeds and average the headline
/// response times (common-random-number comparisons use the same `reps`).
pub fn run_reps(cfg: &SimConfig, reps: u32) -> AggregateSummary {
    let summaries: Vec<Summary> = (0..reps)
        .map(|r| {
            run_one(
                cfg.clone()
                    .with_seed(cfg.seed.wrapping_add(r as u64 * 7919)),
            )
        })
        .collect();
    AggregateSummary::from(summaries)
}

/// Run many independent configurations across threads, preserving input
/// order in the output.
pub fn run_parallel(cfgs: Vec<SimConfig>) -> Vec<Summary> {
    let n = cfgs.len();
    let results: Mutex<Vec<Option<Summary>>> = Mutex::new(vec![None; n]);
    let work: Mutex<Vec<(usize, SimConfig)>> =
        Mutex::new(cfgs.into_iter().enumerate().rev().collect());
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = work.lock().expect("work queue poisoned").pop();
                match next {
                    Some((i, cfg)) => {
                        let s = run_one(cfg);
                        results.lock().expect("results poisoned")[i] = Some(s);
                    }
                    None => break,
                }
            });
        }
    });
    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|s| s.expect("all points completed"))
        .collect()
}

/// Aggregated replications of one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregateSummary {
    pub reps: u32,
    pub join_resp_ms_mean: f64,
    pub join_resp_ms_min: f64,
    pub join_resp_ms_max: f64,
    pub oltp_resp_ms_mean: Option<f64>,
    pub avg_cpu_util: f64,
    pub avg_disk_util: f64,
    pub avg_mem_util: f64,
    pub avg_join_degree: f64,
    pub summaries: Vec<Summary>,
}

impl From<Vec<Summary>> for AggregateSummary {
    fn from(summaries: Vec<Summary>) -> Self {
        let n = summaries.len().max(1) as f64;
        let joins: Vec<f64> = summaries.iter().map(|s| s.join_resp_ms()).collect();
        let oltp: Vec<f64> = summaries.iter().filter_map(|s| s.oltp_resp_ms()).collect();
        AggregateSummary {
            reps: summaries.len() as u32,
            join_resp_ms_mean: joins.iter().sum::<f64>() / n,
            join_resp_ms_min: joins.iter().copied().fold(f64::INFINITY, f64::min),
            join_resp_ms_max: joins.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            oltp_resp_ms_mean: if oltp.is_empty() {
                None
            } else {
                Some(oltp.iter().sum::<f64>() / oltp.len() as f64)
            },
            avg_cpu_util: summaries.iter().map(|s| s.avg_cpu_util).sum::<f64>() / n,
            avg_disk_util: summaries.iter().map(|s| s.avg_disk_util).sum::<f64>() / n,
            avg_mem_util: summaries.iter().map(|s| s.avg_mem_util).sum::<f64>() / n,
            avg_join_degree: summaries.iter().map(|s| s.avg_join_degree).sum::<f64>() / n,
            summaries,
        }
    }
}

/// Format a figure-style table: one row per x-value, one column per series.
pub fn format_table(
    title: &str,
    x_name: &str,
    xs: &[String],
    series: &[(String, Vec<f64>)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let mut header = format!("{x_name:>10}");
    for (name, _) in series {
        let _ = write!(header, " {name:>18}");
    }
    let _ = writeln!(out, "{header}");
    for (i, x) in xs.iter().enumerate() {
        let mut row = format!("{x:>10}");
        for (_, ys) in series {
            let v = ys.get(i).copied().unwrap_or(f64::NAN);
            let _ = write!(row, " {v:>18.1}");
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting() {
        let t = format_table(
            "Fig X",
            "#PE",
            &["10".into(), "20".into()],
            &[("A".into(), vec![1.0, 2.0]), ("B".into(), vec![3.0, 4.5])],
        );
        assert!(t.contains("# Fig X"));
        assert!(t.contains("#PE"));
        assert!(t.lines().count() >= 4);
        assert!(t.contains("4.5"));
    }

    /// Query spawns are timed: a small join run reports calls on the
    /// `sub:query_planning` row, and profiling leaves the summary as is.
    #[test]
    fn profiled_join_run_times_query_planning() {
        let cfg = SimConfig::paper_default(
            8,
            workload::WorkloadSpec::homogeneous_join(0.01, 0.2),
            lb_core::Strategy::OptIoCpu,
        )
        .with_sim_time(
            simkit::SimDur::from_secs(2),
            simkit::SimDur::from_millis(500),
        );
        let (summary, report) = run_one_profiled(cfg.clone());
        let calls = |phase: &str| {
            report
                .rows
                .iter()
                .find(|r| r.phase == phase)
                .map(|r| r.calls)
        };
        assert!(calls("sub:query_planning").is_some_and(|n| n > 0));
        assert_eq!(calls("sub:rebalance_planning"), Some(0), "no rebalancer");
        let json = |s: &Summary| serde_json::to_string(s).expect("serialize");
        assert_eq!(json(&summary), json(&run_one(cfg)));
    }
}
