//! Behavioural tests of the traced time series and the explain digest.
//!
//! The flash-crowd scenario's committed story — FcfsMpl admits everything
//! and its backlog grows without bound through the bursts, while the
//! budgeted admission policies keep it low and drain between bursts — is
//! exactly what the per-round time series must show. The knee needs time
//! to develop (committed 90 s trajectories reach backlog ≈165 vs ≤33), so
//! the runs here use a 60 s slice where FcfsMpl has already climbed past
//! 40 while Malleable has peaked below it.

use obs::TraceConfig;
use parallel_lb::prelude::*;
use workload::scenario::ScenarioSpec;

/// Lower the bundled flash-crowd spec and return the traced run for the
/// given admission-axis label, cut to `secs` simulated seconds.
fn traced_flash_crowd(admission: &str, secs: u64) -> obs::TraceOutput {
    let json = std::fs::read_to_string("scenarios/flash_crowd.json").expect("bundled spec");
    let spec: ScenarioSpec = serde_json::from_str(&json).expect("valid spec");
    let (run, cfg) = snsim::scenario::configs(&spec)
        .into_iter()
        .find(|(run, _)| run.axis("admission") == Some(admission))
        .unwrap_or_else(|| panic!("no `{admission}` run in flash_crowd"));
    assert_eq!(run.knobs.n_pes, 16, "spec drifted under this test");
    let cfg = cfg
        .with_sim_time(SimDur::from_secs(secs), SimDur::from_secs(10))
        .with_trace(TraceConfig::on());
    let (_, trace) = snsim::run_one_traced(cfg);
    trace.expect("trace enabled")
}

/// Total backlog (admission queue + MPL input queues) per retained sample.
fn backlog(t: &obs::TraceOutput) -> Vec<u64> {
    t.timeseries
        .samples
        .iter()
        .map(|s| u64::from(s.admission_backlog) + u64::from(s.mpl_backlog))
        .collect()
}

/// FcfsMpl: the backlog knee — near-zero early, then a rise the bursts
/// never let drain; past the knee it stays high to the end of the run.
#[test]
fn flash_crowd_fcfs_backlog_rises_unbounded() {
    let t = traced_flash_crowd("fcfs", 60);
    let b = backlog(&t);
    assert!(b.len() >= 100, "too few round samples: {}", b.len());
    let q = b.len() / 4;
    let first_quarter_max = *b[..q].iter().max().expect("non-empty");
    let last_quarter = &b[b.len() - q..];
    let last_quarter_min = *last_quarter.iter().min().expect("non-empty");
    let peak = *b.iter().max().expect("non-empty");
    assert!(
        first_quarter_max <= 10,
        "fcfs backlog started high: {first_quarter_max}"
    );
    assert!(peak >= 40, "fcfs backlog never climbed: peak {peak}");
    assert!(
        last_quarter_min >= 20,
        "fcfs backlog drained late in the run (min {last_quarter_min}) — no knee"
    );
}

/// Malleable: the same bursts, but the backlog stays bounded (≤ 40) and
/// drains back to zero between bursts.
#[test]
fn flash_crowd_malleable_backlog_stays_bounded() {
    let t = traced_flash_crowd("malleable(8,hot0.9)", 60);
    let b = backlog(&t);
    let peak = *b.iter().max().expect("non-empty");
    assert!(
        peak <= 40,
        "malleable backlog exceeded the committed bound: {peak}"
    );
    let half = &b[b.len() / 2..];
    assert!(
        half.contains(&0),
        "malleable backlog never drained in the second half"
    );
    // The budgeted policy actually pushes back: its oldest waiting ticket
    // ages visibly, where FcfsMpl admits instantly (oldest_wait stays 0).
    assert!(
        t.timeseries.samples.iter().any(|s| s.oldest_wait_ms > 0.0),
        "malleable never queued an arrival"
    );
}

/// The explain digest for a `pmu-cpu+LUB` run carries non-empty margins:
/// LUB ranks candidates by bottleneck utilization, so under load the
/// best rejected score rises above the worst chosen one and clear wins
/// appear.
#[test]
fn pmu_cpu_lub_explain_has_margins() {
    let strat = Strategy::parse("pmu-cpu+LUB").expect("known strategy");
    let cfg = SimConfig::paper_default(12, WorkloadSpec::homogeneous_join(0.01, 0.2), strat)
        .with_seed(21)
        .with_sim_time(SimDur::from_secs(20), SimDur::from_secs(4))
        .with_trace(TraceConfig::on());
    let (_, trace) = snsim::run_one_traced(cfg);
    let t = trace.expect("trace enabled");
    assert!(!t.explain.is_empty(), "no placement digest");
    let e = &t.explain[0];
    assert_eq!(e.policy, "pmu-cpu+LUB");
    assert!(e.decisions > 0);
    assert!(
        e.margin_max > 0.0 && e.clear_wins > 0,
        "LUB under load produced no non-zero margins (max {}, clear {})",
        e.margin_max,
        e.clear_wins
    );
    assert!(!e.top_nodes.is_empty(), "no winner digest");
    // Placement events carry the same scores the digest aggregated.
    assert!(t
        .events
        .iter()
        .any(|l| l.contains("\"ev\":\"placement\"") && l.contains("pmu-cpu+LUB")));
}

/// A JSON number as `f64`.
fn number(v: &serde_json::Value) -> f64 {
    match *v {
        serde_json::Value::F64(x) => x,
        serde_json::Value::U64(x) => x as f64,
        serde_json::Value::I64(x) => x as f64,
        _ => panic!("not a number: {v:?}"),
    }
}

/// The explain scores are the ones LUB ranked: in every traced
/// `pmu-cpu+LUB` placement, the chosen nodes' recorded bottleneck scores
/// are the smallest recorded scores (up to ties). The lowest chosen
/// score is the best candidate's, a placement of two or more nodes also
/// holds the runner-up, and no chosen score exceeds the best rejected
/// one (the worst chosen score plus the margin). Between reports LUB ranks by the control
/// node's weighted view, which carries the feedback bumps of the
/// placements made since the last report, so scores read from the raw
/// report columns would name rejected nodes as the best candidates.
#[test]
fn pmu_cpu_lub_chosen_nodes_hold_the_smallest_scores() {
    let strat = Strategy::parse("pmu-cpu+LUB").expect("known strategy");
    let cfg = SimConfig::paper_default(40, WorkloadSpec::homogeneous_join(0.01, 0.3), strat)
        .with_seed(21)
        .with_sim_time(SimDur::from_secs(20), SimDur::from_secs(4))
        .with_trace(TraceConfig::on());
    let (_, trace) = snsim::run_one_traced(cfg);
    let t = trace.expect("trace enabled");
    let mut checked = 0;
    for line in &t.events {
        let v: serde_json::Value = serde_json::from_str(line).expect("JSONL line");
        let field = |key: &str| v.get(key).unwrap_or_else(|| panic!("no `{key}`: {line}"));
        if field("ev").as_str() != Some("placement")
            || field("policy").as_str() != Some("pmu-cpu+LUB")
        {
            continue;
        }
        let list = |key: &str| field(key).as_array().expect("array field");
        let mut scores: Vec<f64> = list("scores").iter().map(number).collect();
        assert_eq!(scores.len(), list("nodes").len());
        scores.sort_by(f64::total_cmp);
        let best = number(field("best_score"));
        let runner_up = number(field("runner_up_score"));
        assert!(
            (scores[0] - best).abs() < 1e-12,
            "LUB chose {scores:?} but the best candidate scored {best}: {line}"
        );
        if scores.len() >= 2 {
            assert!(
                (scores[1] - runner_up).abs() < 1e-12,
                "LUB chose {scores:?} but the runner-up scored {runner_up}: {line}"
            );
        }
        // The margin is the best rejected score minus the worst chosen
        // one, so no chosen node may score above a rejected one.
        let best_rejected = scores[scores.len() - 1] + number(field("margin"));
        assert!(
            scores.iter().all(|&s| s <= best_rejected + 1e-12),
            "LUB chose {scores:?} over a candidate scoring {best_rejected}: {line}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no pmu-cpu+LUB placements traced");
}
