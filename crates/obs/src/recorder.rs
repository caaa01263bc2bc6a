//! The run-level recorder: one object owning all three pillars plus the
//! previous-round state needed to turn absolute counters into per-round
//! deltas and per-node suspicion flags into raise/clear events.
//!
//! The simulator holds `Option<Box<Recorder>>` — `None` when tracing is
//! disabled, so every hook site is a single pointer test on the hot
//! path. The recorder itself never touches simulator state or RNG
//! streams: it only receives copies of values the simulator already
//! computed.

use crate::explain::{ExplainAcc, ExplainReport};
use crate::timeseries::{RoundSample, TimeSeries, KIND_NAMES};
use crate::trace::{JsonlSink, TraceEvent};
use crate::TraceConfig;
use std::collections::BTreeMap;

/// Absolute end-of-round readings handed to [`Recorder::round`]. All
/// counters are run totals; the recorder differences them against the
/// previous round.
#[derive(Debug, Clone, Default)]
pub struct RoundInput {
    /// Sim time (ms).
    pub t_ms: f64,
    /// Cluster-average utilization per resource kind (index order of
    /// [`KIND_NAMES`]).
    pub util_avg: [f64; KIND_NAMES.len()],
    /// Cross-node p95 utilization per resource kind.
    pub util_p95: [f64; KIND_NAMES.len()],
    /// Queries waiting in the admission queue right now.
    pub admission_backlog: u32,
    /// Admitted subqueries waiting for an MPL slot right now.
    pub mpl_backlog: u32,
    /// Age (ms) of the oldest waiting admission ticket (0 when empty).
    pub oldest_wait_ms: f64,
    /// Nodes currently suspected by the failure detector.
    pub suspected: u32,
    /// Cluster size.
    pub n_nodes: u32,
    /// Active complex-query placement policy name.
    pub policy: &'static str,
    /// Cumulative policy switches so far.
    pub policy_switches: u64,
    /// Run-total arrivals.
    pub arrivals_total: u64,
    /// Run-total admission rejections.
    pub rejections_total: u64,
    /// Run-total shrunk admissions.
    pub shrunk_total: u64,
    /// Run-total query completions.
    pub completions_total: u64,
}

/// Everything a traced run produced, extracted after `finalize`.
#[derive(Debug, Clone)]
pub struct TraceOutput {
    /// The per-round cluster time series.
    pub timeseries: TimeSeries,
    /// Lifecycle events as rendered JSONL lines.
    pub events: Vec<String>,
    /// Events discarded after the retention cap.
    pub events_dropped: u64,
    /// Per-policy placement digest.
    pub explain: Vec<ExplainReport>,
}

/// Per-run observability state (see module docs).
#[derive(Debug, Clone)]
pub struct Recorder {
    series: TimeSeries,
    sink: JsonlSink,
    explain: ExplainAcc,
    round: u64,
    tickets: BTreeMap<u64, u64>,
    next_ticket: u64,
    prev_suspected: Vec<bool>,
    prev_policy_switches: u64,
    prev: RoundInput,
    inflight_migrations: u32,
    chosen_scratch: Vec<(u32, f64)>,
    p95_scratch: Vec<f64>,
}

impl Recorder {
    /// A recorder for a cluster of `n_nodes`, sized per `cfg`.
    pub fn new(cfg: TraceConfig, n_nodes: usize) -> Recorder {
        Recorder {
            series: TimeSeries::new(cfg.rounds_cap()),
            sink: JsonlSink::new(cfg.events_cap()),
            explain: ExplainAcc::new(n_nodes, cfg.top_k()),
            round: 0,
            tickets: BTreeMap::new(),
            next_ticket: 0,
            prev_suspected: vec![false; n_nodes],
            prev_policy_switches: 0,
            prev: RoundInput::default(),
            inflight_migrations: 0,
            chosen_scratch: Vec::new(),
            p95_scratch: Vec::new(),
        }
    }

    /// A query arrived and was submitted to admission control. Returns
    /// the ticket number assigned to it.
    pub fn arrival(&mut self, t_ms: f64, job: u64, class: &str) -> u64 {
        self.next_ticket += 1;
        let ticket = self.next_ticket;
        self.tickets.insert(job, ticket);
        self.sink.emit(&TraceEvent::Arrival {
            t_ms,
            job,
            class: class.to_string(),
            ticket,
        });
        ticket
    }

    /// Admission control released `job` after `wait_ms` in the queue.
    pub fn admitted(&mut self, t_ms: f64, job: u64, wait_ms: f64, degree_cap: u32) {
        let ticket = self.tickets.get(&job).copied().unwrap_or(0);
        self.sink.emit(&TraceEvent::Admitted {
            t_ms,
            job,
            ticket,
            wait_ms,
            degree_cap,
        });
    }

    /// Admission control rejected `job`.
    pub fn rejected(&mut self, t_ms: f64, job: u64) {
        let ticket = self.tickets.remove(&job).unwrap_or(0);
        self.sink.emit(&TraceEvent::Rejected { t_ms, job, ticket });
    }

    /// The broker placed stage `stage` of `job` under `policy`.
    /// `candidate_scores[n]` is node `n`'s bottleneck score (the weighted
    /// `max_k w_k · u_k` LUB ranks by) at decision time; `chosen` is the
    /// placement result. The margin is the best rejected candidate's
    /// score minus the worst chosen one's (0 when all are chosen).
    pub fn placement(
        &mut self,
        t_ms: f64,
        job: u64,
        stage: u32,
        policy: &'static str,
        candidate_scores: &[f64],
        chosen: &[u32],
    ) {
        // Two smallest candidate scores in one pass.
        let mut best = f64::INFINITY;
        let mut runner_up = f64::INFINITY;
        for &s in candidate_scores {
            if s < best {
                runner_up = best;
                best = s;
            } else if s < runner_up {
                runner_up = s;
            }
        }
        if !best.is_finite() {
            best = 0.0;
        }
        if !runner_up.is_finite() {
            runner_up = best;
        }
        self.chosen_scratch.clear();
        let mut worst_chosen = f64::NEG_INFINITY;
        for &n in chosen {
            let score = candidate_scores.get(n as usize).copied().unwrap_or(0.0);
            self.chosen_scratch.push((n, score));
            worst_chosen = worst_chosen.max(score);
        }
        let best_rejected = (0u32..)
            .zip(candidate_scores)
            .filter(|(n, _)| !chosen.contains(n))
            .fold(f64::INFINITY, |m, (_, &s)| m.min(s));
        let margin = if best_rejected.is_finite() && worst_chosen.is_finite() {
            best_rejected - worst_chosen
        } else {
            0.0
        };
        self.explain.decision(policy, &self.chosen_scratch, margin);
        if stage > 0 {
            self.sink.emit(&TraceEvent::StageEdge { t_ms, job, stage });
        }
        self.sink.emit(&TraceEvent::Placement {
            t_ms,
            job,
            stage,
            policy,
            nodes: chosen.to_vec(),
            scores: self.chosen_scratch.iter().map(|&(_, s)| s).collect(),
            best_score: best,
            runner_up_score: runner_up,
            margin,
        });
    }

    /// `job` completed with response time `resp_ms`.
    pub fn completed(&mut self, t_ms: f64, job: u64, class: &str, resp_ms: f64) {
        self.tickets.remove(&job);
        self.sink.emit(&TraceEvent::Completed {
            t_ms,
            job,
            class: class.to_string(),
            resp_ms,
        });
    }

    /// `job` was aborted (it may retry under the same ticket).
    pub fn aborted(&mut self, t_ms: f64, job: u64) {
        self.sink.emit(&TraceEvent::Aborted { t_ms, job });
    }

    /// Report node `node`'s current suspicion flag; emits a raise/clear
    /// event when it differs from the previous round.
    pub fn suspicion(&mut self, t_ms: f64, node: u32, suspected: bool) {
        let idx = node as usize;
        if idx >= self.prev_suspected.len() {
            return;
        }
        if self.prev_suspected[idx] != suspected {
            self.prev_suspected[idx] = suspected;
            self.sink.emit(&TraceEvent::Suspicion {
                t_ms,
                node,
                raised: suspected,
            });
        }
    }

    /// The rebalancer started a fragment migration.
    pub fn migration_start(&mut self, t_ms: f64, from: u32, to: u32, tuples: u64) {
        self.inflight_migrations += 1;
        self.sink.emit(&TraceEvent::MigrationStart {
            t_ms,
            from,
            to,
            tuples,
        });
    }

    /// A fragment migration ended. Decrements the in-flight gauge either
    /// way; a commit event is emitted only when the move actually
    /// transferred (a give-up still frees the migration slot).
    pub fn migration_end(&mut self, t_ms: f64, from: u32, to: u32, tuples: u64, committed: bool) {
        self.inflight_migrations = self.inflight_migrations.saturating_sub(1);
        if committed {
            self.sink.emit(&TraceEvent::MigrationCommit {
                t_ms,
                from,
                to,
                tuples,
            });
        }
    }

    /// Cross-node p95 helper: ceil-rank quantile over a utilization
    /// slice, using an internal scratch buffer so callers stay
    /// allocation-free once the scratch is warm.
    pub fn cross_node_p95(&mut self, utils: &[f64]) -> f64 {
        if utils.is_empty() {
            return 0.0;
        }
        self.p95_scratch.clear();
        self.p95_scratch.extend_from_slice(utils);
        self.p95_scratch.sort_unstable_by(f64::total_cmp);
        let rank = ((self.p95_scratch.len() as f64) * 0.95).ceil() as usize;
        self.p95_scratch[rank.clamp(1, self.p95_scratch.len()) - 1]
    }

    /// Close out a broker report round: emit a policy-switch event if the
    /// switch counter advanced, difference the run-total counters, and
    /// offer the sample to the bounded time series.
    pub fn round(&mut self, input: RoundInput) {
        if input.policy_switches > self.prev_policy_switches {
            self.prev_policy_switches = input.policy_switches;
            self.sink.emit(&TraceEvent::PolicySwitch {
                t_ms: input.t_ms,
                policy: input.policy,
                switches: input.policy_switches,
            });
        }
        let sample = RoundSample {
            t_ms: input.t_ms,
            round: self.round,
            util_avg: input.util_avg.to_vec(),
            util_p95: input.util_p95.to_vec(),
            admission_backlog: input.admission_backlog,
            mpl_backlog: input.mpl_backlog,
            oldest_wait_ms: input.oldest_wait_ms,
            live_nodes: input.n_nodes.saturating_sub(input.suspected),
            suspected_nodes: input.suspected,
            inflight_migrations: self.inflight_migrations,
            arrivals: input.arrivals_total - self.prev.arrivals_total,
            rejections: input.rejections_total - self.prev.rejections_total,
            shrunk: input.shrunk_total - self.prev.shrunk_total,
            completions: input.completions_total - self.prev.completions_total,
            policy: input.policy.to_string(),
        };
        self.round += 1;
        self.prev = input;
        self.series.offer(sample);
    }

    /// Extract the run's outputs.
    pub fn finish(self) -> TraceOutput {
        TraceOutput {
            timeseries: self.series,
            events: self.sink.lines,
            events_dropped: self.sink.dropped,
            explain: self.explain.report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_difference_counters_and_emit_policy_switches() {
        let mut r = Recorder::new(TraceConfig::on(), 4);
        r.round(RoundInput {
            t_ms: 100.0,
            arrivals_total: 10,
            completions_total: 3,
            policy: "LUB",
            policy_switches: 0,
            n_nodes: 4,
            ..RoundInput::default()
        });
        r.round(RoundInput {
            t_ms: 200.0,
            arrivals_total: 25,
            completions_total: 9,
            policy: "LUM",
            policy_switches: 1,
            n_nodes: 4,
            suspected: 1,
            ..RoundInput::default()
        });
        let out = r.finish();
        assert_eq!(out.timeseries.samples.len(), 2);
        assert_eq!(out.timeseries.samples[0].arrivals, 10);
        assert_eq!(out.timeseries.samples[1].arrivals, 15);
        assert_eq!(out.timeseries.samples[1].completions, 6);
        assert_eq!(out.timeseries.samples[1].live_nodes, 3);
        assert_eq!(
            out.events.len(),
            1,
            "one policy-switch event: {:?}",
            out.events
        );
        assert!(out.events[0].contains("policy_switch"));
    }

    #[test]
    fn suspicion_diffs_emit_only_on_change() {
        let mut r = Recorder::new(TraceConfig::on(), 2);
        r.suspicion(1.0, 0, false);
        r.suspicion(2.0, 0, true);
        r.suspicion(3.0, 0, true);
        r.suspicion(4.0, 0, false);
        let out = r.finish();
        assert_eq!(out.events.len(), 2);
        assert!(out.events[0].contains("\"raised\":true"));
        assert!(out.events[1].contains("\"raised\":false"));
    }

    #[test]
    fn placement_margin_and_explain_flow() {
        let mut r = Recorder::new(TraceConfig::on(), 3);
        r.placement(5.0, 42, 0, "LUB", &[0.9, 0.2, 0.5], &[1]);
        let out = r.finish();
        assert_eq!(out.explain.len(), 1);
        assert_eq!(out.explain[0].decisions, 1);
        assert!((out.explain[0].margin_mean - 0.3).abs() < 1e-12);
        assert_eq!(out.explain[0].top_nodes[0].node, 1);
        assert!(out.events[0].contains("\"margin\":0.3"));
    }

    /// The margin compares the worst chosen node with the best rejected
    /// one, not the two smallest scores (here both chosen).
    #[test]
    fn placement_margin_spans_the_chosen_rejected_boundary() {
        let mut r = Recorder::new(TraceConfig::on(), 4);
        r.placement(1.0, 1, 0, "LUB", &[0.1, 0.9, 0.2, 0.6], &[0, 2]);
        r.placement(2.0, 2, 0, "LUM", &[0.1, 0.9, 0.2, 0.6], &[1]);
        r.placement(3.0, 3, 0, "LUB", &[0.4, 0.3], &[0, 1]);
        let out = r.finish();
        let margin = |i: usize| {
            let v: serde_json::Value = serde_json::from_str(&out.events[i]).unwrap();
            match v.get("margin").unwrap() {
                serde_json::Value::F64(x) => *x,
                other => panic!("margin {other:?}"),
            }
        };
        assert!((margin(0) - 0.4).abs() < 1e-12, "0.6 rejected − 0.2 chosen");
        assert!((margin(1) + 0.8).abs() < 1e-12, "0.1 rejected − 0.9 chosen");
        assert_eq!(margin(2), 0.0, "every candidate chosen");
        let lub = out.explain.iter().find(|e| e.policy == "LUB").unwrap();
        assert_eq!(lub.clear_wins, 1);
        let lum = out.explain.iter().find(|e| e.policy == "LUM").unwrap();
        assert_eq!(lum.clear_wins, 0);
        assert!((lum.margin_max + 0.8).abs() < 1e-12);
    }

    #[test]
    fn ticket_numbers_follow_the_span() {
        let mut r = Recorder::new(TraceConfig::on(), 2);
        let t1 = r.arrival(0.0, 100, "q-join");
        let t2 = r.arrival(1.0, 101, "q-join");
        assert_eq!((t1, t2), (1, 2));
        r.admitted(2.0, 101, 1.0, 4);
        r.completed(9.0, 101, "q-join", 8.0);
        let out = r.finish();
        assert!(out.events[2].contains("\"ticket\":2"));
    }

    #[test]
    fn cross_node_p95_is_ceil_rank() {
        let mut r = Recorder::new(TraceConfig::on(), 4);
        let utils: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        assert!((r.cross_node_p95(&utils) - 0.95).abs() < 1e-12);
        assert_eq!(r.cross_node_p95(&[]), 0.0);
        assert!((r.cross_node_p95(&[0.4]) - 0.4).abs() < 1e-12);
    }
}
