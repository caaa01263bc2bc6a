//! Structured lifecycle tracing.
//!
//! The simulator narrates a run as a stream of [`TraceEvent`]s: per-query
//! spans (arrival → admission verdict → placement decision → stage edges
//! → completion/abort) and control-plane events (policy switch, suspicion
//! raise/clear, migration start/commit). A [`JsonlSink`] renders each
//! event as one JSON line and stores at most a configured number of
//! lines, counting the rest as dropped. All timestamps are simulated
//! milliseconds.

use serde_json::{json, Value};

/// One lifecycle or control-plane event, stamped with sim time.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A query entered the system and was handed to admission control.
    Arrival {
        /// Sim time (ms).
        t_ms: f64,
        /// Simulator job id.
        job: u64,
        /// Workload-class name.
        class: String,
        /// Monotone admission ticket number assigned at submit.
        ticket: u64,
    },
    /// Admission control released the query to its coordinator.
    Admitted {
        /// Sim time (ms).
        t_ms: f64,
        /// Simulator job id.
        job: u64,
        /// Ticket number assigned at arrival.
        ticket: u64,
        /// Queue wait between submit and admission (ms).
        wait_ms: f64,
        /// Degree cap granted by the admission policy (0 = unchanged).
        degree_cap: u32,
    },
    /// Admission control rejected the query (queue full / reservation).
    Rejected {
        /// Sim time (ms).
        t_ms: f64,
        /// Simulator job id.
        job: u64,
        /// Ticket number assigned at arrival.
        ticket: u64,
    },
    /// The broker answered a placement request.
    Placement {
        /// Sim time (ms).
        t_ms: f64,
        /// Simulator job id.
        job: u64,
        /// Multi-join stage ordinal the placement is for.
        stage: u32,
        /// Active placement policy name.
        policy: &'static str,
        /// Chosen processing nodes.
        nodes: Vec<u32>,
        /// Each chosen node's bottleneck score, in `nodes` order.
        scores: Vec<f64>,
        /// Best candidate's bottleneck score.
        best_score: f64,
        /// Runner-up candidate's bottleneck score.
        runner_up_score: f64,
        /// Best rejected candidate's score minus the worst chosen one's:
        /// how clearly the last chosen node beat the first rejected one
        /// (negative when a rejected node scored lower, 0 when every
        /// candidate is chosen).
        margin: f64,
    },
    /// A multi-join query crossed into its next stage.
    StageEdge {
        /// Sim time (ms).
        t_ms: f64,
        /// Simulator job id.
        job: u64,
        /// Stage ordinal being entered.
        stage: u32,
    },
    /// A query finished.
    Completed {
        /// Sim time (ms).
        t_ms: f64,
        /// Simulator job id.
        job: u64,
        /// Workload-class name.
        class: String,
        /// Response time (ms).
        resp_ms: f64,
    },
    /// A query was aborted (deadlock victim) and will retry.
    Aborted {
        /// Sim time (ms).
        t_ms: f64,
        /// Simulator job id.
        job: u64,
    },
    /// ADAPTIVE switched the active placement policy.
    PolicySwitch {
        /// Sim time (ms).
        t_ms: f64,
        /// Newly active policy name.
        policy: &'static str,
        /// Cumulative switch count after this switch.
        switches: u64,
    },
    /// The failure detector raised or cleared suspicion on a node.
    Suspicion {
        /// Sim time (ms).
        t_ms: f64,
        /// Node id.
        node: u32,
        /// `true` = raised, `false` = cleared.
        raised: bool,
    },
    /// The rebalancer started moving a fragment.
    MigrationStart {
        /// Sim time (ms).
        t_ms: f64,
        /// Source node.
        from: u32,
        /// Destination node.
        to: u32,
        /// Tuples in the fragment.
        tuples: u64,
    },
    /// A fragment migration committed at its destination.
    MigrationCommit {
        /// Sim time (ms).
        t_ms: f64,
        /// Source node.
        from: u32,
        /// Destination node.
        to: u32,
        /// Tuples moved.
        tuples: u64,
    },
}

impl TraceEvent {
    /// Event-kind tag used as the JSONL `ev` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Admitted { .. } => "admitted",
            TraceEvent::Rejected { .. } => "rejected",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::StageEdge { .. } => "stage_edge",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::Aborted { .. } => "aborted",
            TraceEvent::PolicySwitch { .. } => "policy_switch",
            TraceEvent::Suspicion { .. } => "suspicion",
            TraceEvent::MigrationStart { .. } => "migration_start",
            TraceEvent::MigrationCommit { .. } => "migration_commit",
        }
    }

    /// Render as a single JSON object (one JSONL line when serialized).
    pub fn to_json(&self) -> Value {
        match self {
            TraceEvent::Arrival {
                t_ms,
                job,
                class,
                ticket,
            } => json!({
                "ev": self.kind(), "t_ms": t_ms, "job": job,
                "class": class, "ticket": ticket,
            }),
            TraceEvent::Admitted {
                t_ms,
                job,
                ticket,
                wait_ms,
                degree_cap,
            } => json!({
                "ev": self.kind(), "t_ms": t_ms, "job": job,
                "ticket": ticket, "wait_ms": wait_ms, "degree_cap": degree_cap,
            }),
            TraceEvent::Rejected { t_ms, job, ticket } => json!({
                "ev": self.kind(), "t_ms": t_ms, "job": job, "ticket": ticket,
            }),
            TraceEvent::Placement {
                t_ms,
                job,
                stage,
                policy,
                nodes,
                scores,
                best_score,
                runner_up_score,
                margin,
            } => json!({
                "ev": self.kind(), "t_ms": t_ms, "job": job, "stage": stage,
                "policy": policy, "nodes": nodes, "scores": scores, "best_score": best_score,
                "runner_up_score": runner_up_score, "margin": margin,
            }),
            TraceEvent::StageEdge { t_ms, job, stage } => json!({
                "ev": self.kind(), "t_ms": t_ms, "job": job, "stage": stage,
            }),
            TraceEvent::Completed {
                t_ms,
                job,
                class,
                resp_ms,
            } => json!({
                "ev": self.kind(), "t_ms": t_ms, "job": job,
                "class": class, "resp_ms": resp_ms,
            }),
            TraceEvent::Aborted { t_ms, job } => json!({
                "ev": self.kind(), "t_ms": t_ms, "job": job,
            }),
            TraceEvent::PolicySwitch {
                t_ms,
                policy,
                switches,
            } => json!({
                "ev": self.kind(), "t_ms": t_ms, "policy": policy,
                "switches": switches,
            }),
            TraceEvent::Suspicion { t_ms, node, raised } => json!({
                "ev": self.kind(), "t_ms": t_ms, "node": node, "raised": raised,
            }),
            TraceEvent::MigrationStart {
                t_ms,
                from,
                to,
                tuples,
            }
            | TraceEvent::MigrationCommit {
                t_ms,
                from,
                to,
                tuples,
            } => json!({
                "ev": self.kind(), "t_ms": t_ms, "from": from, "to": to,
                "tuples": tuples,
            }),
        }
    }
}

/// Bounded JSONL sink: stores up to `cap` rendered lines, counts the
/// overflow as dropped.
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    /// Rendered JSON lines, in emission order.
    pub lines: Vec<String>,
    /// Events discarded after the cap was reached.
    pub dropped: u64,
    cap: usize,
}

impl JsonlSink {
    /// A sink retaining at most `cap` lines.
    pub fn new(cap: usize) -> JsonlSink {
        JsonlSink {
            lines: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    /// Render one event as a JSON line, or count it as dropped past the
    /// cap.
    pub fn emit(&mut self, ev: &TraceEvent) {
        if self.lines.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let line = serde_json::to_string(&ev.to_json()).unwrap_or_default();
        self.lines.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_parseable_and_tagged() {
        let mut sink = JsonlSink::new(16);
        sink.emit(&TraceEvent::Arrival {
            t_ms: 1.5,
            job: 7,
            class: "q-join".to_string(),
            ticket: 3,
        });
        sink.emit(&TraceEvent::Suspicion {
            t_ms: 2.0,
            node: 4,
            raised: true,
        });
        assert_eq!(sink.lines.len(), 2);
        let v: Value = serde_json::from_str(&sink.lines[0]).unwrap();
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("arrival"));
        let v: Value = serde_json::from_str(&sink.lines[1]).unwrap();
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("suspicion"));
    }

    #[test]
    fn sink_caps_and_counts_drops() {
        let mut sink = JsonlSink::new(2);
        for j in 0..5 {
            sink.emit(&TraceEvent::Aborted { t_ms: 0.0, job: j });
        }
        assert_eq!(sink.lines.len(), 2);
        assert_eq!(sink.dropped, 3);
    }
}
