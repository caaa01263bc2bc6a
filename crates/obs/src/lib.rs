//! Deterministic, sim-time-stamped observability for the simulator.
//!
//! Three pillars, all clocked by the simulation itself and none touching
//! a random-number stream:
//!
//! 1. **Time-series recorder** ([`timeseries`]): one [`RoundSample`] per
//!    broker report round — per-resource average/p95 utilization, the
//!    admission and MPL backlogs, live/suspected node counts, in-flight
//!    migrations, and per-round deltas of the arrival/rejection/shrink
//!    counters. A deterministic stride-doubling reservoir bounds memory
//!    on 1000-PE soaks.
//! 2. **Lifecycle tracing** ([`trace`]): per-query spans (arrival →
//!    admission verdict → placement decision → stage edges →
//!    completion/abort) and control-plane events (policy switch,
//!    suspicion raise/clear, migration start/commit) rendered as bounded
//!    JSONL by a [`JsonlSink`].
//! 3. **Placement explain** ([`explain`]): per-policy decision counts,
//!    the win margin between the best rejected and the worst chosen
//!    candidate scores, and per-node win tallies for a top-K "why node
//!    X" digest.
//!
//! The layer is **inert when disabled**: the simulator holds an
//! `Option<Box<Recorder>>` that is `None` unless [`TraceConfig::enabled`]
//! is set, so the disabled hot path costs one pointer test and performs
//! no allocation. Every timestamp is simulated milliseconds; wall time
//! never appears in any output.

#![deny(missing_docs)]

pub mod explain;
pub mod recorder;
pub mod timeseries;
pub mod trace;

pub use explain::{ExplainAcc, ExplainReport, NodeDigest, PolicyExplain};
pub use recorder::{Recorder, RoundInput, TraceOutput};
pub use timeseries::{RoundSample, TimeSeries, KIND_NAMES};
pub use trace::{JsonlSink, TraceEvent};

use serde::{Deserialize, Serialize};

/// Observability selection knob, carried by the scenario `Knobs` and the
/// simulator configuration. The default (`enabled: false`) keeps the
/// layer compiled in but completely inert; the cap fields use `0` to
/// mean "library default" so a bare `{ "enabled": true }` knob works.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct TraceConfig {
    /// Install the recorder for this run.
    pub enabled: bool,
    /// Cap on retained time-series rounds (`0` = default 4096). When the
    /// cap is reached the reservoir decimates to every other sample and
    /// doubles its stride, so long soaks keep a bounded, evenly spaced
    /// series.
    pub max_rounds: u32,
    /// Cap on retained JSONL trace events (`0` = default 65536). Events
    /// past the cap are counted as dropped, not stored.
    pub max_events: u32,
    /// Nodes listed in the per-policy "why node X" digest (`0` = default 5).
    pub explain_top_k: u32,
}

impl TraceConfig {
    /// An enabled configuration with library-default caps.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Retained-round cap with the `0 = default` convention applied.
    pub fn rounds_cap(&self) -> usize {
        if self.max_rounds == 0 {
            4096
        } else {
            self.max_rounds as usize
        }
    }

    /// Retained-event cap with the `0 = default` convention applied.
    pub fn events_cap(&self) -> usize {
        if self.max_events == 0 {
            65536
        } else {
            self.max_events as usize
        }
    }

    /// Digest size with the `0 = default` convention applied.
    pub fn top_k(&self) -> usize {
        if self.explain_top_k == 0 {
            5
        } else {
            self.explain_top_k as usize
        }
    }

    /// Short human label for run tags (mirrors `BrokerConfig::label`).
    pub fn label(&self) -> String {
        if !self.enabled {
            return "off".to_string();
        }
        let mut parts = Vec::new();
        if self.max_rounds != 0 {
            parts.push(format!("rounds={}", self.max_rounds));
        }
        if self.max_events != 0 {
            parts.push(format!("events={}", self.max_events));
        }
        if self.explain_top_k != 0 {
            parts.push(format!("k={}", self.explain_top_k));
        }
        if parts.is_empty() {
            "on".to_string()
        } else {
            format!("on({})", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_roundtrips() {
        let d = TraceConfig::default();
        assert!(!d.enabled);
        let s = serde_json::to_string(&d).unwrap();
        let back: TraceConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn empty_object_deserializes_to_default() {
        let back: TraceConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(back, TraceConfig::default());
        let on: TraceConfig = serde_json::from_str("{\"enabled\": true}").unwrap();
        assert_eq!(on, TraceConfig::on());
    }

    #[test]
    fn labels() {
        assert_eq!(TraceConfig::default().label(), "off");
        assert_eq!(TraceConfig::on().label(), "on");
        let custom = TraceConfig {
            enabled: true,
            max_rounds: 128,
            ..TraceConfig::default()
        };
        assert_eq!(custom.label(), "on(rounds=128)");
    }

    #[test]
    fn zero_caps_resolve_to_defaults() {
        let d = TraceConfig::default();
        assert_eq!(d.rounds_cap(), 4096);
        assert_eq!(d.events_cap(), 65536);
        assert_eq!(d.top_k(), 5);
        let c = TraceConfig {
            enabled: true,
            max_rounds: 7,
            max_events: 9,
            explain_top_k: 2,
        };
        assert_eq!(c.rounds_cap(), 7);
        assert_eq!(c.events_cap(), 9);
        assert_eq!(c.top_k(), 2);
    }
}
