//! Declarative experiment scenarios (the scenario lab).
//!
//! The paper's experiments — and this repository's `fig*` harnesses —
//! were originally hard-coded per figure. A [`ScenarioSpec`] replaces that
//! with data: one JSON file describes a *family* of runs as
//!
//! * a [`Knobs`] base point (workload shape, rates, skew, system size,
//!   memory budget, placement strategy, node heterogeneity, …), and
//! * a [`Sweep`] of axes, each a list of values; the lab expands the
//!   **cross-product** of all non-empty axes into concrete runs.
//!
//! Correlated parameters (e.g. Fig. 8's "larger joins arrive more
//! slowly") are expressed with the [`Patch`] axis: each patch overrides
//! several knobs *together* and counts as one axis value.
//!
//! The module is simulator-agnostic: expansion produces [`ScenarioRun`]s
//! (labelled [`Knobs`]); lowering a run to a full `snsim::SimConfig`
//! lives in `snsim::scenario`, and the CLI driving spec files lives in
//! the `bench` crate (`cargo run --release --bin lab`).
//!
//! ```
//! use workload::scenario::ScenarioSpec;
//!
//! let spec: ScenarioSpec = serde_json::from_str(
//!     r#"{
//!         "name": "demo",
//!         "base": { "selectivity": 0.01, "qps_per_pe": 0.25 },
//!         "sweep": {
//!             "strategy": ["MIN-IO", "pmu-cpu+LUM", "OPT-IO-CPU"],
//!             "n_pes": [10, 40, 80]
//!         }
//!     }"#,
//! )
//! .unwrap();
//! assert_eq!(spec.run_count(), 9);
//! ```

use crate::arrivals::Modulation;
use crate::mix::WorkloadSpec;
use crate::oltp::NodeFilter;
use dbmodel::RelationId;
use lb_core::{BrokerConfig, PolicyConfig, Strategy};
use obs::TraceConfig;
use sched::AdmissionConfig;
use serde::{Deserialize, Serialize};

/// A placement strategy in a scenario file.
///
/// Serializes as the compact report label (`"MIN-IO"`,
/// `"pmu-cpu+LUM"`, `"fixed(22)+RANDOM"`, …) whenever one exists and
/// accepts either that label or the full tagged enum encoding on input,
/// so specs stay hand-writable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategySpec(pub Strategy);

impl Default for StrategySpec {
    fn default() -> Self {
        StrategySpec(Strategy::OptIoCpu)
    }
}

impl Serialize for StrategySpec {
    fn to_value(&self) -> serde::Value {
        match self.0.spec_label() {
            Some(label) => serde::Value::Str(label),
            None => self.0.to_value(),
        }
    }
}

impl Deserialize for StrategySpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(label) = v.as_str() {
            return Strategy::parse(label).map(StrategySpec).map_err(|e| {
                serde::Error::custom(format!(
                    "{e} (try e.g. \"MIN-IO\", \"OPT-IO-CPU\", \"pmu-cpu+LUM\", \
                     \"fixed(8)+RANDOM\")"
                ))
            });
        }
        Strategy::from_value(v).map(StrategySpec)
    }
}

impl StrategySpec {
    /// Label used in run annotations and result series.
    pub fn label(&self) -> String {
        self.0
            .spec_label()
            .unwrap_or_else(|| self.0.name().to_string())
    }
}

/// Node heterogeneity: per-PE CPU speed factors relative to the paper's
/// 20-MIPS baseline.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum NodeSpeed {
    /// All PEs run at the nominal speed (the paper's setting).
    #[default]
    Uniform,
    /// The first `round(fraction · n)` PEs run at `factor` × nominal
    /// speed (factor < 1: a slow partition; > 1: a fast one).
    SlowFraction {
        /// Fraction of PEs affected, in `[0, 1]`.
        fraction: f64,
        /// Speed multiplier for the affected PEs.
        factor: f64,
    },
    /// Explicit per-PE factors; cycled if shorter than the system size.
    Explicit(Vec<f64>),
}

impl NodeSpeed {
    /// Per-PE speed factors for a system of `n` PEs. Empty means uniform.
    pub fn resolve(&self, n: u32) -> Vec<f64> {
        match self {
            NodeSpeed::Uniform => Vec::new(),
            NodeSpeed::SlowFraction { fraction, factor } => {
                let k = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
                (0..n as usize)
                    .map(|i| if i < k { *factor } else { 1.0 })
                    .collect()
            }
            NodeSpeed::Explicit(factors) => {
                if factors.is_empty() {
                    return Vec::new();
                }
                (0..n as usize)
                    .map(|i| factors[i % factors.len()])
                    .collect()
            }
        }
    }

    /// Compact label for run annotations.
    pub fn label(&self) -> String {
        match self {
            NodeSpeed::Uniform => "uniform".into(),
            NodeSpeed::SlowFraction { fraction, factor } => {
                format!("slow({fraction}x@{factor})")
            }
            NodeSpeed::Explicit(f) => format!("explicit({})", f.len()),
        }
    }
}

/// The shape of the workload; the numeric [`Knobs`] fill in rates and
/// selectivities so sweeps can vary them independently of the shape.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum WorkloadShape {
    /// One closed-loop join query at a time (`single-user mode`).
    SingleUserJoin,
    /// Open multi-user join stream (§5.2), optionally skewed.
    #[default]
    HomogeneousJoin,
    /// Joins plus debit-credit OLTP on `oltp_nodes` (§5.3 / Fig. 9).
    Mixed,
}

/// Declares every scenario knob once and generates [`Knobs`] (with its
/// `Default`), [`Patch`] (with `apply` and `label`), [`Sweep`] and the
/// expansion in [`ScenarioSpec::run_count`] / [`ScenarioSpec::runs`].
///
/// A row is `name: Type = default => kind`, where `kind` is one of
///
/// * `series(prefix, render)` — patchable and swept; a series dimension
///   expanded before `paired` (one result series per value);
/// * `sweep(prefix, render)` — patchable and swept, after `paired`;
/// * `patch(prefix, render)` — patchable, never swept;
/// * `base` — settable in `base` only.
///
/// `prefix` names the knob in [`Patch::label`] (`prefix=render(value)`);
/// `render` also labels the value as a sweep axis. Row order is label
/// order and, within each kind, expansion order. The rows are sorted
/// into per-kind lists one at a time (`@sort`/`@push`), then each list
/// feeds the items that need it (`@emit`).
macro_rules! knob_table {
    (@sort $all:tt $patch:tt $series:tt $sweep:tt) => {
        knob_table!(@emit $all $patch $series $sweep);
    };
    (@sort $all:tt $patch:tt $series:tt $sweep:tt
        $(#[$doc:meta])* $name:ident: $ty:ty = $default:expr =>
            $kind:ident $(($prefix:literal, $render:expr))?, $($rest:tt)*) => {
        knob_table!(@push $kind { $(#[$doc])* $name: $ty = $default $(, $prefix, $render)? }
            $all $patch $series $sweep $($rest)*);
    };
    (@sort $all:tt $patch:tt $series:tt $sweep:tt $($bad:tt)*) => {
        compile_error!(concat!("knob_table: malformed row: ", stringify!($($bad)*)));
    };
    (@push series $row:tt
        [$($all:tt)*] [$($patch:tt)*] [$($series:tt)*] [$($sweep:tt)*] $($rest:tt)*) => {
        knob_table!(@sort
            [$($all)* $row] [$($patch)* $row] [$($series)* $row] [$($sweep)*] $($rest)*);
    };
    (@push sweep $row:tt
        [$($all:tt)*] [$($patch:tt)*] [$($series:tt)*] [$($sweep:tt)*] $($rest:tt)*) => {
        knob_table!(@sort
            [$($all)* $row] [$($patch)* $row] [$($series)*] [$($sweep)* $row] $($rest)*);
    };
    (@push patch $row:tt
        [$($all:tt)*] [$($patch:tt)*] [$($series:tt)*] [$($sweep:tt)*] $($rest:tt)*) => {
        knob_table!(@sort
            [$($all)* $row] [$($patch)* $row] [$($series)*] [$($sweep)*] $($rest)*);
    };
    (@push base $row:tt
        [$($all:tt)*] [$($patch:tt)*] [$($series:tt)*] [$($sweep:tt)*] $($rest:tt)*) => {
        knob_table!(@sort
            [$($all)* $row] [$($patch)*] [$($series)*] [$($sweep)*] $($rest)*);
    };
    (@emit [$($all:tt)*] [$($patch:tt)*] [$($series:tt)*] [$($sweep:tt)*]) => {
        knob_table!(@knobs $($all)*);
        knob_table!(@patch $($patch)*);
        knob_table!(@sweep [$($series)*] [$($sweep)*]);
    };
    (@knobs $({ $(#[$doc:meta])* $name:ident: $ty:ty = $default:expr $(, $p:literal, $r:expr)? })*) => {
        /// One concrete run point: every knob the scenario lab can turn.
        ///
        /// `Default` is the paper's Fig. 4 configuration at 40 PEs with the
        /// OPT-IO-CPU strategy and CI-friendly run lengths; a spec's `base`
        /// object only needs the knobs it changes, and a key that names no
        /// knob is an error.
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        #[serde(default, deny_unknown_fields)]
        pub struct Knobs {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl Default for Knobs {
            fn default() -> Self {
                Knobs { $($name: $default,)* }
            }
        }

        impl Knobs {
            /// Every knob name, in table order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];
        }
    };
    (@patch $({ $(#[$doc:meta])* $name:ident: $ty:ty = $default:expr, $prefix:literal, $render:expr })*) => {
        /// A correlated override: sets several knobs together, forming one
        /// value of the `paired` sweep axis (Fig. 8 pairs selectivity with
        /// arrival rate, bursty scenarios pair a modulation with a rate, …).
        #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
        #[serde(default, deny_unknown_fields)]
        pub struct Patch {
            /// Label used in run annotations; derived from the set fields
            /// if omitted.
            pub label: Option<String>,
            $(
                #[doc = concat!("Override [`Knobs::", stringify!($name), "`].")]
                pub $name: Option<$ty>,
            )*
        }

        impl Patch {
            /// Every overridable knob name, in table order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];

            /// Apply every set field to `knobs`.
            pub fn apply(&self, knobs: &mut Knobs) {
                $(
                    if let Some(v) = &self.$name {
                        knobs.$name = v.clone();
                    }
                )*
            }

            /// Annotation label: explicit `label` or `field=value` pairs.
            /// Every overridable field contributes, so two distinct
            /// unlabelled patches never collapse to the same axis value
            /// (which would merge their result rows).
            pub fn label(&self) -> String {
                if let Some(l) = &self.label {
                    return l.clone();
                }
                let mut parts = Vec::new();
                $(
                    if let Some(v) = &self.$name {
                        let render: fn(&$ty) -> String = $render;
                        parts.push(format!("{}={}", $prefix, render(v)));
                    }
                )*
                if parts.is_empty() {
                    "patch".into()
                } else {
                    parts.join(",")
                }
            }
        }
    };
    (@sweep
        [$({ $(#[$sdoc:meta])* $series:ident: $sty:ty = $sdefault:expr, $sprefix:literal, $srender:expr })*]
        [$({ $(#[$doc:meta])* $name:ident: $ty:ty = $default:expr, $prefix:literal, $render:expr })*]) => {
        /// Sweep axes. Every non-empty axis contributes one dimension to
        /// the cross-product; an empty axis keeps the base value.
        #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
        #[serde(default, deny_unknown_fields)]
        pub struct Sweep {
            $(
                #[doc = concat!("Values of [`Knobs::", stringify!($series), "`] to compare \
                                 (one result series each).")]
                pub $series: Vec<$sty>,
            )*
            /// Correlated multi-knob overrides (one axis, applied together).
            pub paired: Vec<Patch>,
            $(
                #[doc = concat!("Values of [`Knobs::", stringify!($name), "`] to sweep.")]
                pub $name: Vec<$ty>,
            )*
        }

        impl Sweep {
            /// Every axis name, in expansion order.
            pub const AXES: &'static [&'static str] =
                &[$(stringify!($series),)* "paired", $(stringify!($name)),*];
        }

        impl ScenarioSpec {
            /// Number of runs the sweep expands to (product of non-empty
            /// axes).
            pub fn run_count(&self) -> usize {
                let s = &self.sweep;
                [$(s.$series.len(),)* s.paired.len(), $(s.$name.len()),*]
                    .iter()
                    .filter(|&&n| n > 0)
                    .product::<usize>()
                    .max(1)
            }

            /// Expand the sweep into concrete runs: the cross-product of
            /// all non-empty axes in deterministic order — the series axes
            /// (`strategy`, `admission`), then `paired`, then the other
            /// sweep axes in table order ([`Sweep::AXES`]).
            pub fn runs(&self) -> Vec<ScenarioRun> {
                let mut runs = vec![ScenarioRun {
                    axes: Vec::new(),
                    knobs: self.base.clone(),
                }];
                let s = &self.sweep;
                $(
                    let render: fn(&$sty) -> String = $srender;
                    runs = expand(runs, stringify!($series), &s.$series, render, |k, v| {
                        k.$series = v.clone()
                    });
                )*
                runs = expand(runs, "paired", &s.paired, Patch::label, |k, v| v.apply(k));
                $(
                    let render: fn(&$ty) -> String = $render;
                    runs = expand(runs, stringify!($name), &s.$name, render, |k, v| {
                        k.$name = v.clone()
                    });
                )*
                runs
            }
        }
    };
    ($($rows:tt)*) => {
        knob_table!(@sort [] [] [] [] $($rows)*);
    };
}

knob_table! {
    /// Join placement strategy.
    strategy: StrategySpec = StrategySpec::default() => series("strategy", StrategySpec::label),
    /// Workload shape (which classes exist).
    workload: WorkloadShape = WorkloadShape::HomogeneousJoin => patch("workload", |v| format!("{v:?}")),
    /// System size (the paper varies 10–80).
    n_pes: u32 = 40 => sweep("n_pes", u32::to_string),
    /// Scan selectivity of the join inputs (0.01 = the paper's 1%).
    selectivity: f64 = 0.01 => sweep("sel", f64::to_string),
    /// Join arrivals per second per PE (open workloads).
    qps_per_pe: f64 = 0.25 => sweep("qps", f64::to_string),
    /// Zipf theta of the join redistribution skew (0 = uniform).
    skew_theta: f64 = 0.0 => sweep("theta", f64::to_string),
    /// Zipf theta of the *data placement* — fragment sizes of the join
    /// relations (0 = the paper's equal tuples per fragment).
    data_skew: f64 = 0.0 => sweep("dskew", f64::to_string),
    /// Fragments per join relation (0 = one per home PE).
    fragment_count: u32 = 0 => sweep("frags", u32::to_string),
    /// Online fragment rebalancing (default controller parameters when
    /// `true`; `false` = the paper's static placement).
    rebalance: bool = false => sweep("rebalance", bool::to_string),
    /// OLTP transactions per second per OLTP node (`Mixed` shape).
    tps_per_node: f64 = 100.0 => sweep("tps", f64::to_string),
    /// Which nodes run OLTP (`Mixed` shape).
    oltp_nodes: NodeFilter = NodeFilter::All => patch("oltp_nodes", |v| format!("{v:?}")),
    /// Time-variation of the join arrival rate.
    query_modulation: Modulation = Modulation::None => patch("qmod", modulation_label),
    /// Time-variation of the OLTP arrival rate.
    oltp_modulation: Modulation = Modulation::None => patch("omod", modulation_label),
    /// Buffer pages per PE (the paper's 50; Fig. 7 divides by 10).
    buffer_pages: u32 = 50 => sweep("buf", u32::to_string),
    /// Data disks per PE (the paper varies 1 / 5 / 10).
    disks_per_pe: u32 = 10 => sweep("disks", u32::to_string),
    /// Interconnect link-bandwidth factor (1.0 = the paper's ≈20 MB/s
    /// EDS links; 0.1 = a 10× slower fabric).
    net_speed: f64 = 1.0 => sweep("net", f64::to_string),
    /// Per-PE multiprogramming level (the paper's 64; admission
    /// experiments lower it to make MPL backpressure visible).
    mpl: u32 = 64 => sweep("mpl", u32::to_string),
    /// Admission layer between arrivals and launch: policy, budgets,
    /// queue bound, priority tiers. The default (`FcfsMpl`) reproduces
    /// the paper's MPL-only admission bit-for-bit.
    admission: AdmissionConfig = AdmissionConfig::default() => series("admission", AdmissionConfig::label),
    /// Per-PE CPU speed heterogeneity.
    node_speed: NodeSpeed = NodeSpeed::Uniform => sweep("speed", NodeSpeed::label),
    /// Per-work-class placement policies; `None` = paper defaults.
    policies: Option<PolicyConfig> = None => base,
    /// Control-plane implementation and fault model (report staleness,
    /// heartbeat loss, failure detection, rack aggregation). Absent in a
    /// spec = the clean central broker, byte-identical to pre-fault runs.
    broker: BrokerConfig = BrokerConfig::default() => sweep("broker", BrokerConfig::label),
    /// Observability layer: per-round time series, lifecycle JSONL, and
    /// the placement-explain digest. Absent in a spec = disabled, and the
    /// disabled layer is provably inert (bit-identical `Summary`).
    trace: TraceConfig = TraceConfig::default() => sweep("trace", TraceConfig::label),
    /// Simulated seconds.
    sim_secs: f64 = 40.0 => patch("sim", f64::to_string),
    /// Warm-up seconds discarded from statistics.
    warmup_secs: f64 = 8.0 => patch("warmup", f64::to_string),
    /// Root RNG seed.
    seed: u64 = 0xC0FFEE => sweep("seed", u64::to_string),
}

impl Knobs {
    /// Lower the workload knobs to the concrete multi-class
    /// [`WorkloadSpec`] this point simulates.
    pub fn workload_spec(&self) -> WorkloadSpec {
        let mut wl = match self.workload {
            WorkloadShape::SingleUserJoin => WorkloadSpec::single_user_join(self.selectivity),
            WorkloadShape::HomogeneousJoin => {
                WorkloadSpec::homogeneous_join(self.selectivity, self.qps_per_pe)
            }
            WorkloadShape::Mixed => WorkloadSpec::mixed(
                self.selectivity,
                self.qps_per_pe,
                RelationId(2),
                self.tps_per_node,
                self.oltp_nodes,
            ),
        };
        for q in &mut wl.queries {
            q.redistribution_skew = self.skew_theta;
            q.modulation = self.query_modulation;
        }
        for o in &mut wl.oltp {
            o.modulation = self.oltp_modulation;
        }
        wl
    }
}

/// Compact modulation rendering for run labels.
fn modulation_label(m: &Modulation) -> String {
    match m {
        Modulation::None => "none".into(),
        Modulation::Burst {
            factor,
            period_secs,
            duty,
        } => format!("burst({factor}x/{period_secs}s@{duty})"),
        Modulation::Shift { factor, at_secs } => format!("shift({factor}x@{at_secs}s)"),
    }
}

/// Cross `runs` with one axis: every run is repeated once per value, with
/// the value applied and its label appended to the run's axes.
fn expand<T>(
    runs: Vec<ScenarioRun>,
    axis: &str,
    values: &[T],
    label: impl Fn(&T) -> String,
    apply: impl Fn(&mut Knobs, &T),
) -> Vec<ScenarioRun> {
    if values.is_empty() {
        return runs;
    }
    let mut out = Vec::with_capacity(runs.len() * values.len());
    for run in &runs {
        for v in values {
            let mut next = run.clone();
            next.axes.push((axis.to_string(), label(v)));
            apply(&mut next.knobs, v);
            out.push(next);
        }
    }
    out
}

/// One expanded run: the axis values that produced it plus the final
/// knob settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// `(axis, value-label)` pairs in expansion order.
    pub axes: Vec<(String, String)>,
    /// Fully resolved knobs for this run.
    pub knobs: Knobs,
}

impl ScenarioRun {
    /// Value label of one axis, if it was swept.
    pub fn axis(&self, name: &str) -> Option<&str> {
        self.axes
            .iter()
            .find(|(a, _)| a == name)
            .map(|(_, v)| v.as_str())
    }

    /// Compact one-line label of all swept axes.
    pub fn label(&self) -> String {
        if self.axes.is_empty() {
            return "base".into();
        }
        self.axes
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A complete declarative scenario: metadata, base point, sweep.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Scenario name; also names the result files under `results/`.
    pub name: String,
    /// Free-form description shown by `lab --dry-run`.
    pub description: String,
    /// Base knob settings (missing knobs = paper defaults).
    pub base: Knobs,
    /// Axes expanded into the cross-product of runs.
    pub sweep: Sweep,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::{DegreePolicy, SelectPolicy};
    use serde::Serialize;

    #[test]
    fn empty_spec_is_one_base_run() {
        let spec = ScenarioSpec {
            name: "x".into(),
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.run_count(), 1);
        let runs = spec.runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].knobs, Knobs::default());
        assert_eq!(runs[0].label(), "base");
    }

    #[test]
    fn cross_product_expansion() {
        let spec = ScenarioSpec {
            name: "xp".into(),
            sweep: Sweep {
                strategy: vec![
                    StrategySpec(Strategy::MinIo),
                    StrategySpec(Strategy::OptIoCpu),
                ],
                n_pes: vec![10, 20, 40],
                seed: vec![1, 2],
                ..Sweep::default()
            },
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.run_count(), 12);
        let runs = spec.runs();
        assert_eq!(runs.len(), 12);
        // Deterministic order: strategy outermost, seed innermost.
        assert_eq!(runs[0].axis("strategy"), Some("MIN-IO"));
        assert_eq!(runs[0].axis("n_pes"), Some("10"));
        assert_eq!(runs[0].axis("seed"), Some("1"));
        assert_eq!(runs[1].axis("seed"), Some("2"));
        assert_eq!(runs[11].axis("strategy"), Some("OPT-IO-CPU"));
        assert_eq!(runs[11].knobs.n_pes, 40);
        assert_eq!(runs[11].knobs.seed, 2);
        // Every combination appears exactly once.
        let mut labels: Vec<String> = runs.iter().map(ScenarioRun::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn admission_axis_expands_like_strategy() {
        use sched::AdmissionPolicyKind;
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{
                "name": "adm",
                "base": { "mpl": 8 },
                "sweep": {
                    "admission": [
                        { "policy": "FcfsMpl" },
                        { "policy": "MemoryReservation", "mem_budget_frac": 0.8 },
                        { "policy": "Malleable", "priorities": [ { "class": "debit-credit", "weight": 8.0 } ] }
                    ],
                    "qps_per_pe": [0.1, 0.5]
                }
            }"#,
        )
        .unwrap();
        assert_eq!(spec.run_count(), 6);
        let runs = spec.runs();
        assert_eq!(runs[0].axis("admission"), Some("fcfs"));
        assert_eq!(runs[2].axis("admission"), Some("mem-resv(0.8)"));
        assert_eq!(runs[4].axis("admission"), Some("malleable(1.5)+prio"));
        assert_eq!(
            runs[4].knobs.admission.policy,
            AdmissionPolicyKind::Malleable
        );
        assert_eq!(runs[4].knobs.admission.weight_for("debit-credit"), 8.0);
        assert_eq!(runs[0].knobs.mpl, 8, "base mpl survives expansion");
        // Patch-level override composes too.
        let p = Patch {
            admission: Some(AdmissionConfig {
                policy: AdmissionPolicyKind::MemoryReservation,
                ..AdmissionConfig::default()
            }),
            mpl: Some(2),
            ..Patch::default()
        };
        assert_eq!(p.label(), "mpl=2,admission=mem-resv");
        let mut k = Knobs::default();
        p.apply(&mut k);
        assert_eq!(k.mpl, 2);
        assert_eq!(k.admission.policy, AdmissionPolicyKind::MemoryReservation);
    }

    #[test]
    fn paired_axis_applies_overrides_together() {
        let spec = ScenarioSpec {
            name: "pairs".into(),
            sweep: Sweep {
                paired: vec![
                    Patch {
                        selectivity: Some(0.001),
                        qps_per_pe: Some(1.0),
                        ..Patch::default()
                    },
                    Patch {
                        label: Some("big".into()),
                        selectivity: Some(0.05),
                        qps_per_pe: Some(0.035),
                        ..Patch::default()
                    },
                ],
                ..Sweep::default()
            },
            ..ScenarioSpec::default()
        };
        let runs = spec.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].knobs.selectivity, 0.001);
        assert_eq!(runs[0].knobs.qps_per_pe, 1.0);
        assert_eq!(runs[0].axis("paired"), Some("sel=0.001,qps=1"));
        assert_eq!(runs[1].axis("paired"), Some("big"));
        assert_eq!(runs[1].knobs.qps_per_pe, 0.035);
    }

    #[test]
    fn strategy_spec_accepts_labels_and_tagged_values() {
        let s: StrategySpec = serde_json::from_str("\"pmu-cpu+LUM\"").unwrap();
        assert_eq!(
            s.0,
            Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select: SelectPolicy::Lum,
            }
        );
        let via_label = serde_json::to_string(&s).unwrap();
        assert_eq!(via_label, "\"pmu-cpu+LUM\"");
        let tagged: StrategySpec = serde_json::from_str("\"MIN-IO-SUOPT\"").unwrap();
        assert_eq!(tagged.0, Strategy::MinIoSuopt);
        assert!(serde_json::from_str::<StrategySpec>("\"nope\"").is_err());
    }

    #[test]
    fn knobs_default_via_serde_default() {
        // A spec that only names what it changes: everything else is the
        // paper default (this is the vendored #[serde(default)] path).
        let k: Knobs = serde_json::from_str(r#"{ "n_pes": 80, "qps_per_pe": 0.075 }"#).unwrap();
        assert_eq!(k.n_pes, 80);
        assert_eq!(k.qps_per_pe, 0.075);
        assert_eq!(k.buffer_pages, 50);
        assert_eq!(k.strategy, StrategySpec(Strategy::OptIoCpu));
        assert_eq!(k.seed, 0xC0FFEE);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            name: "rt".into(),
            description: "round trip".into(),
            base: Knobs {
                workload: WorkloadShape::Mixed,
                oltp_nodes: NodeFilter::BNodes,
                oltp_modulation: Modulation::Burst {
                    factor: 4.0,
                    period_secs: 10.0,
                    duty: 0.25,
                },
                node_speed: NodeSpeed::SlowFraction {
                    fraction: 0.25,
                    factor: 0.5,
                },
                ..Knobs::default()
            },
            sweep: Sweep {
                strategy: vec![StrategySpec(Strategy::Adaptive)],
                n_pes: vec![20, 40],
                ..Sweep::default()
            },
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.run_count(), 2);
    }

    #[test]
    fn workload_lowering_applies_skew_and_modulation() {
        let k = Knobs {
            workload: WorkloadShape::Mixed,
            skew_theta: 0.5,
            query_modulation: Modulation::Shift {
                factor: 2.0,
                at_secs: 15.0,
            },
            oltp_modulation: Modulation::Burst {
                factor: 3.0,
                period_secs: 8.0,
                duty: 0.5,
            },
            ..Knobs::default()
        };
        let wl = k.workload_spec();
        assert_eq!(wl.queries.len(), 1);
        assert_eq!(wl.oltp.len(), 1);
        assert_eq!(wl.queries[0].redistribution_skew, 0.5);
        assert!(matches!(wl.queries[0].modulation, Modulation::Shift { .. }));
        assert!(matches!(wl.oltp[0].modulation, Modulation::Burst { .. }));
    }

    /// A non-default value for every overridable knob, as JSON.
    fn sample(name: &str) -> &'static str {
        match name {
            "strategy" => r#""MIN-IO""#,
            "workload" => r#""Mixed""#,
            "n_pes" => "8",
            "selectivity" => "0.05",
            "qps_per_pe" => "0.5",
            "skew_theta" => "0.5",
            "data_skew" => "0.8",
            "fragment_count" => "16",
            "rebalance" => "true",
            "tps_per_node" => "60.0",
            "oltp_nodes" => r#""BNodes""#,
            "query_modulation" => r#"{ "Shift": { "factor": 2.0, "at_secs": 10.0 } }"#,
            "oltp_modulation" => {
                r#"{ "Burst": { "factor": 4.0, "period_secs": 10.0, "duty": 0.25 } }"#
            }
            "buffer_pages" => "5",
            "disks_per_pe" => "1",
            "net_speed" => "0.2",
            "mpl" => "8",
            "admission" => r#"{ "policy": "Malleable" }"#,
            "node_speed" => r#"{ "SlowFraction": { "fraction": 0.25, "factor": 0.5 } }"#,
            "broker" => r#"{ "kind": "Lagged", "staleness_ms": 50.0 }"#,
            "trace" => r#"{ "enabled": true }"#,
            "sim_secs" => "12.0",
            "warmup_secs" => "2.0",
            "seed" => "7",
            other => panic!("no sample value for knob `{other}`: add one here"),
        }
    }

    /// Each knob's default value, as JSON.
    fn default_json(name: &str) -> String {
        let knobs = Knobs::default().to_value();
        serde_json::to_string(knobs.get(name).expect("knob serialized")).unwrap()
    }

    #[test]
    fn every_table_row_labels_applies_and_sweeps_on_its_own() {
        let defaults = Knobs::default().to_value();
        let mut labels = Vec::new();
        for &name in Patch::NAMES {
            let patch: Patch =
                serde_json::from_str(&format!(r#"{{ "{name}": {} }}"#, sample(name))).unwrap();
            labels.push(patch.label());
            let mut knobs = Knobs::default();
            patch.apply(&mut knobs);
            for (field, value) in knobs.to_value().as_object().unwrap() {
                let before = defaults.get(field).unwrap();
                if field == name {
                    assert_ne!(value, before, "patching `{name}` left it at its default");
                } else {
                    assert_eq!(value, before, "patching `{name}` changed `{field}`");
                }
            }
        }
        let mut distinct = labels.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            Patch::NAMES.len(),
            "labels collide: {labels:?}"
        );

        for &axis in Sweep::AXES {
            let values = if axis == "paired" {
                r#"[{ "seed": 1 }, { "seed": 2 }]"#.to_string()
            } else {
                format!("[{}, {}]", default_json(axis), sample(axis))
            };
            let spec: ScenarioSpec =
                serde_json::from_str(&format!(r#"{{ "sweep": {{ "{axis}": {values} }} }}"#))
                    .unwrap();
            assert_eq!(spec.run_count(), 2, "axis `{axis}`");
            let runs = spec.runs();
            assert_eq!(runs.len(), 2, "axis `{axis}`");
            assert!(runs
                .iter()
                .all(|r| r.axes.len() == 1 && r.axis(axis).is_some()));
            assert_ne!(runs[0].label(), runs[1].label(), "axis `{axis}`");
            assert_ne!(runs[0].knobs, runs[1].knobs, "axis `{axis}`");
        }
    }

    #[test]
    fn node_speed_resolution() {
        assert!(NodeSpeed::Uniform.resolve(8).is_empty());
        let hetero = NodeSpeed::SlowFraction {
            fraction: 0.25,
            factor: 0.5,
        };
        let f = hetero.resolve(8);
        assert_eq!(f, vec![0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let explicit = NodeSpeed::Explicit(vec![1.0, 2.0]);
        assert_eq!(explicit.resolve(5), vec![1.0, 2.0, 1.0, 2.0, 1.0]);
        assert!(NodeSpeed::Explicit(Vec::new()).resolve(4).is_empty());
    }
}
