//! Checks that the benchmark measures the program it claims to: its own
//! loop reproduces `run_one`, its printed names are well formed and match
//! `BENCHMARK.json`, and the network layer shows up where it should.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{drive, lower, run_to_end, Kind, LayerTrace, Workload, END_TO_END, PER_LAYER};
use simkit::SimTime;
use snsim::{run_one, SimConfig, Summary, System};

/// The benchmark's traced path: `System::new`, [`drive`], `System::run()`.
fn outside_in(cfg: SimConfig, tr: &mut LayerTrace) -> Summary {
    let end = SimTime::ZERO + cfg.sim_time;
    let mut sys = System::new(cfg);
    drive(&mut sys, end, tr);
    let summary = run_to_end(&mut sys);
    sys.check_buffer_invariants();
    summary
}

fn json(s: &Summary) -> String {
    serde_json::to_string(s).expect("a Summary serializes")
}

#[test]
fn outside_in_loop_reproduces_run_one() {
    // Every workload's configurations, cut to a tiny length.
    let lengths = [(0.1, 0.02), (0.1, 0.02), (5.0, 1.0)];
    for (w, length) in Workload::ALL.into_iter().zip(lengths) {
        let low = lower(w, 7, length).expect("spec lowers");
        for cfg in low.configs() {
            let mut tr = LayerTrace::default();
            let ours = outside_in(cfg.clone(), &mut tr);
            assert!(tr.events() > 0, "{}: no events dispatched", w.name());
            assert_eq!(
                tr.events(),
                ours.events,
                "{}: every event counted",
                w.name()
            );
            assert_eq!(
                json(&ours),
                json(&run_one(cfg)),
                "{}: Summary differs",
                w.name()
            );
        }
    }
}

fn well_formed(name: &str, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

#[test]
fn printed_names_are_well_formed() {
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n))
        .collect();
    for name in &names {
        assert!(well_formed(name, ""), "bad name `{name}`");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names repeat");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            well_formed(unit, "/%") && unit.len() <= 16,
            "{name}: bad unit `{unit}`"
        );
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        let serde_json::Value::Object(top) = &v else {
            panic!("BENCHMARK.json is not an object")
        };
        let Some((_, serde_json::Value::Array(items))) = top.iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json lacks `{key}`")
        };
        items
            .iter()
            .map(|item| {
                let serde_json::Value::Object(entry) = item else {
                    panic!("`{key}` entry is not an object")
                };
                fields
                    .iter()
                    .map(|f| match entry.iter().find(|(k, _)| k == f) {
                        Some((_, serde_json::Value::Str(s))) => s.clone(),
                        _ => panic!("`{key}` entry lacks string `{f}`"),
                    })
                    .collect()
            })
            .collect()
    };
    let pairs = |metrics: &[(&str, &str)]| -> Vec<Vec<String>> {
        metrics
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect()
    };
    let workloads: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| vec![w.name().to_string()])
        .collect();
    assert_eq!(list("workloads", &["name"]), workloads);
    assert_eq!(list("end_to_end", &["name", "unit"]), pairs(&END_TO_END));
    assert_eq!(list("per_layer", &["name", "unit"]), pairs(&PER_LAYER));
}

#[test]
fn network_layer_is_bypassed_by_oltp_and_used_by_joins() {
    let net_events = |w: Workload, length| {
        let low = lower(w, 3, length).expect("spec lowers");
        let mut tr = LayerTrace::default();
        for cfg in low.configs() {
            outside_in(cfg, &mut tr);
        }
        tr.count[Kind::Net as usize]
    };
    assert_eq!(net_events(Workload::OltpSoak, (0.2, 0.05)), 0);
    assert!(net_events(Workload::JoinSoak, (0.2, 0.05)) > 0);
}
