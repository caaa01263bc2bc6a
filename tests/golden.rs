//! Golden behaviour digests: every run point of every committed scenario
//! (`scenarios/*.json`) must keep producing the exact same [`Summary`].
//!
//! Each point runs with its spec's own seed and knobs on a capped
//! horizon, so the whole corpus stays cheap under a debug `cargo test`.
//! Cost grows with PEs × simulated time, so the cap is a PE-seconds
//! budget ([`PE_SECS_CAP`]): a 10-PE point simulates up to 8 s, a 1000-PE
//! soak 0.08 s, and the warm-up is capped at a quarter of the horizon.
//! The serialized `Summary` is hashed with 64-bit FNV-1a and compared,
//! together with the headline response times, against the committed
//! `GOLDEN.json`. After every run the buffer-pool frame accounting,
//! every PE's lock table and the device FIFO pools are checked as well.
//!
//! The `join_resp_ms` and `oltp_resp_ms` values in `GOLDEN.json` are
//! readings on that capped horizon (an 80-PE point runs for 1 s), kept so
//! that a moved point shows how far it moved. They are not the paper's
//! claims and not the spec's own results: a point at its spec length can
//! read quite differently. The paper's qualitative claims are pinned by
//! `tests/strategy_shapes.rs` and the figure binaries' shape checks.
//!
//! An intended behaviour change regenerates the file in the same change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden
//! ```

use serde_json::Value;
use simkit::SimDur;
use snsim::{SimConfig, Summary, System};
use std::sync::Mutex;
use workload::scenario::ScenarioSpec;

/// Horizon budget in PE-seconds: a point simulates at most
/// `PE_SECS_CAP / n_pes` seconds.
const PE_SECS_CAP: f64 = 80.0;

fn root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(summary: &Summary) -> String {
    let text = serde_json::to_string(summary).expect("summary serializes");
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn capped(cfg: SimConfig) -> SimConfig {
    let sim = cfg
        .sim_time
        .as_secs_f64()
        .min(PE_SECS_CAP / f64::from(cfg.n_pes));
    let warmup = cfg.warmup.as_secs_f64().min(sim / 4.0);
    cfg.with_sim_time(SimDur::from_secs_f64(sim), SimDur::from_secs_f64(warmup))
}

/// Every committed scenario, sorted by file name.
fn specs() -> Vec<ScenarioSpec> {
    let mut paths: Vec<_> = std::fs::read_dir(root().join("scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let json = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{p:?}: {e}"))
        })
        .collect()
}

fn run_point(label: String, cfg: SimConfig) -> Value {
    let mut sys = System::new(capped(cfg));
    let summary = sys.run();
    sys.check_buffer_invariants();
    sys.check_lock_invariants();
    sys.check_server_invariants();
    serde_json::json!({
        "run": label,
        "digest": digest(&summary),
        "join_resp_ms": summary.join_resp_ms(),
        "oltp_resp_ms": summary.oltp_resp_ms(),
    })
}

/// Run every point of every scenario over a small worker pool (runs are
/// independent and single-threaded); results keep expansion order.
fn golden() -> Value {
    let specs = specs();
    let mut work = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for (ri, (run, cfg)) in snsim::scenario::configs(spec).into_iter().enumerate() {
            work.push((si, ri, run.label(), cfg));
        }
    }
    let results: Vec<Vec<Mutex<Option<Value>>>> = specs
        .iter()
        .map(|s| (0..s.run_count()).map(|_| Mutex::new(None)).collect())
        .collect();
    let queue = Mutex::new(work);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().unwrap().pop();
                let Some((si, ri, label, cfg)) = next else {
                    break;
                };
                *results[si][ri].lock().unwrap() = Some(run_point(label, cfg));
            });
        }
    });
    let scenarios = specs
        .iter()
        .zip(results)
        .map(|(spec, points)| {
            let runs = points
                .into_iter()
                .map(|p| p.into_inner().unwrap().expect("every point ran"))
                .collect();
            (spec.name.clone(), Value::Array(runs))
        })
        .collect();
    serde_json::json!({
        "hash": "FNV-1a 64 of serde_json::to_string(&Summary)",
        "horizon": format!(
            "min(spec sim_secs, {PE_SECS_CAP} / n_pes) s; warm-up min(spec warmup_secs, horizon / 4)"
        ),
        "scenarios": Value::Object(scenarios),
    })
}

#[test]
fn every_scenario_point_matches_its_golden_digest() {
    let path = root().join("GOLDEN.json");
    let fresh = golden();
    let text = serde_json::to_string_pretty(&fresh).unwrap() + "\n";
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path:?}: {e} (bless with GOLDEN_BLESS=1)"));
    if committed == text {
        return;
    }
    // Name the points that moved before failing.
    let old: Value = serde_json::from_str(&committed).expect("GOLDEN.json parses");
    let moved = moved_points(&old, &fresh);
    panic!("GOLDEN.json differs; points whose digests moved: {moved:?}");
}

/// `(scenario/label, digest)` of every point of a golden file.
fn point_digests(golden: &Value) -> Vec<(String, &str)> {
    let Some(Value::Object(scenarios)) = golden.get("scenarios") else {
        return Vec::new();
    };
    let mut points = Vec::new();
    for (name, runs) in scenarios {
        for run in runs.as_array().into_iter().flatten() {
            let label = run.get("run").and_then(Value::as_str).unwrap_or("?");
            let digest = run.get("digest").and_then(Value::as_str).unwrap_or("");
            points.push((format!("{name}/{label}"), digest));
        }
    }
    points
}

/// The points, as `scenario/label`, whose digest differs between two
/// golden files, or that only one of them has. Only the digest strings
/// are compared: the float fields beside them need not parse back to
/// the same `f64`, so comparing parsed values names unmoved points.
fn moved_points(old: &Value, new: &Value) -> Vec<String> {
    let old = point_digests(old);
    let new = point_digests(new);
    let mut moved: Vec<String> = new
        .iter()
        .filter(|point| !old.contains(point))
        .chain(
            old.iter()
                .filter(|point| !new.iter().any(|(n, _)| *n == point.0)),
        )
        .map(|(name, _)| name.clone())
        .collect();
    moved.sort();
    moved.dedup();
    moved
}

#[test]
fn moved_points_compare_digests_not_float_fields() {
    let golden = |resp: f64, digest: &str| -> Value {
        let text = format!(
            r#"{{"scenarios": {{"fig7": [
                {{"run": "a", "digest": "00000000000000aa", "join_resp_ms": 1.5}},
                {{"run": "b", "digest": "{digest}", "join_resp_ms": {resp}}}
            ]}}}}"#
        );
        serde_json::from_str(&text).expect("test golden parses")
    };
    let resp = 1_234.567_890_123_456_7_f64;
    let old = golden(resp, "00000000000000bb");
    // The same point with a float field one ulp away: not moved.
    let ulp = golden(f64::from_bits(resp.to_bits() + 1), "00000000000000bb");
    assert_ne!(old, ulp);
    assert!(moved_points(&old, &ulp).is_empty());
    // A moved digest is named as scenario/label.
    let moved = golden(resp, "00000000000000cc");
    assert_eq!(moved_points(&old, &moved), vec!["fig7/b".to_string()]);
    // So are points only one side has.
    let empty: Value = serde_json::from_str(r#"{"scenarios": {}}"#).unwrap();
    assert_eq!(moved_points(&old, &empty), vec!["fig7/a", "fig7/b"]);
    assert_eq!(moved_points(&empty, &old), vec!["fig7/a", "fig7/b"]);
}
