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
//! The scenarios run joins and OLTP only, so the file also pins the
//! query types no spec reaches, under the `query_types` key: the scan
//! queries, updates and multi-way join of `tests/query_types.rs` and the
//! parallel sort of `crates/snsim/tests/extensions.rs` (at the default
//! buffer and at 5 pages), built here in code on the same capped horizon
//! with the same invariant checks. Each of these points also records its
//! class's completions, so that a point which runs no query shows.
//!
//! An intended behaviour change regenerates the file in the same change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden
//! ```

use dbmodel::RelationId;
use lb_core::Strategy;
use serde_json::Value;
use simkit::SimDur;
use snsim::{SimConfig, Summary, System};
use std::sync::Mutex;
use workload::queries::{CoordinatorPlacement, QueryClass, QueryKind};
use workload::scenario::ScenarioSpec;
use workload::{ArrivalSpec, Modulation, NodeFilter, OltpClass, WorkloadSpec};

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

/// One query class of `kind` arriving Poisson at `rate` per PE.
fn one_class(kind: QueryKind, rate: f64) -> WorkloadSpec {
    WorkloadSpec {
        queries: vec![QueryClass {
            name: "q".into(),
            kind,
            arrival: ArrivalSpec::PoissonPerPe { rate },
            modulation: Modulation::None,
            coordinator: CoordinatorPlacement::Random,
            redistribution_skew: 0.0,
        }],
        oltp: vec![],
    }
}

/// The query-type points: the configurations of `tests/query_types.rs`
/// (a 20-PE OPT-IO-CPU system) and of the parallel-sort extension test.
fn query_type_points() -> Vec<(String, SimConfig)> {
    let secs = |wl: WorkloadSpec, strategy, sim: u64, warmup: u64| {
        SimConfig::paper_default(20, wl, strategy)
            .with_sim_time(SimDur::from_secs(sim), SimDur::from_secs(warmup))
    };
    let query = |kind, rate| secs(one_class(kind, rate), Strategy::OptIoCpu, 15, 3);
    let mut multiway = one_class(
        QueryKind::MultiWayJoin {
            relations: vec![RelationId(0), RelationId(1), RelationId(2)],
            selectivity: 0.01,
        },
        0.05,
    );
    multiway
        .oltp
        .push(OltpClass::paper_oltp(RelationId(2), 0.5, NodeFilter::All));
    let sort = one_class(
        QueryKind::ParallelSort {
            relation: RelationId(1),
            selectivity: 0.01,
        },
        0.1,
    );
    vec![
        (
            "relation_scan",
            secs(
                one_class(
                    QueryKind::RelationScan {
                        relation: RelationId(0),
                        selectivity: 0.001,
                    },
                    0.002,
                ),
                Strategy::OptIoCpu,
                120,
                5,
            ),
        ),
        (
            "clustered_index_scan",
            query(
                QueryKind::ClusteredIndexScan {
                    relation: RelationId(1),
                    selectivity: 0.01,
                },
                0.2,
            ),
        ),
        (
            "non_clustered_index_scan",
            query(
                QueryKind::NonClusteredIndexScan {
                    relation: RelationId(1),
                    selectivity: 0.0002,
                },
                0.1,
            ),
        ),
        (
            "update_via_index",
            query(
                QueryKind::Update {
                    relation: RelationId(0),
                    tuples: 4,
                    via_index: true,
                },
                0.3,
            ),
        ),
        (
            "update_without_index",
            query(
                QueryKind::Update {
                    relation: RelationId(0),
                    tuples: 2,
                    via_index: false,
                },
                0.2,
            ),
        ),
        ("multiway_join", secs(multiway, Strategy::OptIoCpu, 20, 4)),
        (
            "parallel_sort",
            secs(sort.clone(), Strategy::OptIoCpu, 25, 5),
        ),
        (
            "parallel_sort_buffer_5",
            secs(sort, Strategy::MinIoSuopt, 25, 5).with_buffer_pages(5),
        ),
    ]
    .into_iter()
    .map(|(label, cfg)| (label.to_string(), cfg))
    .collect()
}

/// Run one point on the capped horizon and check the invariants.
fn run_capped(cfg: SimConfig) -> Summary {
    let mut sys = System::new(capped(cfg));
    let summary = sys.run();
    sys.check_buffer_invariants();
    sys.check_lock_invariants();
    sys.check_server_invariants();
    summary
}

fn run_point(label: String, cfg: SimConfig) -> Value {
    let summary = run_capped(cfg);
    serde_json::json!({
        "run": label,
        "digest": digest(&summary),
        "join_resp_ms": summary.join_resp_ms(),
        "oltp_resp_ms": summary.oltp_resp_ms(),
    })
}

/// A query-type point also records its query class's completions.
fn run_query_type_point(label: String, cfg: SimConfig) -> Value {
    let summary = run_capped(cfg);
    serde_json::json!({
        "run": label,
        "digest": digest(&summary),
        "join_resp_ms": summary.join_resp_ms(),
        "oltp_resp_ms": summary.oltp_resp_ms(),
        "completed": summary.classes[0].completed,
    })
}

/// Run every point of every scenario, then the query-type points, over a
/// small worker pool (runs are independent and single-threaded); results
/// keep expansion order.
fn golden() -> Value {
    let specs = specs();
    let query_types = query_type_points();
    // Group `specs.len()` holds the query-type points.
    let mut work = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for (ri, (run, cfg)) in snsim::scenario::configs(spec).into_iter().enumerate() {
            work.push((si, ri, run.label(), cfg));
        }
    }
    for (ri, (label, cfg)) in query_types.iter().enumerate() {
        work.push((specs.len(), ri, label.clone(), cfg.clone()));
    }
    let mut results: Vec<Vec<Mutex<Option<Value>>>> = specs
        .iter()
        .map(|s| (0..s.run_count()).map(|_| Mutex::new(None)).collect())
        .collect();
    results.push(query_types.iter().map(|_| Mutex::new(None)).collect());
    let queue = Mutex::new(work);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().unwrap().pop();
                let Some((si, ri, label, cfg)) = next else {
                    break;
                };
                let point = if si == specs.len() {
                    run_query_type_point(label, cfg)
                } else {
                    run_point(label, cfg)
                };
                *results[si][ri].lock().unwrap() = Some(point);
            });
        }
    });
    let mut groups = results.into_iter().map(|points| {
        let runs = points
            .into_iter()
            .map(|p| p.into_inner().unwrap().expect("every point ran"))
            .collect();
        Value::Array(runs)
    });
    let scenarios = specs
        .iter()
        .zip(groups.by_ref())
        .map(|(spec, runs)| (spec.name.clone(), runs))
        .collect();
    let query_points = groups.next().expect("the query-type group");
    serde_json::json!({
        "hash": "FNV-1a 64 of serde_json::to_string(&Summary)",
        "horizon": format!(
            "min(spec sim_secs, {PE_SECS_CAP} / n_pes) s; warm-up min(spec warmup_secs, horizon / 4)"
        ),
        "query_types": query_points,
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

/// `(scenario/label, digest)` of every point of a golden file; the
/// query-type points are named `query_types/label`.
fn point_digests(golden: &Value) -> Vec<(String, &str)> {
    let mut groups: Vec<(&str, &Value)> = match golden.get("scenarios") {
        Some(Value::Object(scenarios)) => scenarios
            .iter()
            .map(|(name, runs)| (name.as_str(), runs))
            .collect(),
        _ => Vec::new(),
    };
    if let Some(runs) = golden.get("query_types") {
        groups.push(("query_types", runs));
    }
    let mut points = Vec::new();
    for (name, runs) in groups {
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
    // Query-type points are named under their own key.
    let pinned: Value = serde_json::from_str(
        r#"{"scenarios": {}, "query_types": [{"run": "sort", "digest": "00000000000000dd"}]}"#,
    )
    .unwrap();
    assert_eq!(moved_points(&empty, &pinned), vec!["query_types/sort"]);
}
