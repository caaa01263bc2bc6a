//! CI perf-regression gate over `lab --bench` output.
//!
//! Compares freshly measured per-scenario `events_per_sec` against the
//! committed baseline (`BENCH_lab.json` at the repo root) and fails the
//! build when any scenario regresses by more than the tolerance:
//!
//! ```text
//! bench_gate BENCH_lab.json BENCH_fresh_fig.json BENCH_fresh_soak.json
//! ```
//!
//! The first path is the committed baseline; every further path is a
//! fresh `lab --bench` output. Fresh files may cover different scenario
//! subsets (CI reruns the cheap smoke slices, not the full soak); only
//! scenarios present in both baseline and a fresh file are compared.
//!
//! The check: fresh events/sec must be at least the scenario's floor
//! fraction of the committed value. Scenarios in the [`FLOORS`] table
//! carry an explicit pinned floor (the soak family: ≥ 0.75 × committed);
//! everything else (the fig6 smoke slices etc.) uses the global
//! `1 - tolerance` rule, default tolerance 0.25 (`--tolerance`, or
//! `BENCH_GATE_TOLERANCE` for slow CI runners — wall-clock throughput is
//! machine-dependent, the committed numbers are from the lab machine).
//! Loosening the default gate does *not* loosen the pinned soak floors;
//! that takes the separate `BENCH_GATE_SOAK_FLOOR`, so it stays a
//! visible decision.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Per-scenario throughput floors as fractions of the committed
/// events/sec. The soak family is the trajectory the 1000-PE north star
/// is graded on, so its floors are pinned here rather than riding the
/// adjustable global tolerance; `BENCH_GATE_SOAK_FLOOR` overrides them
/// all at once for genuinely slow runners.
const FLOORS: &[(&str, f64)] = &[
    ("thousand_pe_soak", 0.75),
    ("thousand_pe_soak_smoke", 0.75),
    ("thousand_pe_soak_shuffle", 0.75),
    ("thousand_pe_soak_joins", 0.75),
];

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(u) => Some(u as f64),
        Value::I64(i) => Some(i as f64),
        _ => None,
    }
}

/// Committed or fresh events/sec per scenario.
fn load_rows(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: bad JSON: {e}"))?;
    let scenarios = doc
        .get("scenarios")
        .and_then(|s| s.as_array())
        .ok_or_else(|| format!("{path}: missing \"scenarios\" array"))?;
    let mut rows = BTreeMap::new();
    for s in scenarios {
        let name = s
            .get("scenario")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}: scenario row without a name"))?;
        let evs = s
            .get("events_per_sec")
            .and_then(as_f64)
            .ok_or_else(|| format!("{path}: {name}: missing events_per_sec"))?;
        rows.insert(name.to_string(), evs);
    }
    Ok(rows)
}

fn run() -> Result<bool, String> {
    let mut tolerance = match std::env::var("BENCH_GATE_TOLERANCE") {
        Ok(v) => v
            .parse::<f64>()
            .map_err(|_| format!("BENCH_GATE_TOLERANCE={v}: not a number"))?,
        Err(_) => 0.25,
    };
    let soak_floor = match std::env::var("BENCH_GATE_SOAK_FLOOR") {
        Ok(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("BENCH_GATE_SOAK_FLOOR={v}: not a number"))?,
        ),
        Err(_) => None,
    };
    let mut paths: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value")?;
                tolerance = v
                    .parse()
                    .map_err(|_| format!("--tolerance {v}: not a number"))?;
            }
            _ => paths.push(a),
        }
    }
    if paths.len() < 2 {
        return Err("usage: bench_gate <baseline.json> <fresh.json>... \
             [--tolerance 0.25]"
            .into());
    }

    let baseline = load_rows(&paths[0])?;
    let mut ok = true;

    for fresh_path in &paths[1..] {
        let fresh = load_rows(fresh_path)?;
        for (name, &evs) in &fresh {
            let Some(base) = baseline.get(name) else {
                println!("  skip  {name:32} (not in baseline)");
                continue;
            };
            let pinned = FLOORS
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, f)| soak_floor.unwrap_or(f));
            let floor = pinned.unwrap_or(1.0 - tolerance);
            let change = evs / base - 1.0;
            let fail = evs < floor * base;
            println!(
                "  {}  {name:32} {:>12.0} ev/s vs {:>12.0} committed ({:+.1}%, floor {:.0}%{})",
                if fail { "FAIL" } else { " ok " },
                evs,
                base,
                change * 100.0,
                floor * 100.0,
                if pinned.is_some() { " pinned" } else { "" },
            );
            if fail {
                ok = false;
            }
        }
    }

    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("bench_gate: all scenarios within tolerance");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("bench_gate: events/sec regression beyond tolerance");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
