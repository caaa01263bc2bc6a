//! Shared infrastructure for the figure-regeneration harnesses and the
//! scenario lab.
//!
//! Every binary in `src/bin/fig*.rs` regenerates one figure of Rahm &
//! Marek, VLDB 1995 (see the figure table in README, "Reproducing the
//! paper's figures"); since the scenario lab landed they are thin
//! wrappers over bundled specs in `scenarios/` driven by the [`lab`]
//! module, which is also the engine of the general-purpose `lab` binary
//! (`cargo run --release --bin lab`).
//! Output is a paper-style table on stdout plus machine-readable JSON/CSV
//! files under `results/` as the runs' provenance.

pub mod lab;

use snsim::Summary;
use std::path::PathBuf;

/// Write a JSON result file under `results/` (created on demand) in the
/// legacy figure format: an array of `{series, points}` groups. The
/// scenario lab's own writers ([`lab::write_lab_json`]) use a different,
/// per-run format and a `.runs.json` suffix so the two never collide.
pub fn write_results_json(name: &str, summaries: &[(String, Vec<Summary>)]) {
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    let payload: Vec<serde_json::Value> = summaries
        .iter()
        .map(|(series, sums)| {
            serde_json::json!({
                "series": series,
                "points": sums,
            })
        })
        .collect();
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(&payload) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("results written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

/// Assert a qualitative claim, printing rather than panicking (harnesses
/// should report shape violations without aborting the whole run).
pub fn check(claim: &str, ok: bool) {
    if ok {
        println!("  [shape OK] {claim}");
    } else {
        println!("  [SHAPE VIOLATION] {claim}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reports_without_panicking() {
        check("a true claim", true);
        check("a false claim", false);
    }
}
