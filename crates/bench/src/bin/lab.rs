//! The scenario lab — run declarative experiment specs.
//!
//! ```text
//! cargo run --release --bin lab -- [flags] scenarios/<spec>.json ...
//!
//!   --dry-run        expand the sweep and list the runs without simulating
//!   --full           override run lengths with figure-quality 120 s runs
//!   --smoke          override run lengths with 8 s smoke runs (CI)
//!   --trace          run serially with the observability layer forced on;
//!                    writes `results/<name>.timeseries.json`/`.csv`,
//!                    `results/<name>.explain.json` and
//!                    `results/<name>.trace.jsonl`
//!   --explain        like --trace, and also prints the placement-decision
//!                    digest (per-policy decision counts, win margins,
//!                    top-K winner nodes)
//! ```
//!
//! Each spec file holds one scenario (see `scenarios/` and README.md for
//! the format). Results land in `results/<scenario>.runs.json` and
//! `results/<scenario>.csv`; the headline table is printed per scenario.
//! Wall-time measurement lives in the separate `perfbench` workspace.

use bench::lab::{self, RunLength};

fn main() {
    const USAGE: &str =
        "usage: lab [--dry-run] [--full|--smoke] [--trace] [--explain] <spec.json> ...";
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| {
        a.starts_with("--")
            && !matches!(
                a.as_str(),
                "--dry-run" | "--full" | "--smoke" | "--trace" | "--explain"
            )
    }) {
        eprintln!("error: unknown flag `{unknown}`");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let explain = args.iter().any(|a| a == "--explain");
    let trace = explain || args.iter().any(|a| a == "--trace");
    let len = RunLength::from_args();
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("bundled specs live under scenarios/");
        std::process::exit(2);
    }

    let mut failed = false;
    for path in paths {
        let path = std::path::Path::new(path);
        let spec = match lab::load_spec(path) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        println!(
            "== scenario `{}` — {} run(s){}",
            spec.name,
            spec.run_count(),
            if spec.description.is_empty() {
                String::new()
            } else {
                format!(" — {}", spec.description)
            }
        );
        if dry_run {
            for (i, run) in spec.runs().iter().enumerate() {
                println!("  [{i:>3}] {}", run.label());
            }
            continue;
        }
        let rows = if trace {
            let traced = lab::run_scenario_traced(&spec, len);
            let wrote = [
                lab::write_timeseries_json(&spec.name, &traced),
                lab::write_timeseries_csv(&spec.name, &traced),
                lab::write_explain_json(&spec.name, &traced),
                lab::write_trace_jsonl(&spec.name, &traced),
            ];
            for path in wrote.iter().flatten() {
                eprintln!("trace artifact written to {}", path.display());
            }
            if wrote.iter().any(Option::is_none) {
                failed = true;
            }
            if explain {
                lab::print_explain(&spec.name, &traced);
            }
            traced.into_iter().map(|(row, _)| row).collect()
        } else {
            lab::run_scenario(&spec, len)
        };
        lab::print_tables(&spec, &rows);
        match (
            lab::write_lab_json(&spec.name, &rows),
            lab::write_lab_csv(&spec.name, &rows),
        ) {
            (Some(json), Some(csv)) => {
                eprintln!(
                    "results written to {} and {}",
                    json.display(),
                    csv.display()
                );
            }
            _ => failed = true,
        }
    }
    if failed {
        std::process::exit(1);
    }
}
