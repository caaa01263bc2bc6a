//! Fig. 7 — "Memory-bound environment" (1% scan selectivity).
//!
//! Thin wrapper over `scenarios/fig7.json` (multi-user arrival-rate ×
//! strategy × system-size sweep with buffer/10 and one disk per PE) and
//! `scenarios/fig7_baseline.json` (the single-user baseline). The table
//! also reports the average degree of join parallelism — the paper's
//! headline here is that MIN-IO-SUOPT *raises* the degree with the system
//! size to buy aggregate memory, while p_mu-cpu stays at p_su-opt.
//!
//! Run: `cargo run --release -p bench --bin fig7 [--full]`

use bench::lab::{self, LabRow, RunLength};
use bench::{check, write_results_json};
use snsim::{format_table, Summary};

const SPEC: &str = include_str!("../../../../scenarios/fig7.json");
const BASELINE: &str = include_str!("../../../../scenarios/fig7_baseline.json");

/// Relabel rows as `<load>/<strategy>` series over the `n_pes` axis.
fn relabel(rows: Vec<LabRow>, load: impl Fn(&LabRow) -> String) -> Vec<LabRow> {
    rows.into_iter()
        .map(|mut r| {
            r.strategy = format!("{}/{}", load(&r), r.strategy);
            r.x = r.axis("n_pes").expect("n_pes axis").to_string();
            r
        })
        .collect()
}

fn main() {
    let len = RunLength::from_args();
    let (_, mu_rows) = lab::run_embedded(SPEC, "fig7", len);
    let (_, su_rows) = lab::run_embedded(BASELINE, "fig7_baseline", len);
    let mut rows = relabel(su_rows, |_| "su".into());
    rows.extend(relabel(mu_rows, |r| {
        format!("mu-{}", r.axis("qps_per_pe").expect("qps axis"))
    }));

    let (xs, series) = lab::series_by_strategy(&rows, Summary::join_resp_ms);
    let (_, degree_series) = lab::series_by_strategy(&rows, |s| s.avg_join_degree);
    println!(
        "{}",
        format_table(
            "Fig. 7 — memory-bound environment (buffer/10, 1 disk/PE): join response time [ms]",
            "#PE",
            &xs,
            &series,
        )
    );
    println!(
        "{}",
        format_table(
            "Fig. 7 annotation — average degree of join parallelism",
            "#PE",
            &xs,
            &degree_series,
        )
    );

    let get = |name: &str, v: &[(String, Vec<f64>)]| -> Vec<f64> {
        v.iter().find(|(n, _)| n == name).expect("series").1.clone()
    };
    let last = xs.len() - 1;
    check(
        "multi-user 0.05: MIN-IO-SUOPT beats pmu-cpu+LUM at one or more \
         system sizes (our degree overshoots the paper's 42 at 60–80 PE, \
         trading some of the win back — see README, Reproducing the \
         paper's figures)",
        get("mu-0.05/MIN-IO-SUOPT", &series)
            .iter()
            .zip(get("mu-0.05/pmu-cpu+LUM", &series).iter())
            .any(|(a, b)| a < b),
    );
    check(
        "MIN-IO-SUOPT raises the degree above pmu-cpu under memory pressure",
        get("mu-0.05/MIN-IO-SUOPT", &degree_series)[last]
            > get("mu-0.05/pmu-cpu+LUM", &degree_series)[last],
    );
    check(
        "MIN-IO-SUOPT degree grows with the system size (multi-user 0.05)",
        get("mu-0.05/MIN-IO-SUOPT", &degree_series)[last]
            >= get("mu-0.05/MIN-IO-SUOPT", &degree_series)[0],
    );

    write_results_json("fig7", &lab::rows_by_strategy(&rows));
}
