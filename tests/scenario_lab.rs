//! End-to-end smoke of the new scenario families: the bundled specs
//! parse, expand, and a shortened run of each family completes with
//! sensible output (this is the "4 new scenario families run green"
//! acceptance gate, kept CI-short).

use workload::scenario::{Knobs, ScenarioSpec, Sweep};

fn load(name: &str) -> ScenarioSpec {
    let path = format!("{}/scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every bundled spec parses and expands to the expected shape.
#[test]
fn bundled_specs_parse_and_expand() {
    for (name, runs) in [
        ("fig1_single_user", 8),
        ("fig1_cpu_bound", 8),
        ("fig1_memory_bound", 8),
        ("fig5", 30),
        ("fig6", 25),
        ("fig7", 20),
        ("fig7_baseline", 10),
        ("fig8", 24),
        ("fig9a", 25),
        ("fig9b", 25),
        ("single_user_baseline", 5),
        ("skew_memory_crunch", 15),
        ("bursty_oltp", 12),
        ("heterogeneous_nodes", 12),
        ("phase_shift_adaptive", 5),
        ("data_skew_rebalance", 6),
        ("static_vs_dynamic_placement", 6),
        ("ratematch_baseline", 4),
    ] {
        let spec = load(name);
        assert_eq!(spec.name, name, "spec name matches file stem");
        assert!(!spec.description.is_empty(), "{name} has a description");
        assert_eq!(spec.run_count(), runs, "{name} expansion size");
        assert_eq!(spec.runs().len(), runs);
    }
}

fn shortened(mut spec: ScenarioSpec) -> ScenarioSpec {
    // Keep the scenario's structure but make it CI-cheap.
    spec.base.n_pes = spec.base.n_pes.min(10);
    spec.sweep.n_pes = Vec::new();
    // Long enough that even the saturated memory-crunch points finish a
    // few joins after warm-up; still far below the spec's 40 s runs.
    spec.base.sim_secs = 16.0;
    spec.base.warmup_secs = 2.0;
    // Phase shifts / bursts must still fall inside the shortened run.
    if let workload::Modulation::Shift { factor, .. } = spec.base.query_modulation {
        spec.base.query_modulation = workload::Modulation::Shift {
            factor,
            at_secs: 6.0,
        };
    }
    spec
}

/// The four new scenario families simulate end to end.
#[test]
fn new_scenario_families_run_green() {
    for name in [
        "skew_memory_crunch",
        "bursty_oltp",
        "heterogeneous_nodes",
        "phase_shift_adaptive",
    ] {
        let spec = shortened(load(name));
        let lowered = snsim::scenario::configs(&spec);
        let cfgs: Vec<snsim::SimConfig> = lowered.iter().map(|(_, c)| c.clone()).collect();
        let summaries = snsim::run_parallel(cfgs);
        assert_eq!(summaries.len(), lowered.len());
        for ((run, _), summary) in lowered.iter().zip(&summaries) {
            assert!(
                summary.events > 0,
                "{name} {}: simulation made progress",
                run.label()
            );
        }
        // Saturated cells (the point of the crunch scenarios) may not
        // finish a query inside the shortened window; the scenario as a
        // whole must complete work. Full-length completion per cell is
        // exercised by `lab` itself.
        let completed: u64 = summaries
            .iter()
            .flat_map(|s| s.classes.iter())
            .map(|c| c.completed)
            .sum();
        assert!(completed > 0, "{name}: scenario completed work");
        if name == "phase_shift_adaptive" {
            let adaptive = lowered
                .iter()
                .zip(&summaries)
                .find(|((run, _), _)| run.axis("strategy") == Some("ADAPTIVE"))
                .map(|(_, s)| s)
                .expect("ADAPTIVE run present");
            assert!(
                adaptive.policy_switches > 0,
                "the controller switched policies across the phase shift"
            );
        }
        if name == "bursty_oltp" {
            assert!(
                summaries.iter().all(|s| s.oltp_resp_ms().is_some()),
                "every mixed run reports OLTP response times"
            );
        }
    }
}

/// Heterogeneous node speeds actually slow the affected PEs down: the
/// same workload finishes later on a half-speed partition.
#[test]
fn heterogeneity_changes_outcomes() {
    let mut spec = shortened(load("heterogeneous_nodes"));
    spec.sweep.strategy = vec![workload::StrategySpec(lb_core::Strategy::Isolated {
        degree: lb_core::DegreePolicy::SuOpt,
        select: lb_core::SelectPolicy::Random,
    })];
    spec.base.sim_secs = 10.0;
    let lowered = snsim::scenario::configs(&spec);
    assert_eq!(lowered.len(), 3, "one run per node-speed profile");
    let summaries = snsim::run_parallel(lowered.into_iter().map(|(_, c)| c).collect());
    let uniform = summaries[0].join_resp_ms();
    let half_slow = summaries[2].join_resp_ms();
    assert!(
        half_slow > uniform,
        "state-oblivious RANDOM suffers when half the nodes run at half \
         speed (uniform {uniform:.0} ms vs heterogeneous {half_slow:.0} ms)"
    );
}

/// The README paragraph that starts with `heading`, up to the next blank
/// line.
fn readme_paragraph(heading: &str) -> String {
    let path = format!("{}/README.md", env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let start = readme
        .find(heading)
        .unwrap_or_else(|| panic!("README has no paragraph starting {heading:?}"));
    let rest = &readme[start..];
    rest[..rest.find("\n\n").unwrap_or(rest.len())].to_string()
}

/// README's "Knobs" and "Sweep axes" lists name every knob and axis the
/// knob table generates, the axes in expansion order.
#[test]
fn readme_lists_every_knob_and_axis() {
    let knobs = readme_paragraph("Knobs (`base`, all optional):");
    for name in Knobs::NAMES {
        assert!(
            knobs.contains(&format!("`{name}`")),
            "README Knobs list misses `{name}`"
        );
    }
    let axes = readme_paragraph("Sweep axes, in expansion order:");
    let listed: Vec<&str> = axes.split('`').skip(1).step_by(2).collect();
    assert_eq!(
        &listed[..Sweep::AXES.len()],
        Sweep::AXES,
        "README Sweep axes list"
    );
}
