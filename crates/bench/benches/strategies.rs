//! Placement-decision latency: the control-node code path each join query
//! takes at run time, per strategy, plus the analytic cost model.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lb_core::costmodel::{paper_join_profile, CostModel, CostParams};
use lb_core::{ControlNode, DegreePolicy, JoinRequest, ResourceVector, SelectPolicy, Strategy};
use simkit::SimRng;

fn loaded_control(n: usize, seed: u64) -> ControlNode {
    let mut rng = SimRng::new(seed);
    let mut c = ControlNode::new(n, Default::default());
    for i in 0..n {
        c.report(
            i as u32,
            ResourceVector {
                cpu: rng.f64(),
                net: rng.f64(),
                free_pages: rng.below(50) as u32,
                ..ResourceVector::default()
            },
        );
    }
    c
}

fn bench_placements(c: &mut Criterion) {
    let req = JoinRequest {
        table_pages: 131.25,
        psu_opt: 30,
        psu_noio: 3,
        outer_scan_nodes: 64,
        inner_rel: 0,
        degree_cap: 0,
    };
    for (name, strat) in [
        (
            "random",
            Strategy::Isolated {
                degree: DegreePolicy::SuOpt,
                select: SelectPolicy::Random,
            },
        ),
        (
            "lum",
            Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select: SelectPolicy::Lum,
            },
        ),
        ("min_io", Strategy::MinIo),
        ("min_io_suopt", Strategy::MinIoSuopt),
        ("opt_io_cpu", Strategy::OptIoCpu),
    ] {
        c.bench_function(&format!("place/{name}_80pe"), |b| {
            let mut ctl = loaded_control(80, 9);
            let mut rng = SimRng::new(10);
            b.iter(|| black_box(strat.place(&req, &mut ctl, &mut rng)))
        });
    }
}

fn bench_cost_model(c: &mut Criterion) {
    let model = CostModel::new(CostParams::default());
    let profile = paper_join_profile(80, 0.01);
    c.bench_function("costmodel/psu_opt_argmin_80", |b| {
        b.iter(|| black_box(model.psu_opt(80, &profile)))
    });
    c.bench_function("costmodel/rt_single_point", |b| {
        b.iter(|| black_box(model.rt_single_user(30, &profile)))
    });
}

criterion_group!(benches, bench_placements, bench_cost_model);
criterion_main!(benches);
