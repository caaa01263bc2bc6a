//! Query planning and job fabrication.
//!
//! Turns workload class definitions into cached planner numbers
//! ([`ClassPlan`]) once per run, and stamps out engine [`Job`]s per
//! arrival. Extracted from the old monolithic `System` so the simulator
//! proper is orchestration glue only: the planner knows *what* to run,
//! the broker decides *where*, and `System` wires both to the hardware.

use dbmodel::catalog::Catalog;
use engine::coordinator::{Coordinator, QueryPlan, StagePlan};
use engine::oltp::OltpJob;
use engine::query::UpdateJob;
use engine::scan::{expected_scan_output, ScanAccess};
use engine::{Job, PeId};
use lb_core::costmodel::{AdmissionEstimate, CostModel, JoinProfile};
use simkit::SimTime;
use std::rc::Rc;
use workload::queries::QueryKind;
use workload::WorkloadSpec;

/// Cached planner numbers per query class.
#[derive(Debug, Clone)]
pub enum ClassPlan {
    /// A join, multi-way join, sort or scan query: one coordinator.
    Query(QueryPlan),
    Update {
        relation: dbmodel::RelationId,
        tuples: u32,
        via_index: bool,
    },
}

/// Per-run plan cache + job factory.
pub struct Planner {
    plans: Vec<ClassPlan>,
    /// Admission-ticket costs per query class, from the same profiles the
    /// plans were built from (memory demand via the hash-join model,
    /// estimated degree, no-I/O floor).
    estimates: Vec<AdmissionEstimate>,
}

impl Planner {
    /// Plan every query class of `workload` against `catalog` once.
    pub fn new(workload: &WorkloadSpec, catalog: &Catalog, cost: &CostModel, n: u32) -> Planner {
        let (plans, estimates) = workload
            .queries
            .iter()
            .map(|q| plan_query(&q.kind, q.redistribution_skew, catalog, cost, n))
            .unzip();
        Planner { plans, estimates }
    }

    pub fn plan(&self, class: usize) -> &ClassPlan {
        &self.plans[class]
    }

    /// Admission-ticket cost estimate of query class `class`.
    pub fn admission_estimate(&self, class: usize) -> AdmissionEstimate {
        self.estimates[class]
    }

    /// Fabricate the job for one arrival of query class `i`. `next_seed`
    /// is drawn only for job types that need private randomness (updates),
    /// matching the original seed discipline.
    pub fn make_query_job(
        &self,
        i: usize,
        class_idx: u32,
        coord: PeId,
        now: SimTime,
        next_seed: &mut dyn FnMut() -> u64,
    ) -> Job {
        match &self.plans[i] {
            ClassPlan::Query(plan) => Job::Query(Box::new(Coordinator::new(
                class_idx,
                coord,
                now,
                plan.clone(),
            ))),
            ClassPlan::Update {
                relation,
                tuples,
                via_index,
            } => {
                let seed = next_seed();
                Job::UpdateQ(UpdateJob::new(
                    class_idx, coord, *relation, *tuples, *via_index, now, seed,
                ))
            }
        }
    }

    /// Fabricate one OLTP transaction of the given class spec.
    pub fn make_oltp_job(
        spec: &workload::OltpClass,
        class_idx: u32,
        pe: PeId,
        now: SimTime,
        seed: u64,
    ) -> Job {
        Job::Oltp(OltpJob::new(
            class_idx,
            pe,
            spec.relation,
            spec.selects,
            spec.updates,
            now,
            seed,
        ))
    }
}

/// Plan one query class; `skew` is the redistribution skew of a two-way
/// join class.
fn plan_query(
    kind: &QueryKind,
    skew: f64,
    catalog: &Catalog,
    cost: &CostModel,
    n: u32,
) -> (ClassPlan, AdmissionEstimate) {
    match kind {
        QueryKind::TwoWayJoin {
            inner,
            outer,
            selectivity,
        } => {
            let profile = profile_for(catalog, *inner, *outer, *selectivity, None);
            let plan = QueryPlan::Join {
                outer: *outer,
                selectivity: *selectivity,
                outer_out: profile.outer_tuples,
                skew,
                stages: Rc::from([stage_plan(*inner, cost, n, &profile)]),
            };
            (ClassPlan::Query(plan), cost.admission_estimate(n, &profile))
        }
        QueryKind::MultiWayJoin {
            relations,
            selectivity,
        } => {
            assert!(relations.len() >= 2, "multi-way join needs ≥ 2 relations");
            let outer = relations[1];
            let outer_out = expected_scan_output(catalog, outer, *selectivity);
            let mut stages = Vec::new();
            let mut probe = outer_out;
            // Stages run one after another: the ticket demands the widest
            // stage's memory/degree and the summed work.
            let mut estimate: Option<AdmissionEstimate> = None;
            for rel in relations
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != 1)
                .map(|(_, r)| *r)
            {
                let profile = profile_for(catalog, rel, outer, *selectivity, Some(probe));
                stages.push(stage_plan(rel, cost, n, &profile));
                let stage_est = cost.admission_estimate(n, &profile);
                estimate = Some(match estimate {
                    None => stage_est,
                    Some(e) => AdmissionEstimate {
                        mem_pages: e.mem_pages.max(stage_est.mem_pages),
                        cpu_work_ms: e.cpu_work_ms + stage_est.cpu_work_ms,
                        degree: e.degree.max(stage_est.degree),
                        degree_floor: e.degree_floor.max(stage_est.degree_floor),
                    },
                });
                // Result of stage k has the build side's size.
                probe = profile.inner_tuples;
            }
            let plan = QueryPlan::Join {
                outer,
                selectivity: *selectivity,
                outer_out,
                skew: 0.0,
                stages: stages.into(),
            };
            (ClassPlan::Query(plan), estimate.expect("≥ 1 stage"))
        }
        QueryKind::RelationScan {
            relation,
            selectivity,
        } => (
            ClassPlan::Query(QueryPlan::Scan {
                relation: *relation,
                selectivity: *selectivity,
                access: ScanAccess::Full,
            }),
            AdmissionEstimate::trivial(0.0, 0.0),
        ),
        QueryKind::ClusteredIndexScan {
            relation,
            selectivity,
        } => (
            ClassPlan::Query(QueryPlan::Scan {
                relation: *relation,
                selectivity: *selectivity,
                access: ScanAccess::Clustered,
            }),
            AdmissionEstimate::trivial(0.0, 0.0),
        ),
        QueryKind::NonClusteredIndexScan {
            relation,
            selectivity,
        } => (
            ClassPlan::Query(QueryPlan::Scan {
                relation: *relation,
                selectivity: *selectivity,
                access: ScanAccess::NonClustered,
            }),
            AdmissionEstimate::trivial(0.0, 0.0),
        ),
        QueryKind::Update {
            relation,
            tuples,
            via_index,
        } => (
            ClassPlan::Update {
                relation: *relation,
                tuples: *tuples,
                via_index: *via_index,
            },
            AdmissionEstimate::trivial(0.0, 0.0),
        ),
        QueryKind::ParallelSort {
            relation,
            selectivity,
        } => {
            // Sorts are planned like joins whose "table" is the sort
            // buffer for the selection output.
            let profile = profile_for(catalog, *relation, *relation, *selectivity, None);
            let plan = QueryPlan::Sort {
                selectivity: *selectivity,
                stage: stage_plan(*relation, cost, n, &profile),
            };
            (ClassPlan::Query(plan), cost.admission_estimate(n, &profile))
        }
    }
}

/// The placement inputs of one stage building on `inner`.
fn stage_plan(
    inner: dbmodel::RelationId,
    cost: &CostModel,
    n: u32,
    profile: &JoinProfile,
) -> StagePlan {
    StagePlan {
        inner,
        table_pages: cost.table_pages(profile),
        psu_opt: cost.psu_opt(n, profile),
        psu_noio: cost.psu_noio(n, profile),
        inner_out: profile.inner_tuples,
    }
}

fn profile_for(
    catalog: &Catalog,
    inner: dbmodel::RelationId,
    outer: dbmodel::RelationId,
    selectivity: f64,
    probe_override: Option<u64>,
) -> JoinProfile {
    let inner_out = expected_scan_output(catalog, inner, selectivity);
    let outer_out =
        probe_override.unwrap_or_else(|| expected_scan_output(catalog, outer, selectivity));
    // Per-node scan estimate: the heaviest home PE's total pages (sum of
    // its co-resident fragments) — identical to the old first-PE number
    // under uniform placement, and the true scan makespan driver under
    // skew. The planner stays placement-static by design: migrations do
    // not replan, the dynamic layers absorb the drift.
    let max_node_pages = |rel: dbmodel::RelationId| {
        catalog
            .scan_pes(rel)
            .iter()
            .map(|&pe| catalog.pages_at(rel, pe))
            .max()
            .unwrap_or(0)
    };
    JoinProfile {
        inner_tuples: inner_out,
        outer_tuples: outer_out,
        result_tuples: inner_out,
        inner_scan_nodes: catalog.scan_pe_count(inner),
        outer_scan_nodes: catalog.scan_pe_count(outer),
        inner_scan_pages_per_node: ((max_node_pages(inner) as f64) * selectivity).ceil() as u64,
        outer_scan_pages_per_node: ((max_node_pages(outer) as f64) * selectivity).ceil() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::Strategy;
    use workload::WorkloadSpec;

    #[test]
    fn plans_paper_join_with_cost_model_numbers() {
        let cfg = crate::SimConfig::paper_default(
            80,
            WorkloadSpec::homogeneous_join(0.01, 0.25),
            Strategy::OptIoCpu,
        );
        let catalog = cfg.build_catalog();
        let cost = CostModel::new(cfg.cost_params());
        let p = Planner::new(&cfg.workload, &catalog, &cost, cfg.n_pes);
        match p.plan(0) {
            ClassPlan::Query(QueryPlan::Join { stages, .. }) => {
                assert_eq!(stages[0].psu_noio, 3);
                assert!((25..=35).contains(&stages[0].psu_opt));
            }
            other => panic!("expected a join plan, got {other:?}"),
        }
    }

    #[test]
    fn update_jobs_draw_seeds_scans_do_not() {
        let cfg = crate::SimConfig::paper_default(
            10,
            WorkloadSpec {
                queries: vec![
                    workload::QueryClass {
                        name: "scan".into(),
                        kind: QueryKind::RelationScan {
                            relation: dbmodel::RelationId(0),
                            selectivity: 0.1,
                        },
                        arrival: workload::ArrivalSpec::SingleUser,
                        modulation: workload::Modulation::None,
                        coordinator: workload::CoordinatorPlacement::Random,
                        redistribution_skew: 0.0,
                    },
                    workload::QueryClass {
                        name: "upd".into(),
                        kind: QueryKind::Update {
                            relation: dbmodel::RelationId(0),
                            tuples: 4,
                            via_index: true,
                        },
                        arrival: workload::ArrivalSpec::SingleUser,
                        modulation: workload::Modulation::None,
                        coordinator: workload::CoordinatorPlacement::Random,
                        redistribution_skew: 0.0,
                    },
                ],
                oltp: vec![],
            },
            Strategy::OptIoCpu,
        );
        let catalog = cfg.build_catalog();
        let cost = CostModel::new(cfg.cost_params());
        let p = Planner::new(&cfg.workload, &catalog, &cost, cfg.n_pes);
        let draws = std::cell::Cell::new(0u64);
        let mut seeder = || {
            draws.set(draws.get() + 1);
            42
        };
        let scan = p.make_query_job(0, 0, 0, SimTime::ZERO, &mut seeder);
        assert!(matches!(scan, Job::Query(_)));
        assert_eq!(draws.get(), 0, "scan jobs need no seed");
        let upd = p.make_query_job(1, 1, 0, SimTime::ZERO, &mut seeder);
        assert!(matches!(upd, Job::UpdateQ(_)));
        assert_eq!(draws.get(), 1, "update jobs draw exactly one seed");
    }
}
