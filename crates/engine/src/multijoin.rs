//! Multi-way join queries: a left-deep chain of two-way hash joins.
//!
//! Stage k joins the scan output of relation `k+1` (build side) with the
//! intermediate result of stage k−1 (probe side). The intermediate is
//! materialized at the coordinator (which received the previous stage's
//! result stream) and re-redistributed from there; every stage asks the
//! load balancer for a fresh placement, so a three-way join exercises the
//! strategy twice under the then-current system state. See DESIGN.md for
//! the materialization simplification relative to a pipelined executor.

use crate::api::{Input, JobId, PeId};
use crate::ctx::Ctx;
use crate::join::JoinJob;
use dbmodel::catalog::RelationId;
use serde::{Deserialize, Serialize};

/// Planner data for one stage (computed by the job factory from the cost
/// model, like the two-way join's numbers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagePlan {
    /// Build-side relation of this stage.
    pub inner: RelationId,
    /// `b_i · F` of the stage's build input.
    pub table_pages: f64,
    pub psu_opt: u32,
    pub psu_noio: u32,
    /// Expected build-side scan output (tuples).
    pub inner_out: u64,
}

/// A multi-way join job: drives an embedded [`JoinJob`] through stages.
pub struct MultiJoinJob {
    pub stages: Vec<StagePlan>,
    current: usize,
    pub join: JoinJob,
}

impl MultiJoinJob {
    /// `first` must be configured for stage 0 (a plain two-way join of
    /// `stages[0].inner` with the base probe relation); `stages[1..]`
    /// describe the follow-on joins.
    pub fn new(first: JoinJob, stages: Vec<StagePlan>) -> MultiJoinJob {
        assert!(!stages.is_empty());
        let mut join = first;
        join.finalize = stages.len() == 1;
        MultiJoinJob {
            stages,
            current: 0,
            join,
        }
    }

    pub fn coord(&self) -> PeId {
        self.join.coord
    }

    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        self.join.handle(job, input, ctx);
        if self.join.stage_complete && self.current + 1 < self.stages.len() {
            // Chain into the next stage: the just-produced intermediate
            // becomes the probe input.
            let probe_tuples = self.join.result_tuples;
            self.current += 1;
            let s = self.stages[self.current];
            self.join.reset_for_stage(
                s.inner,
                s.table_pages,
                s.psu_opt,
                s.psu_noio,
                s.inner_out,
                probe_tuples,
            );
            self.join.finalize = self.current + 1 == self.stages.len();
            self.join.request_placement(job, ctx);
        }
    }
}
