//! Top-level job dispatch.

use crate::api::{Input, JobId, PeId};
use crate::coordinator::Coordinator;
use crate::ctx::Ctx;
use crate::migrate::MigrationJob;
use crate::oltp::OltpJob;
use crate::query::UpdateJob;
use simkit::SimTime;

/// Any transaction/query instance the simulator can run.
///
/// The rare, stateful variants are boxed so `Job` stays at the size of
/// the hot small variants (OLTP, updates): the dispatch loop handles a
/// job in its slab slot, so the enum's footprint is paid by every slot.
pub enum Job {
    /// A join, multi-way join, parallel sort or scan query.
    Query(Box<Coordinator>),
    Oltp(OltpJob),
    UpdateQ(UpdateJob),
    /// A fragment migration launched by the rebalancing controller — a
    /// system utility, not a workload class (excluded from per-class
    /// response metrics and MPL admission).
    Migrate(Box<MigrationJob>),
}

impl Job {
    /// Route an input into the job's state machine.
    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        match self {
            Job::Query(j) => j.handle(job, input, ctx),
            Job::Oltp(j) => j.handle(job, input, ctx),
            Job::UpdateQ(j) => j.handle(job, input, ctx),
            Job::Migrate(j) => j.handle(job, input, ctx),
        }
    }

    /// The PE whose transaction manager admits this job.
    pub fn coord_pe(&self) -> PeId {
        match self {
            Job::Query(j) => j.coord,
            Job::Oltp(j) => j.pe,
            Job::UpdateQ(j) => j.pe,
            Job::Migrate(j) => j.from,
        }
    }

    /// Workload class index (for per-class metrics; `u32::MAX` marks
    /// system utilities outside every workload class).
    pub fn class(&self) -> u32 {
        match self {
            Job::Query(j) => j.class,
            Job::Oltp(j) => j.class,
            Job::UpdateQ(j) => j.class,
            Job::Migrate(_) => u32::MAX,
        }
    }

    /// Arrival time (for response-time accounting).
    pub fn submitted(&self) -> SimTime {
        match self {
            Job::Query(j) => j.submitted,
            Job::Oltp(j) => j.submitted,
            Job::UpdateQ(j) => j.submitted,
            Job::Migrate(j) => j.submitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatch loop handles a job in its slab slot, and a 1000-PE
    /// OLTP load keeps ~16k jobs live: the small variants held inline
    /// set the size of every slot.
    #[test]
    fn small_jobs_stay_inline_and_small() {
        let job = std::mem::size_of::<Job>();
        assert!(job <= 72, "Job is {job} bytes");
    }
}
