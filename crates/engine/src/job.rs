//! Top-level job dispatch.

use crate::api::{Input, JobId, PeId};
use crate::ctx::Ctx;
use crate::join::JoinJob;
use crate::migrate::MigrationJob;
use crate::multijoin::MultiJoinJob;
use crate::oltp::OltpJob;
use crate::query::{ScanQueryJob, UpdateJob};
use crate::sort::SortQueryJob;
use simkit::SimTime;

/// Any transaction/query instance the simulator can run.
///
/// The rare, stateful query variants are boxed so `Job` stays at the size
/// of the hot small variants (OLTP, scans, updates): the dispatch loop
/// moves a `Job` out of and back into the job slab on *every* input, so
/// the enum's footprint is paid per event, not per job.
pub enum Job {
    Join(Box<JoinJob>),
    MultiJoin(Box<MultiJoinJob>),
    Oltp(OltpJob),
    ScanQ(ScanQueryJob),
    UpdateQ(UpdateJob),
    SortQ(Box<SortQueryJob>),
    /// A fragment migration launched by the rebalancing controller — a
    /// system utility, not a workload class (excluded from per-class
    /// response metrics and MPL admission).
    Migrate(Box<MigrationJob>),
}

impl Job {
    /// Route an input into the job's state machine.
    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        match self {
            Job::Join(j) => j.handle(job, input, ctx),
            Job::MultiJoin(j) => j.handle(job, input, ctx),
            Job::Oltp(j) => j.handle(job, input, ctx),
            Job::ScanQ(j) => j.handle(job, input, ctx),
            Job::UpdateQ(j) => j.handle(job, input, ctx),
            Job::SortQ(j) => j.handle(job, input, ctx),
            Job::Migrate(j) => j.handle(job, input, ctx),
        }
    }

    /// The PE whose transaction manager admits this job.
    pub fn coord_pe(&self) -> PeId {
        match self {
            Job::Join(j) => j.coord,
            Job::MultiJoin(j) => j.coord(),
            Job::Oltp(j) => j.pe,
            Job::ScanQ(j) => j.coord,
            Job::UpdateQ(j) => j.pe,
            Job::SortQ(j) => j.coord,
            Job::Migrate(j) => j.from,
        }
    }

    /// Workload class index (for per-class metrics; `u32::MAX` marks
    /// system utilities outside every workload class).
    pub fn class(&self) -> u32 {
        match self {
            Job::Join(j) => j.class,
            Job::MultiJoin(j) => j.join.class,
            Job::Oltp(j) => j.class,
            Job::ScanQ(j) => j.class,
            Job::UpdateQ(j) => j.class,
            Job::SortQ(j) => j.class,
            Job::Migrate(_) => u32::MAX,
        }
    }

    /// Arrival time (for response-time accounting).
    pub fn submitted(&self) -> SimTime {
        match self {
            Job::Join(j) => j.submitted,
            Job::MultiJoin(j) => j.join.submitted,
            Job::Oltp(j) => j.submitted,
            Job::ScanQ(j) => j.submitted,
            Job::UpdateQ(j) => j.submitted,
            Job::SortQ(j) => j.submitted,
            Job::Migrate(j) => j.submitted,
        }
    }

    /// Is this a join query placed by the load balancer?
    pub fn is_join(&self) -> bool {
        matches!(self, Job::Join(_) | Job::MultiJoin(_))
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
