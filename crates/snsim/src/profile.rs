//! Wall-clock phase profiling behind `lab --profile`.
//!
//! When enabled, [`crate::System`] accumulates wall-clock time per
//! dispatch phase so perf work starts from data instead of guesses. The
//! accumulators live outside the simulation state proper: they are never
//! serialized, never read by any model decision, and cannot affect a
//! [`crate::Summary`] — a profiled run produces bit-identical results to
//! an unprofiled one, just slower.
//!
//! Two kinds of rows come out:
//!
//! * **dispatch phases** — disjoint: each processed event is attributed
//!   to exactly one row by its event kind, plus the engine drain that
//!   follows every event. Their sum approximates the whole event loop.
//! * **`sub:` phases** — overlapping breakdowns *inside* the dispatch
//!   phases (broker sampling and merge inside the control tick, the
//!   admission pump inside arrivals and completions, query planning at
//!   each query spawn, rebalance planning and migration launches). They must not be added to the dispatch
//!   rows.

use std::time::Duration;

/// A profiled phase. Dispatch phases are disjoint; `Sub*` phases nest
/// inside them (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `Ev::Arrival` + `Ev::Retry` dispatch (spawn, admission, next-arrival draw).
    Arrival,
    /// `Ev::CpuDone` dispatch (queue pump + token routing).
    CpuDone,
    /// `Ev::IoDone` dispatch (data disks).
    IoDone,
    /// `Ev::LogDone` dispatch (log force + group-commit wakeups).
    LogDone,
    /// `Ev::Deliver` dispatch (the fabric).
    Network,
    /// `Ev::ControlTick` dispatch (the whole report round).
    ControlTick,
    /// `Ev::DeadlockTick` + `Ev::Alarm` + `Ev::WarmupMark` dispatch.
    OtherEvent,
    /// Engine drain after each event (job state machines + actions).
    EngineDrain,
    /// sub: per-PE resource sampling inside the control tick.
    SubBrokerSample,
    /// sub: serial PE-order merge of reports into the broker.
    SubBrokerMerge,
    /// sub: admission-scheduler pump (arrivals, completions, ticks).
    SubAdmissionPump,
    /// sub: rebalance planning (fragment snapshot + controller round).
    SubRebalancePlanning,
    /// sub: query planning (planner job fabrication at each query spawn).
    SubQueryPlanning,
    /// sub: migration-job launches out of accepted plans.
    SubMigration,
    /// sub: job state-machine handlers inside the engine drain.
    SubEngineHandle,
    /// sub: hardware action execution (CPU/disk/log/net requests) inside
    /// the engine drain.
    SubExecActions,
}

impl Phase {
    pub const COUNT: usize = 16;

    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Arrival,
        Phase::CpuDone,
        Phase::IoDone,
        Phase::LogDone,
        Phase::Network,
        Phase::ControlTick,
        Phase::OtherEvent,
        Phase::EngineDrain,
        Phase::SubBrokerSample,
        Phase::SubBrokerMerge,
        Phase::SubAdmissionPump,
        Phase::SubRebalancePlanning,
        Phase::SubQueryPlanning,
        Phase::SubMigration,
        Phase::SubEngineHandle,
        Phase::SubExecActions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Arrival => "dispatch:arrival",
            Phase::CpuDone => "dispatch:cpu_done",
            Phase::IoDone => "dispatch:io_done",
            Phase::LogDone => "dispatch:log_done",
            Phase::Network => "dispatch:network",
            Phase::ControlTick => "dispatch:control_tick",
            Phase::OtherEvent => "dispatch:other",
            Phase::EngineDrain => "engine_drain",
            Phase::SubBrokerSample => "sub:broker_sampling",
            Phase::SubBrokerMerge => "sub:broker_merge",
            Phase::SubAdmissionPump => "sub:admission_pump",
            Phase::SubRebalancePlanning => "sub:rebalance_planning",
            Phase::SubQueryPlanning => "sub:query_planning",
            Phase::SubMigration => "sub:migration",
            Phase::SubEngineHandle => "sub:engine_handle",
            Phase::SubExecActions => "sub:exec_actions",
        }
    }

    fn index(self) -> usize {
        Phase::ALL
            .iter()
            .position(|&p| p == self)
            .expect("phase listed in ALL")
    }
}

/// Per-run accumulators (allocated once when profiling is enabled).
#[derive(Debug, Clone, Default)]
pub struct ProfileAcc {
    nanos: [u64; Phase::COUNT],
    calls: [u64; Phase::COUNT],
}

impl ProfileAcc {
    #[inline]
    pub fn add(&mut self, phase: Phase, d: Duration) {
        let i = phase.index();
        self.nanos[i] += d.as_nanos() as u64;
        self.calls[i] += 1;
    }

    /// Freeze into a report; `wall` is the run's total wall clock.
    pub fn report(&self, wall: Duration) -> ProfileReport {
        ProfileReport {
            runs: 1,
            total_wall_secs: wall.as_secs_f64(),
            rows: Phase::ALL
                .iter()
                .map(|&p| PhaseRow {
                    phase: p.name(),
                    calls: self.calls[p.index()],
                    secs: self.nanos[p.index()] as f64 / 1e9,
                })
                .collect(),
        }
    }
}

/// One phase's aggregate across the profiled runs.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    pub phase: &'static str,
    pub calls: u64,
    pub secs: f64,
}

/// Aggregated phase breakdown of one or more profiled runs.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub runs: u64,
    pub total_wall_secs: f64,
    pub rows: Vec<PhaseRow>,
}

impl ProfileReport {
    pub fn empty() -> ProfileReport {
        ProfileReport {
            runs: 0,
            total_wall_secs: 0.0,
            rows: Phase::ALL
                .iter()
                .map(|&p| PhaseRow {
                    phase: p.name(),
                    calls: 0,
                    secs: 0.0,
                })
                .collect(),
        }
    }

    /// Fold another run's report in (rows are in fixed [`Phase::ALL`] order).
    pub fn merge(&mut self, other: &ProfileReport) {
        self.runs += other.runs;
        self.total_wall_secs += other.total_wall_secs;
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            debug_assert_eq!(mine.phase, theirs.phase);
            mine.calls += theirs.calls;
            mine.secs += theirs.secs;
        }
    }

    /// Fixed-width text table (printed by `lab --profile`).
    pub fn format_table(&self, title: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile `{title}` — {} run(s), {:.3} s wall",
            self.runs, self.total_wall_secs
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>10} {:>7}",
            "phase", "calls", "secs", "share"
        );
        for r in &self.rows {
            let share = if self.total_wall_secs > 0.0 {
                r.secs / self.total_wall_secs * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>10.3} {:>6.1}%",
                r.phase, r.calls, r.secs, share
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_index_their_all_slot() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn accumulate_and_merge() {
        let mut acc = ProfileAcc::default();
        acc.add(Phase::CpuDone, Duration::from_nanos(500));
        acc.add(Phase::CpuDone, Duration::from_nanos(300));
        acc.add(Phase::EngineDrain, Duration::from_micros(1));
        let r1 = acc.report(Duration::from_millis(2));
        assert_eq!(r1.runs, 1);
        let cpu = r1.rows.iter().find(|r| r.phase == "dispatch:cpu_done");
        assert_eq!(cpu.map(|r| r.calls), Some(2));

        let mut total = ProfileReport::empty();
        total.merge(&r1);
        total.merge(&r1);
        assert_eq!(total.runs, 2);
        let cpu = total
            .rows
            .iter()
            .find(|r| r.phase == "dispatch:cpu_done")
            .expect("row");
        assert_eq!(cpu.calls, 4);
        assert!((cpu.secs - 1.6e-6).abs() < 1e-12);
        assert!((total.total_wall_secs - 0.004).abs() < 1e-12);
        assert!(total.format_table("t").contains("dispatch:cpu_done"));
    }
}
