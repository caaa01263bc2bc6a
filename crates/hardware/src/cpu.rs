//! CPU service station of one PE.
//!
//! "The number of CPUs per PE and their capacity (in MIPS) are provided as
//! simulation parameters. The average number of instructions per request
//! can be defined separately for every request type." (§4)
//!
//! The engine expresses work in instructions; [`Cpu`] converts to service
//! time and queues requests FCFS (optionally prioritizing OLTP work).

use crate::params::CpuParams;
use simkit::server::Grant;
use simkit::{FcfsServer, Priority, SimTime};

/// CPU of one PE: `cpus_per_pe` identical units at `mips` each.
pub struct Cpu<T> {
    params: CpuParams,
    server: FcfsServer<T>,
    /// Total instructions requested (for reporting).
    instructions: u64,
}

impl<T> Cpu<T> {
    pub fn new(params: CpuParams) -> Self {
        let server = FcfsServer::new(params.cpus_per_pe);
        Cpu {
            params,
            server,
            instructions: 0,
        }
    }

    /// Request `instr` instructions of CPU service. On an idle unit the
    /// grant is returned immediately; otherwise the request queues.
    ///
    /// `oltp` requests jump the queue when `oltp_priority` is configured.
    pub fn request(&mut self, now: SimTime, instr: u64, oltp: bool, tag: T) -> Option<Grant<T>> {
        self.instructions += instr;
        let prio = if oltp && self.params.oltp_priority {
            Priority::High
        } else {
            Priority::Normal
        };
        self.server
            .offer(now, self.params.service(instr), prio, tag)
    }

    /// A service completion fired; returns the next grant if one was queued.
    pub fn complete(&mut self, now: SimTime) -> Option<Grant<T>> {
        self.server.complete(now)
    }

    /// Cumulative utilization in `[0, 1]` (read-only).
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.server.utilization(now)
    }

    /// Busy integral for windowed utilization reports to the control node
    /// (read-only: the report-round sampler shares the CPUs).
    pub fn busy_integral(&self, now: SimTime) -> u128 {
        self.server.busy_integral_at(now)
    }

    pub fn units(&self) -> u32 {
        self.params.cpus_per_pe
    }

    pub fn queued(&self) -> usize {
        self.server.queued()
    }

    pub fn in_service(&self) -> u32 {
        self.server.in_service()
    }

    pub fn total_instructions(&self) -> u64 {
        self.instructions
    }

    pub fn params(&self) -> &CpuParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDur;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_millis(ms)
    }

    #[test]
    fn serves_in_fcfs_order() {
        let mut cpu: Cpu<u32> = Cpu::new(CpuParams::default());
        // 20 MIPS: 20000 instr = 1 ms.
        let g = cpu.request(at(0), 20_000, false, 1).unwrap();
        assert_eq!(g.done, at(1));
        assert!(cpu.request(at(0), 20_000, false, 2).is_none());
        assert!(cpu.request(at(0), 20_000, false, 3).is_none());
        let g2 = cpu.complete(at(1)).unwrap();
        assert_eq!(g2.tag, 2);
        let g3 = cpu.complete(at(2)).unwrap();
        assert_eq!(g3.tag, 3);
        assert!(cpu.complete(at(3)).is_none());
    }

    #[test]
    fn oltp_priority_respected_when_enabled() {
        let params = CpuParams {
            oltp_priority: true,
            ..CpuParams::default()
        };
        let mut cpu: Cpu<&str> = Cpu::new(params);
        cpu.request(at(0), 20_000, false, "running");
        cpu.request(at(0), 20_000, false, "query");
        cpu.request(at(0), 20_000, true, "oltp");
        assert_eq!(cpu.complete(at(1)).unwrap().tag, "oltp");
    }

    #[test]
    fn oltp_priority_ignored_when_disabled() {
        let mut cpu: Cpu<&str> = Cpu::new(CpuParams::default());
        cpu.request(at(0), 20_000, false, "running");
        cpu.request(at(0), 20_000, false, "query");
        cpu.request(at(0), 20_000, true, "oltp");
        assert_eq!(cpu.complete(at(1)).unwrap().tag, "query");
    }

    #[test]
    fn tracks_instruction_totals_and_utilization() {
        let mut cpu: Cpu<()> = Cpu::new(CpuParams::default());
        cpu.request(at(0), 40_000, false, ()); // 2 ms
        cpu.complete(at(2));
        assert_eq!(cpu.total_instructions(), 40_000);
        let u = cpu.utilization(at(4));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multi_cpu_pe() {
        let params = CpuParams {
            cpus_per_pe: 2,
            ..CpuParams::default()
        };
        let mut cpu: Cpu<u8> = Cpu::new(params);
        assert!(cpu.request(at(0), 20_000, false, 1).is_some());
        assert!(cpu.request(at(0), 20_000, false, 2).is_some());
        assert!(cpu.request(at(0), 20_000, false, 3).is_none());
        assert_eq!(cpu.in_service(), 2);
    }
}
