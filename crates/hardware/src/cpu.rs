//! CPU service station of one PE.
//!
//! "The number of CPUs per PE and their capacity (in MIPS) are provided as
//! simulation parameters. The average number of instructions per request
//! can be defined separately for every request type." (§4)
//!
//! The engine expresses work in instructions; [`Cpu`] converts to service
//! time and queues requests FCFS (optionally prioritizing OLTP work). The
//! queued requests live in a [`FifoPool`] shared by every CPU of the
//! system, which the caller passes in.

use crate::params::CpuParams;
use simkit::server::{FifoPool, Grant};
use simkit::{FcfsServer, Priority, SimTime};

/// CPU of one PE: `cpus_per_pe` identical units at `mips` each.
pub struct Cpu<T> {
    params: CpuParams,
    server: FcfsServer<T>,
}

impl<T> Cpu<T> {
    pub fn new(params: CpuParams) -> Self {
        let server = FcfsServer::new(params.cpus_per_pe);
        Cpu { params, server }
    }

    /// Request `instr` instructions of CPU service. On an idle unit the
    /// grant is returned immediately; otherwise the request queues.
    ///
    /// `oltp` requests jump the queue when `oltp_priority` is configured.
    pub fn request(
        &mut self,
        pool: &mut FifoPool<T>,
        now: SimTime,
        instr: u64,
        oltp: bool,
        tag: T,
    ) -> Option<Grant<T>> {
        let prio = if oltp && self.params.oltp_priority {
            Priority::High
        } else {
            Priority::Normal
        };
        self.server
            .offer(pool, now, self.params.service(instr), prio, tag)
    }

    /// A service completion fired; returns the next grant if one was queued.
    pub fn complete(&mut self, pool: &mut FifoPool<T>, now: SimTime) -> Option<Grant<T>> {
        self.server.complete(pool, now)
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
        let mut p = FifoPool::new();
        // 20 MIPS: 20000 instr = 1 ms.
        let g = cpu.request(&mut p, at(0), 20_000, false, 1).unwrap();
        assert_eq!(g.done, at(1));
        assert!(cpu.request(&mut p, at(0), 20_000, false, 2).is_none());
        assert!(cpu.request(&mut p, at(0), 20_000, false, 3).is_none());
        let g2 = cpu.complete(&mut p, at(1)).unwrap();
        assert_eq!(g2.tag, 2);
        let g3 = cpu.complete(&mut p, at(2)).unwrap();
        assert_eq!(g3.tag, 3);
        assert!(cpu.complete(&mut p, at(3)).is_none());
    }

    #[test]
    fn oltp_priority_respected_when_enabled() {
        let params = CpuParams {
            oltp_priority: true,
            ..CpuParams::default()
        };
        let mut cpu: Cpu<&str> = Cpu::new(params);
        let mut p = FifoPool::new();
        cpu.request(&mut p, at(0), 20_000, false, "running");
        cpu.request(&mut p, at(0), 20_000, false, "query");
        cpu.request(&mut p, at(0), 20_000, true, "oltp");
        assert_eq!(cpu.complete(&mut p, at(1)).unwrap().tag, "oltp");
    }

    #[test]
    fn oltp_priority_ignored_when_disabled() {
        let mut cpu: Cpu<&str> = Cpu::new(CpuParams::default());
        let mut p = FifoPool::new();
        cpu.request(&mut p, at(0), 20_000, false, "running");
        cpu.request(&mut p, at(0), 20_000, false, "query");
        cpu.request(&mut p, at(0), 20_000, true, "oltp");
        assert_eq!(cpu.complete(&mut p, at(1)).unwrap().tag, "query");
    }

    #[test]
    fn tracks_instruction_totals_and_utilization() {
        let mut cpu: Cpu<()> = Cpu::new(CpuParams::default());
        let mut p = FifoPool::new();
        let g = cpu.request(&mut p, at(0), 40_000, false, ()).unwrap();
        assert_eq!(g.done, at(2), "40,000 instructions at 20 MIPS");
        cpu.complete(&mut p, at(2));
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
        let mut p = FifoPool::new();
        assert!(cpu.request(&mut p, at(0), 20_000, false, 1).is_some());
        assert!(cpu.request(&mut p, at(0), 20_000, false, 2).is_some());
        assert!(cpu.request(&mut p, at(0), 20_000, false, 3).is_none());
        assert_eq!(cpu.in_service(), 2);
    }
}
