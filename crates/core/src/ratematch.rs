//! RateMatch — the competing algorithm of Mehta & DeWitt ("Managing
//! Intra-operator Parallelism in Parallel Database Systems", VLDB 1995),
//! which §6 of Rahm & Marek discusses as the closest related work.
//!
//! "This scheme is based on the observation that the size of the join
//! input is less significant for finding the optimal number of join
//! processors than the rate at which the scan processors generate the join
//! input. Thus the scheme tries to determine the number of join processors
//! such that their aggregate join processing rate matches the rate at
//! which the join input is provided by the scan processors."
//!
//! The paper's critique, reproduced faithfully by this implementation:
//! the per-processor join rate is discounted by the *average CPU
//! utilization* (a busy node processes slower), so the degree **rises** as
//! the system gets busier — "the algorithm increases the degree of join
//! parallelism as CPU utilization increases in order to compensate the
//! reduced processing rate per join processor! This may be acceptable for
//! low utilization levels, but can lead to severe performance problems
//! for a higher CPU utilization (> 50%)". Memory availability is ignored,
//! and an independent (isolated) selection policy chooses the nodes.

use crate::control::ControlNode;
use crate::costmodel::{CostParams, JoinProfile};
use crate::resources::ResourceKind;
use serde::{Deserialize, Serialize};

/// Rate-based degree computation (isolated: selection is independent).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateMatch {
    /// Cost parameters used to derive scan and join rates.
    pub params: CostParams,
}

impl RateMatch {
    /// Build the baseline for one cost-parameter set.
    pub fn new(params: CostParams) -> RateMatch {
        RateMatch { params }
    }

    /// Tuples/second one scan node feeds into the redistribution, at the
    /// current average utilization (scan speed also degrades when busy —
    /// the "simplistic model" uses system-wide averages for both sides).
    fn scan_rate_per_node(&self, u: f64) -> f64 {
        let c = &self.params.instr;
        // Per scanned tuple: read + hash + output-buffer copy, plus the
        // amortized sequential I/O per page.
        let cpu_s =
            (c.read_tuple + c.hash_tuple + c.write_out) as f64 / (self.params.mips as f64 * 1e6);
        let io_s = self.params.seq_io_ms_per_page / 1e3 / self.params.tuples_per_page as f64;
        let per_tuple = cpu_s.max(io_s); // pipelined scan: slower stage binds
        (1.0 - u).max(0.05) / per_tuple
    }

    /// Tuples/second one join processor can absorb at utilization `u`.
    fn join_rate_per_node(&self, u: f64) -> f64 {
        let c = &self.params.instr;
        // Receive + insert (build side dominates the arrival-rate match).
        let per_tuple = (c.recv_msg as f64 / self.params.tuples_per_page as f64
            + c.insert_ht as f64
            + c.probe_ht as f64)
            / (self.params.mips as f64 * 1e6);
        (1.0 - u).max(0.05) / per_tuple
    }

    /// The RateMatch degree: smallest p whose aggregate join rate matches
    /// the aggregate scan production rate. Because both rates carry the
    /// same `(1 − u)` factor, the ratio is utilization-free — but the
    /// published algorithm applies the correction only to the *join* side
    /// (scans are I/O-bound and assumed unaffected), which is what makes
    /// the degree grow with utilization.
    pub fn degree(&self, profile: &JoinProfile, ctl: &ControlNode) -> u32 {
        self.degree_for(profile.outer_scan_nodes, ctl)
    }

    /// Degree from a [`crate::strategy::JoinRequest`] (the run-time path).
    pub fn degree_from_request(
        &self,
        req: &crate::strategy::JoinRequest,
        ctl: &ControlNode,
    ) -> u32 {
        self.degree_for(req.outer_scan_nodes, ctl)
    }

    fn degree_for(&self, outer_scan_nodes: u32, ctl: &ControlNode) -> u32 {
        let n = ctl.len() as u32;
        let u = ctl.avg(ResourceKind::Cpu);
        // Scan side: I/O-bound production rate, utilization-independent.
        let scan_rate = self.scan_rate_per_node(0.0) * outer_scan_nodes as f64;
        let join_rate = self.join_rate_per_node(u);
        let p = (scan_rate / join_rate).ceil() as u32;
        p.clamp(1, n.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::paper_join_profile;
    use crate::resources::ResourceVector;

    fn ctl(n: usize, u: f64) -> ControlNode {
        let mut c = ControlNode::new(n, Default::default());
        for i in 0..n {
            c.report(
                i as u32,
                ResourceVector {
                    cpu: u,
                    free_pages: 50,
                    ..ResourceVector::default()
                },
            );
        }
        c
    }

    #[test]
    fn degree_rises_with_utilization() {
        // The §6 critique in one assert: busier system → MORE processors.
        let rm = RateMatch::new(CostParams::default());
        let profile = paper_join_profile(80, 0.01);
        let idle = rm.degree(&profile, &ctl(80, 0.1));
        let busy = rm.degree(&profile, &ctl(80, 0.7));
        assert!(
            busy > idle,
            "RateMatch must increase the degree under load: idle {idle}, busy {busy}"
        );
    }

    #[test]
    fn degree_bounded_by_system_size() {
        let rm = RateMatch::new(CostParams::default());
        let profile = paper_join_profile(20, 0.05);
        let p = rm.degree(&profile, &ctl(20, 0.95));
        assert!((1..=20).contains(&p));
    }

    #[test]
    fn reasonable_at_idle() {
        // At idle the match should land in the same ballpark as psu-opt
        // (both balance production against consumption).
        let rm = RateMatch::new(CostParams::default());
        let profile = paper_join_profile(80, 0.01);
        let p = rm.degree(&profile, &ctl(80, 0.0));
        assert!((2..=60).contains(&p), "idle degree {p}");
    }

    #[test]
    fn rates_are_positive_and_finite() {
        let rm = RateMatch::new(CostParams::default());
        for u in [0.0, 0.5, 0.99, 1.0] {
            assert!(rm.scan_rate_per_node(u) > 0.0);
            assert!(rm.join_rate_per_node(u) > 0.0);
            assert!(rm.join_rate_per_node(u).is_finite());
        }
    }
}
