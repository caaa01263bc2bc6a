//! Isolated policies for the **degree of join parallelism** (§3.1).
//!
//! "Isolated strategies operate in two consecutive steps. In a first step
//! the number of join processes (degree of join parallelism) is determined.
//! In a second step these join processes are allocated to processing nodes
//! based on some criterion."
//!
//! The paper's dynamic policy `p_mu-cpu` (eq. 3.2) reduces the single-user
//! optimum by the current average **CPU** utilization. Generalized here to
//! [`DegreePolicy::Mu`] over any [`ResourceKind`]: `pmu-disk` throttles
//! parallelism when the disks are the bottleneck, `pmu-net` when the
//! egress links are — the same formula, driven by the average utilization
//! of the chosen resource.

use crate::control::ControlNode;
use crate::costmodel::{CostModel, CostParams};
use crate::ratematch::RateMatch;
use crate::resources::ResourceKind;
use crate::strategy::JoinRequest;
use serde::{Deserialize, Serialize};

/// How many join processors to use (first step of an isolated strategy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DegreePolicy {
    /// Static: the single-user optimum `p_su-opt` (compile-time).
    SuOpt,
    /// Static: `p_su-noIO` of eq. 3.1 — just enough processors to avoid
    /// temporary file I/O in single-user mode.
    SuNoIo,
    /// Dynamic: eq. 3.2 generalized — reduce `p_su-opt` by the current
    /// average utilization of one resource (`Mu(Cpu)` is the paper's
    /// `p_mu-cpu`).
    Mu(ResourceKind),
    /// Fixed degree (experiments / Fig. 1 sweeps).
    Fixed(u32),
    /// The RateMatch baseline of §6 (Mehta & DeWitt): match the aggregate
    /// join consumption rate to the scan production rate. Increases the
    /// degree with CPU utilization — the behaviour the paper critiques.
    RateMatch(CostParams),
}

impl DegreePolicy {
    /// The paper's `p_mu-cpu` policy (`Mu(Cpu)`).
    pub const MU_CPU: DegreePolicy = DegreePolicy::Mu(ResourceKind::Cpu);

    /// Compute the degree for `req` under the current control state.
    /// Always in `1..=n`, and never above the admission layer's
    /// `degree_cap` (0 = unconstrained).
    pub fn degree(&self, req: &JoinRequest, ctl: &ControlNode) -> u32 {
        let n = ctl.len() as u32;
        let p = match self {
            DegreePolicy::SuOpt => req.psu_opt,
            DegreePolicy::SuNoIo => req.psu_noio,
            DegreePolicy::Mu(kind) => CostModel::pmu_cpu(req.psu_opt, ctl.avg(*kind)),
            DegreePolicy::Fixed(p) => *p,
            DegreePolicy::RateMatch(params) => {
                RateMatch::new(*params).degree_from_request(req, ctl)
            }
        };
        let p = if req.degree_cap > 0 {
            p.min(req.degree_cap)
        } else {
            p
        };
        p.clamp(1, n.max(1))
    }

    /// Human-readable name used in experiment reports (static: called in
    /// hot experiment loops; `Fixed(p)` loses the numeric value).
    pub fn name(&self) -> &'static str {
        match self {
            DegreePolicy::SuOpt => "psu-opt",
            DegreePolicy::SuNoIo => "psu-noIO",
            DegreePolicy::Mu(ResourceKind::Cpu) => "pmu-cpu",
            DegreePolicy::Mu(ResourceKind::Mem) => "pmu-mem",
            DegreePolicy::Mu(ResourceKind::Disk) => "pmu-disk",
            DegreePolicy::Mu(ResourceKind::Net) => "pmu-net",
            DegreePolicy::Fixed(_) => "p-fixed",
            DegreePolicy::RateMatch(_) => "RateMatch",
        }
    }

    /// Dense index into the static isolated-label table
    /// (`crate::strategy`).
    pub(crate) fn label_index(&self) -> usize {
        match self {
            DegreePolicy::SuOpt => 0,
            DegreePolicy::SuNoIo => 1,
            DegreePolicy::Mu(kind) => 2 + kind.index(),
            DegreePolicy::Fixed(_) => 6,
            DegreePolicy::RateMatch(_) => 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;

    fn req() -> JoinRequest {
        JoinRequest {
            table_pages: 131.25,
            psu_opt: 30,
            psu_noio: 3,
            outer_scan_nodes: 32,
            inner_rel: 0,
            degree_cap: 0,
        }
    }

    fn ctl(n: usize, cpu: f64) -> ControlNode {
        ctl_vec(
            n,
            ResourceVector {
                cpu,
                free_pages: 50,
                ..ResourceVector::default()
            },
        )
    }

    fn ctl_vec(n: usize, v: ResourceVector) -> ControlNode {
        let mut c = ControlNode::new(n, Default::default());
        for i in 0..n {
            c.report(i as u32, v);
        }
        c
    }

    #[test]
    fn static_policies_ignore_state() {
        let c = ctl(80, 0.95);
        assert_eq!(DegreePolicy::SuOpt.degree(&req(), &c), 30);
        assert_eq!(DegreePolicy::SuNoIo.degree(&req(), &c), 3);
        assert_eq!(DegreePolicy::Fixed(7).degree(&req(), &c), 7);
    }

    #[test]
    fn dynamic_policy_tracks_cpu() {
        assert_eq!(DegreePolicy::MU_CPU.degree(&req(), &ctl(80, 0.0)), 30);
        assert_eq!(DegreePolicy::MU_CPU.degree(&req(), &ctl(80, 0.8)), 15);
    }

    #[test]
    fn dynamic_policy_tracks_any_kind() {
        // Hot egress links with idle CPUs: pmu-net throttles, pmu-cpu does
        // not (and vice versa).
        let net_hot = ctl_vec(
            80,
            ResourceVector {
                net: 0.8,
                free_pages: 50,
                ..ResourceVector::default()
            },
        );
        assert_eq!(
            DegreePolicy::Mu(ResourceKind::Net).degree(&req(), &net_hot),
            15
        );
        assert_eq!(DegreePolicy::MU_CPU.degree(&req(), &net_hot), 30);
        let disk_hot = ctl_vec(
            80,
            ResourceVector {
                disk: 0.8,
                free_pages: 50,
                ..ResourceVector::default()
            },
        );
        assert_eq!(
            DegreePolicy::Mu(ResourceKind::Disk).degree(&req(), &disk_hot),
            15
        );
    }

    #[test]
    fn degree_clamped_to_system_size() {
        let c = ctl(10, 0.0);
        assert_eq!(DegreePolicy::SuOpt.degree(&req(), &c), 10);
        assert_eq!(DegreePolicy::Fixed(0).degree(&req(), &c), 1);
    }

    #[test]
    fn names_cover_every_kind() {
        assert_eq!(DegreePolicy::MU_CPU.name(), "pmu-cpu");
        assert_eq!(DegreePolicy::Mu(ResourceKind::Mem).name(), "pmu-mem");
        assert_eq!(DegreePolicy::Mu(ResourceKind::Disk).name(), "pmu-disk");
        assert_eq!(DegreePolicy::Mu(ResourceKind::Net).name(), "pmu-net");
    }

    #[test]
    fn admission_cap_bounds_every_policy() {
        let c = ctl(80, 0.0);
        let capped = JoinRequest {
            degree_cap: 5,
            ..req()
        };
        assert_eq!(DegreePolicy::SuOpt.degree(&capped, &c), 5);
        assert_eq!(DegreePolicy::MU_CPU.degree(&capped, &c), 5);
        assert_eq!(DegreePolicy::Fixed(40).degree(&capped, &c), 5);
        assert_eq!(
            DegreePolicy::SuNoIo.degree(&capped, &c),
            3,
            "already under the cap"
        );
    }
}
