//! Ready-made workload mixes for the paper's experiments.

use crate::arrivals::ArrivalSpec;
use crate::oltp::{NodeFilter, OltpClass};
use crate::queries::QueryClass;
use dbmodel::RelationId;
use serde::{Deserialize, Serialize};

/// A complete multi-class workload.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkloadSpec {
    pub queries: Vec<QueryClass>,
    pub oltp: Vec<OltpClass>,
}

impl WorkloadSpec {
    /// Homogeneous multi-user join workload (§5.2): one join class with
    /// Poisson arrivals of `qps_per_pe` per PE.
    pub fn homogeneous_join(selectivity: f64, qps_per_pe: f64) -> WorkloadSpec {
        WorkloadSpec {
            queries: vec![QueryClass::paper_join(
                selectivity,
                ArrivalSpec::PoissonPerPe { rate: qps_per_pe },
            )],
            oltp: vec![],
        }
    }

    /// Homogeneous joins with a skewed redistribution (Zipf theta over
    /// the join processors) — the §7 skew-handling scenario.
    pub fn homogeneous_join_skewed(selectivity: f64, qps_per_pe: f64, theta: f64) -> WorkloadSpec {
        WorkloadSpec {
            queries: vec![QueryClass::paper_join_skewed(
                selectivity,
                ArrivalSpec::PoissonPerPe { rate: qps_per_pe },
                theta,
            )],
            oltp: vec![],
        }
    }

    /// Single-user join workload: one query in the system at a time.
    pub fn single_user_join(selectivity: f64) -> WorkloadSpec {
        WorkloadSpec {
            queries: vec![QueryClass::paper_join(selectivity, ArrivalSpec::SingleUser)],
            oltp: vec![],
        }
    }

    /// Heterogeneous workload of §5.3 / Fig. 9: multi-user joins plus
    /// debit-credit OLTP at `tps_per_node` on the chosen node set.
    /// `oltp_relation` must be a catalog relation disjoint from A and B.
    pub fn mixed(
        selectivity: f64,
        qps_per_pe: f64,
        oltp_relation: RelationId,
        tps_per_node: f64,
        oltp_nodes: NodeFilter,
    ) -> WorkloadSpec {
        WorkloadSpec {
            queries: vec![QueryClass::paper_join(
                selectivity,
                ArrivalSpec::PoissonPerPe { rate: qps_per_pe },
            )],
            oltp: vec![OltpClass::paper_oltp(
                oltp_relation,
                tps_per_node,
                oltp_nodes,
            )],
        }
    }

    /// Number of classes (for stream-id allocation).
    pub fn class_count(&self) -> usize {
        self.queries.len() + self.oltp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_has_one_join_class() {
        let w = WorkloadSpec::homogeneous_join(0.01, 0.25);
        assert_eq!(w.queries.len(), 1);
        assert!(w.oltp.is_empty());
        assert!(matches!(
            w.queries[0].kind,
            crate::queries::QueryKind::TwoWayJoin { .. }
        ));
    }

    #[test]
    fn single_user_uses_closed_arrivals() {
        let w = WorkloadSpec::single_user_join(0.01);
        assert!(w.queries[0].arrival.is_single_user());
    }

    #[test]
    fn mixed_matches_fig9() {
        let w = WorkloadSpec::mixed(0.01, 0.075, RelationId(2), 100.0, NodeFilter::BNodes);
        assert_eq!(w.class_count(), 2);
        assert_eq!(w.oltp[0].tps_per_node, 100.0);
        assert_eq!(w.oltp[0].nodes, NodeFilter::BNodes);
    }
}
