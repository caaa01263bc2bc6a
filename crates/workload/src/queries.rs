//! Query classes: the six query types of §4.

use crate::arrivals::{ArrivalSpec, Modulation};
use dbmodel::RelationId;
use serde::{Deserialize, Serialize};

/// Where a query's coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordinatorPlacement {
    /// "random allocation" — uniform over all PEs (the paper's default).
    Random,
    /// Pinned to one PE.
    Fixed(u32),
}

/// The database operation a query class performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryKind {
    /// Full scan of a relation with a selection predicate.
    RelationScan {
        relation: RelationId,
        selectivity: f64,
    },
    /// Range selection via the clustered B+-tree.
    ClusteredIndexScan {
        relation: RelationId,
        selectivity: f64,
    },
    /// Selection via a non-clustered B+-tree (random tuple accesses).
    NonClusteredIndexScan {
        relation: RelationId,
        selectivity: f64,
    },
    /// Two-way hash join: both inputs are reduced by clustered-index
    /// selections, then redistributed to the join processors (§2).
    TwoWayJoin {
        inner: RelationId,
        outer: RelationId,
        /// Selectivity applied to *both* inputs (Fig. 4 profile).
        selectivity: f64,
    },
    /// Left-deep chain of hash joins over ≥ 3 relations; intermediate
    /// results are redistributed between stages.
    MultiWayJoin {
        relations: Vec<RelationId>,
        selectivity: f64,
    },
    /// Parallel sort of a selection's output, redistributed to
    /// dynamically chosen sort processors (§7 extension).
    ParallelSort {
        relation: RelationId,
        selectivity: f64,
    },
    /// Index-supported update statement: select via index, modify, log.
    Update {
        relation: RelationId,
        tuples: u32,
        /// Use the index (true) or scan (false) to locate tuples.
        via_index: bool,
    },
}

/// One query class of the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryClass {
    pub name: String,
    pub kind: QueryKind,
    pub arrival: ArrivalSpec,
    /// Time-variation of the arrival rate (bursts, phase shifts);
    /// [`Modulation::None`] reproduces the paper's stationary streams.
    pub modulation: Modulation,
    pub coordinator: CoordinatorPlacement,
    /// Redistribution skew (Zipf theta over the join processors): the
    /// partitioning function sends unequal subjoin shares. 0.0 = uniform
    /// (the paper's base experiments); the §7 outlook studies skewed
    /// redistribution with size-aware subjoin placement.
    pub redistribution_skew: f64,
}

impl QueryClass {
    /// The paper's standard join query: selections on A and B via
    /// clustered indices, joined on the selection outputs.
    pub fn paper_join(selectivity: f64, arrival: ArrivalSpec) -> QueryClass {
        QueryClass {
            name: format!("join-{}%", selectivity * 100.0),
            kind: QueryKind::TwoWayJoin {
                inner: RelationId(0),
                outer: RelationId(1),
                selectivity,
            },
            arrival,
            modulation: Modulation::None,
            coordinator: CoordinatorPlacement::Random,
            redistribution_skew: 0.0,
        }
    }

    /// The paper join with a skewed partitioning function (§7 outlook).
    pub fn paper_join_skewed(selectivity: f64, arrival: ArrivalSpec, theta: f64) -> QueryClass {
        QueryClass {
            redistribution_skew: theta,
            ..QueryClass::paper_join(selectivity, arrival)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_join_profile() {
        let q = QueryClass::paper_join(0.01, ArrivalSpec::PoissonPerPe { rate: 0.25 });
        match &q.kind {
            QueryKind::TwoWayJoin {
                inner,
                outer,
                selectivity,
            } => {
                assert_eq!(*inner, RelationId(0));
                assert_eq!(*outer, RelationId(1));
                assert_eq!(*selectivity, 0.01);
            }
            _ => panic!(),
        }
        assert_eq!(q.coordinator, CoordinatorPlacement::Random);
    }

    #[test]
    fn serde_round_trip() {
        let q = QueryClass::paper_join(0.05, ArrivalSpec::SingleUser);
        let json = serde_json::to_string(&q).unwrap();
        let back: QueryClass = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
