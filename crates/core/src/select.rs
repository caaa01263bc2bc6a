//! Isolated policies for the **selection of join processors** (§3.2).
//!
//! * RANDOM — state-oblivious uniform choice ("expected to spread the
//!   workload equally across all available nodes");
//! * LUC — "we select the processors with the lowest CPU utilization as
//!   join processors", with the adaptive feedback of \[26\];
//! * LUM — "join processes are assigned to the nodes with the most
//!   available main memory", again with direct adaptation of the control
//!   node's information;
//! * DL — data-locality-aware extension (beyond the paper): join
//!   processors co-located with the build input's fragments, so a share
//!   of the redistribution traffic stays node-local. Requires the
//!   placement layer's locality view to be registered with the broker;
//! * LUB — least-utilized-**bottleneck** extension: nodes ranked by the
//!   weighted max-utilization norm over *all* resource kinds (CPU,
//!   memory, disk, egress link), so a node whose network link is
//!   saturated is avoided even when its CPU is idle. This is the
//!   selection policy that makes the interconnect a first-class balanced
//!   resource.

use crate::control::ControlNode;
use crate::resources::ResourceKind;
use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// Processor-selection policy (second step of an isolated strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectPolicy {
    /// State-oblivious uniform choice over all nodes.
    Random,
    /// Least Utilized CPUs.
    Luc,
    /// Least Utilized Memory (most free pages).
    Lum,
    /// Data Locality: nodes holding the most tuples of the build input
    /// first (local redistribution is free in a Shared Nothing node).
    DataLocal,
    /// Least Utilized Bottleneck: nodes with the lowest weighted
    /// max-utilization over all resource kinds first.
    Lub,
}

impl SelectPolicy {
    /// Choose `p` distinct nodes. For the state-aware policies the control
    /// copy is adapted immediately (`pages_per_node` is the expected
    /// memory claim); `inner_rel` is the build input's relation id for
    /// data-locality-aware selection.
    pub fn select(
        &self,
        p: u32,
        ctl: &mut ControlNode,
        rng: &mut SimRng,
        pages_per_node: u32,
        inner_rel: u32,
    ) -> Vec<u32> {
        let n = ctl.len();
        let p = (p as usize).clamp(1, n);
        let nodes: Vec<u32> = match self {
            SelectPolicy::Random => rng
                .sample_distinct(n, p)
                .into_iter()
                .map(|i| i as u32)
                .collect(),
            // The ranked iterators read the head of the maintained index
            // lazily: O(log n + p), no allocation beyond the result.
            SelectPolicy::Luc => ctl
                .ranked_util(ResourceKind::Cpu)
                .take(p)
                .map(|(i, _)| i)
                .collect(),
            SelectPolicy::Lum => ctl.ranked_memory().take(p).map(|(i, _)| i).collect(),
            SelectPolicy::DataLocal => ctl
                .by_local_data(inner_rel)
                .into_iter()
                .take(p)
                .map(|(i, _)| i)
                .collect(),
            SelectPolicy::Lub => ctl.ranked_bottleneck().take(p).map(|(i, _)| i).collect(),
        };
        if !matches!(self, SelectPolicy::Random) {
            ctl.note_assignment(&nodes, pages_per_node);
        }
        nodes
    }

    /// Name used in experiment reports (matches the paper's labels).
    pub fn name(&self) -> &'static str {
        match self {
            SelectPolicy::Random => "RANDOM",
            SelectPolicy::Luc => "LUC",
            SelectPolicy::Lum => "LUM",
            SelectPolicy::DataLocal => "DL",
            SelectPolicy::Lub => "LUB",
        }
    }

    /// Dense index into the static isolated-label table
    /// (`crate::strategy`).
    pub(crate) fn label_index(&self) -> usize {
        match self {
            SelectPolicy::Random => 0,
            SelectPolicy::Luc => 1,
            SelectPolicy::Lum => 2,
            SelectPolicy::DataLocal => 3,
            SelectPolicy::Lub => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;

    fn ctl(free: &[u32], cpu: &[f64]) -> ControlNode {
        let mut c = ControlNode::new(free.len(), Default::default());
        for (i, (&f, &u)) in free.iter().zip(cpu).enumerate() {
            c.report(
                i as u32,
                ResourceVector {
                    cpu: u,
                    free_pages: f,
                    ..ResourceVector::default()
                },
            );
        }
        c
    }

    #[test]
    fn lum_picks_most_free_memory() {
        let mut c = ctl(&[5, 40, 20, 30], &[0.5; 4]);
        let mut rng = SimRng::new(1);
        let nodes = SelectPolicy::Lum.select(2, &mut c, &mut rng, 10, 0);
        assert_eq!(nodes, vec![1, 3]);
    }

    #[test]
    fn luc_picks_least_cpu() {
        let mut c = ctl(&[10; 4], &[0.9, 0.1, 0.4, 0.2]);
        let mut rng = SimRng::new(1);
        let nodes = SelectPolicy::Luc.select(3, &mut c, &mut rng, 0, 0);
        assert_eq!(nodes, vec![1, 3, 2]);
    }

    #[test]
    fn random_is_distinct_and_in_range() {
        let mut c = ctl(&[10; 20], &[0.0; 20]);
        let mut rng = SimRng::new(7);
        for _ in 0..50 {
            let nodes = SelectPolicy::Random.select(8, &mut c, &mut rng, 0, 0);
            assert_eq!(nodes.len(), 8);
            let mut s = nodes.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 8);
            assert!(nodes.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn adaptive_feedback_spreads_consecutive_joins() {
        // Two equal joins arriving between control reports must not both
        // land on the same "best" nodes (the paper's herd-avoidance).
        let mut c = ctl(&[40, 40, 10, 10], &[0.0; 4]);
        let mut rng = SimRng::new(1);
        let first = SelectPolicy::Lum.select(2, &mut c, &mut rng, 35, 0);
        let second = SelectPolicy::Lum.select(2, &mut c, &mut rng, 35, 0);
        assert_eq!(first, vec![0, 1]);
        assert_eq!(second, vec![2, 3], "feedback pushed the next join away");
    }

    #[test]
    fn luc_feedback_bumps_utilization() {
        let mut c = ctl(&[10; 3], &[0.0, 0.0, 0.5]);
        c.luc_bump = 0.6;
        let mut rng = SimRng::new(1);
        let first = SelectPolicy::Luc.select(1, &mut c, &mut rng, 0, 0);
        assert_eq!(first, vec![0]);
        let second = SelectPolicy::Luc.select(1, &mut c, &mut rng, 0, 0);
        assert_eq!(second, vec![1]);
        let third = SelectPolicy::Luc.select(1, &mut c, &mut rng, 0, 0);
        assert_eq!(third, vec![2], "bumped nodes now rank behind 0.5");
    }

    #[test]
    fn lub_avoids_the_bottlenecked_node() {
        // Node 0 has an idle CPU but a saturated egress link; node 2 has a
        // hot disk. LUC would pick node 0 first; LUB ranks by the tightest
        // resource and picks node 1, then node 2 (0.5 disk < 0.9 net).
        let mut c = ControlNode::new(3, Default::default());
        for (i, (cpu, disk, net)) in [(0.1, 0.0, 0.9), (0.3, 0.2, 0.1), (0.2, 0.5, 0.0)]
            .into_iter()
            .enumerate()
        {
            c.report(
                i as u32,
                ResourceVector {
                    cpu,
                    disk,
                    net,
                    free_pages: 50,
                    ..ResourceVector::default()
                },
            );
        }
        let mut rng = SimRng::new(1);
        let nodes = SelectPolicy::Lub.select(2, &mut c, &mut rng, 0, 0);
        assert_eq!(nodes, vec![1, 2], "link-saturated node 0 avoided");
        assert_eq!(SelectPolicy::Lub.name(), "LUB");
    }

    #[test]
    fn lub_feedback_spreads_consecutive_joins() {
        // Equal vectors: the cpu bump from the first selection pushes the
        // second selection onto the untouched nodes.
        let mut c = ctl(&[50; 4], &[0.1; 4]);
        c.luc_bump = 0.3;
        let mut rng = SimRng::new(2);
        let first = SelectPolicy::Lub.select(2, &mut c, &mut rng, 10, 0);
        let second = SelectPolicy::Lub.select(2, &mut c, &mut rng, 10, 0);
        assert_eq!(first, vec![0, 1]);
        assert_eq!(second, vec![2, 3], "feedback pushed the next join away");
    }

    #[test]
    fn dl_picks_the_nodes_holding_the_inner_relation() {
        use crate::control::DataLocality;
        // Relation 1 (the inner) is skewed onto nodes 4 and 1; relation 0
        // is skewed the other way, so picking by the wrong relation shows.
        let mut c = ctl(&[50; 6], &[0.0; 6]);
        c.set_locality(DataLocality {
            tuples: vec![vec![900, 0, 0, 0, 0, 0], vec![0, 300, 0, 0, 700, 0]],
        });
        let mut rng = SimRng::new(1);
        let nodes = SelectPolicy::DataLocal.select(2, &mut c, &mut rng, 0, 1);
        assert_eq!(nodes, vec![4, 1], "most local tuples first");
        assert_eq!(SelectPolicy::DataLocal.name(), "DL");
    }

    #[test]
    fn dl_rotates_ties_like_the_other_rankings() {
        use crate::control::DataLocality;
        // Node 5 holds the inner relation; nodes 0–4 tie at no tuples.
        let mut c = ctl(&[50; 6], &[0.0; 6]);
        c.luc_bump = 0.0;
        c.set_locality(DataLocality {
            tuples: vec![vec![], vec![0, 0, 0, 0, 0, 100]],
        });
        let mut rng = SimRng::new(1);
        let first = SelectPolicy::DataLocal.select(3, &mut c, &mut rng, 0, 1);
        assert_eq!(first, vec![5, 0, 1]);
        // The assignment advanced the cursor by 3: the leader stays first,
        // the tied nodes start at id 3 and wrap round, as LUM's do.
        let tied: Vec<u32> = c.by_local_data(1).iter().map(|&(i, _)| i).collect();
        let lum: Vec<u32> = c.avail_memory().iter().map(|&(i, _)| i).collect();
        assert_eq!(tied, vec![5, 3, 4, 0, 1, 2]);
        assert_eq!(
            lum,
            vec![3, 4, 5, 0, 1, 2],
            "LUM ties rotate by the same cursor"
        );
        let second = SelectPolicy::DataLocal.select(3, &mut c, &mut rng, 0, 1);
        assert_eq!(second, vec![5, 3, 4]);
    }

    #[test]
    fn selection_caps_at_system_size() {
        let mut c = ctl(&[10; 3], &[0.0; 3]);
        let mut rng = SimRng::new(1);
        let nodes = SelectPolicy::Lum.select(9, &mut c, &mut rng, 0, 0);
        assert_eq!(nodes.len(), 3);
    }
}
