//! Placement-decision explain: turn per-decision candidate scores into a
//! per-policy digest.
//!
//! For every placement the simulator reports the active policy, the
//! chosen nodes with their bottleneck scores, and the decision's win
//! margin: the best rejected candidate's score minus the worst chosen
//! one's. A score is the control node's weighted bottleneck
//! (`max_k w_k · u_k`, with the feedback of placements made since the
//! last report), the exact quantity LUB-style selection ranks by. The
//! accumulator keeps per-policy decision counts, running win-margin
//! statistics, and per-node win tallies; [`ExplainAcc::report`] renders
//! those into a top-K "why node X" digest.

use serde::{Deserialize, Serialize};

/// Running accumulator for one placement policy.
#[derive(Debug, Clone)]
pub struct PolicyExplain {
    /// Policy name (as reported by the broker).
    pub policy: &'static str,
    /// Placement decisions attributed to this policy.
    pub decisions: u64,
    /// Sum of win margins (best rejected score − worst chosen score).
    pub margin_sum: f64,
    /// Smallest win margin seen.
    pub margin_min: f64,
    /// Largest win margin seen.
    pub margin_max: f64,
    /// Decisions with a strictly positive margin (a clear winner).
    pub clear_wins: u64,
    /// Per-node win count and score sum at win time, indexed by node id.
    wins: Vec<(u64, f64)>,
}

impl PolicyExplain {
    fn new(policy: &'static str, n_nodes: usize) -> PolicyExplain {
        PolicyExplain {
            policy,
            decisions: 0,
            margin_sum: 0.0,
            margin_min: f64::INFINITY,
            margin_max: f64::NEG_INFINITY,
            clear_wins: 0,
            wins: vec![(0, 0.0); n_nodes],
        }
    }

    /// Mean win margin over all decisions (0 with no decisions).
    pub fn margin_mean(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.margin_sum / self.decisions as f64
        }
    }
}

/// Per-node row of the rendered digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeDigest {
    /// Node id.
    pub node: u32,
    /// Times this node was part of the chosen set.
    pub wins: u64,
    /// Mean bottleneck score of the node at the moments it won (lower is
    /// less loaded — the "why": it kept winning because it stayed cheap).
    pub mean_score_at_win: f64,
}

/// Rendered per-policy digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainReport {
    /// Policy name.
    pub policy: String,
    /// Placement decisions attributed to this policy.
    pub decisions: u64,
    /// Mean win margin (best rejected − worst chosen bottleneck score;
    /// negative when a rejected node scored below a chosen one).
    pub margin_mean: f64,
    /// Smallest win margin (0 with no decisions).
    pub margin_min: f64,
    /// Largest win margin (0 with no decisions).
    pub margin_max: f64,
    /// Decisions with a strictly positive margin.
    pub clear_wins: u64,
    /// Top-K nodes by win count.
    pub top_nodes: Vec<NodeDigest>,
}

/// Accumulator over all policies seen in a run.
#[derive(Debug, Clone)]
pub struct ExplainAcc {
    policies: Vec<PolicyExplain>,
    n_nodes: usize,
    top_k: usize,
}

impl ExplainAcc {
    /// An accumulator for a cluster of `n_nodes`, reporting `top_k` nodes
    /// per policy.
    pub fn new(n_nodes: usize, top_k: usize) -> ExplainAcc {
        ExplainAcc {
            policies: Vec::new(),
            n_nodes,
            top_k,
        }
    }

    /// Record one placement decision: the winning nodes with their scores
    /// at decision time, and its win margin (best rejected score − worst
    /// chosen score; 0 when every candidate is chosen).
    pub fn decision(&mut self, policy: &'static str, chosen: &[(u32, f64)], margin: f64) {
        let p = match self.policies.iter_mut().find(|p| p.policy == policy) {
            Some(p) => p,
            None => {
                self.policies.push(PolicyExplain::new(policy, self.n_nodes));
                self.policies.last_mut().expect("just pushed")
            }
        };
        p.decisions += 1;
        p.margin_sum += margin;
        p.margin_min = p.margin_min.min(margin);
        p.margin_max = p.margin_max.max(margin);
        if margin > 0.0 {
            p.clear_wins += 1;
        }
        for &(node, score) in chosen {
            if let Some(w) = p.wins.get_mut(node as usize) {
                w.0 += 1;
                w.1 += score;
            }
        }
    }

    /// Render the digest: one [`ExplainReport`] per policy, each listing
    /// its top-K winning nodes.
    pub fn report(&self) -> Vec<ExplainReport> {
        self.policies
            .iter()
            .map(|p| {
                let mut nodes: Vec<NodeDigest> = p
                    .wins
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.0 > 0)
                    .map(|(node, w)| NodeDigest {
                        node: node as u32,
                        wins: w.0,
                        mean_score_at_win: w.1 / w.0 as f64,
                    })
                    .collect();
                nodes.sort_by(|a, b| b.wins.cmp(&a.wins).then(a.node.cmp(&b.node)));
                nodes.truncate(self.top_k);
                ExplainReport {
                    policy: p.policy.to_string(),
                    decisions: p.decisions,
                    margin_mean: p.margin_mean(),
                    margin_min: if p.decisions == 0 { 0.0 } else { p.margin_min },
                    margin_max: if p.decisions == 0 { 0.0 } else { p.margin_max },
                    clear_wins: p.clear_wins,
                    top_nodes: nodes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_policy_and_ranks_nodes() {
        let mut acc = ExplainAcc::new(4, 2);
        acc.decision("LUB", &[(1, 0.2)], 0.3);
        acc.decision("LUB", &[(1, 0.3), (2, 0.4)], 0.0);
        acc.decision("LUM", &[(0, 0.1)], 0.8);
        let reports = acc.report();
        assert_eq!(reports.len(), 2);
        let lub = reports.iter().find(|r| r.policy == "LUB").unwrap();
        assert_eq!(lub.decisions, 2);
        assert_eq!(lub.clear_wins, 1);
        assert!((lub.margin_mean - 0.15).abs() < 1e-12);
        assert_eq!(lub.top_nodes[0].node, 1);
        assert_eq!(lub.top_nodes[0].wins, 2);
        assert!((lub.top_nodes[0].mean_score_at_win - 0.25).abs() < 1e-12);
        assert_eq!(lub.top_nodes.len(), 2);
    }

    #[test]
    fn empty_policy_reports_zero_margins() {
        let acc = ExplainAcc::new(2, 5);
        assert!(acc.report().is_empty());
    }
}
