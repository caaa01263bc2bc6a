//! Online data rebalancing: the controller that picks hot fragments and
//! plans migrations.
//!
//! The paper balances *load* at query-placement time and leaves data
//! allocation static. DynaHash and its successors showed the other half:
//! re-homing partitions online when the data is skewed. The
//! [`RebalanceController`] closes that loop here. It is clocked by the
//! **same broker report rounds** the `AdaptiveController` observes and
//! emits a bounded set of concurrent [`MigrationPlan`]s; the simulator
//! executes each plan as real disk/network/disk traffic
//! (`engine::migrate`) and reports completion back via
//! [`RebalanceController::migration_finished`]. Utilization signals are
//! read from the control node's generic per-kind state (the bottleneck
//! norm), never from per-resource side channels.
//!
//! The trigger is **data imbalance** — the per-node tuple masses of the
//! placement layer — because that signal is exact and stable, where
//! windowed utilization flaps with queueing noise and would keep the
//! controller churning long after the layout is balanced. The round's
//! utilization reports still matter: they break ties when several nodes
//! carry the same data mass (prefer unloading the node that is measurably
//! hotter, prefer filling the node that is measurably cooler).
//!
//! Every planned move strictly shrinks the hot–cold gap, so greedy
//! balancing terminates at a fixed point instead of ping-ponging
//! fragments between nodes.

use crate::control::ControlNode;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the rebalancing controller. Serializable so scenario
/// specs can carry them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalanceConfig {
    /// Evaluate every this many broker report rounds.
    pub every_rounds: u32,
    /// Trigger threshold: migrate only while the hottest−coolest data gap
    /// exceeds this fraction of the mean per-node tuple mass.
    pub min_imbalance: f64,
    /// Smallest fragment worth moving (tuples).
    pub min_fragment_tuples: u64,
    /// Largest fragment the controller will ship (0 = unlimited).
    /// Migrating a fragment blocks scans of it for the whole flight, so
    /// shipping a dominant fragment mostly *relocates* the hotspot while
    /// paying the largest possible blocking window — capping the unit of
    /// movement keeps reorganizations cheap and incremental.
    pub max_fragment_tuples: u64,
    /// Upper bound on migrations per run (0 = unlimited).
    pub max_migrations: u32,
    /// Concurrent in-flight migrations (planned against virtual loads, so
    /// several moves may drain the same hot node at once).
    pub max_concurrent: u32,
    /// Report rounds to sit out after the last in-flight migration
    /// completes.
    pub cooldown_rounds: u32,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            every_rounds: 1,
            min_imbalance: 0.5,
            min_fragment_tuples: 1_000,
            max_fragment_tuples: 60_000,
            max_migrations: 0,
            max_concurrent: 4,
            cooldown_rounds: 2,
        }
    }
}

/// One fragment as the controller sees it (a flat view of the placement
/// layer's `PartitionMap`, kept dbmodel-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentInfo {
    /// Relation id.
    pub relation: u32,
    /// Fragment index within the relation.
    pub fragment: u32,
    /// Current home PE.
    pub pe: u32,
    /// Fragment size in tuples.
    pub tuples: u64,
}

/// A planned fragment move, to be executed as real data traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Relation id.
    pub relation: u32,
    /// Fragment index within the relation.
    pub fragment: u32,
    /// Source PE (the fragment's current home).
    pub from: u32,
    /// Destination PE.
    pub to: u32,
    /// Tuples that will move.
    pub tuples: u64,
}

/// The online rebalancing controller (one per simulation run).
#[derive(Debug, Clone)]
pub struct RebalanceController {
    cfg: RebalanceConfig,
    rounds: u32,
    cooldown: u32,
    /// In-flight migrations (the planned moves not yet confirmed done).
    active: Vec<MigrationPlan>,
    started: u32,
}

impl RebalanceController {
    /// A controller with no history.
    pub fn new(cfg: RebalanceConfig) -> RebalanceController {
        RebalanceController {
            cfg,
            rounds: 0,
            cooldown: 0,
            active: Vec::new(),
            started: 0,
        }
    }

    /// Migrations planned so far.
    pub fn migrations_started(&self) -> u32 {
        self.started
    }

    /// The simulator reports a finished (or abandoned) migration of one
    /// fragment; once the last in-flight move lands, the cooldown starts.
    pub fn migration_finished(&mut self, relation: u32, fragment: u32) {
        if let Some(i) = self
            .active
            .iter()
            .position(|a| a.relation == relation && a.fragment == fragment)
        {
            self.active.swap_remove(i);
        }
        if self.active.is_empty() {
            self.cooldown = self.cfg.cooldown_rounds;
        }
    }

    /// One broker report round. Returns the migrations to launch now (up
    /// to the free concurrency slots); the caller must execute each and
    /// call [`RebalanceController::migration_finished`] when it completes.
    ///
    /// Planning works on **virtual loads**: in-flight fragments are
    /// counted at their destination even though the catalog flips only on
    /// completion, so concurrent plans — including several moves off the
    /// same hot node — never overshoot and never pick the same fragment
    /// twice.
    pub fn on_report_round(
        &mut self,
        ctl: &ControlNode,
        frags: &[FragmentInfo],
    ) -> Vec<MigrationPlan> {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return Vec::new();
        }
        self.rounds += 1;
        if !self.rounds.is_multiple_of(self.cfg.every_rounds.max(1)) {
            return Vec::new();
        }
        let n = ctl.len();
        if n < 2 {
            return Vec::new();
        }
        // Virtual data mass per node: current homes, with in-flight moves
        // applied as if already complete.
        let mut load = vec![0u64; n];
        for f in frags {
            if (f.pe as usize) < n {
                load[f.pe as usize] += f.tuples;
            }
        }
        let in_flight = |rel: u32, frag: u32| -> bool {
            self.active
                .iter()
                .any(|a| a.relation == rel && a.fragment == frag)
        };
        for a in &self.active {
            if (a.from as usize) < n && (a.to as usize) < n {
                load[a.from as usize] = load[a.from as usize].saturating_sub(a.tuples);
                load[a.to as usize] += a.tuples;
            }
        }
        let mean = load.iter().sum::<u64>() as f64 / n as f64;
        // Reported pressure breaks data-mass ties: the weighted bottleneck
        // score over *all* resource kinds, so a node whose egress link is
        // saturated by query traffic counts as hot even with idle CPUs.
        let pressure = |i: usize| -> f64 { ctl.bottleneck(i as u32) };
        let mut plans: Vec<MigrationPlan> = Vec::new();
        while self.active.len() + plans.len() < self.cfg.max_concurrent.max(1) as usize {
            if self.cfg.max_migrations > 0
                && self.started + plans.len() as u32 >= self.cfg.max_migrations
            {
                break;
            }
            // Suspected nodes (broker failure detector) are frozen out of
            // endpoint selection: their reported pressure is detector
            // poison, and shipping fragments into a possibly-failed node
            // would be worse than the imbalance. In-flight moves touching
            // them still complete. With nothing suspected this scan is
            // the plain argmax/argmin over all nodes.
            let (mut hot, mut cold) = (None::<usize>, None::<usize>);
            for i in 0..n {
                if ctl.is_suspected(i as u32) {
                    continue;
                }
                match hot {
                    Some(h)
                        if !(load[i] > load[h]
                            || (load[i] == load[h] && pressure(i) > pressure(h))) => {}
                    _ => hot = Some(i),
                }
                match cold {
                    Some(c)
                        if !(load[i] < load[c]
                            || (load[i] == load[c] && pressure(i) < pressure(c))) => {}
                    _ => cold = Some(i),
                }
            }
            let (Some(hot), Some(cold)) = (hot, cold) else {
                break;
            };
            let gap = load[hot].saturating_sub(load[cold]);
            if (gap as f64) < self.cfg.min_imbalance * mean {
                break;
            }
            // Largest migratable fragment on the (virtually) hot node
            // whose move strictly shrinks the gap — greedy balancing that
            // cannot ping-pong. Deterministic tie-break: lowest relation,
            // then lowest fragment.
            let candidate = frags
                .iter()
                .filter(|f| {
                    f.pe == hot as u32
                        && !in_flight(f.relation, f.fragment)
                        && !plans
                            .iter()
                            .any(|p| p.relation == f.relation && p.fragment == f.fragment)
                        && f.tuples >= self.cfg.min_fragment_tuples
                        && (self.cfg.max_fragment_tuples == 0
                            || f.tuples <= self.cfg.max_fragment_tuples)
                        && f.tuples < gap
                })
                .max_by(|a, b| {
                    a.tuples
                        .cmp(&b.tuples)
                        .then(b.relation.cmp(&a.relation))
                        .then(b.fragment.cmp(&a.fragment))
                });
            let Some(candidate) = candidate else {
                // The hottest node has nothing movable; stop rather than
                // chase smaller maxima (keeps rounds cheap).
                break;
            };
            // Apply virtually so the next slot plans against the new state.
            load[hot] = load[hot].saturating_sub(candidate.tuples);
            load[cold] += candidate.tuples;
            plans.push(MigrationPlan {
                relation: candidate.relation,
                fragment: candidate.fragment,
                from: candidate.pe,
                to: cold as u32,
                tuples: candidate.tuples,
            });
        }
        self.started += plans.len() as u32;
        self.active.extend(plans.iter().copied());
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;

    fn ctl(cpu: &[f64]) -> ControlNode {
        let mut c = ControlNode::new(cpu.len(), Default::default());
        for (i, &u) in cpu.iter().enumerate() {
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

    fn frag(relation: u32, fragment: u32, pe: u32, tuples: u64) -> FragmentInfo {
        FragmentInfo {
            relation,
            fragment,
            pe,
            tuples,
        }
    }

    /// Node 0 carries 700k tuples, node 1 carries 100k, node 2 none.
    fn frags() -> Vec<FragmentInfo> {
        vec![
            frag(1, 0, 0, 500_000),
            frag(1, 1, 0, 200_000),
            frag(1, 2, 1, 100_000),
        ]
    }

    fn cfg() -> RebalanceConfig {
        RebalanceConfig {
            every_rounds: 1,
            min_imbalance: 0.5,
            min_fragment_tuples: 1_000,
            max_fragment_tuples: 0,
            max_migrations: 0,
            max_concurrent: 1,
            cooldown_rounds: 2,
        }
    }

    #[test]
    fn plans_largest_gap_shrinking_move_to_emptiest_node() {
        let mut r = RebalanceController::new(cfg());
        let c = ctl(&[0.9, 0.2, 0.1]);
        let plans = r.on_report_round(&c, &frags());
        assert_eq!(plans.len(), 1);
        let plan = plans[0];
        assert_eq!(plan.from, 0, "node with the most data");
        assert_eq!(plan.to, 2, "node with the least data");
        assert_eq!(plan.fragment, 0, "largest fragment below the 700k gap");
        assert_eq!(plan.tuples, 500_000);
        assert_eq!(r.migrations_started(), 1);
    }

    #[test]
    fn suspected_nodes_are_neither_source_nor_destination() {
        let mut r = RebalanceController::new(cfg());
        let mut c = ctl(&[0.9, 0.2, 0.1]);
        // The emptiest node is suspected failed: the move must divert to
        // the best live destination instead.
        c.set_suspected(2, true);
        let plans = r.on_report_round(&c, &frags());
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].from, 0);
        assert_eq!(plans[0].to, 1, "suspected node skipped as destination");
        // A suspected hot node is not drained either.
        let mut r = RebalanceController::new(cfg());
        let mut c = ctl(&[0.9, 0.2, 0.1]);
        c.set_suspected(0, true);
        let plans = r.on_report_round(&c, &frags());
        assert!(
            plans.iter().all(|p| p.from != 0 && p.to != 0),
            "suspected node must not appear in any plan: {plans:?}"
        );
    }

    #[test]
    fn concurrent_plans_apply_virtual_loads() {
        let mut r = RebalanceController::new(RebalanceConfig {
            max_concurrent: 4,
            ..cfg()
        });
        // Two overloaded nodes, two (nearly) empty ones.
        let frags = vec![
            frag(0, 0, 0, 250_000),
            frag(0, 1, 0, 150_000),
            frag(0, 2, 1, 150_000),
            frag(0, 3, 1, 150_000),
            frag(0, 4, 2, 10_000),
        ];
        let c = ctl(&[0.5, 0.5, 0.1, 0.0]);
        let plans = r.on_report_round(&c, &frags);
        assert_eq!(plans.len(), 2, "both overloaded nodes unload at once");
        let mut moved: Vec<u32> = plans.iter().map(|p| p.fragment).collect();
        moved.sort_unstable();
        moved.dedup();
        assert_eq!(moved.len(), 2, "distinct fragments");
        // The virtual loads see both moves applied: no further gap over
        // the threshold, so the next round plans nothing new.
        assert!(r.on_report_round(&c, &frags).is_empty());
        r.migration_finished(plans[0].relation, plans[0].fragment);
        r.migration_finished(plans[1].relation, plans[1].fragment);
        assert_eq!(r.migrations_started(), 2);
    }

    #[test]
    fn concurrent_moves_may_share_the_hot_source() {
        let mut r = RebalanceController::new(RebalanceConfig {
            max_concurrent: 4,
            ..cfg()
        });
        // One node with three fragments, three empty nodes.
        let frags = vec![
            frag(0, 0, 0, 100_000),
            frag(0, 1, 0, 90_000),
            frag(0, 2, 0, 80_000),
        ];
        let c = ctl(&[0.5, 0.3, 0.2, 0.1]);
        let plans = r.on_report_round(&c, &frags);
        assert!(
            plans.len() >= 2,
            "several moves may drain one hot node concurrently: {plans:?}"
        );
        assert!(plans.iter().all(|p| p.from == 0));
        let mut tos: Vec<u32> = plans.iter().map(|p| p.to).collect();
        tos.sort_unstable();
        tos.dedup();
        assert_eq!(tos.len(), plans.len(), "distinct destinations");
    }

    #[test]
    fn moves_never_overshoot_the_gap() {
        // Node 0: one 500k fragment; node 1: 490k. Gap = 10k: moving the
        // 500k fragment would just swap the hotspot, so nothing qualifies.
        let mut r = RebalanceController::new(RebalanceConfig {
            min_imbalance: 0.01,
            ..cfg()
        });
        let frags = vec![frag(0, 0, 0, 500_000), frag(0, 1, 1, 490_000)];
        let c = ctl(&[0.9, 0.1]);
        assert!(r.on_report_round(&c, &frags).is_empty());
    }

    #[test]
    fn pressure_breaks_data_ties() {
        // Equal data on nodes 0 and 1; node 1 is measurably hotter, node
        // 2 is empty: unload node 1 first.
        let frags = vec![
            frag(0, 0, 0, 300_000),
            frag(0, 1, 1, 150_000),
            frag(0, 2, 1, 150_000),
        ];
        let mut r = RebalanceController::new(cfg());
        let c = ctl(&[0.2, 0.8, 0.0]);
        let plans = r.on_report_round(&c, &frags);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].from, 1, "hotter of the two equal-data nodes");
        assert_eq!(plans[0].to, 2);
        assert_eq!(plans[0].tuples, 150_000);
    }

    #[test]
    fn no_plan_below_threshold_and_cooldown_after_flight() {
        let balanced = vec![
            frag(0, 0, 0, 110_000),
            frag(0, 1, 1, 100_000),
            frag(0, 2, 2, 100_000),
        ];
        let c = ctl(&[0.5, 0.4, 0.3]);
        let mut r = RebalanceController::new(cfg());
        assert!(
            r.on_report_round(&c, &balanced).is_empty(),
            "10k gap < half the 103k mean"
        );
        let plans = r.on_report_round(&c, &frags());
        assert_eq!(plans.len(), 1);
        // In flight: nothing until finished, then a cooldown.
        assert!(r.on_report_round(&c, &frags()).is_empty());
        r.migration_finished(plans[0].relation, plans[0].fragment);
        assert!(r.on_report_round(&c, &frags()).is_empty());
        assert!(r.on_report_round(&c, &frags()).is_empty());
        assert!(!r.on_report_round(&c, &frags()).is_empty(), "cooldown over");
    }

    #[test]
    fn respects_migration_cap_and_size_bounds() {
        let c = ctl(&[0.9, 0.2, 0.1]);
        let mut r = RebalanceController::new(RebalanceConfig {
            max_migrations: 1,
            cooldown_rounds: 0,
            ..cfg()
        });
        let plans = r.on_report_round(&c, &frags());
        assert_eq!(plans.len(), 1);
        r.migration_finished(plans[0].relation, plans[0].fragment);
        assert!(r.on_report_round(&c, &frags()).is_empty(), "cap reached");

        let mut r = RebalanceController::new(RebalanceConfig {
            min_fragment_tuples: 1_000_000,
            ..cfg()
        });
        assert!(
            r.on_report_round(&c, &frags()).is_empty(),
            "all fragments below the minimum size"
        );

        let mut r = RebalanceController::new(RebalanceConfig {
            max_fragment_tuples: 300_000,
            ..cfg()
        });
        let plans = r.on_report_round(&c, &frags());
        assert_eq!(
            plans[0].fragment, 1,
            "the 500k fragment is over the cap; the 200k one moves"
        );
    }
}
