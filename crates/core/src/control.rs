//! The designated control node.
//!
//! "For this purpose we assume that a designated control node is
//! periodically informed by the processors about their current utilization.
//! During the execution of a query, information on the current CPU and
//! memory utilization is requested from the control node to support dynamic
//! load balancing." (§3)
//!
//! "…the control node maintains the following data structure:
//! `AVAIL-MEMORY [1..n] of (node-ID, free)` … sorted on the amount of free
//! memory" (§3.3)
//!
//! Reports now carry the full per-node [`ResourceVector`] — CPU, memory,
//! disk and egress-link utilization plus the absolute free buffer pages —
//! so every ranking the policies consume (`AVAIL-MEMORY`, by-CPU,
//! by-bottleneck) reads from one uniform store instead of per-resource
//! side tables.
//!
//! Because reports are periodic, the control data is *stale* between
//! reports; the paper counters this with **adaptive feedback**: "the
//! adaptive variation … artificially increases the CPU utilization of a
//! processor selected for join processing at the control node. This avoids
//! that subsequent join queries are assigned to the same processors due to
//! the delayed updating" (LUC), and "the control node's information is
//! directly adapted for newly selected join processors" (LUM).
//!
//! # Incremental order statistics
//!
//! The paper keeps `AVAIL-MEMORY` *sorted* and repairs it on updates; the
//! original port instead re-sorted on every read, which costs
//! O(n log n) + an allocation per placement decision and dominates the
//! control plane beyond a few hundred PEs. This module now maintains one
//! **canonical index** per ranking — ids ordered by `(key, id)` (free
//! memory descending) — repaired when a single node's key changes:
//! binary search on the strict total order locates the old and new
//! slots, one `copy_within` shifts the span between them (`RankIndex`
//! repair, O(log n) probes + O(distance moved), typically a short
//! memmove for the small per-report drifts and feedback bumps).
//!
//! Tie rotation is *not* baked into the stored order: the rotating cursor
//! `rr` changes on every assignment and would force a global re-sort. The
//! canonical `(key, id)` order is rotation-independent, and the cursor is
//! applied at read time: within each maximal run of equal keys, ids `>= rr
//! % n` are emitted before ids `< rr % n`, which is exactly the order the
//! old comparator `key.then(rank(a).cmp(&rank(b)))` produced. Head-only
//! readers get a lazy iterator ([`ControlNode::ranked_util`] and friends,
//! O(log n) to find the first run boundary, O(1) per item); prefix-scanning
//! readers get a materialized view into a reusable scratch buffer
//! ([`ControlNode::avail_memory`], O(n) copy, no sort, no allocation in
//! steady state).
//!
//! The equivalence proptest below checks every ranking against a naive
//! oracle that allocates and fully sorts per read (the original port's
//! behaviour); the `bench` crate's broker micro-bench times the same
//! naive reference next to the indices.

use crate::resources::{ResourceKind, ResourceVector, ResourceWeights};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The CPU + free-memory slice of a node's state: the paper's original
/// §3 control data. Kept as the view most placement policies consume
/// ([`ControlNode::state`] derives it from the full resource vector, with
/// outstanding memory promises already subtracted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// CPU utilization in [0, 1] over the last reporting window.
    pub cpu_util: f64,
    /// Buffer pages a new join working space could claim.
    pub free_pages: u32,
}

/// Where the data currently lives: tuples of each relation per node,
/// `tuples[relation][node]`. Registered with the broker by the simulator
/// (from the catalog's `PartitionMap`) and refreshed after every fragment
/// migration, so placement policies can weigh data locality the way
/// Garofalakis & Ioannidis schedule against site-bound demand.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DataLocality {
    /// Per-relation, per-node tuple counts.
    pub tuples: Vec<Vec<u64>>,
}

impl DataLocality {
    /// Tuples of `rel` homed at `node` (0 for unknown relations/nodes).
    pub fn local_tuples(&self, rel: u32, node: u32) -> u64 {
        self.tuples
            .get(rel as usize)
            .and_then(|v| v.get(node as usize))
            .copied()
            .unwrap_or(0)
    }
}

/// A ranking key with its order fixed by its type, so the binary-search
/// probes of [`RankIndex`] compile to inline compares: utilizations
/// (`f64`) rank ascending, free pages (`u32`) descending. Ties always
/// fall back to ascending id.
trait RankKey: Copy + PartialEq {
    fn rank_cmp(&self, other: &Self) -> Ordering;
}

impl RankKey for f64 {
    #[inline]
    fn rank_cmp(&self, other: &Self) -> Ordering {
        self.partial_cmp(other).expect("finite")
    }
}

impl RankKey for u32 {
    #[inline]
    fn rank_cmp(&self, other: &Self) -> Ordering {
        other.cmp(self)
    }
}

/// One maintained ranking: ids in canonical `(key, id)` order, repaired
/// when one key changes. The strict total order makes every position
/// recoverable by binary search, so no inverse permutation is kept: a
/// repair is two `partition_point`s plus one `copy_within` (memmove),
/// O(log n) compares and O(distance moved) sequential byte moves.
#[derive(Debug, Clone)]
struct RankIndex<K: RankKey> {
    /// Current key per node id.
    key: Vec<K>,
    /// Node ids sorted by `(key, id)`.
    order: Vec<u32>,
}

impl<K: RankKey> RankIndex<K> {
    fn new(n: usize, init: K) -> Self {
        RankIndex {
            key: vec![init; n],
            order: (0..n as u32).collect(),
        }
    }

    /// Does `(key[a], a)` sort strictly before `(k, b)`?
    #[inline]
    fn before(key: &[K], a: u32, k: &K, b: u32) -> bool {
        key[a as usize].rank_cmp(k).then(a.cmp(&b)).is_lt()
    }

    /// Set `id`'s key and move it to its canonical position. Feedback
    /// bumps routinely throw a node across a large slice of the ranking
    /// (the least-loaded node is picked, bumped, and lands above every
    /// tied peer), so the repair must not pay per displaced element: the
    /// old slot and the destination are found by binary search and the
    /// displaced ids are shifted with a single `copy_within` — no inverse
    /// table to patch, no per-position swaps. A key that compares equal
    /// to the old one (AVAIL-MEMORY on an assignment that promises no
    /// pages, or on a node with none left to promise) leaves the order
    /// as it is, with no search.
    fn update(&mut self, id: u32, new_key: K) {
        let RankIndex { key, order } = self;
        let old_key = key[id as usize];
        if old_key.rank_cmp(&new_key).is_eq() {
            key[id as usize] = new_key;
            return;
        }
        let p = order.partition_point(|&o| Self::before(key, o, &old_key, id));
        debug_assert_eq!(order[p], id);
        key[id as usize] = new_key;
        // Does `other` sort strictly before `id` under the new key?
        let before_id = |other: u32| Self::before(key, other, &new_key, id);
        if p > 0 && !before_id(order[p - 1]) {
            // Move left: everything in `order[..p]` is sorted, so the
            // first element not before `id` marks the destination.
            let dest = order[..p].partition_point(|&o| before_id(o));
            order.copy_within(dest..p, dest + 1);
            order[dest] = id;
        } else if p + 1 < order.len() && before_id(order[p + 1]) {
            // Move right: count the successors that now sort before `id`.
            let shifted = order[p + 1..].partition_point(|&o| before_id(o));
            let dest = p + shifted;
            order.copy_within(p + 1..dest + 1, p);
            order[dest] = id;
        }
    }
}

/// Append `order` to `out` with the rotation cursor applied: within each
/// maximal equal-key run, ids `>= s` first, then ids `< s` (each ascending)
/// — the read-time equivalent of sorting by `(key, rank)`.
fn rotate_into<K: Copy + PartialEq>(order: &[u32], key: &[K], s: u32, out: &mut Vec<(u32, K)>) {
    out.clear();
    let mut rest = order;
    while let Some(&head) = rest.first() {
        let k = key[head as usize];
        let end = rest.partition_point(|&id| key[id as usize] == k);
        let (run, tail) = rest.split_at(end);
        let split = run.partition_point(|&id| id < s);
        for &id in run[split..].iter().chain(&run[..split]) {
            out.push((id, key[id as usize]));
        }
        rest = tail;
    }
}

/// Lazy rotated walk over a canonical index: finds each equal-key run by
/// binary search (O(log n)) and yields its members in rotated order, so
/// reading the head of a ranking is O(log n + k) with zero allocation.
pub struct Ranked<'a, K: Copy + PartialEq> {
    key: &'a [K],
    rest: &'a [u32],
    run: &'a [u32],
    s: u32,
    split: usize,
    hi: usize,
    lo: usize,
}

impl<K: Copy + PartialEq> Iterator for Ranked<'_, K> {
    type Item = (u32, K);

    fn next(&mut self) -> Option<(u32, K)> {
        loop {
            if self.hi < self.run.len() {
                let id = self.run[self.hi];
                self.hi += 1;
                return Some((id, self.key[id as usize]));
            }
            if self.lo < self.split {
                let id = self.run[self.lo];
                self.lo += 1;
                return Some((id, self.key[id as usize]));
            }
            let &head = self.rest.first()?;
            let k = self.key[head as usize];
            let end = self.rest.partition_point(|&id| self.key[id as usize] == k);
            let (run, tail) = self.rest.split_at(end);
            self.rest = tail;
            self.run = run;
            self.split = run.partition_point(|&id| id < self.s);
            self.hi = self.split;
            self.lo = 0;
        }
    }
}

/// Control-node view of the whole system.
#[derive(Debug, Clone)]
pub struct ControlNode {
    /// Last reported resource vector per node (CPU feedback bumps mutate
    /// the CPU component in place).
    utils: Vec<ResourceVector>,
    /// Failure-detector mask maintained by the broker's lagged report
    /// channel: suspected nodes are excluded from cluster averages (their
    /// reported state is poisoned by the detector, so including them would
    /// drag every adaptive threshold toward saturation) and skipped by the
    /// rebalancer's endpoint selection. Always all-false on the other
    /// channels.
    suspected: Vec<bool>,
    /// Count of `true` entries in `suspected` (fast-path guard: the
    /// zero-suspicion average must fold exactly like the pre-detector
    /// code).
    n_suspected: u32,
    /// Memory promised to placements whose reservations have not yet
    /// reached the nodes (placement → StartJoin → reserve takes a few
    /// simulated milliseconds). Periodic reports would otherwise erase the
    /// adaptive feedback and double-book the same free pages. Promises
    /// decay geometrically at each report (they become visible in the
    /// reported state once the reservations land).
    promised: Vec<u32>,
    /// LUC feedback: utilization bump per assigned join subquery.
    pub luc_bump: f64,
    /// Per-kind weights of the bottleneck norm (LUB selection, rebalance
    /// pressure tie-breaks), fixed at construction.
    weights: ResourceWeights,
    /// Rotation cursor for tie-breaking: reported state is quantized
    /// (whole pages, windowed utilization), so exact ties are common; a
    /// fixed id-order tie-break would pile every placement onto the
    /// lowest-numbered nodes. The cursor advances with each assignment.
    rr: u32,
    /// Registered data-locality view (fragment tuples per node), when the
    /// simulator has a placement layer to report.
    locality: Option<DataLocality>,
    /// Canonical per-kind utilization rankings (ascending).
    util_idx: [RankIndex<f64>; ResourceKind::COUNT],
    /// Canonical weighted-bottleneck ranking (ascending).
    bott_idx: RankIndex<f64>,
    /// Canonical AVAIL-MEMORY ranking (effective free pages, descending).
    mem_idx: RankIndex<u32>,
    /// Reusable buffers for materialized float/memory views (sized once;
    /// steady-state reads allocate nothing).
    scratch_f: Vec<(u32, f64)>,
    scratch_m: Vec<(u32, u32)>,
}

impl ControlNode {
    /// A control node for `n` PEs with no reports received yet, ranking
    /// bottlenecks under `weights`.
    pub fn new(n: usize, weights: ResourceWeights) -> Self {
        ControlNode {
            utils: vec![ResourceVector::default(); n],
            suspected: vec![false; n],
            n_suspected: 0,
            promised: vec![0; n],
            luc_bump: 0.1,
            weights,
            rr: 0,
            locality: None,
            util_idx: std::array::from_fn(|_| RankIndex::new(n, 0.0)),
            bott_idx: RankIndex::new(n, 0.0),
            mem_idx: RankIndex::new(n, 0),
            scratch_f: Vec::with_capacity(n),
            scratch_m: Vec::with_capacity(n),
        }
    }

    /// Register / refresh the data-locality view.
    pub fn set_locality(&mut self, locality: DataLocality) {
        self.locality = Some(locality);
    }

    /// Nodes sorted descending by local tuples of `rel` (ties rotated like
    /// every other ranking). Data-locality-aware selection uses this to
    /// co-locate join processors with the build input's fragments.
    /// Locality changes wholesale on migration (not per report), so this
    /// cold-path ranking stays sort-per-call.
    pub fn by_local_data(&self, rel: u32) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = (0..self.utils.len() as u32)
            .map(|i| {
                (
                    i,
                    self.locality.as_ref().map_or(0, |l| l.local_tuples(rel, i)),
                )
            })
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(self.rank(a.0).cmp(&self.rank(b.0))));
        v
    }

    /// Tie-break rank: distance of `id` ahead of the rotation cursor.
    fn rank(&self, id: u32) -> u32 {
        let n = self.utils.len() as u32;
        (id + n - self.rr % n) % n
    }

    /// First id of the rotation window: ties emit ids `>= cursor` before
    /// ids `< cursor`, each ascending — identical to ascending [`rank`].
    fn cursor(&self) -> u32 {
        let n = self.utils.len() as u32;
        if n == 0 {
            0
        } else {
            self.rr % n
        }
    }

    /// Number of nodes under control.
    pub fn len(&self) -> usize {
        self.utils.len()
    }

    /// Is the node set empty?
    pub fn is_empty(&self) -> bool {
        self.utils.is_empty()
    }

    /// Free pages net of outstanding promises: the AVAIL-MEMORY key.
    fn effective_free(&self, id: u32) -> u32 {
        self.utils[id as usize]
            .free_pages
            .saturating_sub(self.promised[id as usize])
    }

    /// Periodic report from node `id`: the full resource vector.
    /// Outstanding promises decay by half: reservations placed since the
    /// previous report are now visible in the reported numbers.
    /// All six indices are repaired positionally — O(total displacement),
    /// O(1) per index for the usual small drifts.
    pub fn report(&mut self, id: u32, state: ResourceVector) {
        self.utils[id as usize] = state;
        self.promised[id as usize] /= 2;
        for kind in ResourceKind::ALL {
            self.util_idx[kind.index()].update(id, state.get(kind));
        }
        self.bott_idx.update(id, state.bottleneck(&self.weights));
        self.mem_idx.update(id, self.effective_free(id));
    }

    /// Effective §3 state: reported CPU + free pages minus still-
    /// outstanding promises.
    pub fn state(&self, id: u32) -> NodeState {
        let v = &self.utils[id as usize];
        NodeState {
            cpu_util: v.cpu,
            free_pages: v.free_pages.saturating_sub(self.promised[id as usize]),
        }
    }

    /// Last reported utilization of one resource on one node (with the
    /// adaptive CPU feedback applied; memory promises are visible through
    /// [`ControlNode::state`], not here — a ratio cannot carry them).
    pub fn util(&self, id: u32, kind: ResourceKind) -> f64 {
        self.utils[id as usize].get(kind)
    }

    /// Mark / unmark one node as suspected failed. Maintained by the
    /// broker layer's failure detector; suspects drop out of [`avg`]
    /// (their state is detector-poisoned) and out of the rebalancer's
    /// endpoint selection.
    ///
    /// [`avg`]: ControlNode::avg
    pub fn set_suspected(&mut self, id: u32, suspected: bool) {
        let slot = &mut self.suspected[id as usize];
        if *slot != suspected {
            *slot = suspected;
            if suspected {
                self.n_suspected += 1;
            } else {
                self.n_suspected -= 1;
            }
        }
    }

    /// Is this node currently suspected failed by the broker's detector?
    pub fn is_suspected(&self, id: u32) -> bool {
        self.suspected[id as usize]
    }

    /// Average utilization of one resource over all live nodes (`u_cpu`
    /// of eq. 3.2 generalized to every kind; suspected nodes are masked
    /// out — their poisoned vectors would otherwise drag every adaptive
    /// threshold toward saturation). Deliberately the naive O(n) sum: it
    /// is read a handful of times per control tick and per join arrival,
    /// and a running sum would drift from the exact float total. With no
    /// suspects (the only state outside the lagged channel) this folds
    /// in exactly the pre-detector order.
    pub fn avg(&self, kind: ResourceKind) -> f64 {
        self.live_mean(self.utils.iter().map(|v| v.get(kind)))
    }

    /// Mean of one value per node (in node order) over the nodes not
    /// under suspicion; 0 when none is live. With no suspects this is the
    /// plain sum over all nodes divided by their count.
    pub(crate) fn live_mean(&self, per_node: impl Iterator<Item = f64>) -> f64 {
        if self.utils.is_empty() {
            return 0.0;
        }
        if self.n_suspected == 0 {
            return per_node.sum::<f64>() / self.utils.len() as f64;
        }
        let mut sum = 0.0;
        let mut live = 0u32;
        for (u, &sus) in per_node.zip(&self.suspected) {
            if !sus {
                sum += u;
                live += 1;
            }
        }
        if live == 0 {
            0.0
        } else {
            sum / f64::from(live)
        }
    }

    /// Nodes currently suspected failed.
    pub fn suspected_nodes(&self) -> u32 {
        self.n_suspected
    }

    /// Weighted bottleneck score of one node (`max_k w_k · u_k`).
    pub fn bottleneck(&self, id: u32) -> f64 {
        self.utils[id as usize].bottleneck(&self.weights)
    }

    /// The AVAIL-MEMORY array: `(node-ID, free)` sorted descending on free
    /// memory; ties broken by the rotating cursor (deterministic but not
    /// id-biased). Copies the maintained index into a reusable scratch
    /// buffer — O(n), no sort, no allocation.
    pub fn avail_memory(&mut self) -> &[(u32, u32)] {
        let s = self.cursor();
        rotate_into(
            &self.mem_idx.order,
            &self.mem_idx.key,
            s,
            &mut self.scratch_m,
        );
        &self.scratch_m
    }

    /// Nodes sorted ascending by one resource's utilization, rotating
    /// ties (the per-kind generalization behind LUC and `pmu-<kind>`
    /// diagnostics).
    pub fn by_util(&mut self, kind: ResourceKind) -> &[(u32, f64)] {
        let s = self.cursor();
        let idx = &self.util_idx[kind.index()];
        rotate_into(&idx.order, &idx.key, s, &mut self.scratch_f);
        &self.scratch_f
    }

    /// Nodes sorted ascending by weighted bottleneck score (for LUB),
    /// rotating ties.
    pub fn by_bottleneck(&mut self) -> &[(u32, f64)] {
        let s = self.cursor();
        rotate_into(
            &self.bott_idx.order,
            &self.bott_idx.key,
            s,
            &mut self.scratch_f,
        );
        &self.scratch_f
    }

    /// Lazy rotated walk over one maintained index.
    fn lazy<K: RankKey>(idx: &RankIndex<K>, s: u32) -> Ranked<'_, K> {
        Ranked {
            key: &idx.key,
            rest: &idx.order,
            run: &[],
            s,
            split: 0,
            hi: 0,
            lo: 0,
        }
    }

    /// Head-first walk of one per-kind utilization ranking: O(log n) to
    /// the first item.
    pub fn ranked_util(&mut self, kind: ResourceKind) -> Ranked<'_, f64> {
        let s = self.cursor();
        Self::lazy(&self.util_idx[kind.index()], s)
    }

    /// Head-first walk of the weighted-bottleneck ranking (LUB head).
    pub fn ranked_bottleneck(&mut self) -> Ranked<'_, f64> {
        let s = self.cursor();
        Self::lazy(&self.bott_idx, s)
    }

    /// Head-first walk of AVAIL-MEMORY (most free pages first).
    pub fn ranked_memory(&mut self) -> Ranked<'_, u32> {
        let s = self.cursor();
        Self::lazy(&self.mem_idx, s)
    }

    /// Adaptive feedback after assigning a join to `nodes`, each expected
    /// to take `pages_per_node` of memory: the control copy is updated
    /// immediately so the next placement sees the claim. Only the touched
    /// nodes' index entries are repaired; the cursor advance is free
    /// because rotation is applied at read time.
    pub fn note_assignment(&mut self, nodes: &[u32], pages_per_node: u32) {
        for &id in nodes {
            self.promised[id as usize] = self.promised[id as usize].saturating_add(pages_per_node);
            let s = &mut self.utils[id as usize];
            s.cpu = (s.cpu + self.luc_bump).min(1.0);
            let v = *s;
            self.util_idx[ResourceKind::Cpu.index()].update(id, v.cpu);
            self.bott_idx.update(id, v.bottleneck(&self.weights));
            self.mem_idx.update(id, self.effective_free(id));
        }
        // Rotate tie-breaking so the next placement starts elsewhere.
        self.rr = self.rr.wrapping_add(nodes.len().max(1) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn avail_memory_sorted_desc() {
        let mut c = ctl(&[5, 20, 10], &[0.0, 0.0, 0.0]);
        let am = c.avail_memory();
        assert_eq!(am, vec![(1, 20), (2, 10), (0, 5)]);
    }

    #[test]
    fn avail_memory_ties_by_id() {
        let mut c = ctl(&[7, 7, 7], &[0.0, 0.0, 0.0]);
        let am = c.avail_memory();
        assert_eq!(am, vec![(0, 7), (1, 7), (2, 7)]);
    }

    #[test]
    fn avg_over_all_nodes() {
        let c = ctl(&[0, 0], &[0.2, 0.6]);
        assert!((c.avg(ResourceKind::Cpu) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn by_cpu_sorted_asc() {
        let mut c = ctl(&[0, 0, 0], &[0.9, 0.1, 0.5]);
        let ids: Vec<u32> = c
            .by_util(ResourceKind::Cpu)
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    fn per_kind_reports_flow_into_rankings() {
        let mut c = ControlNode::new(3, Default::default());
        for (i, net) in [0.8, 0.1, 0.4].into_iter().enumerate() {
            c.report(
                i as u32,
                ResourceVector {
                    cpu: 0.2,
                    net,
                    free_pages: 10,
                    ..ResourceVector::default()
                },
            );
        }
        assert!((c.avg(ResourceKind::Net) - 0.4333333333333333).abs() < 1e-12);
        assert_eq!(c.util(2, ResourceKind::Net), 0.4);
        let ids: Vec<u32> = c
            .by_util(ResourceKind::Net)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(ids, vec![1, 2, 0]);
        // The net-hot node also has the worst bottleneck score.
        let by_b: Vec<u32> = c.by_bottleneck().iter().map(|&(i, _)| i).collect();
        assert_eq!(by_b, vec![1, 2, 0]);
        assert!((c.bottleneck(0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_weights_reorder_nodes() {
        let ranked_first = |weights: ResourceWeights| {
            let mut c = ControlNode::new(2, weights);
            c.report(
                0,
                ResourceVector {
                    cpu: 0.5,
                    ..ResourceVector::default()
                },
            );
            c.report(
                1,
                ResourceVector {
                    net: 0.6,
                    ..ResourceVector::default()
                },
            );
            c.by_bottleneck()[0].0
        };
        assert_eq!(
            ranked_first(ResourceWeights::default()),
            0,
            "0.5 cpu beats 0.6 net"
        );
        let discounted = ResourceWeights {
            net: 0.5,
            ..ResourceWeights::default()
        };
        assert_eq!(ranked_first(discounted), 1, "discounted net now wins");
    }

    #[test]
    fn assignment_feedback_adjusts_copy() {
        let mut c = ctl(&[30, 30], &[0.2, 0.2]);
        c.note_assignment(&[0], 10);
        assert_eq!(c.state(0).free_pages, 20);
        assert!((c.state(0).cpu_util - 0.3).abs() < 1e-12);
        assert_eq!(c.state(1).free_pages, 30, "untouched");
        // Saturation.
        c.note_assignment(&[0], 100);
        assert_eq!(c.state(0).free_pages, 0);
        c.luc_bump = 1.0;
        c.note_assignment(&[0], 0);
        assert_eq!(c.state(0).cpu_util, 1.0);
    }

    #[test]
    fn promises_decay_across_reports() {
        let mut c = ctl(&[30], &[0.2]);
        c.note_assignment(&[0], 10);
        assert_eq!(c.state(0).free_pages, 20, "promise hides pages");
        let report = |c: &mut ControlNode| {
            c.report(
                0,
                ResourceVector {
                    cpu: 0.25,
                    free_pages: 28,
                    ..ResourceVector::default()
                },
            )
        };
        // First report: the reservation is partially visible; half the
        // promise is retained against double-booking.
        report(&mut c);
        assert_eq!(c.state(0).free_pages, 23, "28 − 10/2");
        // Second report: promise fully decayed (10/4 = 2 remains... then 1).
        report(&mut c);
        assert_eq!(c.state(0).free_pages, 26, "28 − 2");
        report(&mut c);
        report(&mut c);
        assert_eq!(c.state(0).free_pages, 28, "promise gone");
    }

    #[test]
    fn tie_rotation_preserved_after_assignments() {
        // All nodes tied: the first read is id-ordered; after an
        // assignment of k nodes the window start advances by k.
        let mut c = ctl(&[7, 7, 7, 7], &[0.0; 4]);
        c.luc_bump = 0.0; // keep CPUs tied through assignments
        let ids: Vec<u32> = c.avail_memory().iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        c.note_assignment(&[0, 1], 0);
        let ids: Vec<u32> = c.avail_memory().iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![2, 3, 0, 1], "cursor advanced by 2");
        let cpu_ids: Vec<u32> = c
            .by_util(ResourceKind::Cpu)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(cpu_ids, vec![2, 3, 0, 1], "same rotation on CPU ties");
        c.note_assignment(&[2, 3, 0], 0);
        let ids: Vec<u32> = c.avail_memory().iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![1, 2, 3, 0], "cursor advanced by 3 more");
    }

    #[test]
    fn index_repair_tracks_note_assignment_bumps() {
        let mut c = ctl(&[10, 10, 10], &[0.1, 0.2, 0.3]);
        // Bump node 0's CPU past both others: it must sink to the tail of
        // the by-CPU and bottleneck rankings without a fresh sort.
        c.luc_bump = 0.5;
        c.note_assignment(&[0], 4);
        let ids: Vec<u32> = c
            .by_util(ResourceKind::Cpu)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(ids, vec![1, 2, 0]);
        let ids: Vec<u32> = c.by_bottleneck().iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![1, 2, 0]);
        // And the promised pages moved it down AVAIL-MEMORY.
        let am = c.avail_memory().to_vec();
        assert_eq!(am, vec![(1, 10), (2, 10), (0, 6)]);
    }

    #[test]
    fn ranked_heads_match_materialized_views() {
        let mut c = ctl(&[3, 9, 9, 1], &[0.4, 0.2, 0.2, 0.9]);
        c.note_assignment(&[1], 2);
        let full: Vec<(u32, f64)> = c.by_util(ResourceKind::Cpu).to_vec();
        let lazy: Vec<(u32, f64)> = c.ranked_util(ResourceKind::Cpu).collect();
        assert_eq!(full, lazy);
        let full: Vec<(u32, u32)> = c.avail_memory().to_vec();
        let lazy: Vec<(u32, u32)> = c.ranked_memory().collect();
        assert_eq!(full, lazy);
        let full: Vec<(u32, f64)> = c.by_bottleneck().to_vec();
        let lazy: Vec<(u32, f64)> = c.ranked_bottleneck().collect();
        assert_eq!(full, lazy);
    }

    /// Naive oracle: allocate, then fully sort `key` over the control
    /// node's raw state (not its indices), breaking ties by rotating rank.
    fn sorted<K: Copy>(
        c: &ControlNode,
        key: impl Fn(u32) -> K,
        cmp: fn(&K, &K) -> Ordering,
    ) -> Vec<(u32, K)> {
        let mut v: Vec<(u32, K)> = (0..c.len() as u32).map(|i| (i, key(i))).collect();
        v.sort_by(|a, b| cmp(&a.1, &b.1).then(c.rank(a.0).cmp(&c.rank(b.0))));
        v
    }

    /// The oracle's comparators, written out rather than taken from
    /// [`RankKey`] so the test does not reuse the order it checks.
    fn cmp_f64_asc(a: &f64, b: &f64) -> Ordering {
        a.partial_cmp(b).expect("finite")
    }

    fn cmp_u32_desc(a: &u32, b: &u32) -> Ordering {
        b.cmp(a)
    }

    proptest! {
        /// Drive the control node through an arbitrary interleaving of
        /// reports and assignments; every ranking must stay byte-identical
        /// to the naive sort-per-call oracle. Keys are quantized to
        /// eighths/quarters so exact ties (the rotation-sensitive case)
        /// occur constantly.
        #[test]
        fn prop_incremental_matches_sort_per_call(
            ops in proptest::collection::vec(
                (0u32..7, 0u64..3, 0.0..1.0f64, 0u32..40, 0u32..10),
                1..60,
            ),
        ) {
            let n = 7u32;
            let mut inc = ControlNode::new(n as usize, Default::default());
            for &(id, kind, raw, free, pages) in &ops {
                if kind == 0 {
                    inc.report(id, ResourceVector {
                        cpu: (raw * 8.0).round() / 8.0,
                        net: (raw * 4.0).round() / 4.0,
                        free_pages: free,
                        ..ResourceVector::default()
                    });
                } else {
                    // Assignment of 1–2 nodes derived deterministically.
                    let nodes: &[u32] =
                        if kind == 1 { &[id] } else { &[id, (id + 3) % n] };
                    inc.note_assignment(nodes, pages);
                }
                let mem = sorted(&inc, |i| inc.state(i).free_pages, cmp_u32_desc);
                let cpu = sorted(&inc, |i| inc.util(i, ResourceKind::Cpu), cmp_f64_asc);
                let net = sorted(&inc, |i| inc.util(i, ResourceKind::Net), cmp_f64_asc);
                let bott = sorted(&inc, |i| inc.bottleneck(i), cmp_f64_asc);
                prop_assert_eq!(inc.avail_memory().to_vec(), mem);
                prop_assert_eq!(inc.by_util(ResourceKind::Cpu).to_vec(), cpu);
                prop_assert_eq!(inc.by_util(ResourceKind::Net).to_vec(), net);
                prop_assert_eq!(inc.by_bottleneck().to_vec(), bott.clone());
                let h: Vec<(u32, f64)> = inc.ranked_bottleneck().take(3).collect();
                prop_assert_eq!(h, bott[..3].to_vec());
            }
        }
    }
}
