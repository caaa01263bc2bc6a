//! Data placement as a first-class, *dynamic* layer.
//!
//! The paper fixes data allocation statically: "To support a static load
//! balancing for scan operations, each PE is assigned the same number of
//! tuples". That ruled out every data-side imbalance scenario. This module
//! replaces the old `Declustering { first_pe, pe_count }` range with an
//! explicit per-fragment assignment:
//!
//! * a [`Fragment`] is the unit of placement — a horizontal slice of a
//!   relation with an individual tuple count and a *current* home PE;
//! * a [`RelationPlacement`] lists a relation's fragments (uniform sizes
//!   reproduce the paper exactly; Zipf-skewed sizes model data skew;
//!   `fragment_count` may exceed the PE range so several fragments share a
//!   home and can later be spread by migration);
//! * the [`PartitionMap`] collects every relation's placement and supports
//!   **online migration** ([`PartitionMap::move_fragment`]): the
//!   rebalancing controller re-homes hot fragments at run time, which is
//!   what DynaHash-style dynamic partition balancing does for shared
//!   nothing systems.
//!
//! Fragment sizes are fixed at construction; migration changes only the
//! home PE, so total tuples per relation are conserved by construction
//! (asserted in debug builds).

use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// One horizontal fragment of a relation: the unit of data placement and
/// of online migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fragment {
    /// Current home PE (mutable via [`PartitionMap::move_fragment`]).
    pub pe: u32,
    /// Tuples stored in this fragment (immutable after construction).
    pub tuples: u64,
}

/// The fragments of one relation, in fragment-index order, with caches
/// derived from them. The caches are rebuilt whenever a fragment moves
/// ([`PartitionMap::move_fragment`]), so every read is O(1) even at
/// thousand-PE scale, where a relation has a thousand fragments.
#[derive(Debug, Clone)]
pub struct RelationPlacement {
    fragments: Vec<Fragment>,
    /// Tuples per page: the page geometry [`RelationPlacement::page_base`]
    /// follows (1 until the catalog registers the relation).
    blocking_factor: u32,
    /// `tuples_by_pe[pe]` = tuples homed at `pe`. OLTP affinity routing
    /// asks [`RelationPlacement::tuples_at`] several times per
    /// transaction.
    tuples_by_pe: Vec<u64>,
    /// Home PE of every fragment, by fragment index: the snapshot a join
    /// takes at placement time, shared instead of copied.
    homes: Rc<[u32]>,
    /// Distinct home PEs in first-appearance order (the scan fan-out set).
    home_pes: Vec<u32>,
    /// Page offset of every fragment within its home PE's page space.
    page_bases: Vec<u64>,
}

/// Equality is over the fragments and page geometry only: everything
/// else is derived from them.
impl PartialEq for RelationPlacement {
    fn eq(&self, other: &Self) -> bool {
        self.fragments == other.fragments && self.blocking_factor == other.blocking_factor
    }
}

impl Eq for RelationPlacement {}

/// Zipf weights `1/i^theta` for `i = 1..=k`, normalized to sum 1.
fn zipf_weights(k: u32, theta: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=k.max(1))
        .map(|i| 1.0 / (i as f64).powf(theta))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

impl RelationPlacement {
    /// The paper's allocation: one fragment per PE of the contiguous range
    /// `[first_pe, first_pe + pe_count)`, equal tuples per fragment with
    /// the remainder spread over the lowest fragment indices.
    pub fn uniform(tuples: u64, first_pe: u32, pe_count: u32) -> RelationPlacement {
        assert!(pe_count >= 1, "placement needs at least one PE");
        let n = pe_count as u64;
        let (base, extra) = (tuples / n, tuples % n);
        RelationPlacement::from_fragments(
            (0..pe_count)
                .map(|i| Fragment {
                    pe: first_pe + i,
                    tuples: base + u64::from((i as u64) < extra),
                })
                .collect(),
        )
    }

    /// Skewed declustering: `fragment_count` fragments with Zipf(`theta`)
    /// sizes (largest first), homed in contiguous **blocks** over the PE
    /// range `[first_pe, first_pe + pe_count)` — fragment `i` lives at
    /// `first_pe + i·pe_count/k`, the way range partitioning clusters
    /// neighbouring (and under skew: similarly hot) key ranges, so the
    /// leading PEs carry the large fragments until migration spreads them.
    ///
    /// `theta = 0` with `fragment_count == pe_count` reproduces
    /// [`RelationPlacement::uniform`] exactly. Sizes are derived by
    /// cumulative rounding for `theta > 0`, so they always sum to `tuples`.
    pub fn skewed(
        tuples: u64,
        first_pe: u32,
        pe_count: u32,
        fragment_count: u32,
        theta: f64,
    ) -> RelationPlacement {
        assert!(pe_count >= 1, "placement needs at least one PE");
        let k = fragment_count.max(1);
        let home = |i: u32| first_pe + ((i as u64 * pe_count as u64) / k as u64) as u32;
        if theta <= 0.0 {
            // Even split over k fragments (remainder to low indices);
            // identical to `uniform` when k == pe_count.
            let n = k as u64;
            let (base, extra) = (tuples / n, tuples % n);
            return RelationPlacement::from_fragments(
                (0..k)
                    .map(|i| Fragment {
                        pe: home(i),
                        tuples: base + u64::from((i as u64) < extra),
                    })
                    .collect(),
            );
        }
        let weights = zipf_weights(k, theta);
        let mut fragments = Vec::with_capacity(k as usize);
        let (mut cum, mut assigned) = (0.0f64, 0u64);
        for (i, w) in weights.iter().enumerate() {
            cum += w;
            let target = ((tuples as f64) * cum).round().min(tuples as f64) as u64;
            let size = target.saturating_sub(assigned);
            assigned += size;
            fragments.push(Fragment {
                pe: home(i as u32),
                tuples: size,
            });
        }
        // Rounding slack (if any) lands on the last fragment.
        if assigned < tuples {
            fragments.last_mut().expect("k >= 1").tuples += tuples - assigned;
        }
        debug_assert_eq!(fragments.iter().map(|f| f.tuples).sum::<u64>(), tuples);
        RelationPlacement::from_fragments(fragments)
    }

    fn from_fragments(fragments: Vec<Fragment>) -> RelationPlacement {
        let mut placement = RelationPlacement {
            fragments,
            blocking_factor: 1,
            tuples_by_pe: Vec::new(),
            homes: Rc::default(),
            home_pes: Vec::new(),
            page_bases: Vec::new(),
        };
        placement.derive();
        placement
    }

    /// Set the tuples per page that page offsets are counted in.
    fn set_blocking_factor(&mut self, blocking_factor: u32) {
        self.blocking_factor = blocking_factor.max(1);
        self.derive();
    }

    /// Rebuild every derived cache from the fragments: O(fragments + PEs).
    fn derive(&mut self) {
        let len = self.fragments.iter().map(|f| f.pe as usize + 1).max();
        let len = len.unwrap_or(0);
        let mut tuples_by_pe = vec![0u64; len];
        let mut pages_by_pe = vec![0u64; len];
        let mut seen = vec![false; len];
        self.home_pes.clear();
        self.page_bases.clear();
        for f in &self.fragments {
            let pe = f.pe as usize;
            if !seen[pe] {
                seen[pe] = true;
                self.home_pes.push(f.pe);
            }
            tuples_by_pe[pe] += f.tuples;
            self.page_bases.push(pages_by_pe[pe]);
            pages_by_pe[pe] += f.tuples.div_ceil(u64::from(self.blocking_factor));
        }
        self.tuples_by_pe = tuples_by_pe;
        self.homes = self.fragments.iter().map(|f| f.pe).collect();
    }

    /// The fragments, in fragment-index order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Is the placement empty? (Never true for constructed placements.)
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// One fragment by index.
    pub fn fragment(&self, index: u32) -> Fragment {
        self.fragments[index as usize]
    }

    /// Total tuples over all fragments (the relation cardinality).
    pub fn total_tuples(&self) -> u64 {
        self.fragments.iter().map(|f| f.tuples).sum()
    }

    /// Tuples currently homed at `pe` (sum over co-resident fragments).
    pub fn tuples_at(&self, pe: u32) -> u64 {
        self.tuples_by_pe.get(pe as usize).copied().unwrap_or(0)
    }

    /// Home PE of every fragment, by fragment index, as one shared
    /// snapshot: a later migration builds a new one and leaves this one
    /// as it is.
    pub fn homes(&self) -> Rc<[u32]> {
        Rc::clone(&self.homes)
    }

    /// Distinct home PEs in first-appearance (fragment-index) order: the
    /// scan fan-out set. For the paper's uniform placement this is the old
    /// contiguous `first_pe..first_pe + pe_count` range, in order.
    pub fn home_pes(&self) -> &[u32] {
        &self.home_pes
    }

    /// Number of distinct home PEs.
    pub fn home_pe_count(&self) -> u32 {
        self.home_pes.len() as u32
    }

    /// Page offset of fragment `index` within its home PE's per-object
    /// page space: co-resident fragments of one relation must not alias
    /// each other's buffer/disk-cache pages. The offset is the page count
    /// of lower-indexed fragments currently homed at the same PE (0 for
    /// the paper's one-fragment-per-PE layout).
    pub fn page_base(&self, index: u32) -> u64 {
        self.page_bases[index as usize]
    }
}

/// The system-wide partition map: one [`RelationPlacement`] per relation,
/// indexed by relation id. Owned by the catalog and registered with the
/// broker (as a per-node tuple-count view) so placement policies can see
/// data locality.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionMap {
    rels: Vec<RelationPlacement>,
}

impl PartitionMap {
    /// An empty map.
    pub fn new() -> PartitionMap {
        PartitionMap::default()
    }

    /// Append the placement of the next relation (ids are dense and in
    /// registration order, mirroring the catalog), whose pages hold
    /// `blocking_factor` tuples.
    pub fn push(&mut self, mut placement: RelationPlacement, blocking_factor: u32) {
        placement.set_blocking_factor(blocking_factor);
        self.rels.push(placement);
    }

    /// Number of relations mapped.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Placement of one relation.
    pub fn relation(&self, rel: u32) -> &RelationPlacement {
        &self.rels[rel as usize]
    }

    /// Re-home fragment `fragment` of relation `rel` to PE `to`,
    /// returning the moved tuple count. Sizes are untouched, so the
    /// relation total is preserved by construction.
    pub fn move_fragment(&mut self, rel: u32, fragment: u32, to: u32) -> u64 {
        let rp = &mut self.rels[rel as usize];
        let f = &mut rp.fragments[fragment as usize];
        f.pe = to;
        let tuples = f.tuples;
        rp.derive();
        tuples
    }

    /// Per-node tuple counts of every relation: `out[rel][pe]`. This is
    /// the data-locality view registered with the resource broker.
    pub fn tuples_by_node(&self, n_pes: u32) -> Vec<Vec<u64>> {
        self.rels
            .iter()
            .map(|rp| {
                let mut v = vec![0u64; n_pes as usize];
                for f in rp.fragments() {
                    if (f.pe as usize) < v.len() {
                        v[f.pe as usize] += f.tuples;
                    }
                }
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_legacy_declustering() {
        // 10 tuples over 3 PEs starting at PE 2: 4/3/3 (remainder low).
        let p = RelationPlacement::uniform(10, 2, 3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.tuples_at(2), 4);
        assert_eq!(p.tuples_at(3), 3);
        assert_eq!(p.tuples_at(4), 3);
        assert_eq!(p.tuples_at(5), 0);
        assert_eq!(p.total_tuples(), 10);
        assert_eq!(p.home_pes(), &[2, 3, 4]);
        assert_eq!(p.home_pe_count(), 3);
    }

    #[test]
    fn skewed_theta_zero_equals_uniform() {
        let u = RelationPlacement::uniform(250_000, 0, 8);
        let s = RelationPlacement::skewed(250_000, 0, 8, 8, 0.0);
        assert_eq!(u, s);
    }

    #[test]
    fn zipf_sizes_sum_to_cardinality() {
        for (tuples, k, theta) in [
            (1_000_000u64, 16u32, 0.5f64),
            (250_000, 8, 1.0),
            (999_999, 7, 0.86),
            (10, 4, 2.0),
            (0, 3, 1.0),
        ] {
            let p = RelationPlacement::skewed(tuples, 0, 4, k, theta);
            assert_eq!(p.total_tuples(), tuples, "k={k} theta={theta}");
            assert_eq!(p.len(), k as usize);
        }
    }

    #[test]
    fn zipf_sizes_are_descending() {
        let p = RelationPlacement::skewed(1_000_000, 0, 10, 10, 0.8);
        let sizes: Vec<u64> = p.fragments().iter().map(|f| f.tuples).collect();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "sizes not descending: {sizes:?}");
        }
        assert!(sizes[0] > sizes[9] * 2, "theta=0.8 is visibly skewed");
    }

    #[test]
    fn more_fragments_than_pes_blocked_homes() {
        let p = RelationPlacement::skewed(100, 4, 3, 7, 0.0);
        let homes: Vec<u32> = p.fragments().iter().map(|f| f.pe).collect();
        assert_eq!(homes, vec![4, 4, 4, 5, 5, 6, 6], "contiguous blocks");
        assert_eq!(p.home_pes(), &[4, 5, 6]);
        assert_eq!(&*p.homes(), &[4, 4, 4, 5, 5, 6, 6]);
        assert_eq!(p.total_tuples(), 100);
    }

    #[test]
    fn migration_preserves_total_tuples() {
        let mut map = PartitionMap::new();
        map.push(RelationPlacement::skewed(250_000, 0, 4, 8, 0.7), 20);
        map.push(RelationPlacement::uniform(1_000_000, 4, 12), 20);
        let before: Vec<u64> = (0..map.len())
            .map(|r| map.relation(r as u32).total_tuples())
            .collect();
        let moved = map.move_fragment(0, 0, 9);
        assert!(moved > 0);
        assert_eq!(map.relation(0).fragment(0).pe, 9);
        let after: Vec<u64> = (0..map.len())
            .map(|r| map.relation(r as u32).total_tuples())
            .collect();
        assert_eq!(before, after, "migration must conserve tuples");
        // The locality view follows the move.
        let by_node = map.tuples_by_node(16);
        assert_eq!(by_node[0][9], moved);
    }

    #[test]
    fn page_base_separates_coresident_fragments() {
        // 3 fragments on 2 PEs: frags 0 and 1 share PE 0 (blocked homes).
        let mut p = RelationPlacement::skewed(120, 0, 2, 3, 0.0);
        p.set_blocking_factor(20);
        assert_eq!(p.fragment(0).pe, 0);
        assert_eq!(p.fragment(1).pe, 0);
        assert_eq!(p.fragment(2).pe, 1);
        assert_eq!(p.page_base(0), 0);
        assert_eq!(p.page_base(1), 2, "offset past fragment 0's pages");
        assert_eq!(p.page_base(2), 0, "first fragment on PE 1");
    }

    #[test]
    fn migration_rebuilds_every_cache() {
        let mut map = PartitionMap::new();
        // 4 fragments of 40 tuples (2 pages each) on PEs 0, 0, 1, 1.
        map.push(RelationPlacement::skewed(160, 0, 2, 4, 0.0), 20);
        let before = map.relation(0).homes();
        assert_eq!(map.relation(0).page_base(1), 2);
        map.move_fragment(0, 1, 1);
        let rp = map.relation(0);
        assert_eq!(&*before, &[0, 0, 1, 1], "an old snapshot stays as taken");
        assert_eq!(&*rp.homes(), &[0, 1, 1, 1]);
        assert_eq!(rp.home_pes(), &[0, 1]);
        assert_eq!((rp.tuples_at(0), rp.tuples_at(1)), (40, 120));
        assert_eq!(
            (0..4).map(|i| rp.page_base(i)).collect::<Vec<_>>(),
            vec![0, 0, 2, 4],
            "fragment 1 is now the first fragment on PE 1"
        );
        map.move_fragment(0, 0, 2);
        let rp = map.relation(0);
        assert_eq!(rp.home_pes(), &[2, 1], "first-appearance order");
        assert_eq!(rp.home_pe_count(), 2);
        assert_eq!(rp.tuples_at(0), 0);
    }

    #[test]
    fn tuples_by_node_aggregates_relations_separately() {
        let mut map = PartitionMap::new();
        map.push(RelationPlacement::uniform(100, 0, 2), 20);
        map.push(RelationPlacement::uniform(60, 1, 2), 20);
        let v = map.tuples_by_node(4);
        assert_eq!(v[0], vec![50, 50, 0, 0]);
        assert_eq!(v[1], vec![0, 30, 30, 0]);
    }
}
