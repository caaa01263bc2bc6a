//! Database catalog: relations, blocking factors, indices — and the
//! dynamic [`PartitionMap`] that says where every fragment currently
//! lives (see [`crate::placement`]).
//!
//! Sizes are modelled analytically (tuple counts, pages via blocking
//! factor); actual tuple payloads are never materialized — the simulator
//! needs cardinalities and page addresses, not bytes.

use crate::placement::{Fragment, PartitionMap, RelationPlacement};
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Identifies a relation in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelationId(pub u32);

/// Index structure associated with a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexKind {
    /// No index: only full relation scans are possible.
    None,
    /// Clustered B+-tree: range selections read a contiguous page run.
    ClusteredBTree,
    /// Non-clustered B+-tree: each qualifying tuple costs a random page
    /// access after the index traversal.
    NonClusteredBTree,
}

/// A relation (base table) in the catalog. Placement lives in the
/// catalog's [`PartitionMap`], not here: where the data sits is run-time
/// state, not schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    pub id: RelationId,
    pub name: String,
    /// Total tuple count over all fragments.
    pub tuples: u64,
    /// Tuple size in bytes.
    pub tuple_bytes: u32,
    /// Tuples per page.
    pub blocking_factor: u32,
    pub index: IndexKind,
    /// Memory-resident partitions skip disk I/O entirely (the simulator
    /// supports main-memory databases, §4).
    pub memory_resident: bool,
    /// Pinned placement: the rebalancer must not migrate this relation's
    /// fragments (affinity-routed OLTP relations assume a local fragment
    /// on every node).
    pub pinned: bool,
}

impl Relation {
    /// Total pages of the relation.
    pub fn pages(&self) -> u64 {
        self.tuples.div_ceil(self.blocking_factor as u64)
    }
}

/// Address of a page for buffer/disk-cache keying: object id ⊕ page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Object identity: relation fragments are `relation_id`; temporary
    /// files use ids allocated from a high range by the engine.
    pub object: u64,
    pub page: u64,
}

impl PageAddr {
    pub fn new(object: u64, page: u64) -> Self {
        PageAddr { object, page }
    }
}

/// The system catalog: schema plus the dynamic partition map.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: Vec<Relation>,
    placement: PartitionMap,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a relation with its placement; ids must be dense and in
    /// order, and the placement must cover the full cardinality.
    pub fn add(&mut self, rel: Relation, placement: RelationPlacement) -> RelationId {
        assert_eq!(
            rel.id.0 as usize,
            self.relations.len(),
            "relation ids must be dense and in registration order"
        );
        assert_eq!(
            placement.total_tuples(),
            rel.tuples,
            "placement must cover the relation cardinality"
        );
        let id = rel.id;
        self.placement.push(placement, rel.blocking_factor);
        self.relations.push(rel);
        id
    }

    pub fn relation(&self, id: RelationId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// The partition map (read access).
    pub fn placement(&self) -> &PartitionMap {
        &self.placement
    }

    /// The partition map (migration updates).
    pub fn placement_mut(&mut self) -> &mut PartitionMap {
        &mut self.placement
    }

    /// Fragments of one relation, in fragment-index order.
    pub fn fragments(&self, id: RelationId) -> &[Fragment] {
        self.placement.relation(id.0).fragments()
    }

    /// One fragment of a relation.
    pub fn fragment(&self, id: RelationId, index: u32) -> Fragment {
        self.placement.relation(id.0).fragment(index)
    }

    /// Pages of one fragment (via the relation's blocking factor).
    pub fn fragment_pages(&self, id: RelationId, index: u32) -> u64 {
        self.fragment(id, index)
            .tuples
            .div_ceil(self.relation(id).blocking_factor as u64)
    }

    /// Page offset of a fragment within its home PE's page space for this
    /// relation (co-resident fragments must not alias buffer pages).
    pub fn fragment_page_base(&self, id: RelationId, index: u32) -> u64 {
        self.placement.relation(id.0).page_base(index)
    }

    /// Home PE of every fragment of `id`, by fragment index: a shared
    /// snapshot that later migrations leave as it is.
    pub fn fragment_homes(&self, id: RelationId) -> Rc<[u32]> {
        self.placement.relation(id.0).homes()
    }

    /// Tuples of `id` currently homed at `pe` (0 if none).
    pub fn tuples_at(&self, id: RelationId, pe: u32) -> u64 {
        self.placement.relation(id.0).tuples_at(pe)
    }

    /// Pages of `id` currently homed at `pe`.
    pub fn pages_at(&self, id: RelationId, pe: u32) -> u64 {
        self.tuples_at(id, pe)
            .div_ceil(self.relation(id).blocking_factor as u64)
    }

    /// Distinct PEs holding fragments of `id` (scan fan-out set), in
    /// fragment order.
    pub fn scan_pes(&self, id: RelationId) -> &[u32] {
        self.placement.relation(id.0).home_pes()
    }

    /// Number of distinct PEs holding fragments of `id`.
    pub fn scan_pe_count(&self, id: RelationId) -> u32 {
        self.placement.relation(id.0).home_pe_count()
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter()
    }

    /// The paper's 20/80 split of `n` PEs between relations A and B.
    pub fn paper_split(num_pes: u32) -> (u32, u32) {
        let a_pes = (num_pes as f64 * 0.2).round().max(1.0) as u32;
        (a_pes, (num_pes - a_pes).max(1))
    }

    /// Builder for the paper's two-relation join database (Fig. 4):
    /// A = 250k tuples over the first 20% of PEs, B = 1M tuples over the
    /// remaining 80%, 400-byte tuples, blocking factor 20, clustered
    /// B+-trees, disk-resident. Uniform one-fragment-per-PE placement.
    pub fn paper_default(num_pes: u32) -> Catalog {
        Catalog::paper_with_placement(num_pes, 0.0, 0)
    }

    /// Like [`Catalog::paper_default`] but with Zipf(`theta`)-skewed
    /// fragment sizes and `fragment_count` fragments per relation
    /// (0 = one fragment per home PE). `theta = 0` and
    /// `fragment_count = 0` reproduce the paper's uniform allocation
    /// exactly.
    pub fn paper_with_placement(num_pes: u32, theta: f64, fragment_count: u32) -> Catalog {
        let (a_pes, b_pes) = Catalog::paper_split(num_pes);
        let frags = |pe_count: u32| {
            if fragment_count == 0 {
                pe_count
            } else {
                fragment_count
            }
        };
        let mut c = Catalog::new();
        c.add(
            Relation {
                id: RelationId(0),
                name: "A".into(),
                tuples: 250_000,
                tuple_bytes: 400,
                blocking_factor: 20,
                index: IndexKind::ClusteredBTree,
                memory_resident: false,
                pinned: false,
            },
            RelationPlacement::skewed(250_000, 0, a_pes, frags(a_pes), theta),
        );
        c.add(
            Relation {
                id: RelationId(1),
                name: "B".into(),
                tuples: 1_000_000,
                tuple_bytes: 400,
                blocking_factor: 20,
                index: IndexKind::ClusteredBTree,
                memory_resident: false,
                pinned: false,
            },
            RelationPlacement::skewed(1_000_000, a_pes, b_pes, frags(b_pes), theta),
        );
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_sizes() {
        let c = Catalog::paper_default(80);
        let a = c.relation(RelationId(0));
        let b = c.relation(RelationId(1));
        // 250k tuples / 20 per page = 12500 pages = 100 MB at 8 KB pages.
        assert_eq!(a.pages(), 12_500);
        assert_eq!(b.pages(), 50_000);
        assert_eq!(c.scan_pe_count(RelationId(0)), 16, "20% of 80 PEs");
        assert_eq!(c.scan_pe_count(RelationId(1)), 64, "80% of 80 PEs");
        assert_eq!(c.tuples_at(RelationId(0), 16), 0);
        assert!(c.tuples_at(RelationId(1), 16) > 0);
    }

    #[test]
    fn fragments_are_uniform() {
        let c = Catalog::paper_default(10);
        let a = RelationId(0);
        // 2 A-nodes × 125000 tuples.
        assert_eq!(c.scan_pe_count(a), 2);
        assert_eq!(c.tuples_at(a, 0), 125_000);
        assert_eq!(c.tuples_at(a, 1), 125_000);
        assert_eq!(c.tuples_at(a, 2), 0);
        let total: u64 = (0..10).map(|pe| c.tuples_at(a, pe)).sum();
        assert_eq!(total, c.relation(a).tuples);
    }

    #[test]
    fn remainder_tuples_spread() {
        let mut c = Catalog::new();
        c.add(
            Relation {
                id: RelationId(0),
                name: "t".into(),
                tuples: 10,
                tuple_bytes: 8,
                blocking_factor: 4,
                index: IndexKind::None,
                memory_resident: false,
                pinned: false,
            },
            RelationPlacement::uniform(10, 0, 3),
        );
        let r = RelationId(0);
        assert_eq!(c.tuples_at(r, 0), 4);
        assert_eq!(c.tuples_at(r, 1), 3);
        assert_eq!(c.tuples_at(r, 2), 3);
        let total: u64 = (0..3).map(|pe| c.tuples_at(r, pe)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn skewed_catalog_conserves_cardinality() {
        let c = Catalog::paper_with_placement(10, 0.8, 0);
        for rel in [RelationId(0), RelationId(1)] {
            let total: u64 = c.fragments(rel).iter().map(|f| f.tuples).sum();
            assert_eq!(total, c.relation(rel).tuples);
        }
        // Skew makes the first B fragment visibly larger than the last.
        let b = c.fragments(RelationId(1));
        assert!(b[0].tuples > b[b.len() - 1].tuples * 2);
    }

    #[test]
    fn minimum_one_a_node() {
        let c = Catalog::paper_default(4);
        let a = c.scan_pe_count(RelationId(0));
        let b = c.scan_pe_count(RelationId(1));
        assert!(a >= 1);
        assert!(b >= 1);
        assert_eq!(a + b, 4);
    }

    #[test]
    fn migration_reflected_in_catalog_views() {
        let mut c = Catalog::paper_default(10);
        let b = RelationId(1);
        let before = c.tuples_at(b, 2);
        assert!(before > 0);
        let moved = c.placement_mut().move_fragment(1, 0, 0);
        assert_eq!(moved, before);
        assert_eq!(c.tuples_at(b, 2), 0);
        assert_eq!(c.tuples_at(b, 0), moved);
        assert!(c.scan_pes(b).contains(&0), "PE 0 now serves B scans");
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn ids_must_be_dense() {
        let mut c = Catalog::new();
        c.add(
            Relation {
                id: RelationId(5),
                name: "x".into(),
                tuples: 1,
                tuple_bytes: 1,
                blocking_factor: 1,
                index: IndexKind::None,
                memory_resident: false,
                pinned: false,
            },
            RelationPlacement::uniform(1, 0, 1),
        );
    }
}
