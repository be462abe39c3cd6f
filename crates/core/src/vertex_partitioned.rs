//! Secondary vertex-partitioned A+ indexes: 1-hop views (§III-B1).
//!
//! A vertex-partitioned index materializes a 1-hop view — a selection over
//! edges with predicates on the edge and/or its endpoint vertices — and
//! partitions it like a primary index: by vertex ID, then by the index's
//! own nested criteria, sorted by its own criteria. Physically the lists
//! are **offset lists** (§III-B3) in an [`OffsetCsr`], whose slot bounds
//! come from one of two places, chosen once at build:
//!
//! * the primary's ([`Levels::Primary`]) — the view has *no predicate* and
//!   the *same partitioning* as the primary index; only the sort differs.
//!   The index then reuses the primary's CSR partitioning levels outright
//!   and stores nothing but one re-sorted offset array per page (the
//!   paper's VPt configuration: 1.08× total memory for a full second
//!   index).
//! * its own ([`Levels::Own`]) — predicates or different partitioning mean
//!   the innermost lists differ from the primary's, so the index stores its
//!   own (smaller) partitioning levels plus offset lists (the paper's
//!   LargeUSDTrnx example and the VPc configuration).

use aplus_common::{EdgeId, VertexId};
use aplus_graph::Graph;

use crate::error::IndexError;
use crate::list::OffsetList;
use crate::offsets::{Levels, OffsetCsr, OffsetEntry};
use crate::primary::PrimaryIndex;
use crate::spec::{Direction, IndexSpec};
use crate::view::OneHopView;

/// A secondary vertex-partitioned A+ index in one direction.
#[derive(Debug, Clone)]
pub struct VertexPartitionedIndex {
    name: String,
    direction: Direction,
    view: OneHopView,
    spec: IndexSpec,
    widths: Vec<u32>,
    /// Whether the slot bounds are the primary's (§III-B3 case 1).
    shares_levels: bool,
    csr: OffsetCsr,
}

impl VertexPartitionedIndex {
    /// Builds the index over the current graph, choosing the levels per
    /// §III-B3: the primary's iff the view has no predicate and the
    /// partitioning equals the primary's.
    pub fn build(
        graph: &Graph,
        primary: &PrimaryIndex,
        name: &str,
        direction: Direction,
        view: OneHopView,
        spec: IndexSpec,
    ) -> Result<Self, IndexError> {
        assert_eq!(
            primary.direction(),
            direction,
            "primary index direction must match"
        );
        spec.validate(graph.catalog())?;
        let pcsr = primary.csr();
        let shares_levels =
            view.predicate.is_trivial() && spec.partitioning == primary.spec().partitioning;
        let (owner_count, widths, levels) = if shares_levels {
            let widths = primary.widths().to_vec();
            (pcsr.owner_count(), widths, Levels::Primary(pcsr))
        } else {
            let widths = spec.snapshot_widths(graph.catalog());
            (graph.vertex_count(), widths, Levels::Own)
        };
        let csr = OffsetCsr::build(
            owner_count,
            widths.clone(),
            levels,
            |g| pcsr.max_region_len_in_group(g) as u64 + 1,
            generator(graph, primary, &view, &spec, &widths, levels),
        );
        Ok(Self {
            name: name.to_owned(),
            direction,
            view,
            spec,
            widths,
            shares_levels,
            csr,
        })
    }

    /// Index name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Index direction.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The 1-hop view definition.
    #[must_use]
    pub fn view(&self) -> &OneHopView {
        &self.view
    }

    /// The index spec (partitioning + sort).
    #[must_use]
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Whether the index shares the primary's partitioning levels.
    #[must_use]
    pub fn shares_levels(&self) -> bool {
        self.shares_levels
    }

    /// The levels this index's slot bounds come from.
    fn levels<'p>(&self, primary: &'p PrimaryIndex) -> Levels<'p> {
        if self.shares_levels {
            Levels::Primary(primary.csr())
        } else {
            Levels::Own
        }
    }

    /// The partition widths in effect (primary's when shared).
    #[must_use]
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Whether lists under this prefix come out globally ordered by this
    /// index's sort criteria (the prefix pins at most one non-empty slot).
    #[must_use]
    pub fn range_sorted(&self, primary: &PrimaryIndex, prefix: &[u32]) -> bool {
        if self.shares_levels {
            // Shared levels mirror the primary's slot occupancy exactly.
            primary.range_sorted(prefix)
        } else {
            self.csr.span_sorted(prefix)
        }
    }

    /// Number of indexed edges. The count is the index's own; `primary` is
    /// not read.
    #[must_use]
    pub fn entry_count(&self, primary: &PrimaryIndex) -> usize {
        let _ = primary;
        self.csr.entry_count()
    }

    /// The indexed adjacency list of `owner` under a partition-code
    /// prefix: lazy over the owner's primary region when the range is
    /// clean, already spliced when it has buffered entries or tombstones.
    #[must_use]
    pub fn list<'a>(
        &'a self,
        primary: &'a PrimaryIndex,
        owner: VertexId,
        prefix: &[u32],
    ) -> OffsetList<'a> {
        let csr = primary.csr();
        if owner.index() >= csr.owner_count() {
            return OffsetList::empty();
        }
        let region = csr.region(owner.index());
        self.csr
            .list(self.levels(primary), owner.index(), prefix, region)
    }

    /// Inserts edge `e` if it satisfies the view predicate. The caller must
    /// have inserted it into the primary index already (it may still be in
    /// the primary's buffer; this entry stays ID-based until rebuild).
    pub fn insert_edge(&mut self, graph: &Graph, primary: &PrimaryIndex, e: EdgeId) {
        let (src, dst) = graph.edge_endpoints(e).expect("edge exists");
        if !self.view.predicate.eval_one_hop(graph, e, src, dst) {
            return;
        }
        let owner = self.direction.owner(src, dst).index();
        let nbr = self.direction.neighbour(src, dst);
        let levels = self.levels(primary);
        let pcsr = primary.csr();
        if owner >= self.csr.owner_count() {
            self.csr.grow_owners(levels, graph.vertex_count(), |g| {
                pcsr.max_region_len_in_group(g) as u64 + 1
            });
        }
        let Some(slot) = self.spec.slot_of(graph, &self.widths, e, nbr) else {
            return; // domain grew; the store rebuilds
        };
        let sort = self.spec.sort_val(graph, e, nbr);
        let spec = &self.spec;
        self.csr
            .insert(levels, owner, slot, sort, e.raw(), nbr.raw(), |off| {
                let (edge, n) = pcsr.region_entry(owner, off as usize);
                spec.sort_val(graph, edge, n)
            });
    }

    /// Removes edge `e` (tombstone or buffered removal).
    pub fn delete_edge(&mut self, graph: &Graph, primary: &PrimaryIndex, e: EdgeId) -> bool {
        let (src, dst) = graph.edge_endpoints(e).expect("edge exists");
        let owner = self.direction.owner(src, dst).index();
        let region = primary.csr().region(owner);
        self.csr
            .delete(self.levels(primary), owner, e.raw(), region)
    }

    /// Rebuilds the page of one 64-vertex group after the primary's page
    /// merged (offsets into its regions went stale).
    pub fn rebuild_group(&mut self, graph: &Graph, primary: &PrimaryIndex, group: usize) {
        let levels = self.levels(primary);
        let max_off = primary.csr().max_region_len_in_group(group) as u64 + 1;
        let gen = generator(graph, primary, &self.view, &self.spec, &self.widths, levels);
        self.csr.rebuild_group(levels, group, max_off, gen);
    }

    /// Whether any page buffer exceeds `threshold` entries.
    #[must_use]
    pub fn any_buffer_full(&self, threshold: usize) -> bool {
        (0..self.csr.page_count()).any(|g| self.csr.buffer_len(g) >= threshold)
    }

    /// Heap bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }

    /// Bytes of the packed offset lists only, excluding partitioning
    /// levels and tombstone bitmaps — the quantity §III-B3 compares against
    /// 12-byte ID pairs and one-bit bitmap entries.
    #[must_use]
    pub fn list_bytes(&self) -> usize {
        self.csr.offset_bytes()
    }

    /// Indexes of the pages `self` does not share with `other`.
    #[cfg(test)]
    pub(crate) fn unshared_pages(&self, other: &Self) -> Vec<usize> {
        self.csr.unshared_pages(&other.csr)
    }
}

/// Appends one owner's entries to a buffer (see [`OffsetCsr::build`]).
type EntryGen<'a> = Box<dyn FnMut(u32, &mut Vec<OffsetEntry>) + 'a>;

/// The one entry generator of build and rebuild, chosen once per call by
/// `levels`.
///
/// Under the primary's levels it yields every merged position of the
/// owner's region, tombstoned or not, tagged with the primary's slot, so
/// the slot bounds the page builder derives are the primary page's.
/// Under its own levels it yields the live region entries the view
/// accepts, slotted under the index's own widths.
fn generator<'a>(
    graph: &'a Graph,
    primary: &'a PrimaryIndex,
    view: &'a OneHopView,
    spec: &'a IndexSpec,
    widths: &'a [u32],
    levels: Levels<'a>,
) -> EntryGen<'a> {
    let pcsr = primary.csr();
    if let Levels::Primary(_) = levels {
        return Box::new(move |owner, out| {
            let owner = owner as usize;
            let region = pcsr.region(owner);
            let start = pcsr.region_bounds(owner).1.start;
            for slot in 0..pcsr.slots_per_owner() {
                out.extend(pcsr.slot_bounds(owner, slot).map(|pos| {
                    let off = pos - start;
                    let (edge, nbr) = (EdgeId(region.edges[off]), VertexId(region.nbrs[off]));
                    OffsetEntry {
                        slot,
                        sort: spec.sort_val(graph, edge, nbr),
                        offset: u32::try_from(off).expect("region offsets fit u32"),
                    }
                }));
            }
        });
    }
    let direction = primary.direction();
    Box::new(move |owner, out| {
        let owner_v = VertexId(owner);
        let entries = pcsr.region_entries(owner as usize);
        out.extend(entries.filter_map(|(off, edge, nbr, deleted)| {
            if deleted {
                return None;
            }
            let (src, dst) = match direction {
                Direction::Fwd => (owner_v, nbr),
                Direction::Bwd => (nbr, owner_v),
            };
            if !view.predicate.eval_one_hop(graph, edge, src, dst) {
                return None;
            }
            Some(OffsetEntry {
                slot: spec.slot_of(graph, widths, edge, nbr)?,
                sort: spec.sort_val(graph, edge, nbr),
                offset: u32::try_from(off).expect("region offsets fit u32"),
            })
        }));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::PrimaryIndexes;
    use crate::spec::SortKey;
    use crate::view::{CmpOp, ViewComparison, ViewEntity, ViewPredicate};
    use aplus_datagen::build_financial_graph;
    use aplus_graph::PropertyEntity;

    fn fixture() -> (
        aplus_graph::Graph,
        PrimaryIndexes,
        aplus_datagen::FinancialGraph,
    ) {
        let fg = build_financial_graph();
        let g = fg.graph.clone();
        let p = PrimaryIndexes::build_default(&g).unwrap();
        (g, p, fg)
    }

    #[test]
    fn shared_layout_chosen_without_predicate() {
        let (g, p, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let spec = IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]);
        let vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "VPt",
            Direction::Fwd,
            OneHopView::new(ViewPredicate::always_true()).unwrap(),
            spec,
        )
        .unwrap();
        assert!(vp.shares_levels());
        // All 25 edges indexed.
        assert_eq!(vp.entry_count(p.index(Direction::Fwd)), 25);
        // v1's Wire list sorted by date: t4 (4), t17 (17), t20 (20).
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        let l = vp.list(p.index(Direction::Fwd), fg.account(1), &[wire]);
        let dates: Vec<i64> = l
            .iter()
            .map(|(e, _)| g.edge_prop(e, date).unwrap())
            .collect();
        assert_eq!(dates, vec![4, 17, 20]);
    }

    #[test]
    fn own_layout_chosen_with_predicate() {
        let (g, p, fg) = fixture();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        // View: edges with amt > 60.
        let view = OneHopView::new(ViewPredicate::all_of(vec![ViewComparison::prop_const(
            ViewEntity::AdjEdge,
            amt,
            CmpOp::Gt,
            60,
        )]))
        .unwrap();
        let vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "big",
            Direction::Fwd,
            view,
            IndexSpec::default_primary(),
        )
        .unwrap();
        assert!(!vp.shares_levels());
        // v1 fwd edges with amt > 60: t4 (200), t20 (80). Both Wire.
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        let l = vp.list(p.index(Direction::Fwd), fg.account(1), &[wire]);
        assert_eq!(l.len(), 2);
        let dd = u32::from(g.catalog().edge_label("DD").unwrap().raw());
        assert_eq!(
            vp.list(p.index(Direction::Fwd), fg.account(1), &[dd]).len(),
            0
        );
    }

    #[test]
    fn offset_lists_deref_to_primary_ids() {
        let (g, p, fg) = fixture();
        let vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "mirror",
            Direction::Fwd,
            OneHopView::new(ViewPredicate::always_true()).unwrap(),
            IndexSpec::default_primary(),
        )
        .unwrap();
        // Same sort and partitioning as primary: lists must be identical.
        for v in g.vertices() {
            let pl: Vec<_> = p.index(Direction::Fwd).region(v).iter().collect();
            let sl: Vec<_> = vp.list(p.index(Direction::Fwd), v, &[]).iter().collect();
            assert_eq!(pl, sl, "vertex {v}");
        }
        let _ = fg;
    }

    #[test]
    fn shared_memory_is_much_smaller_than_primary() {
        let (g, p, _) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "VPt",
            Direction::Fwd,
            OneHopView::new(ViewPredicate::always_true()).unwrap(),
            IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
        )
        .unwrap();
        // 1 byte per edge (max region 9 < 256) vs 12 bytes per edge in ID
        // lists; with page overheads the ratio is still large.
        assert!(
            vp.memory_bytes() * 3 < p.index(Direction::Fwd).memory_bytes(),
            "offsets {} vs primary {}",
            vp.memory_bytes(),
            p.index(Direction::Fwd).memory_bytes()
        );
    }

    #[test]
    fn insert_visible_before_rebuild() {
        let (mut g, mut p, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let mut vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "VPt",
            Direction::Fwd,
            OneHopView::new(ViewPredicate::always_true()).unwrap(),
            IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
        )
        .unwrap();
        let e = g.add_edge(fg.accounts[0], fg.accounts[2], "W").unwrap();
        g.set_edge_prop(e, date, aplus_graph::Value::Int(10))
            .unwrap();
        p.index_mut(Direction::Fwd).insert_edge(&g, e);
        vp.insert_edge(&g, p.index(Direction::Fwd), e);
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        let l = vp.list(p.index(Direction::Fwd), fg.account(1), &[wire]);
        let dates: Vec<i64> = l
            .iter()
            .map(|(e, _)| g.edge_prop(e, date).unwrap())
            .collect();
        assert_eq!(dates, vec![4, 10, 17, 20], "new edge sorted into place");
    }

    #[test]
    fn rebuild_after_primary_merge_restores_offsets() {
        let (mut g, mut p, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let mut vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "VPt",
            Direction::Fwd,
            OneHopView::new(ViewPredicate::always_true()).unwrap(),
            IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
        )
        .unwrap();
        let e = g.add_edge(fg.accounts[0], fg.accounts[2], "W").unwrap();
        g.set_edge_prop(e, date, aplus_graph::Value::Int(10))
            .unwrap();
        p.index_mut(Direction::Fwd).insert_edge(&g, e);
        vp.insert_edge(&g, p.index(Direction::Fwd), e);
        // Merge the primary page, then rebuild the secondary page.
        let changed = p.index_mut(Direction::Fwd).csr_mut().merge_all();
        assert_eq!(changed, vec![0]);
        vp.rebuild_group(&g, p.index(Direction::Fwd), 0);
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        let l = vp.list(p.index(Direction::Fwd), fg.account(1), &[wire]);
        let dates: Vec<i64> = l
            .iter()
            .map(|(e, _)| g.edge_prop(e, date).unwrap())
            .collect();
        assert_eq!(dates, vec![4, 10, 17, 20]);
        assert_eq!(vp.entry_count(p.index(Direction::Fwd)), 26);
    }

    /// Between the primary's page merge and this index's rebuild, the
    /// primary's slot bounds run past the shared page's offsets: an insert
    /// searches only the offsets the page holds, and the rebuild restores
    /// the list.
    #[test]
    fn shared_insert_between_primary_merge_and_rebuild() {
        let mut g = aplus_graph::Graph::new();
        g.register_property(PropertyEntity::Edge, "t", aplus_graph::PropertyKind::Int)
            .unwrap();
        let t = g.catalog().property(PropertyEntity::Edge, "t").unwrap();
        let (a, b) = (g.add_vertex("V"), g.add_vertex("V"));
        let add = |g: &mut aplus_graph::Graph, time| {
            let e = g.add_edge(a, b, "E").unwrap();
            g.set_edge_prop(e, t, aplus_graph::Value::Int(time))
                .unwrap();
            e
        };
        add(&mut g, 30);
        add(&mut g, 10);
        let mut p = PrimaryIndexes::build_default(&g).unwrap();
        let spec = IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(t)]);
        let view = OneHopView::new(ViewPredicate::always_true()).unwrap();
        let mut vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "T",
            Direction::Fwd,
            view,
            spec,
        )
        .unwrap();
        assert!(vp.shares_levels());
        for time in [20, 40] {
            let e = add(&mut g, time);
            p.index_mut(Direction::Fwd).insert_edge(&g, e);
            vp.insert_edge(&g, p.index(Direction::Fwd), e);
            p.index_mut(Direction::Fwd).csr_mut().merge_all();
        }
        vp.rebuild_group(&g, p.index(Direction::Fwd), 0);
        let times: Vec<i64> = vp
            .list(p.index(Direction::Fwd), a, &[])
            .iter()
            .map(|(e, _)| g.edge_prop(e, t).unwrap())
            .collect();
        assert_eq!(times, vec![10, 20, 30, 40]);
    }

    #[test]
    fn delete_edge_removes_from_lists() {
        let (g, mut p, fg) = fixture();
        let mut vp = VertexPartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "mirror",
            Direction::Fwd,
            OneHopView::new(ViewPredicate::always_true()).unwrap(),
            IndexSpec::default_primary(),
        )
        .unwrap();
        let t4 = fg.transfer(4);
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        assert!(vp.delete_edge(&g, p.index(Direction::Fwd), t4));
        // The index's own tombstone alone already dirties the range.
        let l = vp.list(p.index(Direction::Fwd), fg.account(1), &[wire]);
        assert!(matches!(l, OffsetList::Dirty { .. }) && l.len() == 2);
        p.index_mut(Direction::Fwd).delete_edge(&g, t4);
        let l = vp.list(p.index(Direction::Fwd), fg.account(1), &[wire]);
        assert_eq!(l.len(), 2);
        assert!(l.iter().all(|(e, _)| e != t4));
    }
}
