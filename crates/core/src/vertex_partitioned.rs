//! Secondary vertex-partitioned A+ indexes: 1-hop views (§III-B1).
//!
//! A vertex-partitioned index materializes a 1-hop view — a selection over
//! edges with predicates on the edge and/or its endpoint vertices — and
//! partitions it like a primary index: by vertex ID, then by the index's
//! own nested criteria, sorted by its own criteria. Physically the lists
//! are **offset lists** (§III-B3) in one of two layouts:
//!
//! * [`VpStorage::Shared`] — the view has *no predicate* and the *same
//!   partitioning* as the primary index; only the sort differs. The index
//!   then reuses the primary's CSR partitioning levels outright and stores
//!   nothing but one re-sorted offset array per page (the paper's VPt
//!   configuration: 1.08× total memory for a full second index).
//! * [`VpStorage::Own`] — predicates or different partitioning mean the
//!   innermost lists differ from the primary's, so the index stores its own
//!   (smaller) partitioning levels plus offset lists (the paper's
//!   LargeUSDTrnx example and the VPc configuration).
//!
//! Both layouts share their pages behind `Arc`s: a write unshares only the
//! page it changes.

use std::sync::Arc;

use aplus_common::{byte_width_for, Bitmap, EdgeId, PackedUints, VertexId, GROUP_SIZE};
use aplus_graph::Graph;

use crate::error::IndexError;
use crate::list::{OffsetList, Splice};
use crate::nested_csr::{NestedCsr, Region};
use crate::offsets::{OffsetCsr, OffsetEntry};
use crate::primary::PrimaryIndex;
use crate::sortkey::SortVal;
use crate::spec::{Direction, IndexSpec};
use crate::view::OneHopView;

/// A buffered ID-based entry for the shared-levels layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SharedBuffered {
    owner_in_page: u32,
    slot: u32,
    sort: SortVal,
    edge: u64,
    nbr: u32,
    /// Secondary position (absolute within page) this sorts before.
    merge_pos: u32,
}

/// One page of the shared-levels layout: a packed offset array positionally
/// aligned with the primary page's merged ID arrays (same slot boundaries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SharedPage {
    offsets: PackedUints,
    deleted: Bitmap,
    buffer: Vec<SharedBuffered>,
}

impl SharedPage {
    /// Live entries: merged minus tombstoned, plus buffered.
    fn entry_count(&self) -> usize {
        self.offsets.len() - self.deleted.count_ones() + self.buffer.len()
    }
}

/// Shared-levels offset storage.
#[derive(Debug, Clone, Default)]
pub struct SharedOffsets {
    pages: Vec<Arc<SharedPage>>,
    /// Live entries across all pages, kept by every mutation so the
    /// optimizer's size estimate reads it without touching the pages.
    entry_count: usize,
}

/// Physical layout of a vertex-partitioned index.
#[derive(Debug, Clone)]
pub enum VpStorage {
    /// Reuses the primary's partitioning levels (§III-B3 case 1).
    Shared(SharedOffsets),
    /// Own partitioning levels + offset lists (§III-B3 case 2).
    Own(OffsetCsr),
}

/// A secondary vertex-partitioned A+ index in one direction.
#[derive(Debug, Clone)]
pub struct VertexPartitionedIndex {
    name: String,
    direction: Direction,
    view: OneHopView,
    spec: IndexSpec,
    widths: Vec<u32>,
    storage: VpStorage,
}

impl VertexPartitionedIndex {
    /// Builds the index over the current graph, choosing the storage layout
    /// per §III-B3: shared levels iff the view has no predicate and the
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
        let shares_levels =
            view.predicate.is_trivial() && spec.partitioning == primary.spec().partitioning;
        if shares_levels {
            let storage = SharedOffsets::build(graph, primary, &spec);
            Ok(Self {
                name: name.to_owned(),
                direction,
                view,
                widths: primary.widths().to_vec(),
                spec,
                storage: VpStorage::Shared(storage),
            })
        } else {
            let widths = spec.snapshot_widths(graph.catalog());
            let csr = build_own(graph, primary, &view, &spec, &widths);
            Ok(Self {
                name: name.to_owned(),
                direction,
                view,
                spec,
                widths,
                storage: VpStorage::Own(csr),
            })
        }
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
        matches!(self.storage, VpStorage::Shared(_))
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
        match &self.storage {
            // Shared layout mirrors the primary's slot occupancy exactly.
            VpStorage::Shared(_) => primary.range_sorted(prefix),
            VpStorage::Own(csr) => csr.span_sorted(prefix),
        }
    }

    /// Number of indexed edges.
    #[must_use]
    pub fn entry_count(&self, primary: &PrimaryIndex) -> usize {
        match &self.storage {
            VpStorage::Shared(s) => s.entry_count(),
            VpStorage::Own(csr) => {
                let _ = primary;
                csr.entry_count()
            }
        }
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
        match &self.storage {
            VpStorage::Shared(s) => s.list(csr, owner.index(), prefix, region),
            VpStorage::Own(own) => own.list(owner.index(), prefix, region),
        }
    }

    /// Inserts edge `e` if it satisfies the view predicate. The caller must
    /// have inserted it into the primary index already (it may still be in
    /// the primary's buffer; this entry stays ID-based until rebuild).
    pub fn insert_edge(&mut self, graph: &Graph, primary: &PrimaryIndex, e: EdgeId) {
        let (src, dst) = graph.edge_endpoints(e).expect("edge exists");
        if !self.view.predicate.eval_one_hop(graph, e, src, dst) {
            return;
        }
        let owner = self.direction.owner(src, dst);
        let nbr = self.direction.neighbour(src, dst);
        let sort = self.spec.sort_val(graph, e, nbr);
        match &mut self.storage {
            VpStorage::Shared(s) => {
                // Shared layout: the slot comes from the primary's spec
                // (identical partitioning by construction).
                let Some(slot) = primary.spec().slot_of(graph, primary.widths(), e, nbr) else {
                    return; // domain grew; store triggers a rebuild
                };
                s.insert(
                    graph,
                    primary,
                    &self.spec,
                    owner,
                    slot,
                    sort,
                    e.raw(),
                    nbr.raw(),
                );
            }
            VpStorage::Own(csr) => {
                if owner.index() >= csr.owner_count() {
                    let pcsr = primary.csr();
                    csr.grow_owners(graph.vertex_count(), |g| {
                        pcsr.max_region_len_in_group(g) as u64 + 1
                    });
                }
                let Some(slot) = self.spec.slot_of(graph, &self.widths, e, nbr) else {
                    return;
                };
                let spec = &self.spec;
                csr.insert(owner.index(), slot, sort, e.raw(), nbr.raw(), |off| {
                    let (edge, n) = primary.csr().region_entry(owner.index(), off as usize);
                    spec.sort_val(graph, edge, n)
                });
            }
        }
    }

    /// Removes edge `e` (tombstone or buffered removal).
    pub fn delete_edge(&mut self, graph: &Graph, primary: &PrimaryIndex, e: EdgeId) -> bool {
        let (src, dst) = graph.edge_endpoints(e).expect("edge exists");
        let owner = self.direction.owner(src, dst);
        match &mut self.storage {
            VpStorage::Shared(s) => s.delete(primary, owner, e.raw()),
            VpStorage::Own(csr) => {
                csr.delete(owner.index(), e.raw(), primary.csr().region(owner.index()))
            }
        }
    }

    /// Rebuilds the pages for one 64-vertex group after the primary's page
    /// merged (offsets into its regions went stale).
    pub fn rebuild_group(&mut self, graph: &Graph, primary: &PrimaryIndex, group: usize) {
        match &mut self.storage {
            VpStorage::Shared(s) => s.rebuild_group(graph, primary, &self.spec, group),
            VpStorage::Own(csr) => {
                let max_off = primary.csr().max_region_len_in_group(group) as u64 + 1;
                let view = &self.view;
                let spec = &self.spec;
                let widths = &self.widths;
                let dir = self.direction;
                csr.rebuild_group(group, max_off, |owner| {
                    own_entries_for_owner(graph, primary, view, spec, widths, dir, owner)
                        .map(|e| (e.slot, e.sort, e.offset))
                        .collect()
                });
            }
        }
    }

    /// Whether any page buffer exceeds `threshold` entries.
    #[must_use]
    pub fn any_buffer_full(&self, threshold: usize) -> bool {
        match &self.storage {
            VpStorage::Shared(s) => s.pages.iter().any(|p| p.buffer.len() >= threshold),
            VpStorage::Own(csr) => (0..csr.page_count()).any(|g| csr.buffer_len(g) >= threshold),
        }
    }

    /// Heap bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        match &self.storage {
            VpStorage::Shared(s) => s.memory_bytes(),
            VpStorage::Own(csr) => csr.memory_bytes(),
        }
    }

    /// Bytes of the packed offset lists only, excluding partitioning
    /// levels and tombstone bitmaps — the quantity §III-B3 compares against
    /// 12-byte ID pairs and one-bit bitmap entries.
    #[must_use]
    pub fn list_bytes(&self) -> usize {
        match &self.storage {
            VpStorage::Shared(s) => s.pages.iter().map(|p| p.offsets.memory_bytes()).sum(),
            VpStorage::Own(csr) => csr.offset_bytes(),
        }
    }
}

/// Generates the own-storage entries of one owner by scanning its primary
/// region and applying the view predicate.
fn own_entries_for_owner<'a>(
    graph: &'a Graph,
    primary: &'a PrimaryIndex,
    view: &'a OneHopView,
    spec: &'a IndexSpec,
    widths: &'a [u32],
    direction: Direction,
    owner: u32,
) -> impl Iterator<Item = OffsetEntry> + 'a {
    let owner_v = VertexId(owner);
    primary
        .csr()
        .region_entries(owner as usize)
        .filter_map(move |(off, edge, nbr, deleted)| {
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
            let slot = spec.slot_of(graph, widths, edge, nbr)?;
            Some(OffsetEntry {
                owner,
                slot,
                sort: spec.sort_val(graph, edge, nbr),
                offset: u32::try_from(off).expect("region offsets fit u32"),
            })
        })
}

fn build_own(
    graph: &Graph,
    primary: &PrimaryIndex,
    view: &OneHopView,
    spec: &IndexSpec,
    widths: &[u32],
) -> OffsetCsr {
    let mut entries = Vec::new();
    for owner in 0..graph.vertex_count() as u32 {
        entries.extend(own_entries_for_owner(
            graph,
            primary,
            view,
            spec,
            widths,
            primary.direction(),
            owner,
        ));
    }
    let pcsr = primary.csr();
    OffsetCsr::build(graph.vertex_count(), widths.to_vec(), entries, |g| {
        pcsr.max_region_len_in_group(g) as u64 + 1
    })
}

impl SharedOffsets {
    fn build(graph: &Graph, primary: &PrimaryIndex, spec: &IndexSpec) -> Self {
        let pages: Vec<SharedPage> = (0..primary.csr().page_count())
            .map(|g| Self::build_page(graph, primary, spec, g))
            .collect();
        // Page headers back to back, after the arrays (see `NestedCsr::build`).
        Self {
            entry_count: pages.iter().map(SharedPage::entry_count).sum(),
            pages: pages.into_iter().map(Arc::new).collect(),
        }
    }

    fn rebuild_group(
        &mut self,
        graph: &Graph,
        primary: &PrimaryIndex,
        spec: &IndexSpec,
        group: usize,
    ) {
        while self.pages.len() < primary.csr().page_count() {
            self.pages.push(Arc::default());
        }
        if group >= self.pages.len() {
            return;
        }
        let page = Self::build_page(graph, primary, spec, group);
        // A rebuild that reproduces the page leaves it shared.
        if *self.pages[group] != page {
            self.entry_count =
                self.entry_count - self.pages[group].entry_count() + page.offsets.len();
            self.pages[group] = Arc::new(page);
        }
    }

    /// The page of `group`: each slot's offsets re-sorted by `spec`.
    fn build_page(
        graph: &Graph,
        primary: &PrimaryIndex,
        spec: &IndexSpec,
        group: usize,
    ) -> SharedPage {
        let csr = primary.csr();
        let width = byte_width_for(csr.max_region_len_in_group(group) as u64 + 1);
        let mut offsets = PackedUints::with_width(width);
        let start_owner = group * GROUP_SIZE;
        let end_owner = ((group + 1) * GROUP_SIZE).min(csr.owner_count());
        for owner in start_owner..end_owner {
            let (_, region) = csr.region_bounds(owner);
            let region_start = region.start;
            for slot in 0..csr.slots_per_owner() {
                let bounds = csr.slot_bounds(owner, slot);
                let mut entries: Vec<(SortVal, u32)> = bounds
                    .map(|pos| {
                        let off = (pos - region_start) as u32;
                        let (edge, nbr) = csr.region_entry(owner, off as usize);
                        (spec.sort_val(graph, edge, nbr), off)
                    })
                    .collect();
                entries.sort_unstable();
                for (_, off) in entries {
                    offsets.push(u64::from(off));
                }
            }
        }
        SharedPage {
            deleted: Bitmap::with_len(offsets.len(), false),
            offsets,
            buffer: Vec::new(),
        }
    }

    fn entry_count(&self) -> usize {
        debug_assert_eq!(
            self.entry_count,
            self.pages.iter().map(|p| p.entry_count()).sum::<usize>(),
            "maintained entry count drifted from the pages"
        );
        self.entry_count
    }

    /// `owner`'s range of the shared page: the primary's own slot
    /// boundaries, read through this index's re-sorted offsets.
    fn list<'a>(
        &'a self,
        csr: &NestedCsr,
        owner: usize,
        prefix: &[u32],
        region: Region<'a>,
    ) -> OffsetList<'a> {
        if prefix.iter().zip(csr.widths()).any(|(c, w)| c >= w) {
            return OffsetList::empty();
        }
        let (g, range) = csr.range_abs(owner, prefix);
        let Some(page) = self.pages.get(g) else {
            return OffsetList::empty();
        };
        let (slot_lo, span) = csr.slot_span(prefix);
        let local = (owner % GROUP_SIZE) as u32;
        let splices: Vec<Splice> = page
            .buffer
            .iter()
            .filter(|b| b.owner_in_page == local && b.slot >= slot_lo && b.slot < slot_lo + span)
            .map(|b| (b.merge_pos, b.edge, b.nbr))
            .collect();
        OffsetList::read(&page.offsets, &page.deleted, range, &splices, region)
    }

    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        graph: &Graph,
        primary: &PrimaryIndex,
        spec: &IndexSpec,
        owner: VertexId,
        slot: u32,
        sort: SortVal,
        edge: u64,
        nbr: u32,
    ) {
        let csr = primary.csr();
        let g = owner.index() / GROUP_SIZE;
        while self.pages.len() <= g {
            self.pages.push(Arc::default());
        }
        let bounds = csr.slot_bounds(owner.index(), slot);
        let page = &self.pages[g];
        // Binary search among this slot's secondary positions by sort key.
        let mut a = bounds.start;
        let mut b = bounds.end.min(page.offsets.len());
        while a < b {
            let mid = (a + b) / 2;
            let off = page.offsets.get(mid) as u32;
            let (e, n) = csr.region_entry(owner.index(), off as usize);
            if spec.sort_val(graph, e, n) < sort {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let entry = SharedBuffered {
            owner_in_page: (owner.index() % GROUP_SIZE) as u32,
            slot,
            sort,
            edge,
            nbr,
            merge_pos: a as u32,
        };
        let page = Arc::make_mut(&mut self.pages[g]);
        let ins = page.buffer.partition_point(|e| {
            // Slot is the middle tiebreak: empty slots collapse onto the
            // same merged position, and slot order must win over sort-key
            // order across slots.
            (e.merge_pos, e.slot, e.sort) <= (entry.merge_pos, entry.slot, entry.sort)
        });
        page.buffer.insert(ins, entry);
        self.entry_count += 1;
    }

    fn delete(&mut self, primary: &PrimaryIndex, owner: VertexId, edge: u64) -> bool {
        let g = owner.index() / GROUP_SIZE;
        let Some(page) = self.pages.get(g) else {
            return false;
        };
        let local = (owner.index() % GROUP_SIZE) as u32;
        if let Some(i) = page
            .buffer
            .iter()
            .position(|b| b.owner_in_page == local && b.edge == edge)
        {
            Arc::make_mut(&mut self.pages[g]).buffer.remove(i);
            self.entry_count -= 1;
            return true;
        }
        let csr = primary.csr();
        let (_, mut region) = csr.region_bounds(owner.index());
        let Some(pos) = region.find(|&pos| {
            pos < page.offsets.len()
                && !page.deleted.get(pos)
                && csr
                    .region_entry(owner.index(), page.offsets.get(pos) as usize)
                    .0
                    .raw()
                    == edge
        }) else {
            return false;
        };
        Arc::make_mut(&mut self.pages[g]).deleted.set(pos, true);
        self.entry_count -= 1;
        true
    }

    fn memory_bytes(&self) -> usize {
        self.pages
            .iter()
            .map(|p| {
                p.offsets.memory_bytes()
                    + p.deleted.memory_bytes()
                    + p.buffer.capacity() * std::mem::size_of::<SharedBuffered>()
            })
            .sum()
    }
}

#[cfg(test)]
impl VertexPartitionedIndex {
    /// Indexes of the pages `self` does not share with `other`.
    pub(crate) fn unshared_pages(&self, other: &Self) -> Vec<usize> {
        match (&self.storage, &other.storage) {
            (VpStorage::Shared(a), VpStorage::Shared(b)) => {
                crate::nested_csr::unshared_pages(&a.pages, &b.pages)
            }
            (VpStorage::Own(a), VpStorage::Own(b)) => a.unshared_pages(b),
            _ => panic!("different layouts share no pages"),
        }
    }
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
        assert!(matches!(l, OffsetList::Dirty(_)) && l.len() == 2);
        p.index_mut(Direction::Fwd).delete_edge(&g, t4);
        let l = vp.list(p.index(Direction::Fwd), fg.account(1), &[wire]);
        assert_eq!(l.len(), 2);
        assert!(l.iter().all(|(e, _)| e != t4));
    }
}
