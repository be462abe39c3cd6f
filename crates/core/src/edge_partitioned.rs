//! Secondary edge-partitioned A+ indexes: 2-hop views (§III-B2).
//!
//! An edge-partitioned index extends the notion of adjacency from vertices
//! to edges: for each *bound edge* `eb` it stores the edges adjacent to one
//! of `eb`'s endpoints that satisfy a predicate relating both edges (e.g.
//! the MoneyFlow view: `eb.date < eadj.date AND eadj.amt < eb.amt`). The
//! orientation ([`TwoHopOrientation`]) fixes which endpoint and which edge
//! direction, making each list a subset of one primary list — so entries
//! are stored as offset lists into the *anchor vertex*'s primary region,
//! partitioned by bound-edge ID in 64-edge pages.
//!
//! Unlike vertex-partitioned indexes, one graph edge can appear in many
//! bound lists (t17 appears in the lists of both t1 and t16 in Figure 3b),
//! which is why the view predicate must reference both edges — otherwise
//! every list of a vertex's in-edges would duplicate the same out-edge set
//! and a 1-hop view would serve the same accesses without the redundancy.

use aplus_common::{EdgeId, VertexId};
use aplus_graph::Graph;

use crate::error::IndexError;
use crate::list::OffsetList;
use crate::offsets::{OffsetCsr, OffsetEntry};
use crate::primary::{PrimaryIndex, PrimaryIndexes};
use crate::spec::{Direction, IndexSpec};
use crate::view::{TwoHopOrientation, TwoHopView};

/// A secondary edge-partitioned A+ index.
#[derive(Debug, Clone)]
pub struct EdgePartitionedIndex {
    name: String,
    view: TwoHopView,
    spec: IndexSpec,
    widths: Vec<u32>,
    csr: OffsetCsr,
}

impl EdgePartitionedIndex {
    /// Builds the index over the current graph. `primary` must be the
    /// primary index in [`TwoHopOrientation::primary_direction`].
    ///
    /// Creation parallelizes over bound-edge pages when `threads > 1`
    /// (the paper creates edge-partitioned indexes with 16 threads, §V-A).
    pub fn build(
        graph: &Graph,
        primary: &PrimaryIndex,
        name: &str,
        view: TwoHopView,
        spec: IndexSpec,
        threads: usize,
    ) -> Result<Self, IndexError> {
        assert_eq!(
            primary.direction(),
            view.orientation.primary_direction(),
            "primary index direction must match the orientation"
        );
        spec.validate(graph.catalog())?;
        view.predicate.validate_two_hop()?;
        let widths = spec.snapshot_widths(graph.catalog());
        let owner_count = graph.edge_count();

        let entries = if threads > 1 && owner_count > 1024 {
            build_entries_parallel(graph, primary, &view, &spec, &widths, threads)
        } else {
            let mut out = Vec::new();
            for (eb, src, dst, _) in graph.edges() {
                entries_for_bound_edge(
                    graph, primary, &view, &spec, &widths, eb, src, dst, &mut out,
                );
            }
            out
        };

        let pcsr = primary.csr();
        let orientation = view.orientation;
        let csr = OffsetCsr::build(owner_count, widths.clone(), entries, |g| {
            // Longest anchor region among the bound edges of this 64-edge
            // group fixes the offset byte width.
            max_anchor_region(graph, pcsr, orientation, g, owner_count) + 1
        });
        Ok(Self {
            name: name.to_owned(),
            view,
            spec,
            widths,
            csr,
        })
    }

    /// Index name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The 2-hop view definition.
    #[must_use]
    pub fn view(&self) -> &TwoHopView {
        &self.view
    }

    /// The index spec.
    #[must_use]
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// The partition widths snapshot.
    #[must_use]
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Total `(eb, eadj)` pairs indexed — the |Eindexed| column of Table IV.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.csr.entry_count()
    }

    /// Whether lists under this prefix come out globally ordered by this
    /// index's sort criteria (the prefix pins at most one non-empty slot).
    #[must_use]
    pub fn range_sorted(&self, prefix: &[u32]) -> bool {
        self.csr.span_sorted(prefix)
    }

    /// The adjacency list of bound edge `eb` under a partition-code prefix:
    /// lazy over the anchor vertex's primary region when the range is
    /// clean, already spliced when it has buffered entries or tombstones.
    #[must_use]
    pub fn list<'a>(
        &'a self,
        graph: &Graph,
        primary: &'a PrimaryIndex,
        eb: EdgeId,
        prefix: &[u32],
    ) -> OffsetList<'a> {
        let Ok((src, dst)) = graph.edge_endpoints(eb) else {
            return OffsetList::empty();
        };
        let anchor = self.view.orientation.anchor(src, dst).index();
        if anchor >= primary.csr().owner_count() {
            return OffsetList::empty();
        }
        self.csr
            .list(eb.index(), prefix, primary.csr().region(anchor))
    }

    /// Maintenance for an inserted edge `e` (§IV-C): two delta queries.
    ///
    /// 1. `e` may be the *adjacent* edge of existing bound edges: probe the
    ///    bound-edge candidates (one primary lookup) and insert `e` into
    ///    each list whose predicate accepts the pair.
    /// 2. `e` becomes a new *bound* edge: scan its anchor's primary list
    ///    and build `e`'s own adjacency list.
    pub fn insert_edge(&mut self, graph: &Graph, primaries: &PrimaryIndexes, e: EdgeId) {
        let primary = primaries.index(self.view.orientation.primary_direction());
        let (src, dst) = graph.edge_endpoints(e).expect("edge exists");
        let orientation = self.view.orientation;

        if e.index() >= self.csr.owner_count() {
            let pcsr = primary.csr();
            let owner_count = graph.edge_count();
            self.csr.grow_owners(owner_count, |g| {
                max_anchor_region(graph, pcsr, orientation, g, owner_count) + 1
            });
        }

        // Delta 1: e as adjacent edge. Bound candidates share e's *owner*
        // vertex in the primary direction as their anchor.
        let e_owner = primary.direction().owner(src, dst);
        let e_nbr = primary.direction().neighbour(src, dst);
        let bound_candidates: Vec<EdgeId> =
            bound_edges_anchored_at(primaries, e_owner, orientation);
        for eb in bound_candidates {
            if eb == e {
                continue;
            }
            if !self.view.predicate.eval_two_hop(graph, eb, e, e_nbr) {
                continue;
            }
            let Some(slot) = self.spec.slot_of(graph, &self.widths, e, e_nbr) else {
                continue; // domain grew; store rebuilds
            };
            let sort = self.spec.sort_val(graph, e, e_nbr);
            let spec = &self.spec;
            let anchor = e_owner;
            self.csr
                .insert(eb.index(), slot, sort, e.raw(), e_nbr.raw(), |off| {
                    let (edge, n) = primary.csr().region_entry(anchor.index(), off as usize);
                    spec.sort_val(graph, edge, n)
                });
        }

        // Delta 2: e as bound edge — scan the anchor's current adjacency.
        let anchor = orientation.anchor(src, dst);
        let adjacency: Vec<(EdgeId, VertexId)> = primary
            .csr()
            .region_entries(anchor.index())
            .filter(|&(_, _, _, deleted)| !deleted)
            .map(|(_, edge, nbr, _)| (edge, nbr))
            .chain(
                primary
                    .csr()
                    .buffered_entries(anchor.index())
                    .map(|(_, edge, nbr)| (EdgeId(edge), VertexId(nbr))),
            )
            .collect();
        for (eadj, nbr) in adjacency {
            if eadj == e || !self.view.predicate.eval_two_hop(graph, e, eadj, nbr) {
                continue;
            }
            let Some(slot) = self.spec.slot_of(graph, &self.widths, eadj, nbr) else {
                continue;
            };
            let sort = self.spec.sort_val(graph, eadj, nbr);
            let spec = &self.spec;
            self.csr
                .insert(e.index(), slot, sort, eadj.raw(), nbr.raw(), |off| {
                    let (edge, n) = primary.csr().region_entry(anchor.index(), off as usize);
                    spec.sort_val(graph, edge, n)
                });
        }
    }

    /// Maintenance for a deleted edge `e`: clears `e`'s own bound list and
    /// removes `e` from the lists of bound edges sharing its owner vertex.
    pub fn delete_edge(&mut self, graph: &Graph, primaries: &PrimaryIndexes, e: EdgeId) {
        let primary = primaries.index(self.view.orientation.primary_direction());
        let (src, dst) = graph.edge_endpoints(e).expect("edge exists");
        // e's own list.
        if e.index() < self.csr.owner_count() {
            let anchor = self.view.orientation.anchor(src, dst);
            let targets: Vec<u64> = self
                .list(graph, primary, e, &[])
                .iter()
                .map(|(edge, _)| edge.raw())
                .collect();
            for t in targets {
                let region = primary.csr().region(anchor.index());
                self.csr.delete(e.index(), t, region);
            }
        }
        // e inside other bound lists.
        let e_owner = primary.direction().owner(src, dst);
        for eb in bound_edges_anchored_at(primaries, e_owner, self.view.orientation) {
            if eb == e || eb.index() >= self.csr.owner_count() {
                continue;
            }
            let region = primary.csr().region(e_owner.index());
            self.csr.delete(eb.index(), e.raw(), region);
        }
    }

    /// Rebuilds the page of one 64-bound-edge group from the (merged)
    /// primary. Used after primary merges invalidate offsets.
    pub fn rebuild_group(&mut self, graph: &Graph, primary: &PrimaryIndex, group: usize) {
        let orientation = self.view.orientation;
        let owner_count = self.csr.owner_count();
        let max_off = max_anchor_region(graph, primary.csr(), orientation, group, owner_count) + 1;
        let view = &self.view;
        let spec = &self.spec;
        let widths = &self.widths;
        self.csr.rebuild_group(group, max_off, |eb_raw| {
            let eb = EdgeId(u64::from(eb_raw));
            let mut out = Vec::new();
            let Ok((src, dst)) = graph.edge_endpoints(eb) else {
                return out;
            };
            if graph.edge_is_deleted(eb) {
                return out;
            }
            let anchor = orientation.anchor(src, dst);
            for (off, eadj, nbr, deleted) in primary.csr().region_entries(anchor.index()) {
                if deleted || eadj == eb {
                    continue;
                }
                if !view.predicate.eval_two_hop(graph, eb, eadj, nbr) {
                    continue;
                }
                let Some(slot) = spec.slot_of(graph, widths, eadj, nbr) else {
                    continue;
                };
                out.push((
                    slot,
                    spec.sort_val(graph, eadj, nbr),
                    u32::try_from(off).expect("offsets fit u32"),
                ));
            }
            out
        });
    }

    /// Whether any page buffer exceeds `threshold`.
    #[must_use]
    pub fn any_buffer_full(&self, threshold: usize) -> bool {
        (0..self.csr.page_count()).any(|g| self.csr.buffer_len(g) >= threshold)
    }

    /// Groups with pending buffered entries (need folding at flush).
    #[must_use]
    pub fn dirty_groups(&self) -> Vec<usize> {
        (0..self.csr.page_count())
            .filter(|&g| self.csr.buffer_len(g) > 0)
            .collect()
    }

    /// Number of 64-bound-edge pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.csr.page_count()
    }

    /// Heap bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }

    /// Indexes of the pages `self` does not share with `other`.
    #[cfg(test)]
    pub(crate) fn unshared_pages(&self, other: &Self) -> Vec<usize> {
        self.csr.unshared_pages(&other.csr)
    }
}

/// The bound edges whose anchor vertex is `v`, found in constant time via
/// the opposite primary index: edges arriving at `v` (its backward region)
/// for Dest* orientations, edges leaving `v` (its forward region) for Src*
/// orientations. Includes still-buffered primary entries.
pub(crate) fn bound_edges_anchored_at(
    primaries: &PrimaryIndexes,
    v: VertexId,
    orientation: TwoHopOrientation,
) -> Vec<EdgeId> {
    let dir = match orientation {
        TwoHopOrientation::DestFw | TwoHopOrientation::DestBw => Direction::Bwd,
        TwoHopOrientation::SrcFw | TwoHopOrientation::SrcBw => Direction::Fwd,
    };
    let csr = primaries.index(dir).csr();
    if v.index() >= csr.owner_count() {
        return Vec::new();
    }
    csr.region_entries(v.index())
        .filter(|&(_, _, _, deleted)| !deleted)
        .map(|(_, e, _, _)| e)
        .chain(csr.buffered_entries(v.index()).map(|(_, e, _)| EdgeId(e)))
        .collect()
}

fn max_anchor_region(
    graph: &Graph,
    pcsr: &crate::nested_csr::NestedCsr,
    orientation: TwoHopOrientation,
    group: usize,
    owner_count: usize,
) -> u64 {
    let start = group * aplus_common::GROUP_SIZE;
    let end = ((group + 1) * aplus_common::GROUP_SIZE).min(owner_count);
    (start..end)
        .filter_map(|i| {
            let eb = EdgeId(i as u64);
            let (src, dst) = graph.edge_endpoints(eb).ok()?;
            let anchor = orientation.anchor(src, dst);
            Some(pcsr.region_len_merged(anchor.index()) as u64)
        })
        .max()
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn entries_for_bound_edge(
    graph: &Graph,
    primary: &PrimaryIndex,
    view: &TwoHopView,
    spec: &IndexSpec,
    widths: &[u32],
    eb: EdgeId,
    src: VertexId,
    dst: VertexId,
    out: &mut Vec<OffsetEntry>,
) {
    let anchor = view.orientation.anchor(src, dst);
    for (off, eadj, nbr, deleted) in primary.csr().region_entries(anchor.index()) {
        if deleted || eadj == eb {
            continue;
        }
        if !view.predicate.eval_two_hop(graph, eb, eadj, nbr) {
            continue;
        }
        let Some(slot) = spec.slot_of(graph, widths, eadj, nbr) else {
            continue;
        };
        out.push(OffsetEntry {
            owner: u32::try_from(eb.raw()).expect("edge owners fit u32 in-memory"),
            slot,
            sort: spec.sort_val(graph, eadj, nbr),
            offset: u32::try_from(off).expect("offsets fit u32"),
        });
    }
}

/// Builds the offset entries morsel-parallel on the workspace's shared
/// parallelism substrate ([`aplus_runtime::MorselPool`]). Morsels are
/// contiguous bound-edge ranges and partial results concatenate in morsel
/// order, so the entry sequence is identical to the sequential build.
fn build_entries_parallel(
    graph: &Graph,
    primary: &PrimaryIndex,
    view: &TwoHopView,
    spec: &IndexSpec,
    widths: &[u32],
    threads: usize,
) -> Vec<OffsetEntry> {
    let pool = aplus_runtime::MorselPool::new(threads);
    let edge_count = graph.edge_count();
    let morsel = aplus_runtime::scan_morsel_size(edge_count, pool.threads(), 4096);
    pool.run_ranges(edge_count, morsel, |range| {
        let mut out = Vec::new();
        for i in range {
            let eb = EdgeId(i as u64);
            if graph.edge_is_deleted(eb) {
                continue;
            }
            let Ok((src, dst)) = graph.edge_endpoints(eb) else {
                continue;
            };
            entries_for_bound_edge(graph, primary, view, spec, widths, eb, src, dst, &mut out);
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::PrimaryIndexes;
    use crate::spec::{Direction, SortKey};
    use crate::view::{CmpOp, ViewComparison, ViewEntity, ViewOperand, ViewPredicate};
    use aplus_datagen::build_financial_graph;
    use aplus_graph::PropertyEntity;

    /// The MoneyFlow view from Example 7: Destination-FW with
    /// `eb.date < eadj.date AND eadj.amt < eb.amt`.
    fn money_flow_view(g: &aplus_graph::Graph) -> TwoHopView {
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        TwoHopView::new(
            TwoHopOrientation::DestFw,
            ViewPredicate::all_of(vec![
                ViewComparison::new(
                    ViewOperand::Prop(ViewEntity::BoundEdge, date),
                    CmpOp::Lt,
                    ViewOperand::Prop(ViewEntity::AdjEdge, date),
                ),
                ViewComparison::new(
                    ViewOperand::Prop(ViewEntity::AdjEdge, amt),
                    CmpOp::Lt,
                    ViewOperand::Prop(ViewEntity::BoundEdge, amt),
                ),
            ]),
        )
        .unwrap()
    }

    fn fixture() -> (
        aplus_graph::Graph,
        PrimaryIndexes,
        aplus_datagen::FinancialGraph,
        EdgePartitionedIndex,
    ) {
        let fg = build_financial_graph();
        let g = fg.graph.clone();
        let p = PrimaryIndexes::build_default(&g).unwrap();
        let city = g
            .catalog()
            .property(PropertyEntity::Vertex, "city")
            .unwrap();
        let ep = EdgePartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "MoneyFlow",
            money_flow_view(&g),
            IndexSpec::default()
                .with_partitioning(vec![crate::spec::PartitionKey::EdgeLabel])
                .with_sort(vec![SortKey::NbrProp(city)]),
            1,
        )
        .unwrap();
        (g, p, fg, ep)
    }

    #[test]
    fn money_flow_t13_list_is_exactly_t19() {
        // Example 7: "It only scans t13's list which contains a single edge
        // t19."
        let (g, p, fg, ep) = fixture();
        let l = ep.list(&g, p.index(Direction::Fwd), fg.transfer(13), &[]);
        let edges: Vec<EdgeId> = l.iter().map(|(e, _)| e).collect();
        assert_eq!(edges, vec![fg.transfer(19)]);
    }

    #[test]
    fn t17_appears_in_lists_of_t1_and_t16() {
        // §III-B2: "edge t17 ... appears both in the adjacency list for t1
        // as well as t16."
        let (g, p, fg, ep) = fixture();
        let t17 = fg.transfer(17);
        for bound in [1usize, 16] {
            let l = ep.list(&g, p.index(Direction::Fwd), fg.transfer(bound), &[]);
            assert!(
                l.iter().any(|(e, _)| e == t17),
                "t17 missing from t{bound}'s list"
            );
        }
    }

    #[test]
    fn redundant_view_rejected() {
        let (g, p, ..) = fixture();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        let err = TwoHopView::new(
            TwoHopOrientation::DestFw,
            ViewPredicate::all_of(vec![ViewComparison::prop_const(
                ViewEntity::AdjEdge,
                amt,
                CmpOp::Lt,
                10_000,
            )]),
        )
        .unwrap_err();
        assert_eq!(err, IndexError::RedundantTwoHopView);
        let _ = p;
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let (g, p, _, ep_seq) = fixture();
        let city = g
            .catalog()
            .property(PropertyEntity::Vertex, "city")
            .unwrap();
        let ep_par = EdgePartitionedIndex::build(
            &g,
            p.index(Direction::Fwd),
            "MoneyFlowPar",
            money_flow_view(&g),
            IndexSpec::default()
                .with_partitioning(vec![crate::spec::PartitionKey::EdgeLabel])
                .with_sort(vec![SortKey::NbrProp(city)]),
            4,
        )
        .unwrap();
        assert_eq!(ep_seq.entry_count(), ep_par.entry_count());
        for i in 0..g.edge_count() as u64 {
            let a: Vec<_> = ep_seq
                .list(&g, p.index(Direction::Fwd), EdgeId(i), &[])
                .iter()
                .collect();
            let b: Vec<_> = ep_par
                .list(&g, p.index(Direction::Fwd), EdgeId(i), &[])
                .iter()
                .collect();
            assert_eq!(a, b, "bound edge e{i}");
        }
    }

    #[test]
    fn lists_sorted_by_neighbour_city_within_partitions() {
        // The EP spec partitions by edge label first (Figure 3b), so the
        // city sort holds within each label sublist, not across them.
        let (g, p, _, ep) = fixture();
        let city = g
            .catalog()
            .property(PropertyEntity::Vertex, "city")
            .unwrap();
        let labels = 0..u32::try_from(g.catalog().edge_label_count()).unwrap();
        for label in labels {
            for i in 0..g.edge_count() as u64 {
                let l = ep.list(&g, p.index(Direction::Fwd), EdgeId(i), &[label]);
                let cities: Vec<Option<i64>> =
                    l.iter().map(|(_, n)| g.vertex_prop(n, city)).collect();
                let mut sorted = cities.clone();
                // None (NULL) sorts last per the paper; Option's Ord puts
                // None first, so compare with a custom key.
                sorted.sort_by_key(|c| c.map_or(i64::MAX, |v| v));
                assert_eq!(cities, sorted, "bound edge e{i} label {label}");
            }
        }
    }

    #[test]
    fn insert_edge_updates_existing_and_new_lists() {
        let (mut g, mut p, fg, mut ep) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        // New wire v5 -> v3 with date 21, amt 3: qualifies as adjacent edge
        // for t13 (date 13, amt 10 -> 13<21 && 3<10).
        let e = g.add_edge(fg.accounts[4], fg.accounts[2], "W").unwrap();
        g.set_edge_prop(e, date, aplus_graph::Value::Int(21))
            .unwrap();
        g.set_edge_prop(e, amt, aplus_graph::Value::Int(3)).unwrap();
        p.index_mut(Direction::Fwd).insert_edge(&g, e);
        p.index_mut(Direction::Bwd).insert_edge(&g, e);
        ep.insert_edge(&g, &p, e);
        let l = ep.list(&g, p.index(Direction::Fwd), fg.transfer(13), &[]);
        let edges: Vec<EdgeId> = l.iter().map(|(x, _)| x).collect();
        assert!(edges.contains(&e), "new edge joins t13's list: {edges:?}");
        assert!(edges.contains(&fg.transfer(19)));
        // The new bound edge's own list: forward edges of v3 with later
        // date & smaller amount — t14 has date 14 < 21, so empty.
        let own = ep.list(&g, p.index(Direction::Fwd), e, &[]);
        assert_eq!(own.len(), 0);
    }

    #[test]
    fn delete_edge_removes_everywhere() {
        let (g, p, fg, mut ep) = fixture();
        let t19 = fg.transfer(19);
        ep.delete_edge(&g, &p, t19);
        let l = ep.list(&g, p.index(Direction::Fwd), fg.transfer(13), &[]);
        assert_eq!(l.len(), 0, "t19 removed from t13's list");
    }

    #[test]
    fn entry_count_counts_pairs_not_edges() {
        let (_, _, _, ep) = fixture();
        // t17 alone appears in ≥2 lists, so pairs > distinct edges is
        // possible; just sanity-check the count is the sum of list lengths.
        assert!(ep.entry_count() > 0);
    }

    #[test]
    fn rebuild_group_after_primary_merge() {
        let (mut g, mut p, fg, mut ep) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        let e = g.add_edge(fg.accounts[4], fg.accounts[2], "W").unwrap();
        g.set_edge_prop(e, date, aplus_graph::Value::Int(21))
            .unwrap();
        g.set_edge_prop(e, amt, aplus_graph::Value::Int(3)).unwrap();
        p.index_mut(Direction::Fwd).insert_edge(&g, e);
        ep.insert_edge(&g, &p, e);
        // Merge the primary and rebuild the EP page.
        p.index_mut(Direction::Fwd).csr_mut().merge_all();
        ep.rebuild_group(&g, p.index(Direction::Fwd), 0);
        let l = ep.list(&g, p.index(Direction::Fwd), fg.transfer(13), &[]);
        let edges: Vec<EdgeId> = l.iter().map(|(x, _)| x).collect();
        assert!(edges.contains(&e));
        assert!(edges.contains(&fg.transfer(19)));
    }
}
