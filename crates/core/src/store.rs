//! The INDEX STORE (§IV-A): registry and coordinator of all A+ indexes.
//!
//! "INDEX STORE maintains the metadata of each A+ index in the system such
//! as their type, partitioning structure, and sorting criterion, as well as
//! additional predicates for secondary indexes." The optimizer queries it
//! for candidate indexes; the maintenance paths route updates through it so
//! primary merges and secondary offset rebuilds stay coordinated.

use std::sync::Arc;

use aplus_common::{EdgeId, FxHashSet, VertexId, GROUP_SIZE};
use aplus_graph::Graph;

use crate::edge_partitioned::{bound_edges_anchored_at, EdgePartitionedIndex};
use crate::error::IndexError;
use crate::maintenance::BUFFER_THRESHOLD;
use crate::primary::{MaintenanceOutcome, PrimaryIndexes};
use crate::spec::{Direction, IndexSpec};
use crate::vertex_partitioned::VertexPartitionedIndex;
use crate::view::{OneHopView, TwoHopView};

/// Index direction request in DDL: `INDEX AS FW | BW | FW-BW` (§III-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexDirections {
    /// Forward only.
    Fw,
    /// Backward only.
    Bw,
    /// Both directions.
    FwBw,
}

impl IndexDirections {
    fn directions(self) -> &'static [Direction] {
        match self {
            Self::Fw => &[Direction::Fwd],
            Self::Bw => &[Direction::Bwd],
            Self::FwBw => &[Direction::Fwd, Direction::Bwd],
        }
    }
}

/// The store: primary pair + named secondary indexes.
///
/// Sharing is copy-on-write at two levels. Every built index artifact is
/// held behind an `Arc` ([`Arc::make_mut`]), so cloning a store is a
/// handful of reference-count bumps. Inside an artifact, every 64-owner
/// page is behind its own `Arc`, so a write to a cloned head copies the
/// artifact's spine of page pointers plus the pages the write changes —
/// never the pages it does not. This is what makes the service layer's
/// snapshot publication affordable: a commit costs the pages its batch
/// dirties, and a `RECONFIGURE` on a cloned head swaps in freshly built
/// artifacts without ever deep-copying the old ones, which the displaced
/// snapshot keeps serving until its last reader drops.
#[derive(Debug, Clone)]
pub struct IndexStore {
    primary: Arc<PrimaryIndexes>,
    vertex_indexes: Vec<Arc<VertexPartitionedIndex>>,
    edge_indexes: Vec<Arc<EdgePartitionedIndex>>,
}

impl IndexStore {
    /// Builds a store with the default primary configuration (D).
    pub fn build(graph: &Graph) -> Result<Self, IndexError> {
        Self::build_with_spec(graph, IndexSpec::default_primary())
    }

    /// Builds a store with a custom primary spec.
    pub fn build_with_spec(graph: &Graph, spec: IndexSpec) -> Result<Self, IndexError> {
        Ok(Self {
            primary: Arc::new(PrimaryIndexes::build(graph, spec)?),
            vertex_indexes: Vec::new(),
            edge_indexes: Vec::new(),
        })
    }

    /// The primary index pair.
    #[must_use]
    pub fn primary(&self) -> &PrimaryIndexes {
        &self.primary
    }

    /// All vertex-partitioned secondary indexes (one entry per direction).
    pub fn vertex_indexes(&self) -> impl Iterator<Item = &VertexPartitionedIndex> {
        self.vertex_indexes.iter().map(Arc::as_ref)
    }

    /// All edge-partitioned secondary indexes.
    pub fn edge_indexes(&self) -> impl Iterator<Item = &EdgePartitionedIndex> {
        self.edge_indexes.iter().map(Arc::as_ref)
    }

    /// Looks up a vertex-partitioned index by name and direction.
    #[must_use]
    pub fn vertex_index(
        &self,
        name: &str,
        direction: Direction,
    ) -> Option<&VertexPartitionedIndex> {
        self.vertex_indexes
            .iter()
            .find(|i| i.name() == name && i.direction() == direction)
            .map(Arc::as_ref)
    }

    /// Looks up an edge-partitioned index by name.
    #[must_use]
    pub fn edge_index(&self, name: &str) -> Option<&EdgePartitionedIndex> {
        self.edge_indexes
            .iter()
            .find(|i| i.name() == name)
            .map(Arc::as_ref)
    }

    fn name_taken(&self, name: &str) -> bool {
        self.vertex_indexes.iter().any(|i| i.name() == name)
            || self.edge_indexes.iter().any(|i| i.name() == name)
    }

    /// `RECONFIGURE PRIMARY INDEXES ...`: rebuilds the primary pair and then
    /// every secondary index (their offsets reference primary regions).
    /// Rebuild-and-swap: the replaced artifacts are never touched — any
    /// snapshot still holding them serves the old configuration unchanged.
    pub fn reconfigure_primary(
        &mut self,
        graph: &Graph,
        spec: IndexSpec,
    ) -> Result<(), IndexError> {
        self.primary = Arc::new(PrimaryIndexes::build(graph, spec)?);
        self.rebuild_secondaries(graph)
    }

    /// `CREATE 1-HOP VIEW name ... INDEX AS FW|BW|FW-BW PARTITION BY ...
    /// SORT BY ...` (§III-B1). Creates one physical index per direction.
    pub fn create_vertex_index(
        &mut self,
        graph: &Graph,
        name: &str,
        directions: IndexDirections,
        view: OneHopView,
        spec: IndexSpec,
    ) -> Result<(), IndexError> {
        if self.name_taken(name) {
            return Err(IndexError::DuplicateIndexName(name.to_owned()));
        }
        for &d in directions.directions() {
            let idx = VertexPartitionedIndex::build(
                graph,
                self.primary.index(d),
                name,
                d,
                view.clone(),
                spec.clone(),
            )?;
            self.vertex_indexes.push(Arc::new(idx));
        }
        Ok(())
    }

    /// `CREATE 2-HOP VIEW name ...` (§III-B2).
    pub fn create_edge_index(
        &mut self,
        graph: &Graph,
        name: &str,
        view: TwoHopView,
        spec: IndexSpec,
    ) -> Result<(), IndexError> {
        if self.name_taken(name) {
            return Err(IndexError::DuplicateIndexName(name.to_owned()));
        }
        let primary = self.primary.index(view.orientation.primary_direction());
        let idx = EdgePartitionedIndex::build(graph, primary, name, view, spec)?;
        self.edge_indexes.push(Arc::new(idx));
        Ok(())
    }

    /// Drops all indexes registered under `name`.
    pub fn drop_index(&mut self, name: &str) -> Result<(), IndexError> {
        let before = self.vertex_indexes.len() + self.edge_indexes.len();
        self.vertex_indexes.retain(|i| i.name() != name);
        self.edge_indexes.retain(|i| i.name() != name);
        let after = self.vertex_indexes.len() + self.edge_indexes.len();
        if before == after {
            return Err(IndexError::UnknownIndex(name.to_owned()));
        }
        Ok(())
    }

    // ----- maintenance ---------------------------------------------------

    /// Routes one edge insertion through every index (§IV-C). The edge must
    /// already exist in `graph` with its properties set.
    pub fn insert_edge(&mut self, graph: &Graph, e: EdgeId) {
        let primary = Arc::make_mut(&mut self.primary);
        let fwd = primary.index_mut(Direction::Fwd).insert_edge(graph, e);
        let bwd = primary.index_mut(Direction::Bwd).insert_edge(graph, e);
        if fwd == MaintenanceOutcome::NeedsRebuild || bwd == MaintenanceOutcome::NeedsRebuild {
            // A categorical domain grew beyond a width snapshot: rebuild
            // everything under the current catalog.
            self.rebuild_all(graph);
            return;
        }
        // Move the secondary vectors out so the primary can be borrowed
        // immutably while secondaries are mutated.
        let mut vps = std::mem::take(&mut self.vertex_indexes);
        for vp in &mut vps {
            let d = vp.direction();
            Arc::make_mut(vp).insert_edge(graph, self.primary.index(d), e);
        }
        self.vertex_indexes = vps;
        let mut eps = std::mem::take(&mut self.edge_indexes);
        for ep in &mut eps {
            Arc::make_mut(ep).insert_edge(graph, &self.primary, e);
        }
        self.edge_indexes = eps;
        self.maybe_flush(graph);
    }

    /// Routes one edge deletion through every index. The caller must have
    /// tombstoned the edge in the graph first (`Graph::delete_edge`).
    pub fn delete_edge(&mut self, graph: &Graph, e: EdgeId) {
        let primary = Arc::make_mut(&mut self.primary);
        primary.index_mut(Direction::Fwd).delete_edge(graph, e);
        primary.index_mut(Direction::Bwd).delete_edge(graph, e);
        let mut vps = std::mem::take(&mut self.vertex_indexes);
        for vp in &mut vps {
            let d = vp.direction();
            Arc::make_mut(vp).delete_edge(graph, self.primary.index(d), e);
        }
        self.vertex_indexes = vps;
        let mut eps = std::mem::take(&mut self.edge_indexes);
        for ep in &mut eps {
            Arc::make_mut(ep).delete_edge(graph, &self.primary, e);
        }
        self.edge_indexes = eps;
        self.maybe_flush(graph);
    }

    fn maybe_flush(&mut self, graph: &Graph) {
        let t = BUFFER_THRESHOLD;
        let full = self.primary.index(Direction::Fwd).any_buffer_full(t)
            || self.primary.index(Direction::Bwd).any_buffer_full(t)
            || self.vertex_indexes.iter().any(|i| i.any_buffer_full(t))
            || self.edge_indexes.iter().any(|i| i.any_buffer_full(t));
        if full {
            self.flush(graph);
        }
    }

    /// Merges all dirty pages and rebuilds the secondary pages whose
    /// offsets they invalidated. See `maintenance` module docs for the
    /// consolidation-barrier rationale.
    pub fn flush(&mut self, graph: &Graph) {
        // Copy-on-write discipline: `make_mut` only on artifacts this
        // flush actually rewrites, so untouched indexes stay shared with
        // any live snapshot clone. Within a rewritten artifact only the
        // merged or rebuilt pages are replaced; the rest stay shared too.
        let has_pending = self.primary.index(Direction::Fwd).has_pending_merges()
            || self.primary.index(Direction::Bwd).has_pending_merges();
        let (changed_fwd, changed_bwd) = if has_pending {
            let primary = Arc::make_mut(&mut self.primary);
            (
                primary.index_mut(Direction::Fwd).csr_mut().merge_all(),
                primary.index_mut(Direction::Bwd).csr_mut().merge_all(),
            )
        } else {
            (Vec::new(), Vec::new())
        };

        // Vertex-partitioned: rebuild the pages over changed vertex groups.
        let mut vps = std::mem::take(&mut self.vertex_indexes);
        for vp in &mut vps {
            let d = vp.direction();
            let changed = match d {
                Direction::Fwd => &changed_fwd,
                Direction::Bwd => &changed_bwd,
            };
            if changed.is_empty() {
                continue;
            }
            let vp = Arc::make_mut(vp);
            for &g in changed {
                vp.rebuild_group(graph, self.primary.index(d), g);
            }
        }
        self.vertex_indexes = vps;

        // Edge-partitioned: rebuild groups containing (a) bound edges
        // anchored at vertices whose primary regions changed, (b) pending
        // buffered entries.
        let mut eps = std::mem::take(&mut self.edge_indexes);
        for ep in &mut eps {
            let orientation = ep.view().orientation;
            let changed = match orientation.primary_direction() {
                Direction::Fwd => &changed_fwd,
                Direction::Bwd => &changed_bwd,
            };
            let mut groups: FxHashSet<usize> = ep.dirty_groups().into_iter().collect();
            for &vg in changed {
                let start = vg * GROUP_SIZE;
                let end = ((vg + 1) * GROUP_SIZE).min(graph.vertex_count());
                for v in start..end {
                    for eb in
                        bound_edges_anchored_at(&self.primary, VertexId(v as u32), orientation)
                    {
                        groups.insert(eb.index() / GROUP_SIZE);
                    }
                }
            }
            if groups.is_empty() {
                continue;
            }
            let mut sorted: Vec<usize> = groups.into_iter().collect();
            sorted.sort_unstable();
            let primary = self.primary.index(orientation.primary_direction());
            let ep = Arc::make_mut(ep);
            for g in sorted {
                ep.rebuild_group(graph, primary, g);
            }
        }
        self.edge_indexes = eps;
    }

    /// Rebuilds every index from scratch under the current catalog.
    pub fn rebuild_all(&mut self, graph: &Graph) {
        let spec = self.primary.spec().clone();
        self.primary = Arc::new(PrimaryIndexes::build(graph, spec).expect("spec was valid"));
        self.rebuild_secondaries(graph)
            .expect("previously valid secondary definitions remain valid");
    }

    fn rebuild_secondaries(&mut self, graph: &Graph) -> Result<(), IndexError> {
        let vertex_defs: Vec<_> = self
            .vertex_indexes
            .drain(..)
            .map(|i| {
                (
                    i.name().to_owned(),
                    i.direction(),
                    i.view().clone(),
                    i.spec().clone(),
                )
            })
            .collect();
        for (name, d, view, spec) in vertex_defs {
            let idx =
                VertexPartitionedIndex::build(graph, self.primary.index(d), &name, d, view, spec)?;
            self.vertex_indexes.push(Arc::new(idx));
        }
        let edge_defs: Vec<_> = self
            .edge_indexes
            .drain(..)
            .map(|i| (i.name().to_owned(), i.view().clone(), i.spec().clone()))
            .collect();
        for (name, view, spec) in edge_defs {
            let primary = self.primary.index(view.orientation.primary_direction());
            let idx = EdgePartitionedIndex::build(graph, primary, &name, view, spec)?;
            self.edge_indexes.push(Arc::new(idx));
        }
        Ok(())
    }

    // ----- reporting -------------------------------------------------------

    /// Total heap bytes across all indexes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.primary.memory_bytes()
            + self
                .vertex_indexes
                .iter()
                .map(|i| i.memory_bytes())
                .sum::<usize>()
            + self
                .edge_indexes
                .iter()
                .map(|i| i.memory_bytes())
                .sum::<usize>()
    }

    /// Per-index memory breakdown `(name, bytes)`; the primary pair reports
    /// as `"primary"`.
    #[must_use]
    pub fn memory_report(&self) -> Vec<(String, usize)> {
        let mut out = vec![("primary".to_owned(), self.primary.memory_bytes())];
        for i in &self.vertex_indexes {
            out.push((
                format!("{}:{:?}", i.name(), i.direction()),
                i.memory_bytes(),
            ));
        }
        for i in &self.edge_indexes {
            out.push((i.name().to_owned(), i.memory_bytes()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SortKey;
    use crate::view::{
        CmpOp, TwoHopOrientation, ViewComparison, ViewEntity, ViewOperand, ViewPredicate,
    };
    use aplus_datagen::build_financial_graph;
    use aplus_graph::{PropertyEntity, Value};

    fn fixture() -> (
        aplus_graph::Graph,
        IndexStore,
        aplus_datagen::FinancialGraph,
    ) {
        let fg = build_financial_graph();
        let g = fg.graph.clone();
        let store = IndexStore::build(&g).unwrap();
        (g, store, fg)
    }

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

    #[test]
    fn create_lookup_drop() {
        let (g, mut store, _) = fixture();
        store
            .create_vertex_index(
                &g,
                "VPt",
                IndexDirections::FwBw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary(),
            )
            .unwrap();
        assert!(store.vertex_index("VPt", Direction::Fwd).is_some());
        assert!(store.vertex_index("VPt", Direction::Bwd).is_some());
        assert!(store
            .vertex_index("VPt", Direction::Fwd)
            .unwrap()
            .shares_levels());
        assert!(matches!(
            store.create_vertex_index(
                &g,
                "VPt",
                IndexDirections::Fw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary(),
            ),
            Err(IndexError::DuplicateIndexName(_))
        ));
        store.drop_index("VPt").unwrap();
        assert!(store.vertex_index("VPt", Direction::Fwd).is_none());
        assert!(matches!(
            store.drop_index("VPt"),
            Err(IndexError::UnknownIndex(_))
        ));
    }

    #[test]
    fn reconfigure_rebuilds_secondaries() {
        let (g, mut store, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        store
            .create_vertex_index(
                &g,
                "VPt",
                IndexDirections::Fw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
            )
            .unwrap();
        let curr = g
            .catalog()
            .property(PropertyEntity::Edge, "currency")
            .unwrap();
        store
            .reconfigure_primary(
                &g,
                IndexSpec::default().with_partitioning(vec![
                    crate::spec::PartitionKey::EdgeLabel,
                    crate::spec::PartitionKey::EdgeProp(curr),
                ]),
            )
            .unwrap();
        // Secondary still answers correctly after the rebuild.
        let vp = store.vertex_index("VPt", Direction::Fwd).unwrap();
        let l = vp.list(store.primary().index(Direction::Fwd), fg.account(1), &[]);
        assert_eq!(l.len(), 5);
        let dates: Vec<i64> = l
            .iter()
            .map(|(e, _)| g.edge_prop(e, date).unwrap())
            .collect();
        // Shares levels with the *new* primary: W (curr parts) then DD.
        assert_eq!(dates.len(), 5);
    }

    #[test]
    fn insert_edge_reaches_all_indexes() {
        let (mut g, mut store, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        store
            .create_vertex_index(
                &g,
                "VPt",
                IndexDirections::Fw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
            )
            .unwrap();
        store
            .create_edge_index(&g, "MF", money_flow_view(&g), IndexSpec::default_primary())
            .unwrap();
        // Insert wire v5 -> v3, date 21, amt 3 (joins t13's MoneyFlow list).
        let e = g.add_edge(fg.accounts[4], fg.accounts[2], "W").unwrap();
        g.set_edge_prop(e, date, Value::Int(21)).unwrap();
        g.set_edge_prop(e, amt, Value::Int(3)).unwrap();
        store.insert_edge(&g, e);
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        assert!(store
            .primary()
            .index(Direction::Fwd)
            .list(fg.accounts[4], &[wire])
            .iter()
            .any(|(x, _)| x == e));
        let vp = store.vertex_index("VPt", Direction::Fwd).unwrap();
        assert!(vp
            .list(
                store.primary().index(Direction::Fwd),
                fg.accounts[4],
                &[wire]
            )
            .iter()
            .any(|(x, _)| x == e));
        let ep = store.edge_index("MF").unwrap();
        assert!(ep
            .list(
                &g,
                store.primary().index(Direction::Fwd),
                fg.transfer(13),
                &[]
            )
            .iter()
            .any(|(x, _)| x == e));
    }

    #[test]
    fn flush_preserves_all_lists() {
        let (mut g, mut store, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        store
            .create_vertex_index(
                &g,
                "VPt",
                IndexDirections::Fw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
            )
            .unwrap();
        store
            .create_edge_index(&g, "MF", money_flow_view(&g), IndexSpec::default_primary())
            .unwrap();
        let e = g.add_edge(fg.accounts[4], fg.accounts[2], "W").unwrap();
        g.set_edge_prop(e, date, Value::Int(21)).unwrap();
        g.set_edge_prop(e, amt, Value::Int(3)).unwrap();
        store.insert_edge(&g, e);
        store.flush(&g);
        // After flush (merge + offset rebuild) everything still answers.
        let ep = store.edge_index("MF").unwrap();
        let l = ep.list(
            &g,
            store.primary().index(Direction::Fwd),
            fg.transfer(13),
            &[],
        );
        let ids: Vec<EdgeId> = l.iter().map(|(x, _)| x).collect();
        assert!(ids.contains(&e));
        assert!(ids.contains(&fg.transfer(19)));
        let vp = store.vertex_index("VPt", Direction::Fwd).unwrap();
        assert_eq!(vp.entry_count(store.primary().index(Direction::Fwd)), 26);
    }

    #[test]
    fn insert_with_new_label_triggers_full_rebuild() {
        let (mut g, mut store, fg) = fixture();
        let e = g
            .add_edge(fg.accounts[0], fg.accounts[1], "NEWLBL")
            .unwrap();
        store.insert_edge(&g, e);
        let newlbl = u32::from(g.catalog().edge_label("NEWLBL").unwrap().raw());
        let l = store
            .primary()
            .index(Direction::Fwd)
            .list(fg.accounts[0], &[newlbl]);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn delete_edge_reaches_all_indexes() {
        let (mut g, mut store, fg) = fixture();
        store
            .create_edge_index(&g, "MF", money_flow_view(&g), IndexSpec::default_primary())
            .unwrap();
        let t19 = fg.transfer(19);
        g.delete_edge(t19).unwrap();
        store.delete_edge(&g, t19);
        let ep = store.edge_index("MF").unwrap();
        assert_eq!(
            ep.list(
                &g,
                store.primary().index(Direction::Fwd),
                fg.transfer(13),
                &[]
            )
            .len(),
            0
        );
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        assert!(!store
            .primary()
            .index(Direction::Fwd)
            .list(fg.accounts[4], &[wire])
            .iter()
            .any(|(x, _)| x == t19));
    }

    /// Every list `store` serves over `g`: the forward, backward and VPt
    /// lists of each vertex, then the MF list of each bound edge.
    fn all_lists(store: &IndexStore, g: &Graph) -> Vec<Vec<(EdgeId, VertexId)>> {
        let fwd = store.primary().index(Direction::Fwd);
        let bwd = store.primary().index(Direction::Bwd);
        let vp = store.vertex_index("VPt", Direction::Fwd).unwrap();
        let ep = store.edge_index("MF").unwrap();
        let per_vertex = g.vertices().flat_map(|v| {
            [
                fwd.region(v).iter().collect(),
                bwd.region(v).iter().collect(),
                vp.list(fwd, v, &[]).iter().collect(),
            ]
        });
        let per_edge =
            (0..g.edge_count() as u64).map(|eb| ep.list(g, fwd, EdgeId(eb), &[]).iter().collect());
        per_vertex.chain(per_edge).collect()
    }

    /// Groups of the pages a write changed, as `unshared_pages` reports
    /// them (sorted, distinct).
    fn groups(ids: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let set: std::collections::BTreeSet<usize> =
            ids.into_iter().map(|i| i / GROUP_SIZE).collect();
        set.into_iter().collect()
    }

    #[test]
    fn clone_shares_artifacts_until_written() {
        let (mut g, _, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        // Grow the graph past one page per index: primary and VP pages
        // hold 64 vertices, EP pages 64 bound edges.
        let first = g.vertex_count() as u32;
        let first_edge = g.edge_count() as u64;
        let v = |i: u32| VertexId(first + i % 200);
        for _ in 0..200 {
            g.add_vertex("Account");
        }
        for i in 0..300 {
            let e = g.add_edge(v(i), v(i * 7 + 1), "W").unwrap();
            g.set_edge_prop(e, date, Value::Int(i64::from(i))).unwrap();
            g.set_edge_prop(e, amt, Value::Int(1000 - i64::from(i)))
                .unwrap();
        }
        let mut store = IndexStore::build(&g).unwrap();
        store
            .create_vertex_index(
                &g,
                "VPt",
                IndexDirections::Fw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
            )
            .unwrap();
        store
            .create_edge_index(&g, "MF", money_flow_view(&g), IndexSpec::default_primary())
            .unwrap();
        let snapshot = store.clone();
        let g0 = g.clone();
        let lists = all_lists(&snapshot, &g0);
        assert!(Arc::ptr_eq(&snapshot.primary, &store.primary));
        assert!(Arc::ptr_eq(
            &snapshot.vertex_indexes[0],
            &store.vertex_indexes[0]
        ));
        assert!(Arc::ptr_eq(
            &snapshot.edge_indexes[0],
            &store.edge_indexes[0]
        ));

        // One insert unshares only the pages of its endpoints' groups…
        let (src, dst) = (v(5), v(130));
        let e = g.add_edge(src, dst, "W").unwrap();
        g.set_edge_prop(e, date, Value::Int(2000)).unwrap();
        g.set_edge_prop(e, amt, Value::Int(1)).unwrap();
        store.insert_edge(&g, e);
        let unshared = |head: &IndexStore, d| {
            let csr = |s: &IndexStore| s.primary().index(d).csr().clone();
            csr(head).unshared_pages(&csr(&snapshot))
        };
        assert_eq!(unshared(&store, Direction::Fwd), groups([src.index()]));
        assert_eq!(unshared(&store, Direction::Bwd), groups([dst.index()]));
        assert_eq!(
            store.vertex_indexes[0].unshared_pages(&snapshot.vertex_indexes[0]),
            groups([src.index()])
        );
        // …and, in MF, the pages of the bound lists `e` joined plus the
        // page that gained `e` as a new bound edge.
        let (ep, ep0) = (
            store.edge_index("MF").unwrap(),
            snapshot.edge_index("MF").unwrap(),
        );
        let (fwd, fwd0) = (
            store.primary().index(Direction::Fwd),
            snapshot.primary().index(Direction::Fwd),
        );
        let joined = (0..g0.edge_count()).filter(|&i| {
            let eb = EdgeId(i as u64);
            ep.list(&g, fwd, eb, &[]).len() != ep0.list(&g0, fwd0, eb, &[]).len()
        });
        let touched = groups(joined.chain([e.index()]));
        assert!(touched.len() > 1, "e joined an existing bound list");
        assert!(ep.page_count() > touched.len());
        assert_eq!(store.edge_indexes[0].unshared_pages(ep0), touched);

        // A delete and a flush (merges + offset rebuilds) on the head leave
        // every list of the clone as it was.
        let gone = EdgeId(first_edge + 10);
        let (gone_src, gone_dst) = g.edge_endpoints(gone).unwrap();
        g.delete_edge(gone).unwrap();
        store.delete_edge(&g, gone);
        store.flush(&g);
        assert_eq!(all_lists(&snapshot, &g0), lists);
        assert_eq!(
            unshared(&store, Direction::Fwd),
            groups([src.index(), gone_src.index()])
        );
        assert_eq!(
            unshared(&store, Direction::Bwd),
            groups([dst.index(), gone_dst.index()])
        );
        // Rebuilding every secondary page again reproduces each one, so
        // every page stays shared with the flushed head.
        let flushed = store.clone();
        let fwd = flushed.primary().index(Direction::Fwd);
        let vp = Arc::make_mut(&mut store.vertex_indexes[0]);
        (0..fwd.csr().page_count()).for_each(|grp| vp.rebuild_group(&g, fwd, grp));
        let ep = Arc::make_mut(&mut store.edge_indexes[0]);
        (0..ep.page_count()).for_each(|grp| ep.rebuild_group(&g, fwd, grp));
        assert!(store.vertex_indexes[0]
            .unshared_pages(&flushed.vertex_indexes[0])
            .is_empty());
        assert!(store.edge_indexes[0]
            .unshared_pages(&flushed.edge_indexes[0])
            .is_empty());

        // A reconfigure swaps in fresh artifacts; the clone keeps the old
        // ones untouched (rebuild-and-swap, never mutate-in-place).
        let snapshot = store.clone();
        let curr = g
            .catalog()
            .property(PropertyEntity::Edge, "currency")
            .unwrap();
        store
            .reconfigure_primary(
                &g,
                IndexSpec::default().with_partitioning(vec![
                    crate::spec::PartitionKey::EdgeLabel,
                    crate::spec::PartitionKey::EdgeProp(curr),
                ]),
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&snapshot.primary, &store.primary));
        assert_eq!(snapshot.primary().spec().partitioning.len(), 1);
        assert_eq!(store.primary().spec().partitioning.len(), 2);
        // Maintenance on the head unshares what it dirties; the clone
        // still answers from its own version.
        let before = snapshot
            .primary()
            .index(Direction::Fwd)
            .region(fg.accounts[0])
            .len();
        let e = g.add_edge(fg.accounts[0], fg.accounts[1], "W").unwrap();
        store.insert_edge(&g, e);
        assert_eq!(
            snapshot
                .primary()
                .index(Direction::Fwd)
                .region(fg.accounts[0])
                .len(),
            before,
            "the cloned snapshot never sees the head's insert"
        );
    }

    #[test]
    fn memory_report_lists_every_index() {
        let (g, mut store, _) = fixture();
        store
            .create_vertex_index(
                &g,
                "VPt",
                IndexDirections::Fw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary(),
            )
            .unwrap();
        let report = store.memory_report();
        assert_eq!(report.len(), 2);
        assert!(report[0].0 == "primary");
        assert!(store.memory_bytes() >= report.iter().map(|(_, b)| b).sum::<usize>());
    }
}
