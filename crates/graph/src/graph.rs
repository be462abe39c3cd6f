//! The in-memory property graph.
//!
//! A [`Graph`] is the system of record: indexes (primary and secondary A+
//! indexes) are derived structures built over it. Vertex IDs are assigned
//! consecutively from 0 (§IV-B); edge IDs are assigned consecutively in
//! insertion order, which makes the insertion order a usable proxy for
//! time-ordered edge streams (the running example's `t_i.date < t_j.date if
//! i < j`).

use std::sync::Arc;

use aplus_common::{Bitmap, EdgeId, EdgeLabelId, PropertyId, VertexId, VertexLabelId};

use crate::catalog::{Catalog, PropertyEntity, PropertyKind};
use crate::column::PropertyColumn;
use crate::error::GraphError;

/// A property value as supplied by users / loaders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// A 64-bit integer (amounts, dates, timestamps).
    Int(i64),
    /// A string; interpretation depends on the property kind (categorical
    /// values are dictionary-encoded, text values are interned globally).
    Str(&'a str),
    /// Explicit NULL.
    Null,
}

/// The property graph store.
///
/// Every heavyweight piece — the catalog, the topology columns, each
/// property column — sits behind an `Arc` with copy-on-write mutation:
/// cloning a graph is a handful of reference-count bumps, and a clone
/// only deep-copies the pieces a later write dirties (a property update
/// copies that one column; a topology write copies the edge table). This
/// is what lets the service layer publish immutable graph snapshots
/// cheaply while a writer keeps mutating its private head.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    catalog: Arc<Catalog>,
    vertex_labels: Arc<Vec<VertexLabelId>>,
    edge_srcs: Arc<Vec<VertexId>>,
    edge_dsts: Arc<Vec<VertexId>>,
    edge_labels: Arc<Vec<EdgeLabelId>>,
    /// Tombstones for deleted edges (§IV-C).
    edge_deleted: Arc<Bitmap>,
    vertex_props: Vec<Arc<PropertyColumn>>,
    edge_props: Vec<Arc<PropertyColumn>>,
    /// Planner statistics (§IV-A), kept by [`Graph::add_edge`] and
    /// [`Graph::delete_edge`] — the only two topology mutation sites — so
    /// reading them never scans: the live edge count, and the live edges
    /// per label indexed by `EdgeLabelId`. Plain fields: a clone (a
    /// snapshot, a COW head) carries its own copy.
    live_edges: usize,
    live_edges_per_label: Vec<usize>,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (index DDL needs to intern constants).
    /// Copy-on-write: when the catalog is shared with a snapshot, the
    /// first mutable access clones it for this graph.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        Arc::make_mut(&mut self.catalog)
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of edges ever added (including tombstoned ones; edge IDs are
    /// never reused).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_srcs.len()
    }

    /// Number of live (non-deleted) edges. O(1): maintained on the write
    /// path, not counted.
    #[must_use]
    pub fn live_edge_count(&self) -> usize {
        self.live_edges
    }

    /// Number of live edges per edge label, indexed by `EdgeLabelId`; a
    /// label past the end has never been used by an edge. O(1), like
    /// [`Graph::live_edge_count`].
    #[must_use]
    pub fn live_edges_per_label(&self) -> &[usize] {
        &self.live_edges_per_label
    }

    // ----- vertex/edge accessors -------------------------------------------

    /// Label of vertex `v`.
    pub fn vertex_label(&self, v: VertexId) -> Result<VertexLabelId, GraphError> {
        self.vertex_labels
            .get(v.index())
            .copied()
            .ok_or(GraphError::VertexOutOfRange(v.raw()))
    }

    /// Label of edge `e`.
    pub fn edge_label(&self, e: EdgeId) -> Result<EdgeLabelId, GraphError> {
        self.edge_labels
            .get(e.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfRange(e.raw()))
    }

    /// `(source, destination)` endpoints of edge `e`.
    pub fn edge_endpoints(&self, e: EdgeId) -> Result<(VertexId, VertexId), GraphError> {
        if e.index() >= self.edge_count() {
            return Err(GraphError::EdgeOutOfRange(e.raw()));
        }
        Ok((self.edge_srcs[e.index()], self.edge_dsts[e.index()]))
    }

    /// Whether edge `e` carries a deletion tombstone.
    #[must_use]
    pub fn edge_is_deleted(&self, e: EdgeId) -> bool {
        e.index() < self.edge_deleted.len() && self.edge_deleted.get(e.index())
    }

    /// Property value of vertex `v`, `None` when NULL/absent.
    #[inline]
    #[must_use]
    pub fn vertex_prop(&self, v: VertexId, pid: PropertyId) -> Option<i64> {
        self.vertex_props.get(pid.index())?.get(v.index())
    }

    /// Property value of edge `e`, `None` when NULL/absent.
    #[inline]
    #[must_use]
    pub fn edge_prop(&self, e: EdgeId, pid: PropertyId) -> Option<i64> {
        self.edge_props.get(pid.index())?.get(e.index())
    }

    /// Iterates all live edges as `(edge, src, dst, label)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, EdgeLabelId)> + '_ {
        self.edges_in(0..self.edge_count())
    }

    /// Iterates the live edges with IDs in `range` — a scan morsel. The
    /// range is clamped to the edge table, so callers may over-approximate.
    pub fn edges_in(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, EdgeLabelId)> + '_ {
        (range.start..range.end.min(self.edge_count())).filter_map(move |i| {
            let e = EdgeId(i as u64);
            if self.edge_is_deleted(e) {
                None
            } else {
                Some((e, self.edge_srcs[i], self.edge_dsts[i], self.edge_labels[i]))
            }
        })
    }

    /// Iterates all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count()).map(|i| VertexId(i as u32))
    }

    // ----- mutation ---------------------------------------------------------

    /// Adds a vertex with the given label name, returning its ID.
    pub fn add_vertex(&mut self, label: &str) -> VertexId {
        let lid = Arc::make_mut(&mut self.catalog).intern_vertex_label(label);
        let v = VertexId(u32::try_from(self.vertex_labels.len()).expect("vertex id overflow"));
        Arc::make_mut(&mut self.vertex_labels).push(lid);
        v
    }

    /// Adds an edge with the given label name, returning its ID.
    ///
    /// # Errors
    /// Returns an error if either endpoint is out of range.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: &str,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.vertex_count() {
            return Err(GraphError::VertexOutOfRange(src.raw()));
        }
        if dst.index() >= self.vertex_count() {
            return Err(GraphError::VertexOutOfRange(dst.raw()));
        }
        let lid = Arc::make_mut(&mut self.catalog).intern_edge_label(label);
        let e = EdgeId(self.edge_srcs.len() as u64);
        Arc::make_mut(&mut self.edge_srcs).push(src);
        Arc::make_mut(&mut self.edge_dsts).push(dst);
        Arc::make_mut(&mut self.edge_labels).push(lid);
        Arc::make_mut(&mut self.edge_deleted).push(false);
        self.live_edges += 1;
        if self.live_edges_per_label.len() <= lid.index() {
            self.live_edges_per_label.resize(lid.index() + 1, 0);
        }
        self.live_edges_per_label[lid.index()] += 1;
        Ok(e)
    }

    /// Marks edge `e` deleted (tombstone). Index maintenance reacts to this
    /// via its own tombstones (§IV-C); the edge slot is never reused.
    /// Deleting an already-deleted edge is a no-op: the statistics move
    /// only when the tombstone bit flips.
    pub fn delete_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        if e.index() >= self.edge_count() {
            return Err(GraphError::EdgeOutOfRange(e.raw()));
        }
        if self.edge_deleted.get(e.index()) {
            return Ok(());
        }
        Arc::make_mut(&mut self.edge_deleted).set(e.index(), true);
        self.live_edges -= 1;
        self.live_edges_per_label[self.edge_labels[e.index()].index()] -= 1;
        Ok(())
    }

    /// Registers a property key (idempotent for matching kinds).
    pub fn register_property(
        &mut self,
        entity: PropertyEntity,
        name: &str,
        kind: PropertyKind,
    ) -> Result<PropertyId, GraphError> {
        let pid = Arc::make_mut(&mut self.catalog).register_property(entity, name, kind)?;
        let cols = match entity {
            PropertyEntity::Vertex => &mut self.vertex_props,
            PropertyEntity::Edge => &mut self.edge_props,
        };
        while cols.len() <= pid.index() {
            cols.push(Arc::default());
        }
        Ok(pid)
    }

    /// Sets a property on a vertex. The property must already be registered.
    pub fn set_vertex_prop(
        &mut self,
        v: VertexId,
        pid: PropertyId,
        value: Value<'_>,
    ) -> Result<(), GraphError> {
        if v.index() >= self.vertex_count() {
            return Err(GraphError::VertexOutOfRange(v.raw()));
        }
        let encoded = self.encode_value(PropertyEntity::Vertex, pid, value)?;
        let col = self
            .vertex_props
            .get_mut(pid.index())
            .ok_or_else(|| GraphError::UnknownProperty(format!("{pid:?}")))?;
        // Copy-on-write: only the column being written is unshared.
        let col = Arc::make_mut(col);
        match encoded {
            Some(raw) => col.set(v.index(), raw),
            None => col.set_null(v.index()),
        }
        Ok(())
    }

    /// Sets a property on an edge. The property must already be registered.
    pub fn set_edge_prop(
        &mut self,
        e: EdgeId,
        pid: PropertyId,
        value: Value<'_>,
    ) -> Result<(), GraphError> {
        if e.index() >= self.edge_count() {
            return Err(GraphError::EdgeOutOfRange(e.raw()));
        }
        let encoded = self.encode_value(PropertyEntity::Edge, pid, value)?;
        let col = self
            .edge_props
            .get_mut(pid.index())
            .ok_or_else(|| GraphError::UnknownProperty(format!("{pid:?}")))?;
        let col = Arc::make_mut(col);
        match encoded {
            Some(raw) => col.set(e.index(), raw),
            None => col.set_null(e.index()),
        }
        Ok(())
    }

    /// Encodes a user-facing [`Value`] into the stored `i64` representation
    /// according to the property's kind. `Ok(None)` means NULL.
    pub fn encode_value(
        &mut self,
        entity: PropertyEntity,
        pid: PropertyId,
        value: Value<'_>,
    ) -> Result<Option<i64>, GraphError> {
        let kind = self.catalog.property_meta(entity, pid).kind;
        match (kind, value) {
            (_, Value::Null) => Ok(None),
            (PropertyKind::Int, Value::Int(i)) => Ok(Some(i)),
            (PropertyKind::Int, Value::Str(s)) => Err(GraphError::PropertyKindMismatch {
                property: s.to_owned(),
                expected: "Int",
                actual: "Str",
            }),
            (PropertyKind::Categorical, Value::Str(s)) => {
                let code = Arc::make_mut(&mut self.catalog).encode_categorical(entity, pid, s)?;
                Ok(Some(i64::from(code)))
            }
            (PropertyKind::Categorical, Value::Int(i)) => {
                // Integers are valid categorical values (§III-A1 allows
                // "integers or enums"); encode through the dictionary so the
                // domain stays dense.
                let code = Arc::make_mut(&mut self.catalog).encode_categorical(
                    entity,
                    pid,
                    &i.to_string(),
                )?;
                Ok(Some(i64::from(code)))
            }
            (PropertyKind::Text, Value::Str(s)) => Ok(Some(i64::from(
                Arc::make_mut(&mut self.catalog).intern_string(s),
            ))),
            (PropertyKind::Text, Value::Int(i)) => Ok(Some(i64::from(
                Arc::make_mut(&mut self.catalog).intern_string(&i.to_string()),
            ))),
        }
    }

    /// Approximate heap bytes used by the store (columns + topology).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let topo = self.vertex_labels.capacity() * 2
            + self.edge_srcs.capacity() * 4
            + self.edge_dsts.capacity() * 4
            + self.edge_labels.capacity() * 2
            + self.edge_deleted.memory_bytes();
        let props: usize = self
            .vertex_props
            .iter()
            .chain(self.edge_props.iter())
            .map(|c| c.memory_bytes())
            .sum();
        topo + props
    }
}

/// Convenience builder for assembling graphs in tests, examples and
/// generators.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Creates a builder over an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a vertex property key.
    pub fn vertex_property(mut self, name: &str, kind: PropertyKind) -> Self {
        self.graph
            .register_property(PropertyEntity::Vertex, name, kind)
            .expect("property registration cannot conflict in builder");
        self
    }

    /// Registers an edge property key.
    pub fn edge_property(mut self, name: &str, kind: PropertyKind) -> Self {
        self.graph
            .register_property(PropertyEntity::Edge, name, kind)
            .expect("property registration cannot conflict in builder");
        self
    }

    /// Adds a vertex with properties.
    pub fn add_vertex(&mut self, label: &str, props: &[(&str, Value<'_>)]) -> VertexId {
        let v = self.graph.add_vertex(label);
        for (name, value) in props {
            let pid = self
                .graph
                .catalog()
                .property(PropertyEntity::Vertex, name)
                .expect("vertex property must be registered before use");
            self.graph
                .set_vertex_prop(v, pid, *value)
                .expect("vertex id fresh");
        }
        v
    }

    /// Adds an edge with properties.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: &str,
        props: &[(&str, Value<'_>)],
    ) -> EdgeId {
        let e = self
            .graph
            .add_edge(src, dst, label)
            .expect("builder endpoints are valid");
        for (name, value) in props {
            let pid = self
                .graph
                .catalog()
                .property(PropertyEntity::Edge, name)
                .expect("edge property must be registered before use");
            self.graph
                .set_edge_prop(e, pid, *value)
                .expect("edge id fresh");
        }
        e
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new()
            .vertex_property("city", PropertyKind::Categorical)
            .edge_property("amt", PropertyKind::Int);
        let a = b.add_vertex("Account", &[("city", Value::Str("SF"))]);
        let c = b.add_vertex("Account", &[("city", Value::Str("BOS"))]);
        b.add_edge(a, c, "Wire", &[("amt", Value::Int(50))]);
        b.add_edge(c, a, "DD", &[("amt", Value::Int(75))]);
        b.build()
    }

    #[test]
    fn counts_and_lookups() {
        let g = sample();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.live_edge_count(), 2);
        let (s, d) = g.edge_endpoints(EdgeId(0)).unwrap();
        assert_eq!((s, d), (VertexId(0), VertexId(1)));
        let wire = g.catalog().edge_label("Wire").unwrap();
        assert_eq!(g.edge_label(EdgeId(0)).unwrap(), wire);
    }

    #[test]
    fn properties_roundtrip() {
        let g = sample();
        let city = g
            .catalog()
            .property(PropertyEntity::Vertex, "city")
            .unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        let sf = g
            .catalog()
            .categorical_code(PropertyEntity::Vertex, city, "SF")
            .unwrap();
        assert_eq!(g.vertex_prop(VertexId(0), city), Some(i64::from(sf)));
        assert_eq!(g.edge_prop(EdgeId(1), amt), Some(75));
    }

    #[test]
    fn missing_property_is_null() {
        let mut g = sample();
        let pid = g
            .register_property(PropertyEntity::Vertex, "score", PropertyKind::Int)
            .unwrap();
        assert_eq!(g.vertex_prop(VertexId(0), pid), None);
        g.set_vertex_prop(VertexId(0), pid, Value::Int(9)).unwrap();
        assert_eq!(g.vertex_prop(VertexId(0), pid), Some(9));
        g.set_vertex_prop(VertexId(0), pid, Value::Null).unwrap();
        assert_eq!(g.vertex_prop(VertexId(0), pid), None);
    }

    #[test]
    fn delete_edge_tombstones() {
        let mut g = sample();
        g.delete_edge(EdgeId(0)).unwrap();
        assert!(g.edge_is_deleted(EdgeId(0)));
        assert_eq!(g.live_edge_count(), 1);
        assert_eq!(g.edges().count(), 1);
        // Edge count (ID space) is unchanged.
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn double_delete_leaves_the_statistics_alone() {
        let mut g = sample();
        let wire = g.catalog().edge_label("Wire").unwrap();
        let dd = g.catalog().edge_label("DD").unwrap();
        g.delete_edge(EdgeId(0)).unwrap();
        g.delete_edge(EdgeId(0)).unwrap(); // already a tombstone: no-op
        assert_eq!(g.live_edge_count(), 1);
        assert_eq!(g.live_edges_per_label()[wire.index()], 0);
        assert_eq!(g.live_edges_per_label()[dd.index()], 1);
        assert_eq!(g.live_edge_count(), g.edges().count());
        assert!(g.delete_edge(EdgeId(9)).is_err());
        assert_eq!(g.live_edge_count(), 1, "a failed delete changes nothing");
    }

    #[test]
    fn add_edge_bad_endpoint_errors() {
        let mut g = sample();
        assert!(matches!(
            g.add_edge(VertexId(0), VertexId(99), "Wire"),
            Err(GraphError::VertexOutOfRange(99))
        ));
    }

    #[test]
    fn int_property_rejects_string() {
        let mut g = sample();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        assert!(g.set_edge_prop(EdgeId(0), amt, Value::Str("oops")).is_err());
    }

    #[test]
    fn clone_shares_until_written() {
        let g = sample();
        let mut head = g.clone();
        // A fresh clone shares every artifact (reference-count bumps only).
        assert!(Arc::ptr_eq(&g.catalog, &head.catalog));
        assert!(Arc::ptr_eq(&g.edge_srcs, &head.edge_srcs));
        assert!(Arc::ptr_eq(&g.edge_deleted, &head.edge_deleted));
        for (a, b) in g.edge_props.iter().zip(&head.edge_props) {
            assert!(Arc::ptr_eq(a, b));
        }
        // Writing one property column unshares exactly that column…
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        head.set_edge_prop(EdgeId(0), amt, Value::Int(99)).unwrap();
        assert!(!Arc::ptr_eq(
            &g.edge_props[amt.index()],
            &head.edge_props[amt.index()]
        ));
        assert!(
            Arc::ptr_eq(&g.edge_srcs, &head.edge_srcs),
            "topology still shared"
        );
        // …and the original graph is untouched.
        assert_eq!(g.edge_prop(EdgeId(0), amt), Some(50));
        assert_eq!(head.edge_prop(EdgeId(0), amt), Some(99));
        // Topology writes unshare the edge table, not the other clone.
        head.delete_edge(EdgeId(1)).unwrap();
        assert_eq!(head.live_edge_count(), 1);
        assert_eq!(g.live_edge_count(), 2);
    }

    #[test]
    fn categorical_accepts_ints_via_dictionary() {
        let mut b = GraphBuilder::new().vertex_property("grp", PropertyKind::Categorical);
        let v = b.add_vertex("V", &[("grp", Value::Int(7))]);
        let g = b.build();
        let pid = g.catalog().property(PropertyEntity::Vertex, "grp").unwrap();
        let code = g
            .catalog()
            .categorical_code(PropertyEntity::Vertex, pid, "7")
            .unwrap();
        assert_eq!(g.vertex_prop(v, pid), Some(i64::from(code)));
    }
}
