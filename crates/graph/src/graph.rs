//! The in-memory property graph.
//!
//! A [`Graph`] is the system of record: indexes (primary and secondary A+
//! indexes) are derived structures built over it. Vertex IDs are assigned
//! consecutively from 0 (§IV-B); edge IDs are assigned consecutively in
//! insertion order, which makes the insertion order a usable proxy for
//! time-ordered edge streams (the running example's `t_i.date < t_j.date if
//! i < j`).

use std::sync::Arc;

use aplus_common::{ChunkedVec, EdgeId, EdgeLabelId, PropertyId, VertexId, VertexLabelId};

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
/// property column — is shared copy-on-write: cloning a graph bumps
/// reference counts, and a clone only deep-copies what a later write
/// dirties. The edge table is shared chunk by chunk ([`ChunkedVec`]), so
/// an edge insert copies at most the tail chunk of each edge column and a
/// delete copies the one tombstone chunk holding the edge; a property
/// update copies that one column; the catalog is copied only when a write
/// interns a name it has not seen. This is what lets the service layer
/// publish immutable graph snapshots cheaply while a writer keeps mutating
/// its private head.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    catalog: Arc<Catalog>,
    vertex_labels: Arc<Vec<VertexLabelId>>,
    /// `(source, destination)` of each edge, side by side: an endpoint
    /// lookup reads one entry.
    edge_ends: ChunkedVec<(VertexId, VertexId)>,
    edge_labels: ChunkedVec<EdgeLabelId>,
    /// Tombstones for deleted edges (§IV-C), 64 edges per word.
    edge_deleted: ChunkedVec<u64>,
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
        self.edge_ends.len()
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
        match self.edge_ends.get(e.index()) {
            Some(&ends) => Ok(ends),
            None => Err(GraphError::EdgeOutOfRange(e.raw())),
        }
    }

    /// Whether edge `e` carries a deletion tombstone.
    #[must_use]
    pub fn edge_is_deleted(&self, e: EdgeId) -> bool {
        self.edge_deleted
            .get(e.index() / 64)
            .is_some_and(|word| word >> (e.index() % 64) & 1 == 1)
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
    /// Walks the edge columns one chunk slice at a time.
    pub fn edges_in(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, EdgeLabelId)> + '_ {
        let columns = self
            .edge_ends
            .slices(range.clone())
            .zip(self.edge_labels.slices(range));
        columns.flat_map(move |((start, ends), (_, labels))| {
            ends.iter()
                .zip(labels)
                .enumerate()
                .filter_map(move |(k, (&(src, dst), &label))| {
                    let e = EdgeId((start + k) as u64);
                    (!self.edge_is_deleted(e)).then_some((e, src, dst, label))
                })
        })
    }

    /// Iterates all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count()).map(|i| VertexId(i as u32))
    }

    // ----- mutation ---------------------------------------------------------

    /// Adds a vertex with the given label name, returning its ID.
    pub fn add_vertex(&mut self, label: &str) -> VertexId {
        let lid = match self.catalog.vertex_label(label) {
            Ok(lid) => lid,
            Err(_) => Arc::make_mut(&mut self.catalog).intern_vertex_label(label),
        };
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
        // Look the label up first: interning through `make_mut` would
        // deep-copy a shared catalog even when the label already exists.
        let lid = match self.catalog.edge_label(label) {
            Ok(lid) => lid,
            Err(_) => Arc::make_mut(&mut self.catalog).intern_edge_label(label),
        };
        let e = EdgeId(self.edge_ends.len() as u64);
        self.edge_ends.push((src, dst));
        self.edge_labels.push(lid);
        if e.index() % 64 == 0 {
            self.edge_deleted.push(0);
        }
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
        if self.edge_is_deleted(e) {
            return Ok(());
        }
        let word = e.index() / 64;
        self.edge_deleted
            .set(word, self.edge_deleted[word] | 1 << (e.index() % 64));
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
                Ok(Some(i64::from(self.categorical_code(entity, pid, s)?)))
            }
            // Integers are valid categorical values (§III-A1 allows
            // "integers or enums"); encode through the dictionary so the
            // domain stays dense.
            (PropertyKind::Categorical, Value::Int(i)) => Ok(Some(i64::from(
                self.categorical_code(entity, pid, &i.to_string())?,
            ))),
            (PropertyKind::Text, Value::Str(s)) => Ok(Some(i64::from(self.string_code(s)))),
            (PropertyKind::Text, Value::Int(i)) => {
                Ok(Some(i64::from(self.string_code(&i.to_string()))))
            }
        }
    }

    /// The dictionary code of a categorical value, unsharing the catalog
    /// only when the value is new.
    fn categorical_code(
        &mut self,
        entity: PropertyEntity,
        pid: PropertyId,
        value: &str,
    ) -> Result<u32, GraphError> {
        match self.catalog.categorical_code(entity, pid, value) {
            Some(code) => Ok(code),
            None => Arc::make_mut(&mut self.catalog).encode_categorical(entity, pid, value),
        }
    }

    /// The interned code of a text value, unsharing the catalog only when
    /// the string is new.
    fn string_code(&mut self, value: &str) -> u32 {
        match self.catalog.string_code(value) {
            Some(code) => code,
            None => Arc::make_mut(&mut self.catalog).intern_string(value),
        }
    }

    /// Approximate heap bytes used by the store (columns + topology).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let topo = self.vertex_labels.capacity() * 2
            + self.edge_ends.memory_bytes()
            + self.edge_labels.memory_bytes()
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
    use aplus_common::chunked::CHUNK_LEN;

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

    /// Indexes of the chunks `a` and `b` do not share (a chunk only one of
    /// them has counts as unshared).
    fn unshared_chunks<T>(a: &ChunkedVec<T>, b: &ChunkedVec<T>) -> Vec<usize> {
        let ptrs = |c: &ChunkedVec<T>| -> Vec<*const T> {
            c.slices(0..c.len()).map(|(_, s)| s.as_ptr()).collect()
        };
        let (a, b) = (ptrs(a), ptrs(b));
        (0..a.len().max(b.len()))
            .filter(|&i| a.get(i) != b.get(i))
            .collect()
    }

    #[test]
    fn clone_shares_until_written() {
        // Enough edges for two chunks of tombstone words (64 edges a word).
        let mut g = sample();
        while g.edge_count() < 64 * CHUNK_LEN + 10 {
            g.add_edge(VertexId(0), VertexId(1), "Wire").unwrap();
        }
        let mut head = g.clone();
        // A fresh clone shares every artifact (reference-count bumps only).
        assert!(Arc::ptr_eq(&g.catalog, &head.catalog));
        assert!(unshared_chunks(&g.edge_ends, &head.edge_ends).is_empty());
        assert!(unshared_chunks(&g.edge_deleted, &head.edge_deleted).is_empty());
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
        assert!(unshared_chunks(&g.edge_ends, &head.edge_ends).is_empty());
        // …and the original graph is untouched.
        assert_eq!(g.edge_prop(EdgeId(0), amt), Some(50));
        assert_eq!(head.edge_prop(EdgeId(0), amt), Some(99));

        // An insert copies the tail chunk of each edge column; its edge ID
        // is not a multiple of 64, so no tombstone word is added.
        let tail = g.edge_count() / CHUNK_LEN;
        let e = head.add_edge(VertexId(1), VertexId(0), "DD").unwrap();
        assert_eq!(unshared_chunks(&g.edge_ends, &head.edge_ends), vec![tail]);
        assert_eq!(
            unshared_chunks(&g.edge_labels, &head.edge_labels),
            vec![tail]
        );
        assert!(unshared_chunks(&g.edge_deleted, &head.edge_deleted).is_empty());
        assert!(g.edge_endpoints(e).is_err());
        assert_eq!(head.edges_in(e.index()..usize::MAX).count(), 1);

        // A delete copies the one tombstone chunk holding the edge…
        head.delete_edge(EdgeId(1)).unwrap();
        assert_eq!(
            unshared_chunks(&g.edge_deleted, &head.edge_deleted),
            vec![0]
        );
        assert!(head.edge_is_deleted(EdgeId(1)) && !g.edge_is_deleted(EdgeId(1)));
        assert_eq!(head.live_edge_count(), g.live_edge_count());
        // …and deleting it again copies nothing.
        let mut again = head.clone();
        again.delete_edge(EdgeId(1)).unwrap();
        assert!(unshared_chunks(&head.edge_deleted, &again.edge_deleted).is_empty());
    }

    #[test]
    fn known_names_leave_the_catalog_shared() {
        let g = sample();
        let mut head = g.clone();
        let city = g
            .catalog()
            .property(PropertyEntity::Vertex, "city")
            .unwrap();
        head.add_edge(VertexId(0), VertexId(1), "Wire").unwrap();
        head.add_vertex("Account");
        head.set_vertex_prop(VertexId(0), city, Value::Str("BOS"))
            .unwrap();
        assert!(
            Arc::ptr_eq(&g.catalog, &head.catalog),
            "names that already exist intern nothing"
        );
        head.add_edge(VertexId(0), VertexId(1), "NEW").unwrap();
        assert!(!Arc::ptr_eq(&g.catalog, &head.catalog));
        assert!(g.catalog().edge_label("NEW").is_err());
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
