//! The bound query model: subgraph patterns plus conjunctive predicates.
//!
//! A [`QueryGraph`] is the resolved form of a `MATCH ... WHERE ...` query:
//! labels are interned through the catalog, constants are encoded into the
//! stored `i64` representation, and all predicates are conjunctions of
//! comparisons over query-variable properties — the fragment the paper's
//! workloads use (equality on labels and categorical properties, ranges on
//! numeric properties, inter-edge comparisons like `Pf(e1, e2)`, and
//! vertex-ID anchors like `a1.ID = v5` / `a1.ID < 50000`).

use aplus_common::{EdgeId, EdgeLabelId, PropertyId, VertexId, VertexLabelId};
use aplus_graph::Graph;

use aplus_core::{CmpOp, ViewComparison, ViewEntity, ViewOperand};

use crate::error::QueryError;

/// Maximum query vertices supported by the bitmask DP optimizer.
pub const MAX_QUERY_VERTICES: usize = 16;

/// Maximum hops a variable-length pattern may request: the bound
/// substituted for open upper bounds like `*` / `+` / `*2..`; an explicit
/// bound past it is a structured `hop_cap_exceeded` error.
pub const HOP_CAP: u32 = 64;

/// Resolved hop bounds of a variable-length query edge
/// (`-[:L*min..max]->`). Both bounds are inclusive; `min >= 1` and
/// `max <= HOP_CAP` are enforced at parse/bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarLength {
    /// Minimum number of hops (≥ 1).
    pub min: u32,
    /// Maximum number of hops (≥ `min`).
    pub max: u32,
}

/// A query vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryVertex {
    /// Variable name (`a1`).
    pub name: String,
    /// Required vertex label, if any.
    pub label: Option<VertexLabelId>,
}

/// A directed query edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEdge {
    /// Variable name (`r1`), if named.
    pub name: Option<String>,
    /// Source query-vertex index.
    pub src: usize,
    /// Destination query-vertex index.
    pub dst: usize,
    /// Required edge label, if any.
    pub label: Option<EdgeLabelId>,
    /// Variable-length hop bounds (`-[:L*min..max]->`); `None` for a
    /// plain single-hop edge. A variable-length edge matches when the
    /// shortest directed walk (length ≥ 1) from `src` to `dst` via
    /// label-matching edges lies within the bounds; it binds no edge slot.
    pub var_length: Option<VarLength>,
}

/// One side of a query predicate comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOperand {
    /// Property of a query vertex.
    VertexProp(usize, PropertyId),
    /// Property of a query edge.
    EdgeProp(usize, PropertyId),
    /// The data-vertex ID bound to a query vertex (`a1.ID`).
    VertexIdOf(usize),
    /// The data-edge ID bound to a query edge (`r1.eID`).
    EdgeIdOf(usize),
    /// The label code of the data edge bound to a query edge. Used by the
    /// optimizer to enforce a query-edge label as a residual filter when no
    /// index partition level covers it.
    EdgeLabelOf(usize),
    /// Encoded constant.
    Const(i64),
}

impl QueryOperand {
    /// Query-vertex variables referenced.
    fn vertex_var(self) -> Option<usize> {
        match self {
            Self::VertexProp(v, _) | Self::VertexIdOf(v) => Some(v),
            _ => None,
        }
    }

    /// Query-edge variables referenced.
    fn edge_var(self) -> Option<usize> {
        match self {
            Self::EdgeProp(e, _) | Self::EdgeIdOf(e) | Self::EdgeLabelOf(e) => Some(e),
            _ => None,
        }
    }
}

/// A comparison `lhs op (rhs + rhs_add)` over query variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPredicate {
    /// Left operand.
    pub lhs: QueryOperand,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: QueryOperand,
    /// Additive constant on the right (`e1.amt < e2.amt + α`).
    pub rhs_add: i64,
}

impl QueryPredicate {
    /// Plain comparison without an additive constant.
    #[must_use]
    pub fn new(lhs: QueryOperand, op: CmpOp, rhs: QueryOperand) -> Self {
        Self {
            lhs,
            op,
            rhs,
            rhs_add: 0,
        }
    }

    /// Vertex variables this predicate touches.
    pub fn vertex_vars(&self) -> impl Iterator<Item = usize> {
        self.lhs
            .vertex_var()
            .into_iter()
            .chain(self.rhs.vertex_var())
    }

    /// Edge variables this predicate touches.
    pub fn edge_vars(&self) -> impl Iterator<Item = usize> {
        self.lhs.edge_var().into_iter().chain(self.rhs.edge_var())
    }

    /// Whether this is a property-equality between two *different* query
    /// vertices on the same property — the trigger for MULTI-EXTEND plans
    /// (`a2.city = a4.city`). Returns `(va, vb, property)`.
    #[must_use]
    pub fn vertex_property_equality(&self) -> Option<(usize, usize, PropertyId)> {
        if self.op != CmpOp::Eq || self.rhs_add != 0 {
            return None;
        }
        match (self.lhs, self.rhs) {
            (QueryOperand::VertexProp(a, pa), QueryOperand::VertexProp(b, pb))
                if pa == pb && a != b =>
            {
                Some((a, b, pa))
            }
            _ => None,
        }
    }

    /// Evaluates against a row binding. Unbound or NULL operands fail the
    /// comparison, matching the view-predicate semantics.
    #[must_use]
    pub fn eval(&self, graph: &Graph, row: &Row) -> bool {
        let Some(lhs) = eval_operand(self.lhs, graph, row) else {
            return false;
        };
        let Some(rhs) = eval_operand(self.rhs, graph, row) else {
            return false;
        };
        self.op.eval(lhs, rhs.saturating_add(self.rhs_add))
    }
}

fn eval_operand(op: QueryOperand, graph: &Graph, row: &Row) -> Option<i64> {
    match op {
        QueryOperand::Const(c) => Some(c),
        QueryOperand::VertexProp(v, pid) => graph.vertex_prop(row.vertex(v)?, pid),
        QueryOperand::EdgeProp(e, pid) => graph.edge_prop(row.edge(e)?, pid),
        QueryOperand::VertexIdOf(v) => Some(i64::from(row.vertex(v)?.raw())),
        QueryOperand::EdgeIdOf(e) => i64::try_from(row.edge(e)?.raw()).ok(),
        QueryOperand::EdgeLabelOf(e) => graph
            .edge_label(row.edge(e)?)
            .ok()
            .map(|l| i64::from(l.raw())),
    }
}

/// A partial match: one slot per query vertex and per query edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    vertices: Vec<u32>,
    edges: Vec<u64>,
}

const UNBOUND_V: u32 = u32::MAX;
const UNBOUND_E: u64 = u64::MAX;

impl Row {
    /// An all-unbound row for a query with the given variable counts.
    #[must_use]
    pub fn unbound(vertex_vars: usize, edge_vars: usize) -> Self {
        Self {
            vertices: vec![UNBOUND_V; vertex_vars],
            edges: vec![UNBOUND_E; edge_vars],
        }
    }

    /// The data vertex bound to query vertex `var`, if any.
    #[inline]
    #[must_use]
    pub fn vertex(&self, var: usize) -> Option<VertexId> {
        let raw = self.vertices[var];
        (raw != UNBOUND_V).then_some(VertexId(raw))
    }

    /// The data edge bound to query edge `var`, if any.
    #[inline]
    #[must_use]
    pub fn edge(&self, var: usize) -> Option<EdgeId> {
        let raw = self.edges[var];
        (raw != UNBOUND_E).then_some(EdgeId(raw))
    }

    /// Binds a query vertex.
    #[inline]
    pub fn bind_vertex(&mut self, var: usize, v: VertexId) {
        self.vertices[var] = v.raw();
    }

    /// Binds a query edge.
    #[inline]
    pub fn bind_edge(&mut self, var: usize, e: EdgeId) {
        self.edges[var] = e.raw();
    }

    /// Unbinds a query vertex (backtracking).
    #[inline]
    pub fn unbind_vertex(&mut self, var: usize) {
        self.vertices[var] = UNBOUND_V;
    }

    /// Unbinds a query edge.
    #[inline]
    pub fn unbind_edge(&mut self, var: usize) {
        self.edges[var] = UNBOUND_E;
    }

    /// Whether data edge `e` is already bound to some query edge
    /// (openCypher relationship-uniqueness semantics).
    #[must_use]
    pub fn uses_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e.raw())
    }

    /// Bound vertex values (for result collection).
    #[must_use]
    pub fn vertex_slots(&self) -> &[u32] {
        &self.vertices
    }

    /// Bound edge values (for result collection).
    #[must_use]
    pub fn edge_slots(&self) -> &[u64] {
        &self.edges
    }
}

/// A bound query: pattern + predicates.
#[derive(Debug, Clone, Default)]
pub struct QueryGraph {
    /// Query vertices (variable order = index).
    pub vertices: Vec<QueryVertex>,
    /// Query edges.
    pub edges: Vec<QueryEdge>,
    /// Conjunctive predicates.
    pub predicates: Vec<QueryPredicate>,
}

impl QueryGraph {
    /// Validates structural invariants: size bound and connectivity.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.vertices.len() > MAX_QUERY_VERTICES {
            return Err(QueryError::TooManyQueryVertices {
                got: self.vertices.len(),
                max: MAX_QUERY_VERTICES,
            });
        }
        if self.vertices.len() > 1 {
            // Connectivity via union-find over query edges.
            let mut parent: Vec<usize> = (0..self.vertices.len()).collect();
            fn find(parent: &mut Vec<usize>, x: usize) -> usize {
                if parent[x] != x {
                    let r = find(parent, parent[x]);
                    parent[x] = r;
                }
                parent[x]
            }
            for e in &self.edges {
                let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
                parent[a] = b;
            }
            let root = find(&mut parent, 0);
            for v in 1..self.vertices.len() {
                if find(&mut parent, v) != root {
                    return Err(QueryError::DisconnectedPattern);
                }
            }
        }
        Ok(())
    }

    /// Query edges incident to vertex `v` as `(edge index, other endpoint,
    /// v-is-source)`.
    pub fn incident_edges(&self, v: usize) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
        self.edges.iter().enumerate().filter_map(move |(i, e)| {
            if e.src == v {
                Some((i, e.dst, true))
            } else if e.dst == v {
                Some((i, e.src, false))
            } else {
                None
            }
        })
    }

    /// Translates the query predicates that only involve `edge_var` and its
    /// endpoints into 1-hop view comparisons (for index-usability
    /// subsumption checks). `src_var`/`dst_var` are the query vertices at
    /// the edge's endpoints.
    #[must_use]
    pub fn one_hop_view_of(
        &self,
        edge_var: usize,
        src_var: usize,
        dst_var: usize,
    ) -> Vec<ViewComparison> {
        let mut out = Vec::new();
        for p in &self.predicates {
            let map = |op: QueryOperand| -> Option<ViewOperand> {
                match op {
                    QueryOperand::Const(c) => Some(ViewOperand::Const(c)),
                    QueryOperand::EdgeProp(e, pid) if e == edge_var => {
                        Some(ViewOperand::Prop(ViewEntity::AdjEdge, pid))
                    }
                    QueryOperand::VertexProp(v, pid) if v == src_var => {
                        Some(ViewOperand::Prop(ViewEntity::SrcVertex, pid))
                    }
                    QueryOperand::VertexProp(v, pid) if v == dst_var && dst_var != src_var => {
                        Some(ViewOperand::Prop(ViewEntity::DstVertex, pid))
                    }
                    _ => None,
                }
            };
            if let (Some(lhs), Some(rhs)) = (map(p.lhs), map(p.rhs)) {
                // Skip const-const (not useful) and require at least one
                // side to reference the pattern.
                if matches!(lhs, ViewOperand::Const(_)) && matches!(rhs, ViewOperand::Const(_)) {
                    continue;
                }
                out.push(ViewComparison {
                    lhs,
                    op: p.op,
                    rhs,
                    rhs_add: p.rhs_add,
                });
            }
        }
        out
    }

    /// Translates predicates relating `bound_var` (eb), `adj_var` (eadj)
    /// and `nbr_var` (vnbr) into 2-hop view comparisons.
    #[must_use]
    pub fn two_hop_view_of(
        &self,
        bound_var: usize,
        adj_var: usize,
        nbr_var: usize,
    ) -> Vec<ViewComparison> {
        let mut out = Vec::new();
        for p in &self.predicates {
            let map = |op: QueryOperand| -> Option<ViewOperand> {
                match op {
                    QueryOperand::Const(c) => Some(ViewOperand::Const(c)),
                    QueryOperand::EdgeProp(e, pid) if e == bound_var => {
                        Some(ViewOperand::Prop(ViewEntity::BoundEdge, pid))
                    }
                    QueryOperand::EdgeProp(e, pid) if e == adj_var => {
                        Some(ViewOperand::Prop(ViewEntity::AdjEdge, pid))
                    }
                    QueryOperand::VertexProp(v, pid) if v == nbr_var => {
                        Some(ViewOperand::Prop(ViewEntity::NbrVertex, pid))
                    }
                    _ => None,
                }
            };
            if let (Some(lhs), Some(rhs)) = (map(p.lhs), map(p.rhs)) {
                if matches!(lhs, ViewOperand::Const(_)) && matches!(rhs, ViewOperand::Const(_)) {
                    continue;
                }
                out.push(ViewComparison {
                    lhs,
                    op: p.op,
                    rhs,
                    rhs_add: p.rhs_add,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> QueryGraph {
        QueryGraph {
            vertices: (0..3)
                .map(|i| QueryVertex {
                    name: format!("a{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![
                QueryEdge {
                    name: None,
                    src: 0,
                    dst: 1,
                    label: None,
                    var_length: None,
                },
                QueryEdge {
                    name: None,
                    src: 1,
                    dst: 2,
                    label: None,
                    var_length: None,
                },
                QueryEdge {
                    name: None,
                    src: 2,
                    dst: 0,
                    label: None,
                    var_length: None,
                },
            ],
            predicates: vec![],
        }
    }

    #[test]
    fn validate_connected() {
        assert!(triangle().validate().is_ok());
        let mut dis = triangle();
        dis.vertices.push(QueryVertex {
            name: "lonely".into(),
            label: None,
        });
        assert_eq!(dis.validate().unwrap_err(), QueryError::DisconnectedPattern);
    }

    #[test]
    fn validate_size_limit() {
        let mut q = QueryGraph::default();
        for i in 0..=MAX_QUERY_VERTICES {
            q.vertices.push(QueryVertex {
                name: format!("v{i}"),
                label: None,
            });
        }
        assert!(matches!(
            q.validate(),
            Err(QueryError::TooManyQueryVertices { .. })
        ));
    }

    #[test]
    fn incident_edges_directions() {
        let q = triangle();
        let inc: Vec<_> = q.incident_edges(0).collect();
        assert_eq!(inc, vec![(0, 1, true), (2, 2, false)]);
    }

    #[test]
    fn row_bind_unbind() {
        let mut row = Row::unbound(2, 1);
        assert_eq!(row.vertex(0), None);
        row.bind_vertex(0, VertexId(7));
        assert_eq!(row.vertex(0), Some(VertexId(7)));
        row.bind_edge(0, EdgeId(3));
        assert!(row.uses_edge(EdgeId(3)));
        row.unbind_edge(0);
        assert!(!row.uses_edge(EdgeId(3)));
        row.unbind_vertex(0);
        assert_eq!(row.vertex(0), None);
    }

    #[test]
    fn vertex_property_equality_detection() {
        let p = QueryPredicate::new(
            QueryOperand::VertexProp(1, PropertyId(4)),
            CmpOp::Eq,
            QueryOperand::VertexProp(3, PropertyId(4)),
        );
        assert_eq!(p.vertex_property_equality(), Some((1, 3, PropertyId(4))));
        let not_eq = QueryPredicate::new(
            QueryOperand::VertexProp(1, PropertyId(4)),
            CmpOp::Lt,
            QueryOperand::VertexProp(3, PropertyId(4)),
        );
        assert_eq!(not_eq.vertex_property_equality(), None);
        let diff_prop = QueryPredicate::new(
            QueryOperand::VertexProp(1, PropertyId(4)),
            CmpOp::Eq,
            QueryOperand::VertexProp(3, PropertyId(5)),
        );
        assert_eq!(diff_prop.vertex_property_equality(), None);
    }

    #[test]
    fn one_hop_translation_maps_entities() {
        let mut q = triangle();
        q.edges[0].name = Some("r".into());
        q.predicates.push(QueryPredicate::new(
            QueryOperand::EdgeProp(0, PropertyId(9)),
            CmpOp::Gt,
            QueryOperand::Const(100),
        ));
        // A predicate on an unrelated edge var is not translated.
        q.predicates.push(QueryPredicate::new(
            QueryOperand::EdgeProp(1, PropertyId(9)),
            CmpOp::Gt,
            QueryOperand::Const(5),
        ));
        let view = q.one_hop_view_of(0, 0, 1);
        assert_eq!(view.len(), 1);
        assert_eq!(
            view[0].lhs,
            ViewOperand::Prop(ViewEntity::AdjEdge, PropertyId(9))
        );
    }

    #[test]
    fn two_hop_translation_maps_pf() {
        let mut q = triangle();
        q.predicates.push(QueryPredicate {
            lhs: QueryOperand::EdgeProp(0, PropertyId(1)),
            op: CmpOp::Lt,
            rhs: QueryOperand::EdgeProp(1, PropertyId(1)),
            rhs_add: 50,
        });
        let view = q.two_hop_view_of(0, 1, 2);
        assert_eq!(view.len(), 1);
        assert_eq!(
            view[0].lhs,
            ViewOperand::Prop(ViewEntity::BoundEdge, PropertyId(1))
        );
        assert_eq!(view[0].rhs_add, 50);
    }
}
