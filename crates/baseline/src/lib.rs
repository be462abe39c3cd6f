//! Fixed adjacency-list baseline engines (§V-E).
//!
//! The paper benchmarks GraphflowDB against Neo4j and TigerGraph — two
//! commercial systems whose adjacency-list layouts are *fixed*: "neither of
//! these systems has a mechanism for tuning through index reconfiguration
//! or construction". Running those systems is not possible here, so this
//! crate reproduces exactly the property Table V isolates — the fixed
//! layout and the binary-join-only plan space — inside the same process,
//! over the same graph store:
//!
//! * [`BaselineKind::Neo4jLike`] — adjacency partitioned by vertex and edge
//!   label, lists in insertion order (Neo4j's linked-list layout provides
//!   no sort). Cyclic edges are verified by scanning.
//! * [`BaselineKind::TigerGraphLike`] — same partitioning with
//!   neighbour-sorted lists, so verification uses binary search, but plans
//!   remain binary expand-and-verify (no WCOJ multiway intersections and no
//!   tunable secondary criteria).
//!
//! Both engines execute the same bound [`QueryGraph`] the A+ engine runs,
//! which makes result counts directly comparable (and cross-checked in
//! tests).

use aplus_common::{EdgeId, EdgeLabelId, VertexId};
use aplus_graph::{Graph, GraphStats};
use aplus_query::query::{QueryGraph, QueryPredicate, Row};

/// Which fixed layout to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Vertex + edge-label partitioning, unsorted lists.
    Neo4jLike,
    /// Vertex + edge-label partitioning, neighbour-sorted lists.
    TigerGraphLike,
}

impl BaselineKind {
    /// Display name used in Table V outputs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Neo4jLike => "N4-like",
            Self::TigerGraphLike => "TG-like",
        }
    }
}

/// A CSR partitioned by `(vertex, edge label)`.
#[derive(Debug)]
struct LabelCsr {
    label_count: usize,
    /// `vertex_count * label_count + 1` offsets.
    offsets: Vec<u32>,
    edges: Vec<u64>,
    nbrs: Vec<u32>,
}

impl LabelCsr {
    fn build(graph: &Graph, forward: bool, sorted: bool) -> Self {
        let n = graph.vertex_count();
        let label_count = graph.catalog().edge_label_count().max(1);
        let mut buckets: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n * label_count];
        for (e, src, dst, label) in graph.edges() {
            let (owner, nbr) = if forward { (src, dst) } else { (dst, src) };
            buckets[owner.index() * label_count + label.index()].push((e.raw(), nbr.raw()));
        }
        let mut offsets = Vec::with_capacity(n * label_count + 1);
        offsets.push(0u32);
        let total = buckets.iter().map(Vec::len).sum();
        let mut edges = Vec::with_capacity(total);
        let mut nbrs = Vec::with_capacity(total);
        for bucket in &mut buckets {
            if sorted {
                bucket.sort_unstable_by_key(|&(e, v)| (v, e));
            }
            for &(e, v) in bucket.iter() {
                edges.push(e);
                nbrs.push(v);
            }
            offsets.push(edges.len() as u32);
        }
        Self {
            label_count,
            offsets,
            edges,
            nbrs,
        }
    }

    /// The list of `owner` for one label, or the whole region when `None`.
    fn range(&self, owner: VertexId, label: Option<EdgeLabelId>) -> std::ops::Range<usize> {
        let base = owner.index() * self.label_count;
        match label {
            Some(l) => {
                let slot = base + l.index();
                self.offsets[slot] as usize..self.offsets[slot + 1] as usize
            }
            None => self.offsets[base] as usize..self.offsets[base + self.label_count] as usize,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.edges.capacity() * 8 + self.nbrs.capacity() * 4
    }
}

/// A baseline engine instance.
#[derive(Debug)]
pub struct Baseline {
    kind: BaselineKind,
    fwd: LabelCsr,
    bwd: LabelCsr,
    vertex_count: usize,
}

impl Baseline {
    /// Builds the fixed adjacency structures for `graph`.
    #[must_use]
    pub fn build(graph: &Graph, kind: BaselineKind) -> Self {
        let sorted = kind == BaselineKind::TigerGraphLike;
        Self {
            kind,
            fwd: LabelCsr::build(graph, true, sorted),
            bwd: LabelCsr::build(graph, false, sorted),
            vertex_count: graph.vertex_count(),
        }
    }

    /// Which layout this engine emulates.
    #[must_use]
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Heap bytes of the adjacency structures.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.fwd.memory_bytes() + self.bwd.memory_bytes()
    }

    /// Counts the matches of `query` with a binary expand-and-verify plan.
    #[must_use]
    pub fn count(&self, graph: &Graph, query: &QueryGraph) -> u64 {
        let mut n = 0u64;
        self.execute(graph, query, &mut |_| n += 1);
        n
    }

    /// Runs `query`, calling `on_row` per match.
    pub fn execute(&self, graph: &Graph, query: &QueryGraph, on_row: &mut dyn FnMut(&Row)) {
        if query.vertices.is_empty() {
            return;
        }
        let order = self.vertex_order(query);
        let mut row = Row::unbound(query.vertices.len(), query.edges.len());
        self.scan_anchor(graph, query, &order, &mut row, on_row);
    }

    /// Greedy join order: anchor on a pinned/filtered vertex, then grow by
    /// connectivity (most connections to the bound set first).
    fn vertex_order(&self, query: &QueryGraph) -> Vec<usize> {
        let n = query.vertices.len();
        let pinned = |v: usize| {
            query.predicates.iter().any(|p| {
                use aplus_core::CmpOp;
                use aplus_query::query::QueryOperand;
                matches!(
                    (p.lhs, p.op, p.rhs),
                    (QueryOperand::VertexIdOf(x), CmpOp::Eq, QueryOperand::Const(_)) if x == v
                )
            })
        };
        let anchor = (0..n)
            .max_by_key(|&v| {
                let mut score = 0usize;
                if pinned(v) {
                    score += 100;
                }
                if query.vertices[v].label.is_some() {
                    score += 10;
                }
                score += query.incident_edges(v).count();
                score
            })
            .expect("non-empty");
        let mut order = vec![anchor];
        let mut bound = 1u32 << anchor;
        while order.len() < n {
            let next = (0..n)
                .filter(|v| bound & (1 << v) == 0)
                .max_by_key(|&v| {
                    query
                        .incident_edges(v)
                        .filter(|&(_, o, _)| bound & (1 << o) != 0)
                        .count()
                })
                .expect("connected pattern");
            order.push(next);
            bound |= 1 << next;
        }
        order
    }

    fn scan_anchor(
        &self,
        graph: &Graph,
        query: &QueryGraph,
        order: &[usize],
        row: &mut Row,
        on_row: &mut dyn FnMut(&Row),
    ) {
        let anchor = order[0];
        for vi in 0..self.vertex_count {
            let v = VertexId(vi as u32);
            if let Some(want) = query.vertices[anchor].label {
                if graph.vertex_label(v) != Ok(want) {
                    continue;
                }
            }
            row.bind_vertex(anchor, v);
            if self.preds_hold(graph, query, row, 1 << anchor, 0) {
                self.extend(graph, query, order, 1, 1 << anchor, 0, row, on_row);
            }
            row.unbind_vertex(anchor);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn extend(
        &self,
        graph: &Graph,
        query: &QueryGraph,
        order: &[usize],
        depth: usize,
        mask: u32,
        bound_edges: u64,
        row: &mut Row,
        on_row: &mut dyn FnMut(&Row),
    ) {
        if depth == order.len() {
            on_row(row);
            return;
        }
        let target = order[depth];
        let connecting: Vec<(usize, usize, bool)> = query
            .incident_edges(target)
            .filter(|&(_, other, _)| mask & (1 << other) != 0)
            .collect();
        debug_assert!(!connecting.is_empty(), "order keeps the pattern connected");
        // Driver: first connecting edge; the rest are verified by probing.
        // incident_edges yields (edge, other, target_is_source).
        let &(drv_edge, drv_other, target_is_source) = connecting
            .first()
            .expect("connected order guarantees a connecting edge");
        // When target is the edge's source, the edge runs target -> other,
        // so from `other` we follow its backward list.
        let (csr, owner) = if target_is_source {
            (&self.bwd, row.vertex(drv_other).expect("bound"))
        } else {
            (&self.fwd, row.vertex(drv_other).expect("bound"))
        };
        let label = query.edges[drv_edge].label;
        let range = csr.range(owner, label);
        let new_mask = mask | (1 << target);
        for pos in range {
            let e = EdgeId(csr.edges[pos]);
            let nbr = VertexId(csr.nbrs[pos]);
            if row.uses_edge(e) {
                continue;
            }
            if let Some(want) = query.vertices[target].label {
                if graph.vertex_label(nbr) != Ok(want) {
                    continue;
                }
            }
            row.bind_vertex(target, nbr);
            row.bind_edge(drv_edge, e);
            self.verify_and_recurse(
                graph,
                query,
                order,
                depth,
                new_mask,
                bound_edges | (1 << drv_edge),
                &connecting[1..],
                row,
                on_row,
            );
            row.unbind_edge(drv_edge);
            row.unbind_vertex(target);
        }
    }

    /// Verifies the remaining connecting edges one at a time (cartesian
    /// over parallel edges), then evaluates newly-bound predicates and
    /// recurses to the next vertex.
    #[allow(clippy::too_many_arguments)]
    fn verify_and_recurse(
        &self,
        graph: &Graph,
        query: &QueryGraph,
        order: &[usize],
        depth: usize,
        mask: u32,
        bound_edges: u64,
        pending: &[(usize, usize, bool)],
        row: &mut Row,
        on_row: &mut dyn FnMut(&Row),
    ) {
        let Some(&(eidx, other, target_is_source)) = pending.first() else {
            // All edges of this extension bound: evaluate predicates that
            // just became evaluable.
            if self.preds_hold(graph, query, row, mask, bound_edges) {
                self.extend(
                    graph,
                    query,
                    order,
                    depth + 1,
                    mask,
                    bound_edges,
                    row,
                    on_row,
                );
            }
            return;
        };
        let target = order[depth];
        let tv = row.vertex(target).expect("just bound");
        // Probe from `other` towards target.
        let (csr, owner) = if target_is_source {
            (&self.bwd, row.vertex(other).expect("bound"))
        } else {
            (&self.fwd, row.vertex(other).expect("bound"))
        };
        let label = query.edges[eidx].label;
        let range = csr.range(owner, label);
        let probe_matches: Vec<EdgeId> = if self.kind == BaselineKind::TigerGraphLike {
            // Sorted within each (vertex, label) bucket: binary search when
            // a single bucket is addressed, else per-bucket searches.
            match label {
                Some(_) => binary_probe(csr, range, tv),
                None => {
                    let mut out = Vec::new();
                    for l in 0..csr.label_count {
                        let r = csr.range(owner, Some(EdgeLabelId(l as u16)));
                        out.extend(binary_probe(csr, r, tv));
                    }
                    out
                }
            }
        } else {
            range
                .filter(|&p| csr.nbrs[p] == tv.raw())
                .map(|p| EdgeId(csr.edges[p]))
                .collect()
        };
        for e in probe_matches {
            if row.uses_edge(e) {
                continue;
            }
            row.bind_edge(eidx, e);
            self.verify_and_recurse(
                graph,
                query,
                order,
                depth,
                mask,
                bound_edges | (1 << eidx),
                &pending[1..],
                row,
                on_row,
            );
            row.unbind_edge(eidx);
        }
    }

    /// Evaluates every predicate whose variables are bound. Called on
    /// binding transitions; predicates may be re-checked (cheap, and keeps
    /// the engine simple).
    fn preds_hold(
        &self,
        graph: &Graph,
        query: &QueryGraph,
        row: &mut Row,
        mask: u32,
        bound_edges: u64,
    ) -> bool {
        query.predicates.iter().all(|p| {
            if !pred_ready(p, mask, bound_edges) {
                return true;
            }
            p.eval(graph, row)
        })
    }
}

fn pred_ready(p: &QueryPredicate, mask: u32, bound_edges: u64) -> bool {
    p.vertex_vars().all(|v| mask & (1 << v) != 0)
        && p.edge_vars().all(|e| bound_edges & (1 << e) != 0)
}

fn binary_probe(csr: &LabelCsr, range: std::ops::Range<usize>, target: VertexId) -> Vec<EdgeId> {
    let slice = &csr.nbrs[range.clone()];
    let lo = slice.partition_point(|&n| n < target.raw());
    let hi = slice.partition_point(|&n| n <= target.raw());
    (range.start + lo..range.start + hi)
        .map(|p| EdgeId(csr.edges[p]))
        .collect()
}

/// Builds both baselines plus the stats used for Table V reporting.
#[must_use]
pub fn build_baselines(graph: &Graph) -> (Baseline, Baseline, GraphStats) {
    (
        Baseline::build(graph, BaselineKind::Neo4jLike),
        Baseline::build(graph, BaselineKind::TigerGraphLike),
        GraphStats::compute(graph),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aplus_datagen::{build_financial_graph, generate, GeneratorConfig};
    use aplus_query::Database;

    fn bind(db: &Database, q: &str) -> QueryGraph {
        db.prepare(q).unwrap().0
    }

    #[test]
    fn memory_after_build_is_what_the_lists_need() {
        let fg = build_financial_graph();
        for (forward, sorted) in [(true, false), (false, true)] {
            let csr = LabelCsr::build(&fg.graph, forward, sorted);
            let by_len = csr.offsets.len() * 4 + csr.edges.len() * 8 + csr.nbrs.len() * 4;
            assert_eq!(csr.memory_bytes(), by_len, "forward {forward}");
        }
    }

    #[test]
    fn counts_match_aplus_engine_on_financial_graph() {
        let fg = build_financial_graph();
        let db = Database::new(fg.graph.clone()).unwrap();
        let n4 = Baseline::build(db.graph(), BaselineKind::Neo4jLike);
        let tg = Baseline::build(db.graph(), BaselineKind::TigerGraphLike);
        let queries = [
            "MATCH a-[r:W]->b",
            "MATCH a-[r:O]->b-[s:W]->c",
            "MATCH a-[r]->b-[s]->c-[t]->a",
            "MATCH a-[r:W]->b-[s:DD]->c WHERE s.amt > 50",
            "MATCH a-[r]->b, a-[s]->c WHERE b.city = c.city",
        ];
        for q in queries {
            let bound = bind(&db, q);
            let expect = db.count(q).unwrap();
            assert_eq!(n4.count(db.graph(), &bound), expect, "N4 {q}");
            assert_eq!(tg.count(db.graph(), &bound), expect, "TG {q}");
        }
    }

    #[test]
    fn counts_match_on_random_labelled_graph() {
        let g = generate(&GeneratorConfig::social(120, 900, 3, 2));
        let db = Database::new(g).unwrap();
        let n4 = Baseline::build(db.graph(), BaselineKind::Neo4jLike);
        let tg = Baseline::build(db.graph(), BaselineKind::TigerGraphLike);
        let queries = [
            "MATCH (a:V0)-[r:E0]->(b:V1)",
            "MATCH a-[r:E0]->b-[s:E1]->c",
            "MATCH a-[r:E0]->b-[s:E0]->c-[t:E0]->a",
            "MATCH a-[r:E1]->b<-[s:E1]-c",
        ];
        for q in queries {
            let bound = bind(&db, q);
            let expect = db.count(q).unwrap();
            assert_eq!(n4.count(db.graph(), &bound), expect, "N4 {q}");
            assert_eq!(tg.count(db.graph(), &bound), expect, "TG {q}");
        }
    }

    #[test]
    fn pinned_anchor_query() {
        let fg = build_financial_graph();
        let db = Database::new(fg.graph.clone()).unwrap();
        let q = "MATCH a-[r:W]->b WHERE a.ID = 4";
        let bound = bind(&db, q);
        let tg = Baseline::build(db.graph(), BaselineKind::TigerGraphLike);
        assert_eq!(tg.count(db.graph(), &bound), db.count(q).unwrap());
    }

    #[test]
    fn memory_reported() {
        let fg = build_financial_graph();
        let (n4, tg, stats) = build_baselines(&fg.graph);
        assert!(n4.memory_bytes() > 0);
        assert!(tg.memory_bytes() > 0);
        assert_eq!(stats.edge_count, 25);
        assert_eq!(n4.kind().name(), "N4-like");
    }
}
