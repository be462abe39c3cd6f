//! Graph statistics for Table I reporting. The counts the optimizer's
//! i-cost estimates need (§IV-A: "The system's cost metric is intersection
//! cost (i-cost), which is the total estimated sizes of the adjacency
//! lists") are maintained by [`Graph`] itself and read from there; only
//! the degree maxima below need a pass over the edges.

use aplus_common::EdgeLabelId;
use aplus_common::FxHashMap;

use crate::graph::Graph;

/// Aggregate statistics over a [`Graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertex_count: usize,
    /// Number of live edges.
    pub edge_count: usize,
    /// Average out-degree (`edge_count / vertex_count`).
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Live edge count per edge label.
    pub edges_per_label: FxHashMap<EdgeLabelId, usize>,
}

impl GraphStats {
    /// Computes statistics: the edge counts are the graph's maintained
    /// ones (the same integers the optimizer reads), the degree maxima
    /// take one pass over the edges.
    #[must_use]
    pub fn compute(graph: &Graph) -> Self {
        let n = graph.vertex_count();
        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for (_, src, dst, _) in graph.edges() {
            out_deg[src.index()] += 1;
            in_deg[dst.index()] += 1;
        }
        let m = graph.live_edge_count();
        let edges_per_label: FxHashMap<EdgeLabelId, usize> = graph
            .live_edges_per_label()
            .iter()
            .enumerate()
            .filter(|&(_, &live)| live > 0)
            .map(|(label, &live)| (EdgeLabelId(label as u16), live))
            .collect();
        Self {
            vertex_count: n,
            edge_count: m,
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            max_out_degree: out_deg.iter().copied().max().unwrap_or(0),
            max_in_degree: in_deg.iter().copied().max().unwrap_or(0),
            edges_per_label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn stats_on_small_graph() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex("V", &[]);
        let v1 = b.add_vertex("V", &[]);
        let v2 = b.add_vertex("V", &[]);
        b.add_edge(v0, v1, "A", &[]);
        b.add_edge(v0, v2, "A", &[]);
        b.add_edge(v1, v2, "B", &[]);
        let g = b.build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertex_count, 3);
        assert_eq!(s.edge_count, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert!((s.avg_degree - 1.0).abs() < f64::EPSILON);
        let a = g.catalog().edge_label("A").unwrap();
        assert_eq!(s.edges_per_label[&a], 2);
    }

    #[test]
    fn deleted_edges_are_excluded() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex("V", &[]);
        let v1 = b.add_vertex("V", &[]);
        b.add_edge(v0, v1, "A", &[]);
        b.add_edge(v1, v0, "A", &[]);
        let mut g = b.build();
        g.delete_edge(aplus_common::EdgeId(0)).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.edge_count, 1);
    }

    #[test]
    fn empty_graph() {
        let s = GraphStats::compute(&Graph::new());
        assert_eq!(s.vertex_count, 0);
        assert_eq!(s.avg_degree, 0.0);
    }
}
