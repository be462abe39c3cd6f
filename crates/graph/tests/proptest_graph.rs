//! Property-based tests for the property-graph store: catalog dictionary
//! stability, column null semantics, and tombstone accounting under random
//! operation streams.

use proptest::prelude::*;

use aplus_common::{EdgeId, VertexId};
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Categorical dictionaries assign stable dense codes: re-encoding any
    /// seen value returns its original code, and the domain size equals the
    /// number of distinct values.
    #[test]
    fn categorical_codes_are_stable_and_dense(
        values in proptest::collection::vec(0u32..40, 1..200),
    ) {
        let mut g = Graph::new();
        let pid = g
            .register_property(PropertyEntity::Vertex, "c", PropertyKind::Categorical)
            .unwrap();
        for &v in &values {
            let vx = g.add_vertex("V");
            g.set_vertex_prop(vx, pid, Value::Str(&format!("val{v}"))).unwrap();
        }
        let mut distinct: Vec<u32> = values.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let meta = g.catalog().property_meta(PropertyEntity::Vertex, pid);
        prop_assert_eq!(meta.domain_size(), distinct.len());
        // Codes are dense 0..domain and stable on re-lookup.
        for &v in &distinct {
            let name = format!("val{v}");
            let code = g
                .catalog()
                .categorical_code(PropertyEntity::Vertex, pid, &name)
                .unwrap();
            prop_assert!((code as usize) < distinct.len());
            prop_assert_eq!(meta.categorical_value(code), Some(name.as_str()));
        }
        // Stored values decode back to the right strings.
        for (i, &v) in values.iter().enumerate() {
            let name = format!("val{v}");
            let stored = g.vertex_prop(VertexId(i as u32), pid).unwrap();
            prop_assert_eq!(meta.categorical_value(stored as u32), Some(name.as_str()));
        }
    }

    /// Property columns: any interleaving of set/set_null leaves exactly
    /// the last write visible, and untouched slots stay NULL.
    #[test]
    fn column_last_write_wins(
        ops in proptest::collection::vec((0usize..30, proptest::option::of(-100i64..100)), 0..150),
    ) {
        let mut g = Graph::new();
        let pid = g
            .register_property(PropertyEntity::Vertex, "x", PropertyKind::Int)
            .unwrap();
        for _ in 0..30 {
            g.add_vertex("V");
        }
        let mut model = vec![None::<i64>; 30];
        for &(slot, val) in &ops {
            let v = VertexId(slot as u32);
            match val {
                Some(x) => g.set_vertex_prop(v, pid, Value::Int(x)).unwrap(),
                None => g.set_vertex_prop(v, pid, Value::Null).unwrap(),
            }
            model[slot] = val;
        }
        for (i, &expect) in model.iter().enumerate() {
            prop_assert_eq!(g.vertex_prop(VertexId(i as u32), pid), expect);
        }
    }

    /// Edge tombstones: `edges()` yields exactly the non-deleted edges, in
    /// insertion order, and live_edge_count tracks.
    #[test]
    fn tombstones_hide_exactly_the_deleted(
        n_edges in 1usize..120,
        deletions in proptest::collection::vec(0usize..120, 0..60),
    ) {
        let mut g = Graph::new();
        let a = g.add_vertex("V");
        let b = g.add_vertex("V");
        for _ in 0..n_edges {
            g.add_edge(a, b, "E").unwrap();
        }
        let mut deleted = std::collections::BTreeSet::new();
        for &d in &deletions {
            let e = EdgeId((d % n_edges) as u64);
            g.delete_edge(e).unwrap();
            deleted.insert(e.raw());
        }
        let live: Vec<u64> = g.edges().map(|(e, ..)| e.raw()).collect();
        let expect: Vec<u64> = (0..n_edges as u64).filter(|e| !deleted.contains(e)).collect();
        prop_assert_eq!(live, expect);
        prop_assert_eq!(g.live_edge_count(), n_edges - deleted.len());
        prop_assert_eq!(g.edge_count(), n_edges);
    }

    /// Planner statistics are maintained, not recomputed: after every
    /// step of a random add / delete / double-delete stream over several
    /// labels, the O(1) counts equal an independent scan — on the graph
    /// and on a clone taken mid-stream that keeps diverging.
    #[test]
    fn maintained_statistics_equal_a_recount(
        ops in proptest::collection::vec((0u8..4, 0usize..200, 0usize..5), 1..200),
    ) {
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_vertex("V");
        }
        let mut fork: Option<Graph> = None;
        for (step, &(kind, pick, label)) in ops.iter().enumerate() {
            match kind {
                // Deletes pick among all edge IDs ever issued, so they hit
                // live edges, tombstones (double delete) and — on an empty
                // graph — nothing at all.
                0 | 1 if g.edge_count() > 0 => {
                    let e = EdgeId((pick % g.edge_count()) as u64);
                    g.delete_edge(e).unwrap();
                    if kind == 1 {
                        g.delete_edge(e).unwrap();
                    }
                }
                _ => {
                    let (s, d) = (VertexId((pick % 4) as u32), VertexId((pick / 4 % 4) as u32));
                    g.add_edge(s, d, &format!("L{label}")).unwrap();
                }
            }
            prop_assert_eq!(maintained(&g), recount(&g), "step {}", step);
            if step == ops.len() / 2 {
                fork = Some(g.clone());
            }
        }
        // The clone kept its own counters: it still matches its own scan,
        // and writes to it never reach the original.
        let mut fork = fork.expect("forked at the midpoint");
        prop_assert_eq!(maintained(&fork), recount(&fork));
        let before = maintained(&g);
        fork.add_edge(VertexId(0), VertexId(1), "L0").unwrap();
        fork.delete_edge(EdgeId(0)).unwrap();
        prop_assert_eq!(maintained(&fork), recount(&fork));
        prop_assert_eq!(maintained(&g), before);
    }
}

/// `(live edges, live edges per label)` as the graph maintains them.
fn maintained(g: &Graph) -> (usize, Vec<usize>) {
    let mut per_label = g.live_edges_per_label().to_vec();
    per_label.resize(g.catalog().edge_label_count(), 0);
    (g.live_edge_count(), per_label)
}

/// The same numbers from a scan of the edge table.
fn recount(g: &Graph) -> (usize, Vec<usize>) {
    let mut per_label = vec![0usize; g.catalog().edge_label_count()];
    let mut live = 0;
    for e in 0..g.edge_count() as u64 {
        if !g.edge_is_deleted(EdgeId(e)) {
            live += 1;
            per_label[g.edge_label(EdgeId(e)).unwrap().index()] += 1;
        }
    }
    (live, per_label)
}

/// SNAP loader round trip: write an edge list, load it, and compare the
/// topology (after densification) with the in-memory original.
#[test]
fn snap_loader_roundtrip() {
    use std::io::Write as _;
    let mut g = Graph::new();
    for _ in 0..10 {
        g.add_vertex("V");
    }
    let edges = [(0u32, 3u32), (3, 7), (7, 0), (2, 3), (0, 3)];
    for &(s, d) in &edges {
        g.add_edge(VertexId(s), VertexId(d), "E").unwrap();
    }
    let mut path = std::env::temp_dir();
    path.push("aplus_snap_roundtrip.txt");
    {
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "# test graph").unwrap();
        for &(s, d) in &edges {
            writeln!(f, "{s} {d}").unwrap();
        }
    }
    let loaded = aplus_graph::loader::load_snap_edge_list(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.edge_count(), edges.len());
    // Densified IDs preserve the multigraph structure: map original ->
    // dense by first appearance (0, 3, 7, 2).
    let dense = |orig: u32| match orig {
        0 => 0u32,
        3 => 1,
        7 => 2,
        2 => 3,
        _ => unreachable!(),
    };
    for (i, &(s, d)) in edges.iter().enumerate() {
        let (ls, ld) = loaded.edge_endpoints(EdgeId(i as u64)).unwrap();
        assert_eq!((ls.raw(), ld.raw()), (dense(s), dense(d)));
    }
}
