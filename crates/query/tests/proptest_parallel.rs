//! Property tests for morsel-driven parallel execution: over random
//! graphs × random primary/secondary index configurations × thread counts
//! {1, 2, 4}, the parallel count must be identical to the sequential one,
//! and parallel `collect` and the streamed `RowSink` must return the
//! **bit-identical row sequence** as sequential `collect` — including
//! under random `LIMIT`s and on pinned-root skew graphs where the first
//! E/I level is what parallelizes. Index tuning and thread count must
//! never change query results.
//!
//! The graphs here are small (≤ 24 vertices), which is deliberate: the
//! executor's morsel size adapts down to 1 at this scale
//! (`aplus_runtime::scan_morsel_size`), so multi-threaded runs really do
//! split the root scan (or the first E/I's adjacency lists) across
//! workers rather than degenerating to one morsel.

use std::ops::ControlFlow;

use proptest::prelude::*;

use aplus_core::store::IndexDirections;
use aplus_core::view::OneHopView;
use aplus_core::{IndexSpec, PartitionKey, SortKey, ViewPredicate};
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};
use aplus_query::{Database, MorselPool, RawRow};

mod common;
use common::{collect_on, count_on};

const N: u32 = 24;

/// Thread counts the equivalence is checked at (1 = the sequential path).
const THREADS: [usize; 3] = [1, 2, 4];

fn build_graph(edges: &[(u32, u32, i64, bool)]) -> Graph {
    let mut g = Graph::new();
    g.register_property(PropertyEntity::Edge, "w", PropertyKind::Int)
        .unwrap();
    g.register_property(PropertyEntity::Vertex, "grp", PropertyKind::Categorical)
        .unwrap();
    let grp = g.catalog().property(PropertyEntity::Vertex, "grp").unwrap();
    for i in 0..N {
        let v = g.add_vertex(if i % 3 == 0 { "A" } else { "B" });
        g.set_vertex_prop(v, grp, Value::Str(&format!("g{}", i % 3)))
            .unwrap();
    }
    let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
    for &(s, d, wt, second_label) in edges {
        let e = g
            .add_edge(
                aplus_common::VertexId(s % N),
                aplus_common::VertexId(d % N),
                if second_label { "F" } else { "E" },
            )
            .unwrap();
        g.set_edge_prop(e, w, Value::Int(wt)).unwrap();
    }
    g
}

/// Query templates: vertex-scan roots, an edge-scan root (`r.eID`), label
/// filters, property predicates, a cycle and a MULTI-EXTEND trigger.
const TEMPLATES: &[&str] = &[
    "MATCH a-[r:E]->b",
    "MATCH a-[r:E]->b-[s:F]->c",
    "MATCH a-[r:E]->b-[s:E]->c-[t:E]->a",
    "MATCH (a:A)-[r:E]->(b:B)",
    "MATCH a-[r]->b WHERE r.w > 40",
    "MATCH a-[r]->b WHERE r.eID = 3",
    "MATCH a-[r]->b-[s]->c WHERE r.w > s.w",
    "MATCH a-[r]->b, a-[s]->c WHERE b.grp = c.grp",
    "MATCH a-[r:E]->b<-[s:E]-c",
];

/// Drains a streamed query through a closure `RowSink`, returning the
/// pushed rows (the "drained RowSink" leg of the differential check).
fn drain_stream(db: &Database, q: &str, limit: usize, pool: &MorselPool) -> Vec<RawRow> {
    let mut rows = Vec::new();
    db.stream(q, limit, pool, &mut |r: RawRow| {
        rows.push(r);
        ControlFlow::Continue(())
    })
    .expect("query streams");
    rows
}

/// Asserts every result path agrees row-for-row at every thread count:
/// sequential `collect` == parallel collect == drained `RowSink`.
fn assert_differential(db: &Database, q: &str, limit: usize) -> Result<(), TestCaseError> {
    let seq = db.collect(q, limit).unwrap();
    for t in THREADS {
        let pool = MorselPool::new(t);
        let par = collect_on(db, q, limit, &pool);
        prop_assert_eq!(
            &par,
            &seq,
            "parallel collect diverged: query {} threads {} limit {}",
            q,
            t,
            limit
        );
        let streamed = drain_stream(db, q, limit, &pool);
        prop_assert_eq!(
            &streamed,
            &seq,
            "streamed rows diverged: query {} threads {} limit {}",
            q,
            t,
            limit
        );
    }
    Ok(())
}

/// A skew graph: vertex 0 is a supernode fanning out to most of the graph
/// (`hub_degree` edges), plus random background edges. Queries pinned to
/// `a.ID = 0` bind a single root vertex, so only first-E/I partitioning
/// can parallelize them.
fn build_skew_graph(hub_degree: u32, edges: &[(u32, u32, i64, bool)]) -> Graph {
    let mut g = build_graph(edges);
    let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
    for i in 0..hub_degree {
        let e = g
            .add_edge(
                aplus_common::VertexId(0),
                aplus_common::VertexId(1 + i % (N - 1)),
                if i % 2 == 0 { "E" } else { "F" },
            )
            .unwrap();
        g.set_edge_prop(e, w, Value::Int(i64::from(i % 97)))
            .unwrap();
    }
    g
}

/// Pinned-root templates: the root scan binds exactly one vertex (the
/// supernode), exercising the first-E/I partitioned path — a plain fan-out
/// extend, a 2-hop, a property-filtered 2-hop, and a cycle whose deeper
/// levels intersect.
const PINNED_TEMPLATES: &[&str] = &[
    "MATCH a-[r]->b WHERE a.ID = 0",
    "MATCH a-[r]->b-[s]->c WHERE a.ID = 0",
    "MATCH a-[r]->b-[s]->c WHERE a.ID = 0, r.w > s.w",
    "MATCH a-[r:E]->b-[s:E]->c-[t:E]->a WHERE a.ID = 0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_count_equals_sequential(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..50),
        config in 0usize..4,
    ) {
        let g = build_graph(&edges);
        let spec = match config {
            0 => IndexSpec::default_primary(),
            1 => IndexSpec::default().with_sort(vec![SortKey::NbrId]),
            2 => IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::NbrLabel])
                .with_sort(vec![SortKey::NbrId]),
            _ => {
                let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
                IndexSpec::default()
                    .with_partitioning(vec![PartitionKey::EdgeLabel])
                    .with_sort(vec![SortKey::EdgeProp(w)])
            }
        };
        let db = Database::with_primary_spec(g, spec).unwrap();
        for q in TEMPLATES {
            let seq = db.count(q).unwrap();
            for t in THREADS {
                let par = count_on(&db, q, &MorselPool::new(t));
                prop_assert_eq!(par, seq, "config {} query {} threads {}", config, q, t);
            }
        }
    }

    #[test]
    fn parallel_count_stable_under_secondary_indexes(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..50),
        threshold in 0i64..100,
    ) {
        let g = build_graph(&edges);
        let mut db = Database::new(g).unwrap();
        let reference: Vec<u64> = TEMPLATES.iter().map(|q| db.count(q).unwrap()).collect();
        {
            let w = db
                .graph()
                .catalog()
                .property(PropertyEntity::Edge, "w")
                .unwrap();
            let (store, graph) = db.store_and_graph_mut();
            store
                .create_vertex_index(
                    graph,
                    "big",
                    IndexDirections::FwBw,
                    OneHopView::new(ViewPredicate::all_of(vec![
                        aplus_core::ViewComparison::prop_const(
                            aplus_core::ViewEntity::AdjEdge,
                            w,
                            aplus_core::CmpOp::Gt,
                            threshold,
                        ),
                    ]))
                    .unwrap(),
                    IndexSpec::default_primary(),
                )
                .unwrap();
        }
        for (q, &expect) in TEMPLATES.iter().zip(&reference) {
            for t in THREADS {
                let par = count_on(&db, q, &MorselPool::new(t));
                prop_assert_eq!(par, expect, "query {} threads {}", q, t);
            }
        }
    }

    /// The differential suite proper: sequential `collect`, parallel
    /// `collect` and the drained streaming sink return the same rows in
    /// the same order, across thread counts, random limits and index
    /// configurations.
    #[test]
    fn collect_paths_agree_across_threads_and_limits(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..50),
        config in 0usize..4,
        limit_raw in 0usize..200,
    ) {
        let g = build_graph(&edges);
        let spec = match config {
            0 => IndexSpec::default_primary(),
            1 => IndexSpec::default().with_sort(vec![SortKey::NbrId]),
            2 => IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::NbrLabel])
                .with_sort(vec![SortKey::NbrId]),
            _ => {
                let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
                IndexSpec::default()
                    .with_partitioning(vec![PartitionKey::EdgeLabel])
                    .with_sort(vec![SortKey::EdgeProp(w)])
            }
        };
        let db = Database::with_primary_spec(g, spec).unwrap();
        // Mix bounded limits with "everything" (usize::MAX).
        let limit = if limit_raw >= 150 { usize::MAX } else { limit_raw };
        for q in TEMPLATES {
            assert_differential(&db, q, limit)?;
            // Vertex- and edge-scan root ranges, against the oracle.
            common::assert_one_driver(&db, q)?;
        }
    }

    /// Pinned-root skew: the root binds a single supernode, so the first
    /// E/I level partitions. Counts, collected rows and streamed rows must
    /// all match the sequential path.
    #[test]
    fn pinned_root_skew_collects_agree(
        hub_degree in 16u32..120,
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 0..30),
        limit_raw in 0usize..200,
    ) {
        let g = build_skew_graph(hub_degree, &edges);
        let db = Database::new(g).unwrap();
        let limit = if limit_raw >= 150 { usize::MAX } else { limit_raw };
        for q in PINNED_TEMPLATES {
            let seq_count = db.count(q).unwrap();
            for t in THREADS {
                let par = count_on(&db, q, &MorselPool::new(t));
                prop_assert_eq!(par, seq_count, "count: query {} threads {}", q, t);
            }
            assert_differential(&db, q, limit)?;
            // Pinned first-E/I, against the oracle.
            common::assert_one_driver(&db, q)?;
        }
    }
}
