//! Property tests for the factorized block engine, the one engine every
//! plan runs on: over random graphs × index configurations × thread counts
//! {1, 2, 4} × limits, every plan shape — vertex- and edge-scan roots, E/I,
//! MULTI-EXTEND, var-length expansions and filters — must return the
//! oracle's rows (`common::oracle_rows`) in an order that is bit-identical
//! at every thread count, and the factorized count — multiplicities folded
//! on factorized levels, never flattening — must equal the flattened row
//! count.

use std::ops::ControlFlow;

use proptest::prelude::*;

use aplus_core::{IndexSpec, PartitionKey, SortKey};
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};
use aplus_query::plan::Operator;
use aplus_query::{Database, MorselPool, RawRow};

mod common;

const N: u32 = 24;

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

/// Templates covering every plan shape. First, vertex-scan roots with E/I
/// (+ residual filters): plain extends, label checks, cycles (relationship
/// uniqueness on factorized levels), high-multiplicity fan-outs and pinned
/// roots. The five after the two pinned ones end in a labelled single-list tail
/// whose owner already has a bound edge in the tail list's direction, so
/// the in-place count must subtract it: a star with same-label siblings, a
/// tree whose tail shares its owner with the level before (also from a
/// pinned root, so the owner is neither the root nor the newest binding),
/// and a tail read from a backward list; the star with different-label
/// siblings must not. Then the paper workload's densest cyclic shapes, SQ3
/// (diamond) and SQ9 (4-clique), whose closing levels intersect two and
/// three lists. Last, an edge-scan root, a MULTI-EXTEND (planned on the
/// `bygrp` configuration) and var-length expansions at the tail, in the
/// middle and at the front of a pipeline.
const TEMPLATES: &[&str] = &[
    "MATCH a-[r:E]->b",
    "MATCH a-[r]->b",
    "MATCH a-[r:E]->b-[s:F]->c",
    "MATCH a-[r]->b-[s]->c",
    "MATCH a-[r:E]->b-[s:E]->c-[t:E]->a",
    "MATCH (a:A)-[r:E]->(b:B)",
    "MATCH a-[r]->b WHERE r.w > 40",
    "MATCH a-[r]->b-[s]->c WHERE r.w > s.w",
    "MATCH a-[r:E]->b<-[s:E]-c",
    "MATCH a-[r]->b WHERE a.ID = 0",
    "MATCH a-[r]->b-[s]->c WHERE a.ID = 0",
    "MATCH (a:A)-[r:E]->(b:B), (a:A)-[s:E]->(c:B)",
    "MATCH (a)-[r:E]->(b:B), (b:B)-[s:E]->(c:B), (b:B)-[t:E]->(d:B)",
    "MATCH (a)-[r:E]->(b:B), (b:B)-[s:E]->(c:B), (b:B)-[t:E]->(d:B) WHERE a.ID = 0",
    "MATCH (a:B)-[r:E]->(b:B), (c:B)-[s:E]->(b:B)",
    "MATCH (a)-[r:E]->(b:A), (a)-[s:E]->(c:B)",
    "MATCH a-[r:E]->b, b-[s:E]->c, c-[t:E]->d, d-[u:E]->a, a-[v:E]->c",
    "MATCH a-[r:E]->b, a-[s:E]->c, a-[t:E]->d, b-[u:E]->c, b-[v:E]->d, c-[x:E]->d",
    "MATCH a-[r]->b-[s]->c WHERE r.eID = 3",
    "MATCH a-[r]->b, a-[s]->c WHERE b.grp = c.grp",
    "MATCH a-[:E*1..3]->b",
    "MATCH a-[r:E]->b-[:F*1..2]->c",
    "MATCH a-[:E*2..3]->b-[s:F]->c WHERE a.ID = 0",
];

/// The primary configurations, plus (config 3) a grp-sorted secondary
/// index, which is what the optimizer needs to plan a MULTI-EXTEND.
fn database(g: Graph, config: usize) -> Database {
    let spec = match config {
        1 => IndexSpec::default().with_sort(vec![SortKey::NbrId]),
        2 => IndexSpec::default()
            .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::NbrLabel])
            .with_sort(vec![SortKey::NbrId]),
        _ => IndexSpec::default_primary(),
    };
    let mut db = Database::with_primary_spec(g, spec).unwrap();
    if config == 3 {
        db.ddl("CREATE 1-HOP VIEW bygrp MATCH vs-[eadj]->vd INDEX AS FW SORT BY vnbr.grp")
            .unwrap();
    }
    db
}

/// Whether any of `ops` is the operator kind of `probe`.
fn has(ops: &[Operator], probe: fn(&Operator) -> bool) -> bool {
    ops.iter().any(probe)
}

/// Folds every endpoint into the first `CORE` vertices when `dense`, so
/// the cyclic templates (diamond, 4-clique) find matches on random inputs.
const CORE: u32 = 6;

fn maybe_dense(edges: &[(u32, u32, i64, bool)], dense: bool) -> Vec<(u32, u32, i64, bool)> {
    let n = if dense { CORE } else { N };
    edges
        .iter()
        .map(|&(s, d, w, l)| (s % n, d % n, w, l))
        .collect()
}

fn drain_stream_prepared(
    db: &Database,
    bound: &aplus_query::QueryGraph,
    plan: &aplus_query::plan::Plan,
    limit: usize,
    pool: &MorselPool,
) -> Vec<RawRow> {
    let mut rows = Vec::new();
    db.stream_prepared(bound, plan, limit, pool, &mut |r: RawRow| {
        rows.push(r);
        ControlFlow::Continue(())
    });
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rows: every template returns the oracle's rows, as an order that is
    /// bit-identical at every thread count and limit, and the templates
    /// reach every operator kind.
    #[test]
    fn block_rows_equal_oracle(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..50),
        dense in prop::bool::ANY,
        config in 0usize..4,
    ) {
        let db = database(build_graph(&maybe_dense(&edges, dense)), config);
        let mut ops = Vec::new();
        for q in TEMPLATES {
            common::assert_one_driver(&db, q)?;
            ops.extend(db.prepare(q).unwrap().1.ops);
        }
        prop_assert!(has(&ops, |o| matches!(o, Operator::ScanEdges { .. })));
        prop_assert!(has(&ops, |o| matches!(o, Operator::VarLengthExpand { .. })));
        if config == 3 {
            prop_assert!(has(&ops, |o| matches!(o, Operator::MultiExtend { .. })));
        }
    }

    /// Counts: the factorized count (multiplicities on factorized levels,
    /// the in-place tail count included) equals the flattened row count,
    /// at every thread count.
    #[test]
    fn factorized_count_equals_flattened_count(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..50),
        dense in prop::bool::ANY,
        config in 0usize..4,
    ) {
        let db = database(build_graph(&maybe_dense(&edges, dense)), config);
        for q in TEMPLATES {
            let (bound, plan) = db.prepare(q).unwrap();
            let flattened = db
                .collect_prepared_parallel(&bound, &plan, usize::MAX, &MorselPool::sequential())
                .len() as u64;
            for t in THREADS {
                let factorized = db.count_prepared_parallel(&bound, &plan, &MorselPool::new(t));
                prop_assert_eq!(
                    factorized,
                    flattened,
                    "count diverged: query {} threads {}",
                    q,
                    t
                );
            }
        }
    }

    /// Skewed supernode + pinned root: the first-E/I and first-var-length
    /// partitioned block paths agree with the sequential rows and counts.
    #[test]
    fn pinned_skew_block_paths_agree(
        hub_degree in 16u32..120,
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 0..30),
        limit_raw in 0usize..200,
    ) {
        let mut g = build_graph(&edges);
        let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
        for i in 0..hub_degree {
            let e = g
                .add_edge(
                    aplus_common::VertexId(0),
                    aplus_common::VertexId(1 + i % (N - 1)),
                    if i % 2 == 0 { "E" } else { "F" },
                )
                .unwrap();
            g.set_edge_prop(e, w, Value::Int(i64::from(i % 97))).unwrap();
        }
        let db = Database::new(g).unwrap();
        let limit = if limit_raw >= 150 { usize::MAX } else { limit_raw };
        let pinned = [
            "MATCH a-[r]->b WHERE a.ID = 0",
            "MATCH a-[r]->b-[s]->c WHERE a.ID = 0",
            "MATCH a-[r]->b-[s]->c WHERE a.ID = 0, r.w > s.w",
            "MATCH a-[r:E]->b-[s:E]->c-[t:E]->a WHERE a.ID = 0",
            "MATCH a-[*1..2]->b-[s:E]->c WHERE a.ID = 0",
        ];
        for q in pinned {
            let (bound, plan) = db.prepare(q).unwrap();
            let reference =
                db.collect_prepared_parallel(&bound, &plan, limit, &MorselPool::sequential());
            let flattened = db
                .collect_prepared_parallel(&bound, &plan, usize::MAX, &MorselPool::sequential())
                .len() as u64;
            for t in THREADS {
                let pool = MorselPool::new(t);
                let got = db.collect_prepared_parallel(&bound, &plan, limit, &pool);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "rows diverged: query {} threads {} limit {}",
                    q,
                    t,
                    limit
                );
                let streamed = drain_stream_prepared(&db, &bound, &plan, limit, &pool);
                prop_assert_eq!(&streamed, &reference, "streamed: query {} threads {}", q, t);
                let factorized = db.count_prepared_parallel(&bound, &plan, &pool);
                prop_assert_eq!(factorized, flattened, "count: query {} threads {}", q, t);
            }
            common::assert_one_driver(&db, q)?;
        }
    }
}
