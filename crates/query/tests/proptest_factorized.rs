//! Property tests for the factorized block engine: over random graphs ×
//! index configurations × thread counts {1, 2, 4} × limits × block sizes,
//! the block engine (`FlattenPolicy::AtSink`, the optimizer default for
//! supported shapes) must return **bit-identical rows** to the row engine
//! (`FlattenPolicy::Eager`), and the factorized count — multiplicities
//! folded on factorized levels, never flattening — must equal the
//! flattened row count. Small block sizes are forced explicitly so blocks
//! really split on these small graphs instead of degenerating to one
//! block per query.

use std::ops::ControlFlow;

use proptest::prelude::*;

use aplus_core::{IndexSpec, PartitionKey, SortKey};
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};
use aplus_query::{Database, FlattenPolicy, MorselPool, RawRow};

mod common;

const N: u32 = 24;

const THREADS: [usize; 3] = [1, 2, 4];

/// Block sizes to force: 1 (every root its own block), a small prime, and
/// the default-ish large size (one block per morsel).
const BLOCK_SIZES: [usize; 3] = [1, 5, 1024];

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

/// Block-eligible templates: vertex-scan roots with E/I (+ residual
/// filters), covering plain extends, label checks, cycles (relationship
/// uniqueness on factorized levels), high-multiplicity fan-outs and
/// pinned roots. The last five end in a labelled single-list tail whose
/// owner already has a bound edge in the tail list's direction, so the
/// in-place count must subtract it: a star with same-label siblings, a
/// tree whose tail shares its owner with the level before (also from a
/// pinned root, so the owner is neither the root nor the newest binding),
/// and a tail read from a backward list; the star with different-label
/// siblings must not. The last two are the paper workload's densest
/// cyclic shapes, SQ3 (diamond) and SQ9 (4-clique), whose closing levels
/// intersect two and three lists.
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
];

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

    /// Rows: block engine == row engine, bit-identical, at every thread
    /// count, limit and block size.
    #[test]
    fn block_rows_equal_row_engine(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..50),
        dense in prop::bool::ANY,
        config in 0usize..3,
        limit_raw in 0usize..200,
    ) {
        let g = build_graph(&maybe_dense(&edges, dense));
        let spec = match config {
            0 => IndexSpec::default_primary(),
            1 => IndexSpec::default().with_sort(vec![SortKey::NbrId]),
            _ => IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::NbrLabel])
                .with_sort(vec![SortKey::NbrId]),
        };
        let db = Database::with_primary_spec(g, spec).unwrap();
        let limit = if limit_raw >= 150 { usize::MAX } else { limit_raw };
        for q in TEMPLATES {
            let (bound, plan) = db.prepare(q).unwrap();
            prop_assert!(
                aplus_query::block::use_block(&plan),
                "template should be block-eligible: {}",
                q
            );
            let row_plan = plan.clone().with_flatten(FlattenPolicy::Eager);
            let reference =
                db.collect_prepared_parallel(&bound, &row_plan, limit, &MorselPool::sequential());
            for block_size in BLOCK_SIZES {
                let mut block_plan = plan.clone();
                block_plan.block.block_size = block_size;
                for t in THREADS {
                    let pool = MorselPool::new(t);
                    let got = db.collect_prepared_parallel(&bound, &block_plan, limit, &pool);
                    prop_assert_eq!(
                        &got,
                        &reference,
                        "rows diverged: query {} threads {} limit {} block {}",
                        q,
                        t,
                        limit,
                        block_size
                    );
                    let streamed = drain_stream_prepared(&db, &bound, &block_plan, limit, &pool);
                    prop_assert_eq!(
                        &streamed,
                        &reference,
                        "streamed diverged: query {} threads {} limit {} block {}",
                        q,
                        t,
                        limit,
                        block_size
                    );
                }
            }
        }
    }

    /// Counts: the factorized count (multiplicities on factorized levels,
    /// the in-place tail count included) equals the flattened
    /// row count, at every thread count and block size.
    #[test]
    fn factorized_count_equals_flattened_count(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..50),
        dense in prop::bool::ANY,
        config in 0usize..3,
    ) {
        let g = build_graph(&maybe_dense(&edges, dense));
        let spec = match config {
            0 => IndexSpec::default_primary(),
            1 => IndexSpec::default().with_sort(vec![SortKey::NbrId]),
            _ => IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::NbrLabel])
                .with_sort(vec![SortKey::NbrId]),
        };
        let db = Database::with_primary_spec(g, spec).unwrap();
        for q in TEMPLATES {
            let (bound, plan) = db.prepare(q).unwrap();
            let row_plan = plan.clone().with_flatten(FlattenPolicy::Eager);
            // Flattened ground truth: the row engine's materialized rows.
            let flattened = db
                .collect_prepared_parallel(&bound, &row_plan, usize::MAX, &MorselPool::sequential())
                .len() as u64;
            for block_size in BLOCK_SIZES {
                let mut block_plan = plan.clone();
                block_plan.block.block_size = block_size;
                for t in THREADS {
                    let pool = MorselPool::new(t);
                    let factorized = db.count_prepared_parallel(&bound, &block_plan, &pool);
                    prop_assert_eq!(
                        factorized,
                        flattened,
                        "count diverged: query {} threads {} block {}",
                        q,
                        t,
                        block_size
                    );
                }
            }
        }
    }

    /// Skewed supernode + pinned root: the first-E/I partitioned block
    /// paths agree with the row engine on rows and counts.
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
        ];
        for q in pinned {
            let (bound, plan) = db.prepare(q).unwrap();
            let row_plan = plan.clone().with_flatten(FlattenPolicy::Eager);
            let reference =
                db.collect_prepared_parallel(&bound, &row_plan, limit, &MorselPool::sequential());
            let flattened = db
                .collect_prepared_parallel(&bound, &row_plan, usize::MAX, &MorselPool::sequential())
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
                let factorized = db.count_prepared_parallel(&bound, &plan, &pool);
                prop_assert_eq!(factorized, flattened, "count: query {} threads {}", q, t);
            }
            // Block boundaries inside first-E/I sub-blocks and root blocks.
            for block_size in BLOCK_SIZES {
                common::assert_one_driver(&db, q, block_size)?;
            }
        }
    }
}
