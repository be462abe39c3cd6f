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

use aplus_common::VertexId;
use aplus_core::{Direction, IndexSpec, List, PartitionKey, SortKey};
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
/// siblings must not. Four labelled shapes follow whose trailing
/// single-list extensions are counted together as one suffix, because the
/// labels prove no two of their edges can bind the same graph edge: a tree
/// (two leaves off the level-1 vertex), a path (an inner branch with a leaf
/// below it), a star (three leaves off the root, one owner run per root) and
/// a five-vertex tree whose inner branch has two leaves. Then the paper
/// workload's densest cyclic shapes, SQ3
/// (diamond) and SQ9 (4-clique), whose closing levels intersect two and
/// three lists. Two suffixes follow that exercise the per-query count memo
/// (cells keyed by branch and owner vertex): an inner branch whose list
/// holds the same-label path edge `r`, so it is not prefix-disjoint and is
/// evaluated per entry (parallel `r`/`s` edges make every owner repeat
/// with different bound edges), and a tree whose two inner branches own
/// vertices of one label, each above its own leaf. Then an edge-scan root and a MULTI-EXTEND (planned on the
/// `bygrp` configuration), alone and followed by a labelled single-list
/// tail: once where the labels the MULTI-EXTEND enforces (a:A, c:B) prove
/// the tail edge apart from its edges, so the tail skips the uniqueness
/// subtraction, and once where they do not (c = a through a self-loop s,
/// with t = r). Then list filters: an edge-property and a target-property
/// conjunct against constants, on a tail and on an inner operator, where
/// the filtered list is a backward list that holds the bound edge of the
/// level before (same label, so relationship uniqueness must reject that
/// edge although it passes the filter), and whose owner repeats across the
/// frontier (the per-morsel memo replays it). Last, var-length expansions
/// at the tail, in the middle and at the front of a pipeline.
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
    "MATCH (a:A)-[r:E]->(b:B), (b:B)-[s:F]->(c:B), (b:B)-[t:E]->(d:A)",
    "MATCH (a:A)-[r:E]->(b:B), (b:B)-[s:F]->(c:B), (c:B)-[t:E]->(d:A)",
    "MATCH (a:A)-[r:E]->(b:B), (a:A)-[s:F]->(c:B), (a:A)-[t:E]->(d:A)",
    "MATCH (a:B)-[r:E]->(b:B), (b:B)-[s:F]->(c:A), (c:A)-[t:E]->(d:B), (c:A)-[u:F]->(e:A)",
    "MATCH a-[r:E]->b, b-[s:E]->c, c-[t:E]->d, d-[u:E]->a, a-[v:E]->c",
    "MATCH a-[r:E]->b, a-[s:E]->c, a-[t:E]->d, b-[u:E]->c, b-[v:E]->d, c-[x:E]->d",
    "MATCH a-[r:E]->b, a-[s:E]->c, c-[t:F]->d",
    "MATCH (a:A)-[r:E]->(b:B), (a:A)-[s:F]->(c:B), (b:B)-[t:E]->(d:A), (c:B)-[u:F]->(e:A)",
    "MATCH a-[r]->b-[s]->c WHERE r.eID = 3",
    "MATCH a-[r]->b, a-[s]->b WHERE r.eID = 3",
    "MATCH a-[r]->b, a-[s]->c WHERE b.grp = c.grp",
    "MATCH (a:A)-[r]->(b), (a:A)-[s]->(c:B), (c:B)-[t:F]->(d) WHERE a.ID < 4, b.grp = c.grp",
    "MATCH (a:A)-[r]->b, (a:A)-[s]->c, c-[t:F]->d WHERE b.grp = c.grp",
    "MATCH a-[r:E]->b, c-[s:E]->b WHERE s.w < 50",
    "MATCH a-[r:E]->b, c-[s:E]->b WHERE c.grp = g1",
    "MATCH a-[r:E]->b, c-[s:E]->b, c-[t:E]->d WHERE s.w < 50, c.grp = g1",
    "MATCH a-[r]->b-[s]->c-[t]->d WHERE s.w >= 30, c.grp = g2, t.w < 70",
    "MATCH a-[r]->b, a-[s]->c WHERE b.grp = c.grp, r.w < 50, s.w >= 20",
    "MATCH a-[r:E]->b-[s:E]->c-[t:E]->a WHERE t.w < 50, c.grp = g0",
    "MATCH a-[r]->b-[s]->c-[t]->a",
    "MATCH a-[r:E]->b-[s:E]->c-[t:E]->a WHERE s.w < 50, t.w >= 20",
    "MATCH a-[r:E]->b-[s:E]->c-[t:E]->d-[u:E]->a WHERE d.grp = g1, b.grp = d.grp",
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

/// The hub graph's vertices: the hub (0), its `HUB_DEGREE` distinct `E`
/// neighbours `1..=HUB_DEGREE`, and vertices past them that only short
/// lists reach (the last, `HUB_N - 1`, is the triangle's third vertex).
const HUB_N: u32 = 1_100;
const HUB_DEGREE: u32 = 1_000;

/// A hub whose `E` list holds every vertex `1..=HUB_DEGREE` once plus each
/// of `hub_dups` once more (parallel edges), beside short `F` lists: the
/// hub's own (`hub_short`) and that of `HUB_N - 1` (`c_short`), each entry
/// a `(neighbour, multiplicity)`. The hub also reaches `HUB_N - 1` by `F`.
fn hub_graph(hub_dups: &[u32], hub_short: &[(u32, u32)], c_short: &[(u32, u32)]) -> Graph {
    let mut g = Graph::new();
    g.catalog_mut().intern_edge_label("E");
    g.catalog_mut().intern_edge_label("F");
    for _ in 0..HUB_N {
        g.add_vertex("A");
    }
    let c = HUB_N - 1;
    let mut add = |s: u32, d: u32, label: &str| {
        g.add_edge(VertexId(s), VertexId(d), label).unwrap();
    };
    for d in (1..=HUB_DEGREE).chain(hub_dups.iter().copied()) {
        add(0, d, "E");
    }
    add(0, c, "F");
    for (owner, short) in [(0, hub_short), (c, c_short)] {
        for &(d, times) in short {
            for _ in 0..times {
                add(owner, d, "F");
            }
        }
    }
    g
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
        // List filters run on tails and on inner operators.
        let filtered = |ops: &[Operator]| -> Vec<bool> {
            ops.iter()
                .map(|o| matches!(o, Operator::ExtendIntersect { filter, .. } if !filter.is_empty()))
                .collect()
        };
        let (mut on_tail, mut inner) = (false, false);
        for q in TEMPLATES {
            let f = filtered(&db.prepare(q).unwrap().1.ops);
            on_tail |= f.last() == Some(&true);
            inner |= f[..f.len() - 1].contains(&true);
        }
        prop_assert!(on_tail && inner, "list filters on a tail and an inner operator");
        // Outer lists are read in a filtered E/I (the MF1 shape) and over
        // an unlabelled list, which spans every label's slot.
        let plans: Vec<String> = TEMPLATES
            .iter()
            .map(|q| db.prepare(q).unwrap().1.to_string())
            .collect();
        let lines = || plans.iter().flat_map(|p| p.lines());
        prop_assert!(lines().any(|l| l.contains(" outer") && l.contains("list-filter=")));
        prop_assert!(lines().any(|l| l.contains(":bwd outer") || l.contains(":fwd outer")));
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

    /// The galloping leapfrog against the oracle: a hub list of more than
    /// 1 000 entries intersected with a short one, with parallel edges on
    /// both sides — the hub's `E` list with its own short `F` list, and (the
    /// triangle) with the short `F` list of a vertex it reaches. Checked on
    /// clean lists (borrowed page columns), then again after an un-flushed
    /// insert into the hub's list, so the kernel reads owned columns.
    #[test]
    fn hub_intersection_equals_oracle(
        hub_dups in proptest::collection::vec(1..=HUB_DEGREE, 0..30),
        hub_short in proptest::collection::vec((1..HUB_N, 1u32..4), 1..10),
        c_short in proptest::collection::vec((1..HUB_N, 1u32..4), 0..8),
        insert in (1..HUB_N, prop::bool::ANY),
        config in 0usize..3,
    ) {
        let mut db = database(hub_graph(&hub_dups, &hub_short, &c_short), config);
        let queries = [
            "MATCH h-[s:F]->b, h-[r:E]->b WHERE h.ID = 0",
            "MATCH h-[t:F]->c, c-[s:F]->b, h-[r:E]->b WHERE h.ID = 0",
        ];
        let (_, plan) = db.prepare(queries[0]).unwrap();
        prop_assert!(
            has(&plan.ops, |o| matches!(o, Operator::ExtendIntersect { alds, .. } if alds.len() == 2)),
            "the hub query intersects two lists"
        );
        for q in queries {
            common::assert_one_driver(&db, q)?;
        }
        let (dst, second_label) = insert;
        db.insert_edge(VertexId(0), VertexId(dst), if second_label { "F" } else { "E" }, &[])
            .unwrap();
        let hub = db.store().primary().index(Direction::Fwd).list(VertexId(0), &[]);
        prop_assert!(matches!(hub, List::Owned { .. }), "the insert is buffered");
        for q in queries {
            common::assert_one_driver(&db, q)?;
        }
    }

    /// Skewed supernode + pinned root: the one-morsel root block agrees
    /// with the sequential rows and counts at every pool size. The last
    /// three count a suffix off the pinned root: a single tail owned by
    /// the root, whose label pass runs once per root binding; a tree whose
    /// two leaves hang off the level-1 vertex; and an inner branch owned by
    /// the root.
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
            "MATCH (a)-[r:E]->(b:B), (a)-[s:F]->(c:B) WHERE a.ID = 0",
            "MATCH (a)-[r:E]->(b:B), (b:B)-[s:F]->(c:B), (b:B)-[t:E]->(d:A) WHERE a.ID = 0",
            "MATCH (a)-[r:E]->(b:B), (a)-[s:F]->(c:B), (c:B)-[t:E]->(d:A) WHERE a.ID = 0",
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

/// A same-label graph around a hub: every vertex `1..HUB_ROOTS` has an `E`
/// edge to the hub (0), so the hub owns a long backward list that every
/// root of the one morsel reaches; `extra` adds edges (parallel ones
/// included) between any vertices. Edge weights and vertex groups come
/// from `weights` and the vertex ID.
const HUB_ROOTS: u32 = 60;

fn filtered_hub_graph(extra: &[(u32, u32)], weights: &[i64]) -> Graph {
    let mut g = Graph::new();
    g.register_property(PropertyEntity::Edge, "w", PropertyKind::Int)
        .unwrap();
    g.register_property(PropertyEntity::Vertex, "grp", PropertyKind::Categorical)
        .unwrap();
    let grp = g.catalog().property(PropertyEntity::Vertex, "grp").unwrap();
    let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
    for i in 0..HUB_ROOTS {
        let v = g.add_vertex("A");
        g.set_vertex_prop(v, grp, Value::Str(&format!("g{}", i % 3)))
            .unwrap();
    }
    let to_hub = (1..HUB_ROOTS).map(|v| (v, 0));
    let extra = extra.iter().map(|&(s, d)| (s % HUB_ROOTS, d % HUB_ROOTS));
    for (i, (s, d)) in to_hub.chain(extra).enumerate() {
        let e = g.add_edge(VertexId(s), VertexId(d), "E").unwrap();
        g.set_edge_prop(e, w, Value::Int(weights[i % weights.len()]))
            .unwrap();
    }
    g
}

/// A root whose two-hop last level outgrows one part: vertex 0 reaches
/// `FAN` vertices, each of which reaches `FAN` more (`FAN² > LEVEL_PART_CAP`),
/// beside small roots on both sides of it in the same morsel.
const FAN: u32 = 100;

fn fan_graph() -> Graph {
    let mut g = Graph::new();
    let n = 1 + FAN + FAN * FAN / 8;
    for _ in 0..n {
        g.add_vertex("A");
    }
    let mut add = |s: u32, d: u32| {
        g.add_edge(VertexId(s), VertexId(d), "E").unwrap();
    };
    for b in 1..=FAN {
        add(0, b);
        for c in 0..FAN {
            add(b, 1 + FAN + (b * 7 + c) % (n - 1 - FAN));
        }
    }
    // Small roots after the heavy one, some reaching its fan-out.
    for a in 1 + FAN..1 + FAN + 5 {
        add(a, 1 + a % FAN);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// List filters around a hub owner repeated under many roots: an
    /// edge-property and a target-property conjunct on the tail, and both on
    /// an inner operator, against the oracle at pools 1/2/4 and every limit.
    /// The bound `r` is in the hub's backward list and passes the filter
    /// whenever its weight does, so only relationship uniqueness keeps
    /// `s = r` out. The last two queries scan `a` and read the hub's
    /// filtered list from the query's memo, under every root of every
    /// morsel.
    #[test]
    fn filtered_hub_owner_equals_oracle(
        extra in proptest::collection::vec((0..HUB_ROOTS, 0..HUB_ROOTS), 0..60),
        weights in proptest::collection::vec(0i64..100, 1..20),
    ) {
        let db = Database::new(filtered_hub_graph(&extra, &weights)).unwrap();
        for q in [
            "MATCH a-[r:E]->b, c-[s:E]->b WHERE s.w < 50",
            "MATCH a-[r:E]->b, c-[s:E]->b WHERE c.grp = g1",
            "MATCH a-[r:E]->b, c-[s:E]->b, c-[t:E]->d WHERE s.w < 50, c.grp = g1, t.w > 20",
            "MATCH a-[r:E]->b, c-[s:E]->b WHERE a.grp = g1, s.w < 50",
            "MATCH a-[r:E]->b, c-[s:E]->b WHERE r.w < 50, s.w < 50",
        ] {
            common::assert_one_driver(&db, q)?;
        }
    }
}

/// Two operators read one vertex's list under different filters: the
/// query's memo must key a cell by its operator too (a cell keyed by the
/// owner vertex alone would hand the second operator the first one's
/// survivors). In the chain pinned at `a`, `b`'s list is filtered for `CQ`
/// targets and `c`'s for `SV` ones, and an account reached both as a `b`
/// and as a `c` has its list read by both operators. In the star pinned at
/// `a`, the scanned vertex, its two filtered lists are read inline and as
/// an outer list.
#[test]
fn memo_keys_lists_by_operator_too() {
    let db = Database::new(aplus_datagen::build_financial_graph().graph).unwrap();
    let chain = "MATCH a-[e1:W]->b, b-[e2:W]->c, c-[e3:W]->d WHERE c.acc = CQ, d.acc = SV";
    let q = "MATCH a-[e1]->b, a-[e2]->c WHERE b.acc = CQ, c.acc = SV";
    for q in [chain, q] {
        common::assert_one_driver(&db, q).unwrap();
    }
    for account in 0..5 {
        let pinned = format!("{chain}, a.ID = {account}");
        let plan = db.prepare(&pinned).unwrap().1.to_string();
        for line in [
            "  E/I v2 ⋂[v1→primary:fwd[2]] list-filter=1",
            "  E/I v3 ⋂[v2→primary:fwd[2]] list-filter=1",
        ] {
            assert!(plan.lines().any(|l| l == line), "{plan}");
        }
        common::assert_one_driver(&db, &pinned).unwrap();
    }
    for account in 0..5 {
        let pinned = format!("{q}, a.ID = {account}");
        let (_, plan) = db.prepare(&pinned).unwrap();
        let owners: Vec<_> = plan
            .ops
            .iter()
            .filter_map(|o| match o {
                Operator::ExtendIntersect { alds, filter, .. } if !filter.is_empty() => {
                    Some(alds[0].from)
                }
                _ => None,
            })
            .collect();
        assert!(
            owners.len() == 2 && owners[0] == owners[1],
            "two filtered operators read one owner's list: {plan}"
        );
        common::assert_one_driver(&db, &pinned).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The query's memo reads a filtered owner-only list once per owner
    /// vertex, however many frontier entries reach the owner and wherever
    /// the pool cuts the root range: the memo level's `lists_scanned` is the
    /// number of distinct owners reached, in counts and in full rows runs at
    /// pools 1/2/4 (8, 15 and 30 morsels over the hub graph's 60 roots).
    #[test]
    fn memo_reads_each_owner_list_once(
        extra in proptest::collection::vec((0..HUB_ROOTS, 0..HUB_ROOTS), 0..60),
        weights in proptest::collection::vec(0i64..100, 1..20),
    ) {
        use aplus_query::{profiled, Output};
        let g = filtered_hub_graph(&extra, &weights);
        // The frontier before the memo level is one entry per edge out of a
        // `g1` vertex (ID 1 mod 3), and its owners are those edges' targets.
        let owners: std::collections::BTreeSet<_> =
            g.edges().filter(|(_, s, _, _)| s.raw() % 3 == 1).map(|(_, _, d, _)| d).collect();
        let db = Database::new(g).unwrap();
        let q = "MATCH a-[r:E]->b, c-[s:E]->b WHERE a.grp = g1, s.w < 50";
        let (bound, plan) = db.prepare(q).unwrap();
        prop_assert!(
            plan.to_string().lines().any(|l| l == "  E/I v2 ⋂[v1→primary:bwd[0]] list-filter=1"),
            "{}", plan
        );
        for threads in THREADS {
            let pool = MorselPool::new(threads);
            let counted = profiled(&plan, |p| db.run(&bound, &plan, &pool, Some(p), Output::Count));
            let rows = profiled(&plan, |p| {
                let sink = &mut |_: RawRow| ControlFlow::Continue(());
                db.run(&bound, &plan, &pool, Some(p), Output::Rows { limit: usize::MAX, sink })
            });
            for profile in [counted, rows] {
                prop_assert_eq!(
                    profile.levels[2].lists_scanned,
                    owners.len() as u64,
                    "threads {}:\n{}", threads, profile.render()
                );
            }
        }
    }
}

/// A heavy root's last level streams in parts: rows are bit-identical at
/// pools 1/2/4 and at limits 1, cap, cap + 1, n and n + 1, and exactly the
/// rows delivered are flattened.
#[test]
fn parts_of_a_heavy_last_level_keep_rows_and_limits() {
    use aplus_query::exec::LEVEL_PART_CAP as CAP;
    use aplus_query::{profiled, Output};
    let db = Database::new(fan_graph()).unwrap();
    for q in [
        "MATCH a-[r]->b-[s]->c WHERE a.ID = 0",
        "MATCH a-[r]->b-[s]->c",
    ] {
        let (bound, plan) = db.prepare(q).unwrap();
        let reference =
            db.collect_prepared_parallel(&bound, &plan, usize::MAX, &MorselPool::sequential());
        let n = reference.len();
        assert!(
            n > 2 * CAP,
            "{q}: the last level must span several parts ({n})"
        );
        for threads in THREADS {
            let pool = MorselPool::new(threads);
            assert_eq!(db.count_prepared_parallel(&bound, &plan, &pool), n as u64);
            for limit in [1, CAP, CAP + 1, n, n + 1] {
                let at = format!("{q} threads {threads} limit {limit}");
                let streamed = drain_stream_prepared(&db, &bound, &plan, limit, &pool);
                assert_eq!(streamed, reference[..limit.min(n)], "{at}");
                let mut delivered = 0u64;
                let profile = profiled(&plan, |p| {
                    let sink = &mut |_: RawRow| {
                        delivered += 1;
                        ControlFlow::Continue(())
                    };
                    db.run(&bound, &plan, &pool, Some(p), Output::Rows { limit, sink })
                });
                assert_eq!(delivered, limit.min(n) as u64, "{at}");
                assert_eq!(profile.flatten_rows, delivered, "flattened: {at}");
            }
        }
    }
}

/// Roots 1 and 2 (`A`) and the vertices past them: root 1 reaches `b0`
/// then `b1`, root 2 reaches `b1`, and each `b` reaches `d`s straight (its
/// list to `d0`, and `b1`'s to `d0 + 3`, by two parallel edges) and
/// through the `c`s.
fn owner_runs_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..64 {
        g.add_vertex(if i < 4 { "A" } else { "B" });
    }
    let (b0, b1, c0, d0) = (38, 39, 49, 60);
    let edges = [
        (1, b0),
        (1, b1),
        (2, b1),
        (b0, c0),
        (b0, c0 + 1),
        (b1, c0 + 2),
        (c0, d0),
        (c0, d0 + 1),
        (c0 + 1, d0 + 1),
        (c0 + 2, d0 + 2),
        (c0 + 2, d0),
        (b0, d0),
        (b0, d0),
        (b0, d0 + 1),
        (b1, d0 + 2),
        (b1, d0 + 3),
        (b1, d0 + 3),
    ];
    for (s, d) in edges {
        g.add_edge(VertexId(s), VertexId(d), "E").unwrap();
    }
    g
}

/// An outer list owned by a vertex bound below the root: the closing
/// intersection reads `b`'s list, with its parallel-edge runs, once per
/// (root entry, `b`) run. Under root 1 the owner changes from `b0` to
/// `b1`, so the list is read again; root 2 starts with the owner root 1
/// ended with, so the list is read again there too — and with 64 vertices
/// the two roots share a morsel at pools 1 and 2 but not at pool 4, so a
/// read carried across the root boundary would show as a `PROFILE` that
/// differs between pools. Each of the 13 frontier entries (`c` is any
/// out-neighbour of `b`, the `d`s included) fetches `c`'s list, and each of
/// the three runs fetches `b`'s once.
#[test]
fn outer_lists_are_read_once_per_root_and_owner_run() {
    use aplus_query::{profiled, Output};
    let db = Database::new(owner_runs_graph()).unwrap();
    let q = "MATCH (a:A)-[r]->(b), (b)-[s]->(c), (c)-[t]->(d), (b)-[u]->(d)";
    let (bound, plan) = db.prepare(q).unwrap();
    assert!(
        plan.to_string()
            .contains("E/I v3 ⋂[v2→primary:fwd ∩ v1→primary:fwd outer]"),
        "{plan}"
    );
    common::assert_one_driver(&db, q).unwrap();
    let pool = MorselPool::sequential();
    let profile = profiled(&plan, |p| {
        db.run(&bound, &plan, &pool, Some(p), Output::Count)
    });
    assert_eq!(profile.rows, 6);
    assert_eq!(profile.levels[3].lists_scanned, 13 + 3);
}
