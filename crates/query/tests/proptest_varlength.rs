//! Differential property tests for variable-length path queries: over
//! random graphs × hop bounds × primary-index configurations × thread
//! counts {1, 2, 4} × random `LIMIT`s, the executor's var-length matches
//! must equal an independent naive BFS reference (shortest-walk
//! semantics), and parallel `collect`/`stream` must return the
//! **bit-identical row sequence** as sequential `collect` — including on
//! pinned-root skew graphs, whose one-vertex root is one morsel that
//! traverses the whole supernode BFS inline.
//!
//! The reference implementation is deliberately structured differently
//! from the executor (classic single-source BFS distances plus a
//! shortest-cycle pass, not level-synchronous frontier emission), so the
//! two cannot share a bug.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use proptest::prelude::*;

use aplus_core::{IndexSpec, PartitionKey, SortKey};
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};
use aplus_query::plan::Operator;
use aplus_query::{profiled, Database, MorselPool, Output, RawRow};

mod common;
use common::{collect_on, count_on};

const N: u32 = 20;

/// Thread counts the equivalence is checked at (1 = the sequential path).
const THREADS: [usize; 3] = [1, 2, 4];

fn build_graph(edges: &[(u32, u32, bool)]) -> Graph {
    let mut g = Graph::new();
    g.register_property(PropertyEntity::Edge, "w", PropertyKind::Int)
        .unwrap();
    // Random edge lists may miss a label entirely; the query templates
    // still reference both.
    g.catalog_mut().intern_edge_label("E");
    g.catalog_mut().intern_edge_label("F");
    for i in 0..N {
        g.add_vertex(if i % 3 == 0 { "A" } else { "B" });
    }
    let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
    for (i, &(s, d, second_label)) in edges.iter().enumerate() {
        let e = g
            .add_edge(
                aplus_common::VertexId(s % N),
                aplus_common::VertexId(d % N),
                if second_label { "F" } else { "E" },
            )
            .unwrap();
        g.set_edge_prop(e, w, Value::Int(i as i64 % 7)).unwrap();
    }
    g
}

/// Forward adjacency restricted to `label` (`None` = all edges).
fn adjacency(g: &Graph, label: Option<&str>) -> Vec<Vec<u32>> {
    let want = label.map(|l| g.catalog().edge_label(l).unwrap());
    let mut adj = vec![Vec::new(); g.vertex_count()];
    for (e, s, d, _) in g.edges() {
        if want.is_none_or(|w| g.edge_label(e) == Ok(w)) {
            adj[s.index()].push(d.raw());
        }
    }
    adj
}

/// Naive reference: for every source, classic BFS shortest distances to
/// every *other* vertex, plus the shortest cycle back to the source
/// (min over in-neighbours of `dist + 1`). Returns every `(src, dst)`
/// pair whose shortest walk length of ≥ 1 hop lies within `min..=max`,
/// in (src, shortest length, dst) order — the executor's emission order.
fn reference_pairs(g: &Graph, label: Option<&str>, min: u32, max: u32) -> Vec<(u32, u32)> {
    let adj = adjacency(g, label);
    let n = adj.len();
    let mut out = Vec::new();
    for s in 0..n {
        let mut dist = vec![u32::MAX; n];
        dist[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u] + 1;
                    queue.push_back(v as usize);
                }
            }
        }
        // Shortest closed walk through s: one hop back onto s from the
        // nearest in-neighbour.
        let cycle = (0..n)
            .filter(|&u| dist[u] != u32::MAX && adj[u].contains(&(s as u32)))
            .map(|u| dist[u] + 1)
            .min()
            .unwrap_or(u32::MAX);
        let mut reached: Vec<(u32, u32)> = (0..n)
            .filter(|&t| t != s && dist[t] != u32::MAX)
            .map(|t| (dist[t], t as u32))
            .collect();
        if cycle != u32::MAX {
            reached.push((cycle, s as u32));
        }
        reached.sort_unstable();
        for (d, t) in reached {
            if d >= min && d <= max {
                out.push((s as u32, t));
            }
        }
    }
    out
}

/// Var-length query templates paired with their reference parameters
/// (`label`, `min`, `max`). The hop cap (default 64) closes the open
/// bounds, but on ≤ 20-vertex graphs every BFS runs dry far earlier.
fn templates() -> Vec<(&'static str, Option<&'static str>, u32, u32)> {
    vec![
        ("MATCH a-[r:E*1..2]->b", Some("E"), 1, 2),
        ("MATCH a-[:E*2..3]->b", Some("E"), 2, 3),
        ("MATCH a-[*1..3]->b", None, 1, 3),
        ("MATCH a-[:E*]->b", Some("E"), 1, 64),
        ("MATCH a-[:F+]->b", Some("F"), 1, 64),
        ("MATCH a-[:E*3]->b", Some("E"), 3, 3),
        ("MATCH a-[:E*2..]->b", Some("E"), 2, 64),
    ]
}

/// The primary-index configurations the equivalence is checked under:
/// label-partitioned primaries let the traversal select the label run by
/// prefix (`label_enforced`); unpartitioned ones force the executor's
/// per-edge label filter. Results must be identical.
fn spec_for(g: &Graph, config: usize) -> IndexSpec {
    match config {
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
    }
}

fn drain_stream(db: &Database, q: &str, limit: usize, pool: &MorselPool) -> Vec<RawRow> {
    let mut rows = Vec::new();
    db.stream(q, limit, pool, &mut |r: RawRow| {
        rows.push(r);
        ControlFlow::Continue(())
    })
    .expect("query streams");
    rows
}

/// Sequential collect == parallel collect == drained stream at every
/// thread count, bit-identically, under `limit`.
fn assert_parallel_identical(db: &Database, q: &str, limit: usize) -> Result<(), TestCaseError> {
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

/// The `(a, b)` endpoint pairs of collected rows, as a sorted multiset
/// (plan-order independent — the optimizer may root the traversal at
/// either endpoint).
fn endpoint_pairs(rows: &[RawRow]) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = rows.iter().map(|(vs, _)| (vs[0], vs[1])).collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole differential: executor matches == naive BFS reference
    /// (as multisets), across graphs, bounds, index configs and thread
    /// counts; the var-length edge variable stays unbound (`null` slot).
    #[test]
    fn varlength_counts_equal_reference(
        edges in proptest::collection::vec((0..N, 0..N, prop::bool::ANY), 1..60),
        config in 0usize..4,
    ) {
        let g = build_graph(&edges);
        let spec = spec_for(&g, config);
        let db = Database::with_primary_spec(g, spec).unwrap();
        for (q, label, min, max) in templates() {
            let mut expect = reference_pairs(db.graph(), label, min, max);
            expect.sort_unstable();
            let rows = db.collect(q, usize::MAX).unwrap();
            prop_assert_eq!(
                endpoint_pairs(&rows),
                expect.clone(),
                "reference diverged: config {} query {}",
                config,
                q
            );
            // Edge variables of var-length patterns bind no single edge.
            for (_, es) in &rows {
                prop_assert!(es.iter().all(|&e| e == u64::MAX), "query {}", q);
            }
            let seq = db.count(q).unwrap();
            prop_assert_eq!(seq, expect.len() as u64, "count: config {} query {}", config, q);
            for t in THREADS {
                let par = count_on(&db, q, &MorselPool::new(t));
                prop_assert_eq!(par, seq, "config {} query {} threads {}", config, q, t);
            }
        }
        // A predicate over both endpoints is a residual of the expansion,
        // evaluated per reached target.
        let q = "MATCH a-[:E*1..3]->b WHERE a.ID < b.ID";
        let mut expect: Vec<(u32, u32)> = reference_pairs(db.graph(), Some("E"), 1, 3)
            .into_iter()
            .filter(|&(s, t)| s < t)
            .collect();
        expect.sort_unstable();
        let rows = db.collect(q, usize::MAX).unwrap();
        prop_assert_eq!(endpoint_pairs(&rows), expect.clone(), "config {} query {}", config, q);
        for t in THREADS {
            let par = count_on(&db, q, &MorselPool::new(t));
            prop_assert_eq!(par, expect.len() as u64, "config {} query {} threads {}", config, q, t);
        }
    }

    /// A var-length count agrees with the reference with and without a
    /// target label (both endpoints labelled, so the target has one
    /// whichever end the planner roots at): each count equals the reference
    /// and the collected row count at every thread count, and hops profile
    /// the same counted and collected. A pinned root's rows come out in the
    /// reference's (shortest length, target) order: each level ascending,
    /// the source spliced in at its place.
    #[test]
    fn varlength_labelled_counts_hops_and_order_equal_reference(
        edges in proptest::collection::vec((0..N, 0..N, prop::bool::ANY), 1..60),
        config in 0usize..4,
    ) {
        let g = build_graph(&edges);
        let spec = spec_for(&g, config);
        let db = Database::with_primary_spec(g, spec).unwrap();
        let b = db.graph().catalog().vertex_label("B").unwrap();
        let is_b = |t: u32| db.graph().vertex_label(aplus_common::VertexId(t)) == Ok(b);
        for (q, label, min, max, labelled) in [
            ("MATCH a-[:E*1..3]->b", Some("E"), 1, 3, false),
            ("MATCH a-[*2..4]->b", None, 2, 4, false),
            ("MATCH (a:B)-[:E*1..3]->(b:B)", Some("E"), 1, 3, true),
            ("MATCH (a:B)-[*2..4]->(b:B)", None, 2, 4, true),
        ] {
            let expect: Vec<(u32, u32)> = reference_pairs(db.graph(), label, min, max)
                .into_iter()
                .filter(|&(s, t)| !labelled || (is_b(s) && is_b(t)))
                .collect();
            let (bound, plan) = db.prepare(q).unwrap();
            let last = plan.ops.last().unwrap();
            prop_assert!(
                matches!(last, Operator::VarLengthExpand { target_label, residual, check: false, .. }
                    if target_label.is_some() == labelled && residual.is_empty()),
                "query {} ends in the expected var-length operator",
                q
            );
            for t in THREADS {
                let pool = MorselPool::new(t);
                let counted = profiled(&plan, |p| db.run(&bound, &plan, &pool, Some(p), Output::Count));
                prop_assert_eq!(counted.rows, expect.len() as u64, "config {} query {} threads {}", config, q, t);
                let mut rows = 0u64;
                let listed = profiled(&plan, |p| {
                    let sink = &mut |_: RawRow| {
                        rows += 1;
                        ControlFlow::Continue(())
                    };
                    db.run(&bound, &plan, &pool, Some(p), Output::Rows { limit: usize::MAX, sink })
                });
                prop_assert_eq!(rows, counted.rows, "config {} query {} threads {}", config, q, t);
                prop_assert_eq!(&counted.hops, &listed.hops, "hops: config {} query {}", config, q);
            }
            // Vertex 1 is labelled B.
            let pinned = format!("{q} WHERE a.ID = 1");
            let order: Vec<(u32, u32)> = db
                .collect(&pinned, usize::MAX)
                .unwrap()
                .iter()
                .map(|(vs, _)| (vs[0], vs[1]))
                .collect();
            let want: Vec<(u32, u32)> = expect.iter().copied().filter(|&(s, _)| s == 1).collect();
            prop_assert_eq!(order, want, "row order: config {} query {}", config, pinned);
        }
    }

    /// Ring queries (`a-[*min..max]->a`): the planner's check-mode
    /// operator must agree with the reference's shortest-cycle pass.
    #[test]
    fn varlength_rings_equal_reference(
        edges in proptest::collection::vec((0..N, 0..N, prop::bool::ANY), 1..60),
        config in 0usize..4,
    ) {
        let g = build_graph(&edges);
        let spec = spec_for(&g, config);
        let db = Database::with_primary_spec(g, spec).unwrap();
        for (q, label, min, max) in [
            ("MATCH a-[:E*2..4]->a", Some("E"), 2, 4),
            ("MATCH a-[*1..3]->a", None, 1, 3),
        ] {
            let expect: Vec<(u32, u32)> = reference_pairs(db.graph(), label, min, max)
                .into_iter()
                .filter(|&(s, t)| s == t)
                .collect();
            let got = db.count(q).unwrap();
            prop_assert_eq!(got, expect.len() as u64, "config {} query {}", config, q);
            for t in THREADS {
                let par = count_on(&db, q, &MorselPool::new(t));
                prop_assert_eq!(par, got, "config {} query {} threads {}", config, q, t);
            }
        }
    }

    /// Row sequences are bit-identical across thread counts and limits
    /// (the deterministic morsel-order merge), and backward patterns
    /// mirror forward ones.
    #[test]
    fn varlength_rows_identical_across_threads(
        edges in proptest::collection::vec((0..N, 0..N, prop::bool::ANY), 1..60),
        config in 0usize..4,
        limit_raw in 0usize..200,
    ) {
        let g = build_graph(&edges);
        let spec = spec_for(&g, config);
        let db = Database::with_primary_spec(g, spec).unwrap();
        let limit = if limit_raw >= 150 { usize::MAX } else { limit_raw };
        for (q, _, _, _) in templates() {
            assert_parallel_identical(&db, q, limit)?;
            common::assert_one_driver(&db, q)?;
        }
        // A backward var-length pattern matches the forward reference.
        // The binder interns vertices in edge (src, dst) order, so slot 0
        // is `b` — the walk source — and the pairs come out unswapped.
        let back = db.collect("MATCH a<-[:E*1..2]-b", usize::MAX).unwrap();
        let mut expect = reference_pairs(db.graph(), Some("E"), 1, 2);
        expect.sort_unstable();
        prop_assert_eq!(endpoint_pairs(&back), expect);
        assert_parallel_identical(&db, "MATCH a<-[:E*1..2]-b", limit)?;
    }

    /// Pinned-root skew: `a.ID = 0` binds a single supernode root, one
    /// morsel whose BFS runs inline at every pool size. Rows must stay
    /// bit-identical to sequential at every thread count and limit, and
    /// counts must match the reference restricted to source 0.
    #[test]
    fn pinned_root_bfs_frontier_partitioning(
        hub_degree in 16u32..100,
        edges in proptest::collection::vec((0..N, 0..N, prop::bool::ANY), 0..40),
        limit_raw in 0usize..200,
    ) {
        let mut g = build_graph(&edges);
        for i in 0..hub_degree {
            g.add_edge(
                aplus_common::VertexId(0),
                aplus_common::VertexId(1 + i % (N - 1)),
                if i % 2 == 0 { "E" } else { "F" },
            )
            .unwrap();
        }
        let db = Database::new(g).unwrap();
        let limit = if limit_raw >= 150 { usize::MAX } else { limit_raw };
        for (q, label, min, max) in [
            ("MATCH a-[:E*1..3]->b WHERE a.ID = 0", Some("E"), 1, 3),
            ("MATCH a-[*1..4]->b WHERE a.ID = 0", None, 1, 4),
            ("MATCH a-[:E*2..]->b WHERE a.ID = 0", Some("E"), 2, 64),
        ] {
            let expect: Vec<(u32, u32)> = reference_pairs(db.graph(), label, min, max)
                .into_iter()
                .filter(|&(s, _)| s == 0)
                .collect();
            let seq = db.count(q).unwrap();
            prop_assert_eq!(seq, expect.len() as u64, "query {}", q);
            for t in THREADS {
                let par = count_on(&db, q, &MorselPool::new(t));
                prop_assert_eq!(par, seq, "query {} threads {}", q, t);
            }
            assert_parallel_identical(&db, q, limit)?;
            // The pinned root: one morsel, its BFS run inline.
            common::assert_one_driver(&db, q)?;
        }
    }

    /// Mixed patterns: a var-length hop composed with a fixed hop joins
    /// the reference pairs with the data edges.
    #[test]
    fn varlength_composes_with_fixed_hops(
        edges in proptest::collection::vec((0..N, 0..N, prop::bool::ANY), 1..60),
    ) {
        let g = build_graph(&edges);
        let db = Database::new(g).unwrap();
        let pairs = reference_pairs(db.graph(), Some("E"), 1, 2);
        let f = db.graph().catalog().edge_label("F").unwrap();
        let mut expect = 0u64;
        for &(_, b) in &pairs {
            for (e, s, _, _) in db.graph().edges() {
                if s.raw() == b && db.graph().edge_label(e) == Ok(f) {
                    expect += 1;
                }
            }
        }
        let q = "MATCH a-[:E*1..2]->b-[s:F]->c";
        prop_assert_eq!(db.count(q).unwrap(), expect, "query {}", q);
        for t in THREADS {
            let par = count_on(&db, q, &MorselPool::new(t));
            prop_assert_eq!(par, expect, "query {} threads {}", q, t);
        }
        assert_parallel_identical(&db, q, usize::MAX)?;
    }
}
