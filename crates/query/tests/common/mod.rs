//! The oracle and the one-driver contract, shared by the differential
//! suites: a naive matcher says which rows a fixed-length query must
//! return, and since every strategy × pool × limit goes through
//! `Database::run`, one checker states what must hold for all of them.

// Every suite includes this file as its own module; not every suite uses
// every helper.
#![allow(dead_code)]

use std::ops::ControlFlow;

use proptest::prelude::*;

use aplus_common::{EdgeId, EdgeLabelId, VertexId};
use aplus_graph::Graph;
use aplus_query::query::{QueryGraph, Row};
use aplus_query::{profiled, Database, MorselPool, Output, QueryProfile, RawRow, SharedDatabase};

const POOLS: [usize; 3] = [1, 2, 4];

/// `count` / `collect` of query text on an explicit pool (the prepared
/// entry points take the pool as an argument).
pub fn count_on(db: &Database, q: &str, pool: &MorselPool) -> u64 {
    let (bound, plan) = db.prepare(q).unwrap();
    db.count_prepared_parallel(&bound, &plan, pool)
}

pub fn collect_on(db: &Database, q: &str, limit: usize, pool: &MorselPool) -> Vec<RawRow> {
    let (bound, plan) = db.prepare(q).unwrap();
    db.collect_prepared_parallel(&bound, &plan, limit, pool)
}

type EdgeEntry = (EdgeId, VertexId, VertexId, EdgeLabelId);

/// The oracle: every injective assignment of data edges to the query's
/// edges that satisfies endpoints, labels and predicates, as rows
/// (openCypher semantics: edges distinct, vertices free). It tries
/// assignments straight from the edge table — no index, plan or executor
/// code — so a disagreement implicates the engine. Fixed-length patterns
/// only: `None` when `q` has a variable-length edge.
pub fn oracle_rows(g: &Graph, q: &QueryGraph) -> Option<Vec<RawRow>> {
    if q.edges.iter().any(|e| e.var_length.is_some()) {
        return None;
    }
    let edges: Vec<EdgeEntry> = g.edges().collect();
    let mut rows = Vec::new();
    assign(g, q, &edges, &mut Vec::new(), &mut rows);
    Some(rows)
}

fn assign(
    g: &Graph,
    q: &QueryGraph,
    edges: &[EdgeEntry],
    assignment: &mut Vec<usize>,
    rows: &mut Vec<RawRow>,
) {
    let qi = assignment.len();
    if qi == q.edges.len() {
        // Derive the bindings and evaluate predicates through the
        // engine's own `Row` (re-using its eval keeps semantics aligned).
        let mut row = Row::unbound(q.vertices.len(), q.edges.len());
        for (slot, (qe, &di)) in q.edges.iter().zip(assignment.iter()).enumerate() {
            let (e, s, d, _) = edges[di];
            row.bind_edge(slot, e);
            row.bind_vertex(qe.src, s);
            row.bind_vertex(qe.dst, d);
        }
        let labelled = q.vertices.iter().enumerate().all(|(vi, qv)| {
            qv.label.is_none_or(|want| {
                row.vertex(vi)
                    .is_some_and(|v| g.vertex_label(v) == Ok(want))
            })
        });
        if labelled && q.predicates.iter().all(|p| p.eval(g, &row)) {
            rows.push((row.vertex_slots().to_vec(), row.edge_slots().to_vec()));
        }
        return;
    }
    let qe = &q.edges[qi];
    'cand: for (di, &(_, s, d, l)) in edges.iter().enumerate() {
        if assignment.contains(&di) || qe.label.is_some_and(|want| want != l) {
            continue;
        }
        if qe.src == qe.dst && s != d {
            continue;
        }
        // Endpoint consistency with earlier assignments.
        for (qj, &dj) in assignment.iter().enumerate() {
            let other = &q.edges[qj];
            let (_, os, od, _) = edges[dj];
            for (a, b, x, y) in [
                (qe.src, other.src, s, os),
                (qe.src, other.dst, s, od),
                (qe.dst, other.src, d, os),
                (qe.dst, other.dst, d, od),
            ] {
                if a == b && x != y {
                    continue 'cand;
                }
            }
        }
        assignment.push(di);
        assign(g, q, edges, assignment, rows);
        assignment.pop();
    }
}

/// What a profile must agree on across pools: the deterministic view,
/// exactly. Every morsel is a root-ID range and a suffix serves one
/// frontier entry per hit, so no counter follows the morsel cut.
fn comparable(profile: &QueryProfile) -> QueryProfile {
    profile.deterministic_view()
}

fn untouched(profile: &QueryProfile) -> bool {
    profile.early_exit_level.is_none()
        && profile.morsels_per_worker.is_empty()
        && profile
            .levels
            .iter()
            .all(|l| l.lists_scanned + l.candidates + l.emitted == 0)
}

/// Checks `q` × pools {1, 2, 4} × limits {0, 1, n − 1, n, n + 1, MAX}
/// against the sequential run's rows, which must be the oracle's rows in
/// some order (fixed-length patterns):
///
/// * the count equals the unlimited row count, and its profile is
///   identical across pools;
/// * limited rows are the exact prefix, pushed once each, and exactly the
///   rows delivered are flattened — none past the limit, at any pool;
/// * a run that completes records no early exit and profiles identically
///   across pools; one cut short by its limit exits at the sink level;
/// * `limit == 0` runs nothing at all — through `run` and through every
///   wrapper.
pub fn assert_one_driver(db: &Database, q: &str) -> Result<(), TestCaseError> {
    let (bound, plan) = db.prepare(q).unwrap();
    let reference =
        db.collect_prepared_parallel(&bound, &plan, usize::MAX, &MorselPool::sequential());
    if let Some(mut expect) = oracle_rows(db.graph(), &bound) {
        let mut got = reference.clone();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect, "rows differ from the oracle: query {}", q);
    }
    let n = reference.len();
    let limits = [0, 1, n.saturating_sub(1), n, n + 1, usize::MAX];
    let sink_level = plan.ops.len();
    let mut count_view: Option<QueryProfile> = None;
    let mut full_view: Option<QueryProfile> = None;
    for threads in POOLS {
        let pool = MorselPool::new(threads);
        let at = format!("query {q} threads {threads}");

        let counted = profiled(&plan, |p| {
            db.run(&bound, &plan, &pool, Some(p), Output::Count)
        });
        prop_assert_eq!(counted.rows, n as u64, "count: {}", &at);
        prop_assert_eq!(counted.early_exit_level, None, "count: {}", &at);
        let view = comparable(&counted);
        prop_assert_eq!(count_view.get_or_insert(view.clone()), &view, "{}", &at);

        for limit in limits {
            let at = format!("{at} limit {limit}");
            let mut rows: Vec<RawRow> = Vec::new();
            let profile = profiled(&plan, |p| {
                let sink = &mut |r: RawRow| {
                    rows.push(r);
                    ControlFlow::Continue(())
                };
                db.run(&bound, &plan, &pool, Some(p), Output::Rows { limit, sink })
            });
            prop_assert_eq!(&rows[..], &reference[..limit.min(n)], "rows: {}", &at);
            prop_assert_eq!(profile.rows, rows.len() as u64, "delivered: {}", &at);
            // Rows are flattened once, at the merge: none past the limit.
            prop_assert_eq!(
                profile.flatten_rows,
                rows.len() as u64,
                "flattened: {}",
                &at
            );
            if limit == 0 {
                prop_assert!(untouched(&profile), "limit 0 ran something: {}", &at);
            } else if limit <= n {
                prop_assert_eq!(profile.early_exit_level, Some(sink_level), "{}", &at);
            } else {
                prop_assert_eq!(profile.early_exit_level, None, "{}", &at);
                let view = comparable(&profile);
                prop_assert_eq!(full_view.get_or_insert(view.clone()), &view, "{}", &at);
            }
        }
    }

    // `limit == 0` through every wrapper: no rows, nothing pushed, no
    // early exit recorded.
    let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(2));
    prop_assert!(db.collect(q, 0).unwrap().is_empty());
    prop_assert!(shared.collect(q, 0).unwrap().is_empty());
    let mut pushed = 0usize;
    let mut sink = |_: RawRow| {
        pushed += 1;
        ControlFlow::Continue(())
    };
    db.stream(q, 0, &MorselPool::new(2), &mut sink).unwrap();
    db.stream_prepared(&bound, &plan, 0, &MorselPool::sequential(), &mut sink);
    shared.stream(q, 0, &mut sink).unwrap();
    // Profiled rows on a published snapshot and its pool.
    let snapshot = shared.snapshot();
    let profile = profiled(&plan, |p| {
        let sink = &mut sink;
        let out = Output::Rows { limit: 0, sink };
        snapshot.run(&bound, &plan, shared.pool(), Some(p), out)
    });
    prop_assert!(untouched(&profile), "query {}", q);
    prop_assert_eq!(pushed, 0, "limit 0 pushed rows: query {}", q);
    Ok(())
}
