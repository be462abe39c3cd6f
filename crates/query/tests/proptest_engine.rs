//! Differential property tests: the full optimizer + executor pipeline
//! against the oracle (`common::oracle_rows`, a naive matcher that
//! enumerates assignments of data edges to query edges straight from the
//! edge table), over random graphs, random patterns, and random index
//! configurations.

use proptest::prelude::*;

use aplus_core::store::IndexDirections;
use aplus_core::view::OneHopView;
use aplus_core::{IndexSpec, PartitionKey, SortKey, ViewPredicate};
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};
use aplus_query::Database;

mod common;

const N: u32 = 16;

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

/// The query templates exercised (mix of shapes, labels, predicates).
const TEMPLATES: &[&str] = &[
    "MATCH a-[r:E]->b",
    "MATCH a-[r:E]->b-[s:F]->c",
    "MATCH a-[r:E]->b-[s:E]->c-[t:E]->a",
    "MATCH (a:A)-[r:E]->(b:B)",
    "MATCH a-[r]->b WHERE r.w > 40",
    "MATCH a-[r]->b-[s]->c WHERE r.w > s.w",
    "MATCH a-[r]->b, a-[s]->c WHERE b.grp = c.grp",
    "MATCH a-[r:E]->b<-[s:E]-c",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_brute_force(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..40),
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
            let (bound, _) = db.prepare(q).unwrap();
            let expect = common::oracle_rows(db.graph(), &bound).unwrap().len() as u64;
            let got = db.count(q).unwrap();
            prop_assert_eq!(got, expect, "config {} query {}", config, q);
        }
    }

    #[test]
    fn secondary_indexes_never_change_counts(
        edges in proptest::collection::vec((0..N, 0..N, 0i64..100, prop::bool::ANY), 1..40),
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
            let grp = db
                .graph()
                .catalog()
                .property(PropertyEntity::Vertex, "grp")
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
            store
                .create_vertex_index(
                    graph,
                    "bygrp",
                    IndexDirections::Fw,
                    OneHopView::new(ViewPredicate::always_true()).unwrap(),
                    IndexSpec::default_primary().with_sort(vec![SortKey::NbrProp(grp)]),
                )
                .unwrap();
        }
        let counts: Vec<u64> = TEMPLATES.iter().map(|q| db.count(q).unwrap()).collect();
        prop_assert_eq!(counts, reference);
    }
}
