//! Property-based tests for secondary A+ indexes: on random graphs with
//! random predicates, vertex- and edge-partitioned indexes must return
//! exactly the edges a direct predicate scan returns — after builds, after
//! maintenance streams, and after flushes. Every list is read every way an
//! [`OffsetList`] can be (`get`, `iter`, `into_list` whole and cut), and its
//! variant is asserted: `Clean` after a build or a flush, `Dirty` exactly
//! where un-flushed maintenance touched it.

use proptest::prelude::*;

use aplus_common::{EdgeId, VertexId};
use aplus_core::store::IndexDirections;
use aplus_core::view::{OneHopView, TwoHopOrientation, TwoHopView};
use aplus_core::{
    CmpOp, Direction, IndexSpec, IndexStore, OffsetList, SortKey, ViewComparison, ViewEntity,
    ViewOperand, ViewPredicate,
};
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};

/// Builds a random graph with an integer `w` edge property and a
/// categorical `grp` vertex property.
fn build_graph(n: u32, edges: &[(u32, u32, i64)]) -> Graph {
    let mut g = Graph::new();
    g.register_property(PropertyEntity::Edge, "w", PropertyKind::Int)
        .unwrap();
    g.register_property(PropertyEntity::Vertex, "grp", PropertyKind::Categorical)
        .unwrap();
    let grp = g.catalog().property(PropertyEntity::Vertex, "grp").unwrap();
    for i in 0..n {
        let v = g.add_vertex(if i % 2 == 0 { "A" } else { "B" });
        g.set_vertex_prop(v, grp, Value::Str(&format!("g{}", i % 4)))
            .unwrap();
    }
    let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
    for &(s, d, wt) in edges {
        let e = g.add_edge(VertexId(s % n), VertexId(d % n), "E").unwrap();
        g.set_edge_prop(e, w, Value::Int(wt)).unwrap();
    }
    g
}

/// The entries of `list`, after checking that `get`, `iter`, `into_list`
/// over everything and `into_list` over an inner cut all agree, and that
/// the list is `Dirty` exactly when `expect_dirty`.
fn read_every_way(
    list: OffsetList<'_>,
    expect_dirty: bool,
) -> Result<Vec<(u64, u32)>, TestCaseError> {
    prop_assert_eq!(matches!(list, OffsetList::Dirty { .. }), expect_dirty);
    let len = list.len();
    prop_assert_eq!(list.is_empty(), len == 0);
    let by_get: Vec<_> = (0..len).map(|i| list.get(i)).collect();
    let by_iter: Vec<_> = list.iter().collect();
    prop_assert_eq!(&by_get, &by_iter);
    let raw: Vec<(u64, u32)> = by_get.iter().map(|&(e, n)| (e.raw(), n.raw())).collect();
    let (a, b) = (len / 3, len - len / 4);
    for (start, end) in [(0, len), (a, b), (len, len)] {
        let run = list.clone().into_list(start, end);
        let got: Vec<(u64, u32)> = run.iter().map(|(e, n)| (e.raw(), n.raw())).collect();
        prop_assert_eq!(&got[..], &raw[start..end], "run {}..{}", start, end);
    }
    Ok(raw)
}

/// What un-flushed maintenance leaves behind, tracked beside the store:
/// edges below `merged_below` sit in merged primary pages, later ones in
/// update buffers, and `tombstoned` are the merged edges deleted since.
/// Whenever the primaries report nothing pending (a flush ran, or every
/// buffered insert was deleted again) the state is that of a fresh build.
struct Pending {
    merged_below: u64,
    tombstoned: Vec<EdgeId>,
}

impl Pending {
    fn after_build(g: &Graph) -> Self {
        Self {
            merged_below: g.edge_count() as u64,
            tombstoned: Vec::new(),
        }
    }

    fn note_delete(&mut self, victim: EdgeId) {
        if victim.raw() < self.merged_below {
            self.tombstoned.push(victim);
        }
    }

    fn observe(&mut self, g: &Graph, store: &IndexStore) {
        let pending = [Direction::Fwd, Direction::Bwd]
            .iter()
            .any(|&d| store.primary().index(d).has_pending_merges());
        if !pending {
            *self = Self::after_build(g);
        }
    }

    fn buffered(&self, e: EdgeId) -> bool {
        e.raw() >= self.merged_below
    }
}

fn edge_strategy(n: u32) -> impl Strategy<Value = Vec<(u32, u32, i64)>> {
    proptest::collection::vec((0..n, 0..n, 0i64..100), 1..220)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A vertex-partitioned index over `w > t` returns exactly the edges a
    /// scan returns, per owner, for both directions.
    #[test]
    fn vertex_partitioned_equals_scan(
        edges in edge_strategy(40),
        threshold in 0i64..100,
    ) {
        let g = build_graph(40, &edges);
        let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
        let mut store = IndexStore::build(&g).unwrap();
        let view = OneHopView::new(ViewPredicate::all_of(vec![
            ViewComparison::prop_const(ViewEntity::AdjEdge, w, CmpOp::Gt, threshold),
        ])).unwrap();
        store
            .create_vertex_index(&g, "vp", IndexDirections::FwBw, view,
                IndexSpec::default_primary())
            .unwrap();
        // No predicate, the primary's partitioning, another sort: the
        // shared-levels layout, indexing every edge.
        store
            .create_vertex_index(&g, "vps", IndexDirections::FwBw,
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(w)]))
            .unwrap();
        for dir in [Direction::Fwd, Direction::Bwd] {
            let primary = store.primary().index(dir);
            for (name, shared, floor) in [("vp", false, threshold), ("vps", true, i64::MIN)] {
                let vp = store.vertex_index(name, dir).unwrap();
                prop_assert_eq!(vp.shares_levels(), shared);
                for v in g.vertices() {
                    let mut expect: Vec<u64> = g
                        .edges()
                        .filter(|&(e, s, d, _)| {
                            dir.owner(s, d) == v && g.edge_prop(e, w).unwrap() > floor
                        })
                        .map(|(e, ..)| e.raw())
                        .collect();
                    expect.sort_unstable();
                    let mut got: Vec<u64> = read_every_way(vp.list(primary, v, &[]), false)?
                        .into_iter()
                        .map(|(e, _)| e)
                        .collect();
                    got.sort_unstable();
                    prop_assert_eq!(got, expect, "{} dir {:?} vertex {}", name, dir, v);
                }
            }
        }
    }

    /// An edge-partitioned Destination-FW index over `eb.w > eadj.w`
    /// returns exactly the qualifying 2-paths.
    #[test]
    fn edge_partitioned_equals_scan(edges in edge_strategy(25)) {
        let g = build_graph(25, &edges);
        let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
        let mut store = IndexStore::build(&g).unwrap();
        let view = TwoHopView::new(
            TwoHopOrientation::DestFw,
            ViewPredicate::all_of(vec![ViewComparison::new(
                ViewOperand::Prop(ViewEntity::BoundEdge, w),
                CmpOp::Gt,
                ViewOperand::Prop(ViewEntity::AdjEdge, w),
            )]),
        ).unwrap();
        store
            .create_edge_index(&g, "ep", view, IndexSpec::default_primary())
            .unwrap();
        let ep = store.edge_index("ep").unwrap();
        let primary = store.primary().index(Direction::Fwd);
        let all: Vec<_> = g.edges().collect();
        for &(eb, _, dst, _) in &all {
            let mut expect: Vec<u64> = all
                .iter()
                .filter(|&&(eadj, s, _, _)| {
                    s == dst
                        && eadj != eb
                        && g.edge_prop(eb, w).unwrap() > g.edge_prop(eadj, w).unwrap()
                })
                .map(|&(e, ..)| e.raw())
                .collect();
            expect.sort_unstable();
            let mut got: Vec<u64> = read_every_way(ep.list(&g, primary, eb, &[]), false)?
                .into_iter()
                .map(|(e, _)| e)
                .collect();
            got.sort_unstable();
            prop_assert_eq!(got, expect, "bound edge {}", eb);
        }
    }

    /// Maintenance: applying a random insert/delete stream through the
    /// store matches an index rebuilt from the final graph — with and
    /// without a flush in between.
    #[test]
    fn maintained_secondary_equals_rebuilt(
        initial in edge_strategy(30),
        stream in proptest::collection::vec((0u32..30, 0u32..30, 0i64..100, prop::bool::ANY), 1..60),
        threshold in 20i64..80,
    ) {
        let mut g = build_graph(30, &initial);
        let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
        let mut store = IndexStore::build(&g).unwrap();
        let view = OneHopView::new(ViewPredicate::all_of(vec![
            ViewComparison::prop_const(ViewEntity::AdjEdge, w, CmpOp::Gt, threshold),
        ])).unwrap();
        // "vp": a predicate, so own levels; "vps": none and the primary's
        // partitioning, so shared levels. Both sorted by w.
        let specs = [
            ("vp", view, IndexSpec::default().with_sort(vec![SortKey::EdgeProp(w)]), threshold),
            (
                "vps",
                OneHopView::new(ViewPredicate::always_true()).unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(w)]),
                i64::MIN,
            ),
        ];
        for (name, view, spec, _) in &specs {
            store
                .create_vertex_index(&g, name, IndexDirections::Fw, view.clone(), spec.clone())
                .unwrap();
        }

        let mut pending = Pending::after_build(&g);
        let mut live: Vec<EdgeId> = g.edges().map(|(e, ..)| e).collect();
        for &(s, d, wt, delete) in &stream {
            if delete && !live.is_empty() {
                let victim = live[(s as usize + d as usize) % live.len()];
                live.retain(|&e| e != victim);
                g.delete_edge(victim).unwrap();
                store.delete_edge(&g, victim);
                pending.note_delete(victim);
            } else {
                let e = g.add_edge(VertexId(s % 30), VertexId(d % 30), "E").unwrap();
                g.set_edge_prop(e, w, Value::Int(wt)).unwrap();
                store.insert_edge(&g, e);
                live.push(e);
            }
            pending.observe(&g, &store);
        }

        let mut rebuilt = IndexStore::build(&g).unwrap();
        for (name, view, spec, _) in &specs {
            rebuilt
                .create_vertex_index(&g, name, IndexDirections::Fw, view.clone(), spec.clone())
                .unwrap();
        }

        let check = |store: &IndexStore, pending: &Pending, phase: &str| -> Result<(), TestCaseError> {
            let primary = store.primary().index(Direction::Fwd);
            let rb_primary = rebuilt.primary().index(Direction::Fwd);
            for (name, _, _, floor) in &specs {
                let vp = store.vertex_index(name, Direction::Fwd).unwrap();
                let rb = rebuilt.vertex_index(name, Direction::Fwd).unwrap();
                prop_assert_eq!(vp.shares_levels(), *name == "vps");
                for v in g.vertices() {
                    // Dirty: a tombstone in v's primary region, or a
                    // buffered edge of v that the view admits.
                    let src_is_v = |e: EdgeId| g.edge_endpoints(e).unwrap().0 == v;
                    let dirty = pending.tombstoned.iter().any(|&t| src_is_v(t))
                        || live.iter().any(|&e| {
                            pending.buffered(e) && src_is_v(e) && g.edge_prop(e, w).unwrap() > *floor
                        });
                    // Sorted by w, so the full (edge, nbr) sequences must match.
                    let got = read_every_way(vp.list(primary, v, &[]), dirty)?;
                    let expect = read_every_way(rb.list(rb_primary, v, &[]), false)?;
                    prop_assert_eq!(got, expect, "{} {} vertex {}", phase, name, v);
                }
            }
            Ok(())
        };
        check(&store, &pending, "pre-flush")?;
        store.flush(&g);
        check(&store, &Pending::after_build(&g), "post-flush")?;
    }

    /// Edge-partitioned maintenance: a random insert/delete stream through
    /// the store matches an EP index rebuilt from the final graph.
    #[test]
    fn maintained_edge_partitioned_equals_rebuilt(
        initial in edge_strategy(20),
        stream in proptest::collection::vec((0u32..20, 0u32..20, 0i64..100, prop::bool::ANY), 1..40),
    ) {
        let mut g = build_graph(20, &initial);
        let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
        let view = TwoHopView::new(
            TwoHopOrientation::DestFw,
            ViewPredicate::all_of(vec![ViewComparison::new(
                ViewOperand::Prop(ViewEntity::BoundEdge, w),
                CmpOp::Gt,
                ViewOperand::Prop(ViewEntity::AdjEdge, w),
            )]),
        ).unwrap();
        let mut store = IndexStore::build(&g).unwrap();
        store
            .create_edge_index(&g, "ep", view.clone(), IndexSpec::default_primary())
            .unwrap();

        let mut pending = Pending::after_build(&g);
        let mut live: Vec<EdgeId> = g.edges().map(|(e, ..)| e).collect();
        for &(s, d, wt, delete) in &stream {
            if delete && !live.is_empty() {
                let victim = live[(s as usize * 7 + d as usize) % live.len()];
                live.retain(|&e| e != victim);
                g.delete_edge(victim).unwrap();
                store.delete_edge(&g, victim);
                pending.note_delete(victim);
            } else {
                let e = g.add_edge(VertexId(s % 20), VertexId(d % 20), "E").unwrap();
                g.set_edge_prop(e, w, Value::Int(wt)).unwrap();
                store.insert_edge(&g, e);
                live.push(e);
            }
            pending.observe(&g, &store);
        }

        let mut rebuilt = IndexStore::build(&g).unwrap();
        rebuilt
            .create_edge_index(&g, "ep", view, IndexSpec::default_primary())
            .unwrap();

        let check = |st: &IndexStore, pending: &Pending, phase: &str| -> Result<(), TestCaseError> {
            let ep = st.edge_index("ep").unwrap();
            let primary = st.primary().index(Direction::Fwd);
            let rb = rebuilt.edge_index("ep").unwrap();
            let rb_primary = rebuilt.primary().index(Direction::Fwd);
            for &eb in &live {
                // Dirty: a tombstone in the anchor's (eb's destination's)
                // forward region, or a view pair (eb, eadj) either side of
                // which is still buffered.
                let anchor = g.edge_endpoints(eb).unwrap().1;
                let leaves_anchor = |e: EdgeId| g.edge_endpoints(e).unwrap().0 == anchor;
                let dirty = pending.tombstoned.iter().any(|&t| leaves_anchor(t))
                    || live.iter().any(|&eadj| {
                        eadj != eb
                            && leaves_anchor(eadj)
                            && g.edge_prop(eb, w).unwrap() > g.edge_prop(eadj, w).unwrap()
                            && (pending.buffered(eb) || pending.buffered(eadj))
                    });
                let mut got = read_every_way(ep.list(&g, primary, eb, &[]), dirty)?;
                let mut expect = read_every_way(rb.list(&g, rb_primary, eb, &[]), false)?;
                got.sort_unstable();
                expect.sort_unstable();
                prop_assert_eq!(got, expect, "{} bound edge {}", phase, eb);
            }
            Ok(())
        };
        check(&store, &pending, "pre-flush")?;
        store.flush(&g);
        check(&store, &Pending::after_build(&g), "post-flush")?;
    }
}
