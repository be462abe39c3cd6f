//! An E/I allocates nothing per frontier entry: a closing intersection's
//! lists and cursors live in per-morsel scratch, and its outer list is read
//! once per owner run; a filtered list is read once per owner from the
//! query's memo. A counting global allocator (this binary's own, so no
//! other suite sees it) counts what a sequential count allocates on the
//! calling thread at two frontier sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aplus_common::VertexId;
use aplus_graph::{Graph, PropertyEntity, PropertyKind, Value};
use aplus_query::plan::Operator;
use aplus_query::{Database, MorselPool};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // A thread being torn down has no counter left; nothing to count there.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract is passed on as it is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The root `a` (vertex 0) reaches `frontier` vertices `b` by `X` edges,
/// each of which reaches `c` (the last vertex) by a `Y` edge; `c` closes the
/// triangle back to `a` by two parallel `Z` edges. `Z` edges between filler
/// vertices make `a`'s backward `Z` list look long to the planner, so it
/// extends `b` first and closes at `c`.
fn triangle_fan(frontier: u32) -> Graph {
    const FILLER: u32 = 200;
    let mut g = Graph::new();
    g.add_vertex("A");
    for _ in 0..frontier {
        g.add_vertex("B");
    }
    for _ in 0..FILLER {
        g.add_vertex("D");
    }
    let c = g.add_vertex("C");
    for b in 1..=frontier {
        g.add_edge(VertexId(0), VertexId(b), "X").unwrap();
        g.add_edge(VertexId(b), c, "Y").unwrap();
    }
    for _ in 0..2 {
        g.add_edge(c, VertexId(0), "Z").unwrap();
    }
    let first = frontier + 1;
    for i in 0..40 * frontier {
        let (s, d) = (first + i % FILLER, first + (i * 7 + 1) % FILLER);
        g.add_edge(VertexId(s), VertexId(d), "Z").unwrap();
    }
    g
}

const Q: &str = "MATCH (a:A)-[r:X]->(b:B), (b:B)-[s:Y]->(c:C), (c:C)-[t:Z]->(a:A) WHERE a.ID = 0";

/// What a sequential count of the triangle under the one root allocates,
/// with the frontier of the closing intersection `frontier` entries long.
fn count_allocations(frontier: u32) -> u64 {
    let db = Database::new(triangle_fan(frontier)).unwrap();
    let (bound, plan) = db.prepare(Q).unwrap();
    let closing = plan.ops.last().expect("a plan has operators");
    assert!(
        matches!(closing, Operator::ExtendIntersect { target, alds, .. }
            if alds.len() == 2 && bound.vertices[*target].name == "c"),
        "the count must close the triangle at c over the b frontier: {plan}"
    );
    assert!(plan.to_string().contains("outer]"), "{plan}");
    let pool = MorselPool::sequential();
    let mut count = 0;
    let n = allocations(|| count = db.count_prepared_parallel(&bound, &plan, &pool));
    // Two parallel closing edges per b.
    assert_eq!(count, 2 * u64::from(frontier));
    n
}

/// A 100-fold longer frontier costs only the growth of the frontier's own
/// level columns (doublings, O(log n)): an allocation per E/I call would
/// add at least 9 900.
#[test]
fn closing_intersection_allocates_nothing_per_frontier_entry() {
    let small = count_allocations(100);
    let large = count_allocations(10_000);
    assert!(
        large < small + 64,
        "allocations grew with the frontier: {small} at 100 entries, {large} at 10 000"
    );
}

/// The root `a` (vertex 0) reaches `frontier` vertices `b` by `X` edges,
/// each of which reaches the one hub `h` by a `Y` edge; `h` has `Z` edges to
/// 100 more vertices, whose `w` runs through 0..10 in turn.
fn hub_fan(frontier: u32) -> Graph {
    let mut g = Graph::new();
    g.register_property(PropertyEntity::Edge, "w", PropertyKind::Int)
        .unwrap();
    let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
    g.add_vertex("A");
    for _ in 0..frontier {
        g.add_vertex("B");
    }
    let h = g.add_vertex("H");
    for b in 1..=frontier {
        g.add_edge(VertexId(0), VertexId(b), "X").unwrap();
        g.add_edge(VertexId(b), h, "Y").unwrap();
    }
    for i in 0..100 {
        let c = g.add_vertex("C");
        let z = g.add_edge(h, c, "Z").unwrap();
        g.set_edge_prop(z, w, Value::Int(i % 10)).unwrap();
    }
    g
}

/// What a sequential count of the hub's filtered list under the one root
/// allocates, with `frontier` entries reaching the hub.
fn filtered_allocations(frontier: u32) -> u64 {
    let q = "MATCH (a:A)-[r:X]->(b:B), (b:B)-[s:Y]->(h:H), (h:H)-[t:Z]->c WHERE a.ID = 0, t.w < 1";
    let db = Database::new(hub_fan(frontier)).unwrap();
    let (bound, plan) = db.prepare(q).unwrap();
    assert!(
        plan.to_string().lines().last().is_some_and(
            |l| l.starts_with("  E/I v3 ⋂[v2→primary:fwd") && l.ends_with("list-filter=1")
        ),
        "the count must read h's filtered list last: {plan}"
    );
    let pool = MorselPool::sequential();
    let mut count = 0;
    let n = allocations(|| count = db.count_prepared_parallel(&bound, &plan, &pool));
    // Ten kept `Z` edges per b.
    assert_eq!(count, 10 * u64::from(frontier));
    n
}

/// A filtered single-list E/I whose owner every frontier entry shares
/// fills the hub's memo cell once: a 100-fold longer frontier costs only
/// the growth of the frontier's own level columns.
#[test]
fn memoised_filtered_list_allocates_nothing_per_frontier_entry() {
    let small = filtered_allocations(100);
    let large = filtered_allocations(10_000);
    assert!(
        large < small + 64,
        "allocations grew with the frontier: {small} at 100 entries, {large} at 10 000"
    );
}
