//! Epoch-based snapshot isolation, end to end: streams overlapping
//! `RECONFIGURE` rebuilds, readers proven never to wait on writers, and
//! result bit-identity across pool sizes against a pinned snapshot while
//! writers churn. These are the regression tests for the service layer's
//! central guarantee — under the old `RwLock` design every one of them
//! would deadlock or observe torn state.

use std::sync::mpsc;

use aplus::datagen::build_financial_graph;
use aplus::{Database, MorselPool, RawRow, SharedDatabase, Value};
use aplus_common::VertexId;

const WIRES_QUERY: &str = "MATCH a-[r:W]->b";
const BASE_WIRES: u64 = 9;
const RECONFIGURE: &str =
    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID";

fn shared_db() -> SharedDatabase {
    let db = Database::new(build_financial_graph().graph).unwrap();
    SharedDatabase::with_pool(db, MorselPool::new(4))
}

/// The headline scenario: a long-running stream overlaps a `RECONFIGURE`
/// rebuild *and* a subsequent insert. The stream must observe exactly its
/// pre-rebuild snapshot; the writer must run to completion while the
/// stream is mid-drain (under a read-lock design this deadlocks: the
/// writer waits for the stream, the stream waits for the test to drain
/// it); post-publish queries must see the new configuration and data.
#[test]
fn stream_overlapping_reconfigure_pins_the_pre_rebuild_snapshot() {
    let shared = shared_db();
    let expect = shared.collect(WIRES_QUERY, usize::MAX).unwrap();
    let spec_before = shared.snapshot().store().primary().spec().clone();

    // A capacity-1 channel guarantees the producing query is still
    // running (blocked on back-pressure) while the writers commit.
    let (mut tx, rx) = aplus::row_channel(1);
    let producer = {
        let handle = shared.clone();
        std::thread::spawn(move || {
            handle.stream(WIRES_QUERY, usize::MAX, &mut tx).unwrap();
            drop(tx);
        })
    };
    let mut rx = rx.into_iter();
    let mut rows: Vec<RawRow> = Vec::new();
    rows.push(rx.next().expect("the stream produced its first row"));

    // Mid-drain: a full primary+secondary rebuild and an insert both
    // commit while the stream is alive. Completion alone is the
    // "readers never block writers" proof in this direction.
    shared.writer().ddl(RECONFIGURE).unwrap();
    shared
        .writer()
        .insert_edge(VertexId(0), VertexId(2), "W", &[("amt", Value::Int(1))])
        .unwrap();
    assert_eq!(shared.epoch(), 2, "both write batches committed mid-drain");

    // The stream keeps draining its pinned pre-rebuild version: exactly
    // the original rows, not the inserted edge, not the new layout.
    rows.extend(rx);
    producer.join().unwrap();
    assert_eq!(
        rows, expect,
        "a stream overlapping a reconfigure must drain its own snapshot"
    );

    // Post-publish reads see the new configuration and the new edge.
    let after = shared.snapshot();
    assert_ne!(
        after.store().primary().spec().partitioning,
        spec_before.partitioning,
        "new pins observe the reconfigured primary"
    );
    assert_eq!(after.count(WIRES_QUERY).unwrap(), BASE_WIRES + 1);
}

/// The same pin guarantee for a variable-length traversal: a streaming
/// BFS query drains bit-identically to its pre-write snapshot while a
/// `RECONFIGURE` (which rewrites the very adjacency lists the frontier
/// expansion walks) and an insert (which would extend the reachable set)
/// both commit mid-drain.
#[test]
fn var_length_stream_overlapping_reconfigure_pins_its_snapshot() {
    const VAR_LENGTH_QUERY: &str = "MATCH a-[:W*1..3]->b";
    let shared = shared_db();
    let expect = shared.collect(VAR_LENGTH_QUERY, usize::MAX).unwrap();

    let (mut tx, rx) = aplus::row_channel(1);
    let producer = {
        let handle = shared.clone();
        std::thread::spawn(move || {
            handle
                .stream(VAR_LENGTH_QUERY, usize::MAX, &mut tx)
                .unwrap();
            drop(tx);
        })
    };
    let mut rx = rx.into_iter();
    let mut rows: Vec<RawRow> = Vec::new();
    rows.push(rx.next().expect("the stream produced its first row"));

    // Mid-drain: rebuild the primary the BFS is walking, then add a W
    // edge from a customer vertex (5) — customers have no outgoing wires
    // in the base graph, so this provably grows the reachable pair set.
    shared.writer().ddl(RECONFIGURE).unwrap();
    shared
        .writer()
        .insert_edge(VertexId(5), VertexId(0), "W", &[("amt", Value::Int(1))])
        .unwrap();
    assert_eq!(shared.epoch(), 2, "both write batches committed mid-drain");

    rows.extend(rx);
    producer.join().unwrap();
    assert_eq!(
        rows, expect,
        "a var-length stream overlapping a reconfigure must drain its own snapshot"
    );

    // The new edge changes the post-publish traversal (vertex 2 and its
    // successors become reachable from 0), and the live head sees it.
    let after = shared.count(VAR_LENGTH_QUERY).unwrap();
    assert!(
        after > expect.len() as u64,
        "the inserted edge must grow the reachable set: {after} vs {}",
        expect.len()
    );
}

/// Readers issued *during* an in-flight write batch (a reconfigure held
/// open on its writer handle) complete without waiting: counts, collects
/// and streams all finish while the writer sits on the gate, and all of
/// them observe the pre-commit epoch. Deterministic — a blocked reader
/// deadlocks the test rather than flaking it.
#[test]
fn readers_complete_during_an_in_flight_reconfigure() {
    let shared = shared_db();
    let expect = shared.collect(WIRES_QUERY, usize::MAX).unwrap();
    let (ready_tx, ready_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let writer = {
        let handle = shared.clone();
        std::thread::spawn(move || {
            let mut w = handle.writer();
            w.ddl(RECONFIGURE).unwrap();
            w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
            ready_tx.send(()).unwrap();
            // Keep the batch open until every reader has finished.
            done_rx.recv().unwrap();
        })
    };
    ready_rx.recv().unwrap();

    // Three reader threads, one per result shape, all racing the open
    // writer. Each must terminate (no blocking) with pre-commit results.
    std::thread::scope(|scope| {
        let count_reader = scope.spawn(|| shared.count(WIRES_QUERY).unwrap());
        let collect_reader = scope.spawn(|| shared.collect(WIRES_QUERY, usize::MAX).unwrap());
        let stream_reader = scope.spawn(|| {
            let mut rows: Vec<RawRow> = Vec::new();
            shared
                .stream(WIRES_QUERY, usize::MAX, &mut |r: RawRow| {
                    rows.push(r);
                    std::ops::ControlFlow::Continue(())
                })
                .unwrap();
            rows
        });
        assert_eq!(count_reader.join().unwrap(), BASE_WIRES);
        assert_eq!(collect_reader.join().unwrap(), expect);
        assert_eq!(stream_reader.join().unwrap(), expect);
    });
    assert_eq!(
        shared.epoch(),
        0,
        "nothing published while the batch is open"
    );

    done_tx.send(()).unwrap();
    writer.join().unwrap();
    assert_eq!(shared.epoch(), 1);
    assert_eq!(shared.count(WIRES_QUERY).unwrap(), BASE_WIRES + 1);
}

/// Against one pinned snapshot, `count`/`collect`/`stream` agree with
/// sequential execution bit-for-bit at every pool size — while a writer
/// churns inserts, deletes and reconfigures through the service layer the
/// whole time. The churn can never leak into the pinned version.
#[test]
fn pinned_snapshot_results_are_bit_identical_across_pool_sizes_under_churn() {
    let shared = shared_db();
    let snapshot = shared.snapshot();
    let sequential = snapshot.collect(WIRES_QUERY, usize::MAX).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writer churn: inserts, periodic flushes and deletes, plus a
        // reconfigure — every batch publishes a new epoch.
        let churn = {
            let handle = shared.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut round = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let e = handle
                        .writer()
                        .insert_edge(VertexId(0), VertexId(2), "W", &[])
                        .unwrap();
                    if round % 4 == 0 {
                        handle.writer().flush();
                    }
                    if round % 8 == 3 {
                        handle.writer().ddl(RECONFIGURE).unwrap();
                    }
                    handle.writer().delete_edge(e).unwrap();
                    round += 1;
                }
                round
            })
        };

        for threads in [1, 2, 4] {
            let pool = MorselPool::new(threads);
            let (bound, plan) = snapshot.prepare(WIRES_QUERY).unwrap();
            assert_eq!(
                snapshot.count_prepared_parallel(&bound, &plan, &pool),
                sequential.len() as u64,
                "count at {threads} threads"
            );
            assert_eq!(
                snapshot.collect_prepared_parallel(&bound, &plan, usize::MAX, &pool),
                sequential,
                "collect at {threads} threads"
            );
            let mut streamed: Vec<RawRow> = Vec::new();
            snapshot
                .stream(WIRES_QUERY, usize::MAX, &pool, &mut |r: RawRow| {
                    streamed.push(r);
                    std::ops::ControlFlow::Continue(())
                })
                .unwrap();
            assert_eq!(streamed, sequential, "stream at {threads} threads");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(churn.join().unwrap() > 0, "the writer made progress");
    });

    // The pinned version never moved; the live head did.
    assert_eq!(snapshot.epoch(), 0);
    assert!(shared.epoch() > 0);
    assert_eq!(
        shared.count(WIRES_QUERY).unwrap(),
        BASE_WIRES,
        "every churn round deleted what it inserted"
    );
}

/// A snapshot pinned across many committed epochs (including full
/// rebuilds) keeps answering from its own version for as long as it
/// lives — reclamation is by last-reader-drop, not by writer progress.
#[test]
fn long_pinned_snapshot_survives_many_epochs() {
    let shared = shared_db();
    let pinned = shared.snapshot();
    let expect = pinned.collect(WIRES_QUERY, usize::MAX).unwrap();
    for i in 0..16u32 {
        let mut w = shared.writer();
        w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
        if i % 4 == 1 {
            w.flush();
        }
        if i % 8 == 5 {
            w.ddl(RECONFIGURE).unwrap();
        }
    }
    assert_eq!(shared.epoch(), 16);
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(pinned.collect(WIRES_QUERY, usize::MAX).unwrap(), expect);
    assert_eq!(
        shared.count(WIRES_QUERY).unwrap(),
        BASE_WIRES + 16,
        "the live head accumulated every batch"
    );
}
