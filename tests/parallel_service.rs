//! Cross-crate stress tests of the concurrent service layer: many reader
//! threads executing morsel-parallel queries (counts *and* row streams)
//! against a writer doing buffered inserts + flushes (and DDL) through
//! `SharedDatabase::writer`, plus the writer-crash contract (a panicked
//! batch is discarded, never published — no lock poisoning exists).
//! Snapshot-specific isolation tests live in `snapshot_isolation.rs`.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};

use aplus::datagen::build_financial_graph;
use aplus::{Database, MorselPool, RawRow, SharedDatabase, Value};
use aplus_common::VertexId;

const WIRES_QUERY: &str = "MATCH a-[r:W]->b";
const BASE_WIRES: u64 = 9;

fn shared_db() -> SharedDatabase {
    let db = Database::new(build_financial_graph().graph).unwrap();
    SharedDatabase::with_pool(db, MorselPool::new(4))
}

/// Readers run concurrently with a writer inserting wires one at a time
/// (exercising the update buffers) and flushing periodically. Every
/// observed count must be a consistent snapshot — between the initial and
/// final state, and non-decreasing per reader since the writer only adds.
#[test]
fn concurrent_readers_with_buffered_writer() {
    const READERS: usize = 4;
    const INSERTS: u64 = 48;

    let shared = shared_db();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let handle = shared.clone();
            let stop = &stop;
            readers.push(scope.spawn(move || {
                let mut observations = 0u64;
                let mut last = 0u64;
                // Do-while shape: at least one observation per reader even
                // if the writer finishes before this thread is scheduled
                // (single-core machines), so progress is deterministic.
                loop {
                    let n = handle.count(WIRES_QUERY).unwrap();
                    assert!(
                        (BASE_WIRES..=BASE_WIRES + INSERTS).contains(&n),
                        "count {n} outside [{BASE_WIRES}, {}]",
                        BASE_WIRES + INSERTS
                    );
                    assert!(
                        n >= last,
                        "inserts only: counts must be monotone per reader"
                    );
                    last = n;
                    observations += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observations
            }));
        }
        // The writer: single-edge inserts through the service layer, with
        // periodic explicit flushes (page merges + offset rebuilds).
        for i in 0..INSERTS {
            shared
                .writer()
                .insert_edge(
                    VertexId(0),
                    VertexId(2),
                    "W",
                    &[("amt", Value::Int(i64::try_from(i).unwrap()))],
                )
                .unwrap();
            if i % 8 == 7 {
                shared.writer().flush();
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total >= READERS as u64, "every reader made progress");
    });
    assert_eq!(shared.count(WIRES_QUERY).unwrap(), BASE_WIRES + INSERTS);
}

/// DDL (`RECONFIGURE`, `CREATE 1-HOP VIEW`) serialized against concurrent
/// readers: results must be identical before, during and after — index
/// tuning never changes query answers.
#[test]
fn readers_survive_concurrent_reconfiguration() {
    let shared = shared_db();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let handle = shared.clone();
            let stop = &stop;
            readers.push(scope.spawn(move || loop {
                assert_eq!(handle.count(WIRES_QUERY).unwrap(), BASE_WIRES);
                assert_eq!(
                    handle
                        .count("MATCH a-[r:W]->b WHERE r.currency = USD")
                        .unwrap(),
                    5
                );
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }));
        }
        shared
            .writer()
            .ddl(
                "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency \
                 SORT BY vnbr.ID",
            )
            .unwrap();
        shared
            .writer()
            .ddl(
                "CREATE 1-HOP VIEW Usd MATCH vs-[eadj]->vd WHERE eadj.currency = USD \
                 INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID",
            )
            .unwrap();
        shared
            .writer()
            .ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID")
            .unwrap();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });
}

/// A streamed snapshot of the wires query must be internally consistent:
/// every row fully bound with the pattern's arity, every bound edge
/// distinct (a single-edge pattern enumerates distinct data edges — a torn
/// row would repeat or drop one), and the stream length equal to a count
/// taken inside the same lock epoch's bounds.
fn check_stream_snapshot(rows: &[RawRow], lo: u64, hi: u64) {
    let n = rows.len() as u64;
    assert!(
        (lo..=hi).contains(&n),
        "streamed {n} rows outside [{lo}, {hi}]"
    );
    let mut edge_ids = std::collections::HashSet::new();
    for (vs, es) in rows {
        assert_eq!(vs.len(), 2, "MATCH a-[r:W]->b binds two vertices");
        assert_eq!(es.len(), 1, "MATCH a-[r:W]->b binds one edge");
        assert!(
            vs.iter().all(|&v| v != u32::MAX) && es[0] != u64::MAX,
            "torn row: unbound slot in {vs:?}/{es:?}"
        );
        assert!(edge_ids.insert(es[0]), "torn row: edge {} repeated", es[0]);
    }
}

/// Concurrent *streaming* readers against a writer inserting wires and
/// flushing: each stream drains one pinned snapshot, so it observes a
/// consistent snapshot — well-formed rows, distinct edges, monotone sizes
/// per reader. One reader drains through a bounded `row_channel` from a
/// separate consumer thread (the network-front-end shape), the others use
/// closure sinks.
#[test]
fn concurrent_streaming_readers_with_buffered_writer() {
    const CLOSURE_READERS: usize = 2;
    const INSERTS: u64 = 32;

    let shared = shared_db();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..CLOSURE_READERS {
            let handle = shared.clone();
            let stop = &stop;
            readers.push(scope.spawn(move || {
                let mut last = 0u64;
                loop {
                    let mut rows: Vec<RawRow> = Vec::new();
                    handle
                        .stream(WIRES_QUERY, usize::MAX, &mut |r: RawRow| {
                            rows.push(r);
                            ControlFlow::Continue(())
                        })
                        .unwrap();
                    check_stream_snapshot(&rows, BASE_WIRES, BASE_WIRES + INSERTS);
                    let n = rows.len() as u64;
                    assert!(n >= last, "inserts only: snapshots must be monotone");
                    last = n;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }));
        }
        // The channel reader: a producer thread streams under the read
        // lock while this consumer drains with bounded buffering.
        {
            let handle = shared.clone();
            let stop = &stop;
            readers.push(scope.spawn(move || loop {
                let (mut tx, rx) = aplus::row_channel(4);
                let producer = std::thread::spawn({
                    let handle = handle.clone();
                    move || {
                        handle.stream(WIRES_QUERY, usize::MAX, &mut tx).unwrap();
                        drop(tx);
                    }
                });
                let rows: Vec<RawRow> = rx.collect();
                producer.join().unwrap();
                check_stream_snapshot(&rows, BASE_WIRES, BASE_WIRES + INSERTS);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }));
        }
        for i in 0..INSERTS {
            shared
                .writer()
                .insert_edge(
                    VertexId(0),
                    VertexId(2),
                    "W",
                    &[("amt", Value::Int(i64::try_from(i).unwrap()))],
                )
                .unwrap();
            if i % 8 == 7 {
                shared.writer().flush();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });
    let final_rows = shared.collect(WIRES_QUERY, usize::MAX).unwrap();
    check_stream_snapshot(&final_rows, BASE_WIRES + INSERTS, BASE_WIRES + INSERTS);
}

/// Streaming readers keep observing the same rows while a writer
/// reconfigures the primary indexes and creates views — index tuning never
/// changes results, torn reads never surface mid-stream. Row *order*
/// follows the list layout of the epoch a reader pinned, so each iteration
/// pins one snapshot and requires its parallel stream to equal, in order,
/// the sequential `collect` of that same snapshot; across epochs the row
/// *set* must stay the static answer.
#[test]
fn streaming_readers_survive_concurrent_reconfiguration() {
    let shared = shared_db();
    let mut expect = shared.collect(WIRES_QUERY, usize::MAX).unwrap();
    expect.sort();
    let pool = MorselPool::new(4);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let handle = shared.clone();
            let (expect, pool, stop) = (&expect, &pool, &stop);
            readers.push(scope.spawn(move || loop {
                let snapshot = handle.snapshot();
                let mut rows: Vec<RawRow> = Vec::new();
                snapshot
                    .stream(WIRES_QUERY, usize::MAX, pool, &mut |r: RawRow| {
                        rows.push(r);
                        ControlFlow::Continue(())
                    })
                    .unwrap();
                assert_eq!(
                    rows,
                    snapshot.collect(WIRES_QUERY, usize::MAX).unwrap(),
                    "stream diverged from collect on the same snapshot (epoch {})",
                    snapshot.epoch()
                );
                rows.sort();
                assert_eq!(
                    &rows,
                    expect,
                    "reconfiguration changed the result set (epoch {})",
                    snapshot.epoch()
                );
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }));
        }
        shared
            .writer()
            .ddl(
                "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency \
                 SORT BY vnbr.ID",
            )
            .unwrap();
        shared
            .writer()
            .ddl(
                "CREATE 1-HOP VIEW UsdStream MATCH vs-[eadj]->vd WHERE eadj.currency = USD \
                 INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID",
            )
            .unwrap();
        shared
            .writer()
            .ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID")
            .unwrap();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });
}

/// A writer panicking mid-mutation discards its private head: nothing is
/// published, the last committed snapshot keeps serving reads, streams
/// and writes — snapshot publication has no lock poisoning (a
/// half-mutated database is unobservable by construction).
#[test]
fn writer_panic_discards_the_batch_and_service_survives() {
    let shared = shared_db();
    let before = shared.epoch();
    let crasher = {
        let handle = shared.clone();
        std::thread::spawn(move || {
            let mut guard = handle.writer();
            guard
                .insert_edge(VertexId(0), VertexId(2), "W", &[])
                .unwrap();
            panic!("simulated writer crash mid-mutation");
        })
    };
    assert!(crasher.join().is_err(), "the writer thread panicked");
    assert_eq!(shared.epoch(), before, "the crashed batch never published");
    assert_eq!(
        shared.count(WIRES_QUERY).unwrap(),
        BASE_WIRES,
        "reads keep serving the last committed snapshot"
    );
    let mut rows: Vec<RawRow> = Vec::new();
    shared
        .stream(WIRES_QUERY, usize::MAX, &mut |r: RawRow| {
            rows.push(r);
            ControlFlow::Continue(())
        })
        .unwrap();
    assert_eq!(rows.len() as u64, BASE_WIRES, "streams survive the crash");
    shared
        .writer()
        .insert_edge(VertexId(0), VertexId(2), "W", &[])
        .unwrap();
    assert_eq!(
        shared.count(WIRES_QUERY).unwrap(),
        BASE_WIRES + 1,
        "the service stays writable after a writer crash"
    );
}

/// The same handle works across thread counts, and every pool size agrees
/// with the sequential baseline on a non-trivial multi-hop query.
#[test]
fn shared_counts_agree_across_pool_sizes() {
    let db = Database::new(build_financial_graph().graph).unwrap();
    let expect = db.count("MATCH a1-[r1]->a2-[r2]->a3").unwrap();
    for threads in [1, 2, 4, 8] {
        let shared = SharedDatabase::with_pool(
            Database::new(build_financial_graph().graph).unwrap(),
            MorselPool::new(threads),
        );
        assert_eq!(
            shared.count("MATCH a1-[r1]->a2-[r2]->a3").unwrap(),
            expect,
            "{threads} threads"
        );
    }
}
