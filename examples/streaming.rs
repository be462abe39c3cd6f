//! Order-preserving parallel `collect` and the streaming row sink.
//!
//! Builds a synthetic social graph and shows the three result paths
//! agreeing row-for-row — sequential `collect`, morsel-parallel
//! `collect`, and a bounded `row_channel` drained from a consumer thread —
//! plus `LIMIT` early exit and consumer-side cancellation (the
//! dropped-receiver case a network front-end hits when a client
//! disconnects mid-stream).
//!
//! ```text
//! cargo run --release --example streaming
//! APLUS_THREADS=4 cargo run --release --example streaming
//! ```

use std::ops::ControlFlow;
use std::time::Instant;

use aplus::datagen::{generate, GeneratorConfig};
use aplus::{row_channel, Database, MorselPool, RawRow, SharedDatabase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = generate(&GeneratorConfig::social(2000, 24_000, 4, 2));
    println!(
        "graph: {} vertices, {} edges",
        graph.vertex_count(),
        graph.edge_count()
    );
    let db = Database::new(graph)?;
    let two_hop = "MATCH a-[r:E0]->b-[s:E1]->c";
    let pool = MorselPool::from_env(); // APLUS_THREADS override, default: all cores
    let (bound, plan) = db.prepare(two_hop)?;

    // ----- parallel collect is bit-identical to sequential collect --------
    let t = Instant::now();
    let seq = db.collect(two_hop, usize::MAX)?;
    let seq_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let par = db.collect_prepared_parallel(&bound, &plan, usize::MAX, &pool);
    let par_secs = t.elapsed().as_secs_f64();
    assert_eq!(par, seq, "same rows, same order, at any thread count");
    println!(
        "collect: {} rows  |  sequential {seq_secs:.4}s, {} threads {par_secs:.4}s ({:.2}x)",
        seq.len(),
        pool.threads(),
        seq_secs / par_secs.max(1e-9)
    );

    // ----- LIMIT stops work early, rows are still the sequential prefix ---
    let t = Instant::now();
    let first = db.collect_prepared_parallel(&bound, &plan, 10, &pool);
    assert_eq!(first, seq[..10]);
    println!(
        "limit 10: the first 10 sequential rows in {:.6}s (early exit, not a full run)",
        t.elapsed().as_secs_f64()
    );

    // ----- streaming through a bounded channel ----------------------------
    // The service layer pins one immutable snapshot per stream: each
    // consumer sees one consistent version (writers commit freely
    // alongside) while at most `capacity` rows are buffered.
    let shared = SharedDatabase::with_pool(db, pool);
    let (mut tx, rx) = row_channel(64);
    let producer = {
        let handle = shared.clone();
        std::thread::spawn(move || {
            handle.stream(two_hop, usize::MAX, &mut tx).unwrap();
            drop(tx); // close: the consumer's iterator ends
        })
    };
    let streamed: Vec<RawRow> = rx.collect();
    producer.join().unwrap();
    assert_eq!(streamed, seq);
    println!(
        "row_channel: {} rows drained on a consumer thread, 64-row buffer",
        streamed.len()
    );

    // ----- a disconnecting client cancels the query -----------------------
    let (mut tx, rx) = row_channel(8);
    let producer = {
        let handle = shared.clone();
        std::thread::spawn(move || {
            // Returns once the sink reports Break (receiver dropped).
            handle.stream(two_hop, usize::MAX, &mut tx).unwrap();
        })
    };
    let kept: Vec<RawRow> = rx.take(25).collect(); // ...then the client hangs up
    producer.join().unwrap();
    assert_eq!(kept, seq[..25]);
    println!("disconnect: consumer took 25 rows and dropped the channel — query cancelled");

    // A closure is also a sink: count rows without materializing them.
    let mut n = 0u64;
    shared.stream(two_hop, usize::MAX, &mut |_r: RawRow| {
        n += 1;
        ControlFlow::Continue(())
    })?;
    assert_eq!(n as usize, seq.len());
    println!("closure sink: {n} rows pushed, nothing materialized");
    Ok(())
}
