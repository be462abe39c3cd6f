//! The concurrent service layer + morsel-driven parallel execution.
//!
//! Builds a synthetic social graph, wraps it in a [`aplus::SharedDatabase`],
//! serves queries from several reader threads while a writer streams edge
//! inserts, and compares single- vs multi-threaded query latency.
//!
//! ```text
//! cargo run --release --example parallel_service
//! APLUS_THREADS=4 cargo run --release --example parallel_service
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use aplus::common::VertexId;
use aplus::datagen::{generate, GeneratorConfig};
use aplus::{Database, MorselPool, SharedDatabase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A heavy-tailed social graph: 2000 vertices, ~24K edges, 4/2 labels.
    let graph = generate(&GeneratorConfig::social(2000, 24_000, 4, 2));
    println!(
        "graph: {} vertices, {} edges",
        graph.vertex_count(),
        graph.edge_count()
    );
    let db = Database::new(graph)?;

    // ----- morsel-driven speedup on one analytical query ------------------
    let triangle = "MATCH a-[r:E0]->b-[s:E0]->c-[t:E0]->a";
    let (bound, plan) = db.prepare(triangle)?;
    let sequential = MorselPool::sequential();
    let t = Instant::now();
    let expect = db.count_prepared_parallel(&bound, &plan, &sequential);
    let seq_secs = t.elapsed().as_secs_f64();
    let pool = MorselPool::from_env(); // APLUS_THREADS override, default: all cores
    let t = Instant::now();
    let got = db.count_prepared_parallel(&bound, &plan, &pool);
    let par_secs = t.elapsed().as_secs_f64();
    assert_eq!(got, expect, "thread count never changes results");
    println!(
        "\ntriangles: {got}  |  1 thread: {seq_secs:.4}s, {} threads: {par_secs:.4}s ({:.2}x)",
        pool.threads(),
        seq_secs / par_secs.max(1e-9)
    );

    // ----- the service layer: concurrent readers + one writer -------------
    let shared = SharedDatabase::with_pool(db, pool);
    let queries_served = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let handle = shared.clone();
            let served = &queries_served;
            let stop = &stop;
            // The readers collectively answer at least 30 queries, and
            // keep serving until the writer is done.
            scope.spawn(move || loop {
                handle.count("MATCH a-[r:E0]->b-[s:E1]->c").unwrap();
                let n = served.fetch_add(1, Ordering::Relaxed) + 1;
                if n >= 30 && stop.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
        // The writer streams inserts; readers keep answering throughout.
        for i in 0..200u32 {
            shared
                .writer()
                .insert_edge(VertexId(i % 2000), VertexId((i * 7 + 1) % 2000), "E0", &[])
                .unwrap();
        }
        shared.writer().flush();
        stop.store(true, Ordering::Relaxed);
    });
    println!(
        "service layer: {} queries served concurrently with 200 streamed inserts",
        queries_served.load(Ordering::Relaxed)
    );
    Ok(())
}
