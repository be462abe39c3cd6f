//! Fraud-ring detection with variable-length paths.
//!
//! Laundering schemes route money through short cycles of accounts so no
//! single transfer looks anomalous. Fixed-length patterns need one query
//! per ring size (`a->b->a`, `a->b->c->a`, …); a Kleene-star pattern asks
//! the whole family at once: `MATCH a-[:W*2..4]->a` binds every account
//! whose **shortest** wire cycle is 2–4 hops. The same `*min..max`
//! trailer turns reachability ("which accounts can this suspect's money
//! reach within 4 transfers?") into one statement, morsel-parallel when
//! the root is pinned, with per-hop `PROFILE` stats showing how the BFS
//! frontier grew.
//!
//! ```text
//! cargo run --release --example fraud_rings
//! ```

use std::time::Instant;

use aplus::datagen::build_financial_graph;
use aplus::datagen::presets::{build_preset, DatasetPreset};
use aplus::{Database, MorselPool};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The Figure-1 financial graph: small enough to eyeball. ---
    let fin = Database::new(build_financial_graph().graph)?;
    let (bound, plan) = fin.prepare("MATCH a-[:W*2..4]->a")?;
    println!("Ring-detection plan:\n{plan}");
    let rings = fin.collect("MATCH a-[:W*2..4]->a", usize::MAX)?;
    println!("Accounts on a 2..4-hop wire ring:");
    for (vs, _) in &rings {
        println!("  account {}", vs[0]);
    }
    assert_eq!(
        rings.len() as u64,
        fin.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
    );

    // --- A scaled web graph: rings + reachability, in parallel. ---
    let db = Database::new(build_preset(DatasetPreset::BerkStan, 400, 1, 1))?;
    println!(
        "\nSynthetic graph: {} vertices, {} edges",
        db.graph().vertex_count(),
        db.graph().edge_count()
    );
    let pool = MorselPool::new(4);

    let ring_q = "MATCH a-[:E0*2..4]->a";
    let t = Instant::now();
    let (bound, plan) = db.prepare(ring_q)?;
    let n_rings = db.count_prepared_parallel(&bound, &plan, &pool);
    println!(
        "{ring_q}\n  -> {n_rings} ring vertices in {:?}",
        t.elapsed()
    );
    assert_eq!(n_rings, db.count(ring_q)?, "parallel == sequential");

    // Pinned root: the BFS frontier itself partitions across the pool.
    let reach_q = "MATCH a-[:E0*1..4]->b WHERE a.ID = 0";
    let t = Instant::now();
    let (bound, plan) = db.prepare(reach_q)?;
    let reached = db.collect_prepared_parallel(&bound, &plan, usize::MAX, &pool);
    println!(
        "{reach_q}\n  -> {} vertices within 4 hops of vertex 0 in {:?}",
        reached.len(),
        t.elapsed()
    );
    assert_eq!(
        reached,
        db.collect(reach_q, usize::MAX)?,
        "parallel rows are bit-identical to sequential"
    );

    // PROFILE: the per-hop stats decompose that count by path length.
    let (n, profile) = db.profile_count(reach_q)?;
    assert_eq!(n, reached.len() as u64);
    println!("\nPer-hop frontier profile:");
    for (i, h) in profile.hops.iter().enumerate() {
        println!(
            "  hop{} frontier={} visited={} emitted={}",
            i + 1,
            h.frontier,
            h.visited,
            h.emitted
        );
    }
    assert_eq!(profile.hops.iter().map(|h| h.emitted).sum::<u64>(), n);
    Ok(())
}
