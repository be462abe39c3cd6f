//! Financial-fraud detection (§V-C2, §V-D): VPc + EPc secondary indexes.
//!
//! Generates a scaled fraud dataset (account types, cities, amounts,
//! dates), then shows how the optimizer's plans change across the paper's
//! three configurations:
//!
//! * **D** — default primary indexes only: binary expands + filters.
//! * **D+VPc** — a city-sorted vertex-partitioned index in both directions
//!   unlocks MULTI-EXTEND (WCOJ) plans for the city-equality queries.
//! * **D+VPc+EPc** — the MoneyFlow edge-partitioned index additionally
//!   turns `Pf(e_i, e_j)` money-flow steps into single list lookups.
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```

use std::time::Instant;

use aplus::datagen::presets::{build_preset, DatasetPreset};
use aplus::datagen::properties::{add_fraud_properties, amount_alpha_for_selectivity};
use aplus::{Database, MorselPool};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut graph = build_preset(DatasetPreset::BerkStan, 400, 1, 1);
    add_fraud_properties(&mut graph, 7);
    let alpha = amount_alpha_for_selectivity(0.05);
    println!(
        "Fraud dataset: {} vertices, {} edges, alpha = {alpha}",
        graph.vertex_count(),
        graph.edge_count()
    );

    let mut db = Database::new(graph)?;

    // MF1: directed 4-cycle with account-type constraints and one city
    // equality (Figure 5a).
    let mf1 = "MATCH a1-[e1]->a2-[e2]->a3-[e3]->a4-[e4]->a1 \
               WHERE a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, \
               a2.city = a4.city";

    println!("\n--- Config D (primary only) ---");
    run(&db, "MF1", mf1)?;

    println!("\n--- Config D+VPc ---");
    let t = Instant::now();
    db.ddl(
        "CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd \
         INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.city",
    )?;
    println!("VPc creation: {:?}", t.elapsed());
    let (_, plan) = db.prepare(mf1)?;
    // The city-sorted index serves MF1 either as a MULTI-EXTEND (the
    // paper's Figure-6 shape) or as a dynamic city-equality prune on a
    // sorted VPc list — the cost model picks per dataset; both are plans
    // that do not exist without VPc.
    assert!(
        plan.uses_index("VPc"),
        "VPc should unlock a new plan:
{plan}"
    );
    run(&db, "MF1", mf1)?;

    println!("\n--- Config D+VPc+EPc ---");
    let t = Instant::now();
    db.ddl(&format!(
        "CREATE 2-HOP VIEW EPc MATCH vs-[eb]->vd-[eadj]->vnbr \
         WHERE eb.date < eadj.date, eadj.amt < eb.amt, eb.amt < eadj.amt + {alpha} \
         INDEX AS PARTITION BY vnbr.acc SORT BY vnbr.city"
    ))?;
    println!("EPc creation: {:?}", t.elapsed());

    // MF5: the 4-step money-flow path (Figure 5e) — each step's Pf
    // predicate is exactly the EPc view predicate, so extensions become
    // single EP-list lookups.
    let mf5 = format!(
        "MATCH a1-[e1]->a2-[e2]->a3-[e3]->a4-[e4]->a5 \
         WHERE a1.ID < 100, \
         a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a5.acc = CQ, \
         e1.date < e2.date, e2.amt < e1.amt, e1.amt < e2.amt + {alpha}, \
         e2.date < e3.date, e3.amt < e2.amt, e2.amt < e3.amt + {alpha}, \
         e3.date < e4.date, e4.amt < e3.amt, e3.amt < e4.amt + {alpha}"
    );
    let (_, plan) = db.prepare(&mf5)?;
    assert!(
        plan.uses_edge_partitioned_index(),
        "EPc should serve the money-flow steps"
    );
    run(&db, "MF5", &mf5)?;

    println!("\nIndex memory report:");
    for (name, bytes) in db.store().memory_report() {
        println!("  {name:<16} {:>10.2} KiB", bytes as f64 / 1024.0);
    }
    if let Some(ep) = db.store().edge_index("EPc") {
        println!("  EPc |E_indexed| = {}", ep.entry_count());
    }
    Ok(())
}

fn run(db: &Database, name: &str, q: &str) -> Result<(), Box<dyn std::error::Error>> {
    let (bound, plan) = db.prepare(q)?;
    println!("{name} plan:\n{plan}");
    let t = Instant::now();
    let n = db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential());
    println!("{name}: {n} matches in {:?}", t.elapsed());
    Ok(())
}
