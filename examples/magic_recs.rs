//! Twitter MagicRecs (§V-C1): time-sorted secondary index.
//!
//! The recommendation engine looks for users `a1` recently started
//! following, then their common followers. The time predicate benefits
//! from a secondary vertex-partitioned index whose lists are sorted on the
//! edge `time` property: the executor binary-searches the prefix instead
//! of filtering whole lists, while the plan shape stays identical — the
//! paper's "decreasing the amount of predicate evaluation" effect.
//!
//! ```text
//! cargo run --release --example magic_recs
//! ```

use std::time::Instant;

use aplus::datagen::presets::{build_preset, DatasetPreset};
use aplus::datagen::properties::{add_magicrecs_properties, time_threshold_for_selectivity};
use aplus::{Database, MorselPool};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut graph = build_preset(DatasetPreset::WikiTopcats, 400, 1, 1);
    let props = add_magicrecs_properties(&mut graph, 3);
    let alpha = time_threshold_for_selectivity(&graph, props, 0.05);
    println!(
        "MagicRecs dataset: {} vertices, {} edges, alpha(5%) = {alpha}",
        graph.vertex_count(),
        graph.edge_count()
    );

    let mut db = Database::new(graph)?;

    // MR2 (k=3): a1 recently followed a2 and a3; a4 follows both.
    let mr2 = format!(
        "MATCH a1-[e1]->a2, a1-[e2]->a3, a4-[e3]->a2, a4-[e4]->a3 \
         WHERE e1.time < {alpha}, e2.time < {alpha}"
    );

    println!("\n--- Config D ---");
    let t = Instant::now();
    let base = db.count(&mr2)?;
    let base_time = t.elapsed();
    println!("MR2: {base} matches in {base_time:?}");

    println!("\n--- Config D+VPt ---");
    let t = Instant::now();
    db.ddl(
        "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd \
         INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time",
    )?;
    println!("VPt creation: {:?}", t.elapsed());
    let vpt = db
        .store()
        .vertex_index("VPt", aplus::Direction::Fwd)
        .expect("just created");
    println!(
        "VPt shares primary levels: {} (offset lists only)",
        vpt.shares_levels()
    );

    let (bound, plan) = db.prepare(&mr2)?;
    assert!(plan.uses_index("VPt"), "plan should read VPt:\n{plan}");
    println!("{plan}");
    let t = Instant::now();
    let tuned = db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential());
    let tuned_time = t.elapsed();
    println!("MR2: {tuned} matches in {tuned_time:?}");
    assert_eq!(base, tuned, "index choice must not change results");
    println!(
        "\nSpeedup: {:.2}x with {:.2}% extra memory",
        base_time.as_secs_f64() / tuned_time.as_secs_f64().max(1e-9),
        extra_memory_pct(&db)
    );
    Ok(())
}

fn extra_memory_pct(db: &Database) -> f64 {
    let report = db.store().memory_report();
    let primary = report
        .iter()
        .find(|(n, _)| n == "primary")
        .map_or(1, |(_, b)| *b);
    let secondary: usize = report
        .iter()
        .filter(|(n, _)| n != "primary")
        .map(|(_, b)| b)
        .sum();
    100.0 * secondary as f64 / primary as f64
}
