//! The experiment drivers, one per paper table/figure. Each returns the
//! populated [`Reporter`] so binaries and Criterion benches share setup.

use std::time::Instant;

use aplus_baseline::{Baseline, BaselineKind};
use aplus_datagen::presets::DatasetPreset;
use aplus_datagen::properties::{
    add_fraud_properties, add_magicrecs_properties, amount_alpha_for_selectivity,
    time_threshold_for_selectivity,
};
use aplus_graph::{GraphStats, Value};
use aplus_query::{Database, MorselPool};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::datasets::{dataset, scaled_cap};
use crate::report::Reporter;
use crate::workloads::{mf, mr, sq};

const MB: f64 = 1024.0 * 1024.0;

/// Table I: dataset statistics (paper-shape, scaled).
pub fn run_table1(scale: usize) -> Reporter {
    let mut r = Reporter::new("table1", "Datasets (Table I), at the given scale divisor");
    for preset in DatasetPreset::all() {
        let g = dataset(preset, scale, 1, 1);
        let stats = GraphStats::compute(&g);
        let name = preset.short_name();
        r.record_value(name, "scaled", "Vertices", stats.vertex_count as f64);
        r.record_value(name, "scaled", "Edges", stats.edge_count as f64);
        r.record_value(name, "scaled", "AvgDegree", stats.avg_degree);
        let (pv, pe) = preset.paper_counts();
        r.record_value(name, "paper", "Vertices", pv as f64);
        r.record_value(name, "paper", "Edges", pe as f64);
        r.record_value(name, "paper", "AvgDegree", pe as f64 / pv as f64);
    }
    r
}

/// The three Table II datasets with their `G_{i,j}` label counts.
fn table2_datasets() -> [(&'static str, DatasetPreset, usize, usize); 3] {
    [
        ("Ork8,2", DatasetPreset::Orkut, 8, 2),
        ("LJ2,4", DatasetPreset::LiveJournal, 2, 4),
        ("WT4,2", DatasetPreset::WikiTopcats, 4, 2),
    ]
}

/// Table II: primary reconfiguration D / Ds / Dp over SQ1–SQ13.
pub fn run_table2(scale: usize) -> Reporter {
    let mut r = Reporter::new(
        "table2",
        "Primary A+ index reconfiguration (Table II): D vs Ds vs Dp",
    );
    let configs: [(&str, &str); 3] = [
        (
            "D",
            "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID",
        ),
        (
            "Ds",
            "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.label, vnbr.ID",
        ),
        (
            "Dp",
            "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID",
        ),
    ];
    for (name, preset, i, j) in table2_datasets() {
        let mut db = Database::new(dataset(preset, scale, i, j)).expect("index build");
        let queries = sq::table2_queries(i, j);
        for (config, ddl) in configs {
            let t = Instant::now();
            db.ddl(ddl).expect("reconfigure");
            let ir = t.elapsed().as_secs_f64();
            for (qname, q) in &queries {
                let (bound, plan) = db.prepare(q).expect("plan");
                r.time(name, config, qname, || {
                    db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
                });
            }
            r.record_value(name, config, "Mem(MB)", db.index_memory_bytes() as f64 / MB);
            r.record_value(name, config, "IR(s)", ir);
        }
    }
    r.assert_counts_agree();
    r
}

/// Table III: MagicRecs under D vs D+VPt.
pub fn run_table3(scale: usize) -> Reporter {
    let mut r = Reporter::new("table3", "MagicRecs (Table III): D vs D+VPt");
    for (name, preset) in [
        ("Ork", DatasetPreset::Orkut),
        ("LJ", DatasetPreset::LiveJournal),
        ("WT", DatasetPreset::WikiTopcats),
    ] {
        let mut g = dataset(preset, scale, 1, 1);
        let props = add_magicrecs_properties(&mut g, 0xA11);
        let alpha = time_threshold_for_selectivity(&g, props, 0.05);
        // The paper caps MR3's a1 at 10000/7000 vertices on LJ/Ork.
        let cap = scaled_cap(&g, 10_000, 3_000_000).max(20);
        let mut db = Database::new(g).expect("index build");
        let queries: Vec<(String, String)> = vec![
            ("MR1".into(), mr::query(1, alpha, None)),
            ("MR2".into(), mr::query(2, alpha, None)),
            ("MR3".into(), mr::query(3, alpha, Some(cap))),
        ];
        for (qname, q) in &queries {
            let (bound, plan) = db.prepare(q).expect("plan");
            r.time(name, "D", qname, || {
                db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
            });
        }
        r.record_value(name, "D", "Mem(MB)", db.index_memory_bytes() as f64 / MB);

        let t = Instant::now();
        db.ddl(
            "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd \
             INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time",
        )
        .expect("VPt");
        let ic = t.elapsed().as_secs_f64();
        for (qname, q) in &queries {
            let (bound, plan) = db.prepare(q).expect("plan");
            assert!(plan.uses_index("VPt"), "{qname} should use VPt:\n{plan}");
            r.time(name, "D+VPt", qname, || {
                db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
            });
        }
        r.record_value(
            name,
            "D+VPt",
            "Mem(MB)",
            db.index_memory_bytes() as f64 / MB,
        );
        r.record_value(name, "D+VPt", "IC(s)", ic);
    }
    r.assert_counts_agree();
    r
}

/// Table IV: fraud queries under D, D+VPc, D+VPc+EPc.
pub fn run_table4(scale: usize) -> Reporter {
    let mut r = Reporter::new(
        "table4",
        "Fraud detection (Table IV): D vs D+VPc vs D+VPc+EPc",
    );
    let alpha = amount_alpha_for_selectivity(0.05);
    for (name, preset) in [
        ("Ork", DatasetPreset::Orkut),
        ("LJ", DatasetPreset::LiveJournal),
        ("WT", DatasetPreset::WikiTopcats),
    ] {
        let mut g = dataset(preset, scale, 1, 1);
        add_fraud_properties(&mut g, 0xF4A);
        let mf3_cap = scaled_cap(&g, 10_000, 3_000_000).max(20);
        let mf5_cap = scaled_cap(&g, 50_000, 3_000_000).max(20);
        let mut db = Database::new(g).expect("index build");

        let all: Vec<(String, String)> = (1..=5)
            .map(|n| {
                let cap = if n == 5 { mf5_cap } else { mf3_cap };
                (format!("MF{n}"), mf::query(n, alpha, cap))
            })
            .collect();

        // D: MF1–MF5 (the paper reports MF5 under D and under EPc).
        for (qname, q) in &all {
            let (bound, plan) = db.prepare(q).expect("plan");
            r.time(name, "D", qname, || {
                db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
            });
        }
        r.record_value(name, "D", "Mem(MB)", db.index_memory_bytes() as f64 / MB);
        r.record_value(name, "D", "|Eindexed|", db.graph().live_edge_count() as f64);

        // D+VPc: MF1–MF4 (as in the paper; no new MF5 plan).
        let t = Instant::now();
        db.ddl(&mf::vpc_ddl()).expect("VPc");
        let ic_vpc = t.elapsed().as_secs_f64();
        for (qname, q) in all.iter().take(4) {
            let (bound, plan) = db.prepare(q).expect("plan");
            r.time(name, "D+VPc", qname, || {
                db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
            });
        }
        r.record_value(
            name,
            "D+VPc",
            "Mem(MB)",
            db.index_memory_bytes() as f64 / MB,
        );
        r.record_value(name, "D+VPc", "IC(s)", ic_vpc);

        // D+VPc+EPc: MF3, MF4, MF5 gain new plans.
        let t = Instant::now();
        db.ddl(&mf::epc_ddl(alpha)).expect("EPc");
        let ic_epc = t.elapsed().as_secs_f64();
        for (qname, q) in all.iter().skip(2) {
            let (bound, plan) = db.prepare(q).expect("plan");
            r.time(name, "D+VPc+EPc", qname, || {
                db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
            });
        }
        r.record_value(
            name,
            "D+VPc+EPc",
            "Mem(MB)",
            db.index_memory_bytes() as f64 / MB,
        );
        r.record_value(name, "D+VPc+EPc", "IC(s)", ic_epc);
        if let Some(ep) = db.store().edge_index("EPc") {
            r.record_value(name, "D+VPc+EPc", "|Eindexed|", ep.entry_count() as f64);
        }
    }
    r.assert_counts_agree();
    r
}

/// Table V: A+ (D, Dp) vs the fixed-index baselines on SQ1/2/3/13.
pub fn run_table5(scale: usize) -> Reporter {
    let mut r = Reporter::new(
        "table5",
        "Fixed-index comparison (Table V): A+ D/Dp vs TG-like vs N4-like",
    );
    for (name, preset, i, j) in [
        ("LJ12,2", DatasetPreset::LiveJournal, 12usize, 2usize),
        ("WT4,2", DatasetPreset::WikiTopcats, 4, 2),
    ] {
        let graph = dataset(preset, scale, i, j);
        let mut db = Database::new(graph).expect("index build");
        let n4 = Baseline::build(db.graph(), BaselineKind::Neo4jLike);
        let tg = Baseline::build(db.graph(), BaselineKind::TigerGraphLike);
        let queries: Vec<(String, String)> = [1usize, 2, 3, 13]
            .into_iter()
            .map(|q| (format!("SQ{q}"), sq::query(q, i, j, true)))
            .collect();
        for (qname, q) in &queries {
            let (bound, plan) = db.prepare(q).expect("plan");
            r.time(name, "D", qname, || {
                db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
            });
            r.time(name, "TG-like", qname, || tg.count(db.graph(), &bound));
            r.time(name, "N4-like", qname, || n4.count(db.graph(), &bound));
        }
        db.ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID")
            .expect("Dp");
        for (qname, q) in &queries {
            let (bound, plan) = db.prepare(q).expect("plan");
            r.time(name, "Dp", qname, || {
                db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential())
            });
        }
    }
    r.assert_counts_agree();
    r
}

/// §V-F: maintenance micro-benchmark. Loads 50% of a MagicRecs dataset,
/// inserts the rest one edge at a time under five configurations of
/// increasing maintenance work, and reports edges/second.
pub fn run_table6(scale: usize) -> Reporter {
    let mut r = Reporter::new(
        "table6",
        "Index maintenance (§V-F): insert rates under Ds/Dp/Dps/Dps+VPt/Dps+EPt",
    );
    // 1% selectivity for the EP maintenance predicate, as in §V-F.
    for (name, preset, i, j) in [
        ("LJ2,4", DatasetPreset::LiveJournal, 2usize, 4usize),
        ("Brk2,2", DatasetPreset::BerkStan, 2, 2),
    ] {
        let full = dataset(preset, scale, i, j);
        let mut g = full.clone();
        let props = add_magicrecs_properties(&mut g, 0x6EED);
        let alpha = time_threshold_for_selectivity(&g, props, 0.01);
        let edges: Vec<_> = g.edges().collect();
        let half = edges.len() / 2;

        let configs: [(&str, Vec<&str>); 5] = [
            ("Ds", vec!["RECONFIGURE PRIMARY INDEXES SORT BY vnbr.ID"]),
            (
                "Dp",
                vec!["RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label"],
            ),
            (
                "Dps",
                vec!["RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID"],
            ),
            (
                "Dps+VPt",
                vec![
                    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID",
                    "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd \
                     INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time",
                ],
            ),
            (
                "Dps+EPt",
                vec!["RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID"],
            ),
        ];

        for (config, ddls) in configs {
            // Build a half-graph with the same catalog/properties, then
            // replay the second half as single-edge inserts.
            let mut half_graph = aplus_graph::Graph::new();
            // Pre-intern labels in catalog order.
            for li in 0..i {
                half_graph
                    .catalog_mut()
                    .intern_vertex_label(&format!("V{li}"));
            }
            for lj in 0..j {
                half_graph
                    .catalog_mut()
                    .intern_edge_label(&format!("E{lj}"));
            }
            for v in g.vertices() {
                let label = g.catalog().vertex_label_name(g.vertex_label(v).unwrap());
                half_graph.add_vertex(label);
            }
            half_graph
                .register_property(
                    aplus_graph::PropertyEntity::Edge,
                    "time",
                    aplus_graph::PropertyKind::Int,
                )
                .unwrap();
            let time_pid = half_graph
                .catalog()
                .property(aplus_graph::PropertyEntity::Edge, "time")
                .unwrap();
            for &(e, s, d, l) in &edges[..half] {
                let label = g.catalog().edge_label_name(l).to_owned();
                let ne = half_graph.add_edge(s, d, &label).unwrap();
                if let Some(t) = g.edge_prop(e, props.time) {
                    half_graph
                        .set_edge_prop(ne, time_pid, Value::Int(t))
                        .unwrap();
                }
            }
            let mut db = Database::new(half_graph).expect("index build");
            for ddl in &ddls {
                db.ddl(ddl).expect("config DDL");
            }
            if config == "Dps+EPt" {
                db.ddl(&format!(
                    "CREATE 2-HOP VIEW EPt MATCH vs-[eb]->vd-[eadj]->vnbr \
                     WHERE eb.time < eadj.time + {alpha} \
                     INDEX AS PARTITION BY eadj.label SORT BY eadj.time"
                ))
                .expect("EPt DDL");
            }

            let t = Instant::now();
            for &(e, s, d, l) in &edges[half..] {
                let label = g.catalog().edge_label_name(l).to_owned();
                let time = g.edge_prop(e, props.time).unwrap_or(0);
                db.insert_edge(s, d, &label, &[("time", Value::Int(time))])
                    .expect("insert");
            }
            let secs = t.elapsed().as_secs_f64();
            let rate = (edges.len() - half) as f64 / secs.max(1e-9);
            r.record_value(name, config, "edges/s", rate);
        }
    }
    r
}

/// E13/E14 ablation: offset lists vs bitmaps vs duplicated ID lists across
/// view selectivities, in bytes per indexed edge and access time.
pub fn run_ablation(scale: usize) -> Reporter {
    let mut r = Reporter::new(
        "ablation_storage",
        "Secondary storage ablation (§III-B3): offset lists vs bitmaps vs ID duplication",
    );
    use aplus_core::view::OneHopView;
    use aplus_core::{CmpOp, ViewComparison, ViewEntity, ViewPredicate};

    let mut g = dataset(DatasetPreset::LiveJournal, scale, 1, 1);
    add_fraud_properties(&mut g, 0xAB1);
    let amt = g
        .catalog()
        .property(aplus_graph::PropertyEntity::Edge, "amt")
        .unwrap();
    let store = aplus_core::IndexStore::build(&g).expect("store");
    let primary = store.primary().index(aplus_core::Direction::Fwd);
    let mut rng = StdRng::seed_from_u64(1);
    let sample: Vec<aplus_common::VertexId> = (0..200)
        .map(|_| aplus_common::VertexId(rng.gen_range(0..g.vertex_count() as u32)))
        .collect();

    for selectivity_pct in [1i64, 5, 20, 50, 90] {
        // amt uniform in [1, 1000] -> threshold picks the selectivity.
        let threshold = 1000 - selectivity_pct * 10;
        let pred = ViewPredicate::all_of(vec![ViewComparison::prop_const(
            ViewEntity::AdjEdge,
            amt,
            CmpOp::Gt,
            threshold,
        )]);
        let view = OneHopView::new(pred).expect("valid view");
        let vp = aplus_core::vertex_partitioned::VertexPartitionedIndex::build(
            &g,
            primary,
            "vp",
            aplus_core::Direction::Fwd,
            view.clone(),
            aplus_core::IndexSpec::default_primary(),
        )
        .expect("vp build");
        let bm = aplus_core::bitmap_index::BitmapIndex::build(&g, primary, "bm", view)
            .expect("bitmap build");
        let indexed = vp.entry_count(primary).max(1);
        let ds = format!("sel{selectivity_pct}%");
        // List bytes per indexed edge (§III-B3's comparison); the total
        // including CSR levels is reported alongside.
        r.record_value(
            &ds,
            "offset-lists",
            "bytes/edge",
            vp.list_bytes() as f64 / indexed as f64,
        );
        r.record_value(
            &ds,
            "offset-lists",
            "total B/edge",
            vp.memory_bytes() as f64 / indexed as f64,
        );
        r.record_value(
            &ds,
            "bitmap",
            "bytes/edge",
            bm.memory_bytes() as f64 / indexed as f64,
        );
        r.record_value(
            &ds,
            "bitmap",
            "total B/edge",
            bm.memory_bytes() as f64 / indexed as f64,
        );
        // The hypothetical duplicated ID-list baseline: 8 B edge + 4 B nbr.
        r.record_value(&ds, "id-duplication", "bytes/edge", 12.0);

        // Access time: read the full indexed list of the sampled vertices,
        // folding every neighbour ID — an offset list dereferences lazily,
        // so `len()` alone would read nothing.
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..20 {
            for &v in &sample {
                let list = vp.list(primary, v, &[]);
                acc += list.iter().map(|(_, n)| u64::from(n.raw())).sum::<u64>();
            }
        }
        r.record_value(
            &ds,
            "offset-lists",
            "scan(µs)",
            t.elapsed().as_secs_f64() * 1e6,
        );
        let t = Instant::now();
        let mut acc2 = 0u64;
        for _ in 0..20 {
            for &v in &sample {
                let list = bm.list(primary, v, &[]);
                acc2 += list.iter().map(|(_, n)| u64::from(n.raw())).sum::<u64>();
            }
        }
        r.record_value(&ds, "bitmap", "scan(µs)", t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(acc, acc2, "storage layouts must agree");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny scale divisor used by the smoke tests. Passed explicitly —
    /// the test harness runs tests on multiple threads, so mutating
    /// process-global env (`std::env::set_var("APLUS_SCALE", ...)`) would
    /// bleed between tests. `APLUS_SCALE` remains the *binary-level* entry
    /// point only (see [`crate::datasets::scale`]).
    const TINY: usize = 20_000;

    /// Smoke-test every driver at a tiny scale. This is the integration
    /// test that every experiment is runnable end to end.
    #[test]
    fn all_tables_run_at_tiny_scale() {
        let t1 = run_table1(TINY);
        assert!(!t1.measurements.is_empty());
        let t3 = run_table3(TINY);
        assert!(t3.measurements.iter().any(|m| m.query == "MR3"));
        let t5 = run_table5(TINY);
        assert!(t5.measurements.iter().any(|m| m.config == "TG-like"));
        let ab = run_ablation(TINY);
        assert!(ab.measurements.iter().any(|m| m.config == "bitmap"));
    }

    #[test]
    fn table2_and_4_run_at_tiny_scale() {
        let t2 = run_table2(TINY);
        assert!(t2.measurements.iter().any(|m| m.config == "Dp"));
        let t4 = run_table4(TINY);
        assert!(t4.measurements.iter().any(|m| m.config == "D+VPc+EPc"));
    }

    #[test]
    fn table6_runs_at_tiny_scale() {
        let t6 = run_table6(TINY);
        assert_eq!(
            t6.measurements.len(),
            10,
            "5 configs x 2 datasets: {:?}",
            t6.measurements
        );
        for m in &t6.measurements {
            assert!(m.value > 0.0, "insert rate must be positive: {m:?}");
        }
    }
}
