//! Criterion microbenchmarks mirroring the paper's experiments at a small,
//! statistically-stable scale.
//!
//! Each group pins one comparison from the evaluation:
//!
//! * `table2_sq3` — SQ3 (diamond) under D vs Ds vs Dp (Table II).
//! * `table3_mr2` — MR2 under D vs D+VPt (Table III).
//! * `table4_mf1_mf5` — MF1 under D vs D+VPc; MF5 under D vs D+VPc+EPc
//!   (Table IV).
//! * `table5_sq13` — the 5-edge path on A+ (D, Dp) vs both fixed baselines
//!   (Table V).
//! * `core_ops` — raw index operations: primary list access, offset-list
//!   dereference, 2-way sorted intersection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aplus_baseline::{Baseline, BaselineKind};
use aplus_bench::workloads::{mf, mr, sq};
use aplus_datagen::presets::{build_preset, DatasetPreset};
use aplus_datagen::properties::{
    add_fraud_properties, add_magicrecs_properties, amount_alpha_for_selectivity,
    time_threshold_for_selectivity,
};
use aplus_query::{Database, MorselPool};

/// Scale divisor for bench datasets (WT at 4000 ≈ 450 vertices / 7.1K
/// edges — small enough for Criterion's repeated sampling).
const SCALE: usize = 4000;

fn bench_table2(c: &mut Criterion) {
    let graph = build_preset(DatasetPreset::WikiTopcats, SCALE, 4, 2);
    let mut db = Database::new(graph).expect("build");
    let q = sq::query(3, 4, 2, true);
    let mut group = c.benchmark_group("table2_sq3");
    group.sample_size(20);
    for (config, ddl) in [
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
    ] {
        db.ddl(ddl).expect("reconfigure");
        let (bound, plan) = db.prepare(&q).expect("plan");
        group.bench_function(BenchmarkId::from_parameter(config), |b| {
            b.iter(|| db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
        });
    }
    group.finish();
}

fn bench_table3(c: &mut Criterion) {
    let mut graph = build_preset(DatasetPreset::WikiTopcats, SCALE, 1, 1);
    let props = add_magicrecs_properties(&mut graph, 3);
    let alpha = time_threshold_for_selectivity(&graph, props, 0.05);
    let mut db = Database::new(graph).expect("build");
    let q = mr::query(2, alpha, None);
    let mut group = c.benchmark_group("table3_mr2");
    group.sample_size(15);
    {
        let (bound, plan) = db.prepare(&q).expect("plan");
        group.bench_function("D", |b| {
            b.iter(|| db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
        });
    }
    db.ddl(
        "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd \
         INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time",
    )
    .expect("VPt");
    {
        let (bound, plan) = db.prepare(&q).expect("plan");
        group.bench_function("D+VPt", |b| {
            b.iter(|| db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
        });
    }
    group.finish();
}

fn bench_table4(c: &mut Criterion) {
    let mut graph = build_preset(DatasetPreset::WikiTopcats, SCALE, 1, 1);
    add_fraud_properties(&mut graph, 7);
    let alpha = amount_alpha_for_selectivity(0.05);
    let cap = (graph.vertex_count() / 4).max(10) as u32;
    let mut db = Database::new(graph).expect("build");
    let mf1 = mf::query(1, alpha, cap);
    let mf5 = mf::query(5, alpha, cap);
    let mut group = c.benchmark_group("table4_mf");
    group.sample_size(15);
    {
        let (bound, plan) = db.prepare(&mf1).expect("plan");
        group.bench_function("MF1/D", |b| {
            b.iter(|| db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
        });
        let (bound, plan) = db.prepare(&mf5).expect("plan");
        group.bench_function("MF5/D", |b| {
            b.iter(|| db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
        });
    }
    db.ddl(&mf::vpc_ddl()).expect("VPc");
    {
        let (bound, plan) = db.prepare(&mf1).expect("plan");
        group.bench_function("MF1/D+VPc", |b| {
            b.iter(|| db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
        });
    }
    db.ddl(&mf::epc_ddl(alpha)).expect("EPc");
    {
        let (bound, plan) = db.prepare(&mf5).expect("plan");
        group.bench_function("MF5/D+VPc+EPc", |b| {
            b.iter(|| db.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
        });
    }
    group.finish();
}

fn bench_table5(c: &mut Criterion) {
    let graph = build_preset(DatasetPreset::WikiTopcats, SCALE, 4, 2);
    let mut db = Database::new(graph).expect("build");
    let q = sq::query(13, 4, 2, true);
    let (bound, _) = db.prepare(&q).expect("bind");
    let n4 = Baseline::build(db.graph(), BaselineKind::Neo4jLike);
    let tg = Baseline::build(db.graph(), BaselineKind::TigerGraphLike);
    let mut group = c.benchmark_group("table5_sq13");
    group.sample_size(15);
    {
        let (bq, plan) = db.prepare(&q).expect("plan");
        group.bench_function("A+ D", |b| {
            b.iter(|| db.count_prepared_parallel(&bq, &plan, &MorselPool::sequential()))
        });
    }
    group.bench_function("TG-like", |b| b.iter(|| tg.count(db.graph(), &bound)));
    group.bench_function("N4-like", |b| b.iter(|| n4.count(db.graph(), &bound)));
    db.ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID")
        .expect("Dp");
    {
        let (bq, plan) = db.prepare(&q).expect("plan");
        group.bench_function("A+ Dp", |b| {
            b.iter(|| db.count_prepared_parallel(&bq, &plan, &MorselPool::sequential()))
        });
    }
    group.finish();
}

fn bench_core_ops(c: &mut Criterion) {
    use aplus_core::view::OneHopView;
    use aplus_core::{Direction, IndexSpec, IndexStore, SortKey, ViewPredicate};

    let mut graph = build_preset(DatasetPreset::WikiTopcats, SCALE, 1, 1);
    add_fraud_properties(&mut graph, 9);
    let city = graph
        .catalog()
        .property(aplus_graph::PropertyEntity::Vertex, "city")
        .unwrap();
    let mut store = IndexStore::build(&graph).expect("store");
    store
        .create_vertex_index(
            &graph,
            "VPc",
            aplus_core::store::IndexDirections::Fw,
            OneHopView::new(ViewPredicate::always_true()).unwrap(),
            IndexSpec::default_primary().with_sort(vec![SortKey::NbrProp(city)]),
        )
        .expect("VPc");
    let primary = store.primary().index(Direction::Fwd);
    let vp = store.vertex_index("VPc", Direction::Fwd).unwrap();
    let n = graph.vertex_count() as u32;

    let mut group = c.benchmark_group("core_ops");
    group.bench_function("primary_region_scan", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for v in 0..n {
                acc += primary.region(aplus_common::VertexId(v)).len();
            }
            acc
        })
    });
    group.bench_function("offset_list_deref_scan", |b| {
        b.iter(|| {
            // Fold every neighbour ID: the list dereferences lazily, so
            // `len()` alone would time no dereference at all.
            let mut acc = 0u64;
            for v in 0..n {
                let list = vp.list(primary, aplus_common::VertexId(v), &[]);
                acc += list.iter().map(|(_, n)| u64::from(n.raw())).sum::<u64>();
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table2,
    bench_table3,
    bench_table4,
    bench_table5,
    bench_core_ops
);
criterion_main!(benches);
