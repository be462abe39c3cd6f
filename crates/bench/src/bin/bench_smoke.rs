//! CI perf-trajectory smoke bench.
//!
//! Runs a reduced-scale subset of the paper experiments plus the scaling
//! experiment and writes two machine-readable JSON files **at the repo
//! root** so successive PRs can be compared against each other:
//!
//! * `BENCH_tables.json` — table2 (SQ × primary configs), table3
//!   (MagicRecs + VPt), table4 (fraud + VPc/EPc), table9_churn
//!   (reader latency under writer churn — the snapshot-isolation
//!   experiment; latency cells informational) and table10_recovery
//!   (WAL commit overhead + recovery time; the recovered count is
//!   gated, latency cells informational), table12_factorized
//!   (factorized block engine vs row engine on SQ + high-fanout MR;
//!   counts gated, latency informational) and table13_observability
//!   (plain vs profiled counts — instrumentation overhead; counts
//!   gated, overhead informational) and table14_varlength
//!   (variable-length path queries under both traversal policies;
//!   counts gated, latency informational) reporters.
//! * `BENCH_scaling.json` — the `table7_scaling` reporter, the derived SQ
//!   speedups per thread count, and the `table8_collect` reporter
//!   (order-preserving parallel collect + streamed drain).
//!
//! The committed copies at the repo root are the baseline `bench_compare`
//! gates CI against (counts fatal, latency drift informational).
//!
//! Entry points (binary-level only; drivers take explicit parameters):
//! `APLUS_SCALE` (default 20000 — *reduced*, unlike the table binaries'
//! 1000), `APLUS_THREAD_COUNTS` (default `1,2,4,8`), and
//! `APLUS_BENCH_OUT` to redirect the output directory.

use std::path::PathBuf;

use aplus_bench::{scaling, tables, Reporter};
use serde::Serialize;

/// Reduced default scale divisor: small enough for a CI smoke step.
const SMOKE_SCALE_DEFAULT: usize = 20_000;

/// Schema version of the trajectory files; bump on layout changes.
/// v2: added the `collect_report` (order-preserving parallel collect /
/// streamed drain) to `BENCH_scaling.json`.
/// v3: added the `table9_churn` reporter (reader latency under writer
/// churn over the snapshot-publishing service layer) to
/// `BENCH_tables.json`.
/// v4: added the `table10_recovery` reporter (WAL commit overhead +
/// `open_durable` recovery time; the recovered count is gated) to
/// `BENCH_tables.json`.
/// v5: added the `table12_factorized` reporter (factorized block engine
/// vs row engine: SQ + high-fanout MR counts under both executors;
/// counts gated, latency informational) to `BENCH_tables.json`.
/// v6: added the `table13_observability` reporter (plain vs profiled
/// counts — instrumentation overhead; counts gated, overhead
/// informational) to `BENCH_tables.json`.
/// v7: added the `table14_varlength` reporter (variable-length path
/// queries under both traversal policies; counts gated, latency
/// informational) to `BENCH_tables.json`.
/// v8: `table14_varlength` dropped its `iddfs-T*` cells with the
/// iterative-deepening traversal (BFS is the one traversal).
const SCHEMA: u32 = 8;

#[derive(Serialize)]
struct TablesFile {
    schema: u32,
    scale: usize,
    reports: Vec<Reporter>,
}

#[derive(Serialize)]
struct SpeedupEntry {
    threads: usize,
    sq_speedup_vs_t1: f64,
}

#[derive(Serialize)]
struct ScalingFile {
    schema: u32,
    scale: usize,
    machine_cores: usize,
    thread_counts: Vec<usize>,
    sq_speedups: Vec<SpeedupEntry>,
    report: Reporter,
    collect_report: Reporter,
}

fn out_dir() -> PathBuf {
    std::env::var_os("APLUS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn write_file(name: &str, json: &str) {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("bench_smoke: could not create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(name);
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("bench_smoke: wrote {}", path.display()),
        Err(e) => {
            eprintln!("bench_smoke: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let scale = aplus_bench::datasets::scale_or(SMOKE_SCALE_DEFAULT);
    let thread_counts = scaling::thread_counts_from_env();
    eprintln!("bench_smoke: scale divisor {scale}, thread counts {thread_counts:?}");

    let reports = vec![
        tables::run_table2(scale),
        tables::run_table3(scale),
        tables::run_table4(scale),
        aplus_bench::churn::run_churn_table(scale),
        aplus_bench::recovery::run_recovery_table(scale),
        aplus_bench::factorized::run_factorized_table(scale, &thread_counts),
        aplus_bench::observability::run_observability_table(scale, &thread_counts),
        aplus_bench::varlength::run_varlength_table(scale, &thread_counts),
    ];
    for r in &reports {
        println!("{}", r.render("D"));
    }
    let tables_file = TablesFile {
        schema: SCHEMA,
        scale,
        reports,
    };
    write_file(
        "BENCH_tables.json",
        &serde_json::to_string_pretty(&tables_file).expect("reporters serialize"),
    );

    let report = scaling::run_table7(scale, &thread_counts);
    println!("{}", report.render("T1"));
    let sq_speedups: Vec<SpeedupEntry> = thread_counts
        .iter()
        .filter(|&&t| t != 1)
        .filter_map(|&t| {
            scaling::sq_speedup(&report, t).map(|s| SpeedupEntry {
                threads: t,
                sq_speedup_vs_t1: s,
            })
        })
        .collect();
    for e in &sq_speedups {
        println!(
            "SQ speedup at {} threads: {:.2}x",
            e.threads, e.sq_speedup_vs_t1
        );
    }
    let collect_report = scaling::run_collect_table(scale, &thread_counts);
    println!("{}", collect_report.render("T1"));
    let scaling_file = ScalingFile {
        schema: SCHEMA,
        scale,
        machine_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        thread_counts,
        sq_speedups,
        report,
        collect_report,
    };
    write_file(
        "BENCH_scaling.json",
        &serde_json::to_string_pretty(&scaling_file).expect("reporter serializes"),
    );
}
