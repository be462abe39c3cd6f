//! CI perf-trajectory smoke bench.
//!
//! Runs a reduced-scale subset of the paper experiments and writes
//! `BENCH_tables.json` **at the repo root** — table2 (SQ × primary
//! configs), table3 (MagicRecs + VPt) and table4 (fraud + VPc/EPc) — so
//! successive PRs can be compared against each other. The committed copy
//! is the baseline `bench_compare` gates CI against (counts fatal,
//! latency drift informational).
//!
//! Entry points (binary-level only; drivers take explicit parameters):
//! `APLUS_SCALE` (default 20000 — *reduced*, unlike the table binaries'
//! 1000) and `APLUS_BENCH_OUT` to redirect the output directory.

use std::path::PathBuf;

use aplus_bench::{tables, Reporter};
use serde::Serialize;

/// Reduced default scale divisor: small enough for a CI smoke step.
const SMOKE_SCALE_DEFAULT: usize = 20_000;

/// Schema version of the trajectory file; bump on layout changes.
/// v9: the paper's tables II–IV only.
const SCHEMA: u32 = 9;

#[derive(Serialize)]
struct TablesFile {
    schema: u32,
    scale: usize,
    reports: Vec<Reporter>,
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
    eprintln!("bench_smoke: scale divisor {scale}");

    let reports = vec![
        tables::run_table2(scale),
        tables::run_table3(scale),
        tables::run_table4(scale),
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
}
