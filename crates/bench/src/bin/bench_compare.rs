//! CI bench-baseline comparator.
//!
//! ```text
//! bench_compare <committed-baseline.json> <fresh-run.json>
//! ```
//!
//! Diffs a fresh `bench_smoke` output against the committed perf-trajectory
//! baseline (see [`aplus_bench::compare`]): count mismatches and missing
//! cells exit non-zero (results changed — a correctness regression);
//! latency drift is printed but never fatal, because the CI box is 1-core
//! and noisy. Wired into `ci.sh` for `BENCH_tables.json`.

use aplus_bench::compare::{compare_json, render_report};

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_compare: cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_compare <committed-baseline.json> <fresh-run.json>");
        std::process::exit(2);
    };
    let cmp = compare_json(&read(baseline_path), &read(fresh_path));
    print!(
        "{}",
        render_report(&format!("{baseline_path} vs {fresh_path}"), &cmp)
    );
    if !cmp.passed() {
        eprintln!(
            "bench_compare: FAILED — query counts diverged from the committed baseline. \
             If the change is intentional, regenerate the baseline by running \
             bench_smoke without APLUS_BENCH_OUT and commit the updated file."
        );
        std::process::exit(1);
    }
}
