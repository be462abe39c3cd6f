//! Benchmark harness regenerating every table of the paper's evaluation
//! (§V), plus the §III-B3 storage ablation.
//!
//! Each `table*` binary builds the scaled datasets, runs the workload under
//! the paper's index configurations, prints a markdown table next to the
//! paper's reference numbers, and (when `APLUS_REPORT_DIR` is set) writes a
//! machine-readable JSON report.
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table I — datasets |
//! | `table2` | Table II — primary reconfiguration (D / Ds / Dp) |
//! | `table3` | Table III — MagicRecs (D / D+VPt) |
//! | `table4` | Table IV — fraud (D / D+VPc / D+VPc+EPc) |
//! | `table5` | Table V — fixed-index baselines |
//! | `table6_maintenance` | §V-F — maintenance micro-benchmark |
//! | `ablation_storage` | §III-B3 — offset lists vs bitmaps vs ID lists |
//! | `bench_smoke` | CI perf trajectory: reduced-scale tables II–IV written to `BENCH_tables.json` |
//! | `bench_compare` | CI baseline gate: diffs a fresh `bench_smoke` run against the committed `BENCH_tables.json` — count mismatches fail, latency drift is informational |
//!
//! Dataset sizes scale with `APLUS_SCALE` (divisor of the paper's
//! vertex/edge counts; default 1000). The environment variable is read
//! once per binary; every driver function takes the divisor as an explicit
//! parameter so library callers and tests never touch process-global env.
//!
//! Everything beyond the paper — parallel scaling, streaming, churn,
//! recovery, engines, profiling, var-length paths and the wire — is
//! measured by the repository benchmark (`benchmark/`), and its result
//! invariants are checked by the differential test suites.

pub mod compare;
pub mod datasets;
pub mod report;
pub mod tables;
pub mod workloads;

pub use report::{Measurement, Reporter};
