//! `table14_varlength`: variable-length path queries (not a paper
//! table).
//!
//! Counts Kleene-star traversals — bounded `*min..max` expansions, an
//! unlabelled variant, a ring (cycle-check) query and a pinned-root
//! query whose BFS frontier is what the morsel pool partitions — at every
//! thread count. Counts must be identical across every thread-count cell —
//! enforced by `assert_counts_agree` here and pinned across PRs by the
//! `bench_compare` baseline gate; the latency cells are informational.

use aplus_datagen::presets::DatasetPreset;
use aplus_query::{Database, MorselPool, SharedDatabase};

use crate::datasets::dataset;
use crate::report::Reporter;

/// The var-length workload: `(name, query)` pairs. Bounds stay small —
/// shortest-walk semantics emits each reachable pair once, so the result
/// is `O(V²)` at saturation and the 2–4-hop band is where the frontier
/// work lives.
fn queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("VL1-2", "MATCH a-[:E0*1..2]->b"),
        ("VL2-3", "MATCH a-[:E0*2..3]->b"),
        ("VLANY1-2", "MATCH a-[*1..2]->b"),
        ("RING2-3", "MATCH a-[:E0*2..3]->a"),
        ("PIN1-4", "MATCH a-[:E0*1..4]->b WHERE a.ID = 0"),
    ]
}

/// Runs the var-length experiment on `Ork2,2` at every thread count.
pub fn run_varlength_table(scale: usize, thread_counts: &[usize]) -> Reporter {
    let mut r = Reporter::new(
        "table14_varlength",
        "Variable-length path queries: morsel-parallel BFS, \
         bounded/unbounded/ring/pinned-root patterns, per thread count \
         (counts gated, latency informational)",
    );
    let db = Database::new(dataset(DatasetPreset::Orkut, scale, 2, 2)).expect("index build");
    for &t in thread_counts {
        let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(t));
        for (qname, q) in queries() {
            r.time("VL(Ork2,2)", &format!("bfs-T{t}"), qname, || {
                shared.count(q).expect("query valid")
            });
        }
    }
    // Every thread count must agree on every count.
    r.assert_counts_agree();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke at a tiny scale: every thread-count cell is
    /// populated and the counts agree (enforced inside the run).
    #[test]
    fn varlength_table_runs_at_tiny_scale() {
        let r = run_varlength_table(20_000, &[1, 2]);
        for config in ["bfs-T1", "bfs-T2"] {
            for (q, _) in queries() {
                assert!(
                    r.measurements
                        .iter()
                        .any(|m| m.config == config && m.query == q && m.count.is_some()),
                    "missing {config}/{q}"
                );
            }
        }
    }
}
