//! The one-driver contract, shared by the differential suites: every
//! strategy × engine pin × pool × limit goes through `Database::run`, so
//! one checker states what must hold for all of them.

// Every suite includes this file as its own module; not every suite uses
// every helper.
#![allow(dead_code)]

use std::ops::ControlFlow;

use proptest::prelude::*;

use aplus_query::block::use_block;
use aplus_query::{
    profiled, Database, FlattenPolicy, MorselPool, Output, QueryProfile, RawRow, SharedDatabase,
};

const POOLS: [usize; 3] = [1, 2, 4];

/// `count` / `collect` of query text on an explicit pool (the prepared
/// entry points take the pool as an argument).
pub fn count_on(db: &Database, q: &str, pool: &MorselPool) -> u64 {
    let (bound, plan) = db.prepare(q).unwrap();
    db.count_prepared_parallel(&bound, &plan, pool)
}

pub fn collect_on(db: &Database, q: &str, limit: usize, pool: &MorselPool) -> Vec<RawRow> {
    let (bound, plan) = db.prepare(q).unwrap();
    db.collect_prepared_parallel(&bound, &plan, limit, pool)
}

/// What a profile must agree on across pools: the deterministic view, with
/// the factorized-count shortcut reduced to hit/no-hit — under first-E/I
/// partitioning it fires once per morsel of the leading list, so its
/// *number* follows the morsel cut like `blocks` does.
fn comparable(profile: &QueryProfile) -> QueryProfile {
    let mut view = profile.deterministic_view();
    view.fc_shortcut_hits = view.fc_shortcut_hits.min(1);
    view
}

fn untouched(profile: &QueryProfile) -> bool {
    profile.early_exit_level.is_none()
        && profile.morsels_per_worker.is_empty()
        && profile
            .levels
            .iter()
            .all(|l| l.lists_scanned + l.candidates + l.emitted == 0)
}

/// Checks `q` on every engine pin its plan allows (`Eager`, plus `AtSink`
/// with `block_size` roots per block where block-eligible) × pools {1, 2,
/// 4} × limits {0, 1, n − 1, n, n + 1, MAX}, against the sequential row
/// engine's rows:
///
/// * the count equals the unlimited row count, and its profile is
///   identical across pools;
/// * limited rows are the exact prefix, pushed once each;
/// * a run that completes records no early exit and profiles identically
///   across pools; one cut short by its limit exits at the sink level;
/// * `limit == 0` runs nothing at all — through `run` and through every
///   wrapper.
pub fn assert_one_driver(db: &Database, q: &str, block_size: usize) -> Result<(), TestCaseError> {
    let (bound, mut plan) = db.prepare(q).unwrap();
    plan.block.block_size = block_size;
    let row_plan = plan.clone().with_flatten(FlattenPolicy::Eager);
    let reference =
        db.collect_prepared_parallel(&bound, &row_plan, usize::MAX, &MorselPool::sequential());
    let n = reference.len();
    let mut pins = vec![("Eager", row_plan)];
    if use_block(&plan) {
        pins.push(("AtSink", plan.clone()));
    }
    let limits = [0, 1, n.saturating_sub(1), n, n + 1, usize::MAX];
    for (pin, plan) in &pins {
        let sink_level = plan.ops.len();
        let mut count_view: Option<QueryProfile> = None;
        let mut full_view: Option<QueryProfile> = None;
        for threads in POOLS {
            let pool = MorselPool::new(threads);
            let at = format!("query {q} pin {pin} threads {threads}");

            let counted = profiled(plan, |p| {
                db.run(&bound, plan, &pool, Some(p), Output::Count)
            });
            prop_assert_eq!(counted.rows, n as u64, "count: {}", &at);
            prop_assert_eq!(counted.early_exit_level, None, "count: {}", &at);
            let view = comparable(&counted);
            prop_assert_eq!(count_view.get_or_insert(view.clone()), &view, "{}", &at);

            for limit in limits {
                let at = format!("{at} limit {limit}");
                let mut rows: Vec<RawRow> = Vec::new();
                let profile = profiled(plan, |p| {
                    let sink = &mut |r: RawRow| {
                        rows.push(r);
                        ControlFlow::Continue(())
                    };
                    db.run(&bound, plan, &pool, Some(p), Output::Rows { limit, sink })
                });
                prop_assert_eq!(&rows[..], &reference[..limit.min(n)], "rows: {}", &at);
                prop_assert_eq!(profile.rows, rows.len() as u64, "delivered: {}", &at);
                if limit == 0 {
                    prop_assert!(untouched(&profile), "limit 0 ran something: {}", &at);
                } else if limit <= n {
                    prop_assert_eq!(profile.early_exit_level, Some(sink_level), "{}", &at);
                } else {
                    prop_assert_eq!(profile.early_exit_level, None, "{}", &at);
                    let view = comparable(&profile);
                    prop_assert_eq!(full_view.get_or_insert(view.clone()), &view, "{}", &at);
                }
            }
        }
    }

    // `limit == 0` through every wrapper: no rows, nothing pushed, no
    // early exit recorded.
    let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(2));
    prop_assert!(db.collect(q, 0).unwrap().is_empty());
    prop_assert!(shared.collect(q, 0).unwrap().is_empty());
    let mut pushed = 0usize;
    let mut sink = |_: RawRow| {
        pushed += 1;
        ControlFlow::Continue(())
    };
    db.stream(q, 0, &MorselPool::new(2), &mut sink).unwrap();
    db.stream_prepared(&bound, &plan, 0, &MorselPool::sequential(), &mut sink);
    shared.stream(q, 0, &mut sink).unwrap();
    // Profiled rows on a published snapshot and its pool.
    let snapshot = shared.snapshot();
    let profile = profiled(&plan, |p| {
        let sink = &mut sink;
        let out = Output::Rows { limit: 0, sink };
        snapshot.run(&bound, &plan, shared.pool(), Some(p), out)
    });
    prop_assert!(untouched(&profile), "query {}", q);
    prop_assert_eq!(pushed, 0, "limit 0 pushed rows: query {}", q);
    Ok(())
}
