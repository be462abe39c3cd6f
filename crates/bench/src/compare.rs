//! Bench-baseline comparison: the CI regression gate over the committed
//! `BENCH_tables.json` perf-trajectory file.
//!
//! [`compare_json`] walks both documents for measurement records (any JSON
//! object carrying `dataset`/`config`/`query`/`value`, wherever reporters
//! are nested) and diffs the fresh run against the committed baseline:
//!
//! * **Counts are correctness** — a differing or missing `count` is a
//!   fatal regression (dataset generation is seeded, so counts are
//!   deterministic across runs and machines at a fixed `APLUS_SCALE`).
//! * **Latency is trajectory** — per-cell drift is reported for the log,
//!   never fatal (the CI box is 1-core and noisy; humans read the drift,
//!   machines gate on counts).
//! * **Coverage is schema** — a baseline cell missing from the fresh run
//!   is fatal (a benchmark silently disappeared); a fresh cell missing
//!   from the baseline is a warning to regenerate the committed files. A
//!   whole table present only in the fresh run (its reporter id has no
//!   baseline cells at all — a *new experiment*, typically from a schema
//!   bump) is one consolidated informational note, not a warning per
//!   cell. The summary line reports the baseline's schema version so a
//!   stale committed baseline is obvious in the log.

use std::collections::BTreeMap;

use serde_json::Value;

/// One measurement cell extracted from a trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Runtime (or metric value).
    pub value: f64,
    /// Result count, when the cell timed a query.
    pub count: Option<u64>,
}

/// A `(reporter id, dataset, config, query)` coordinate. The reporter id
/// namespaces cells because different tables reuse dataset/config/query
/// names (e.g. every table records `Mem(MB)` for config `D`).
pub type Key = (String, String, String, String);

fn describe(key: &Key) -> String {
    format!("{}:{}/{}/{}", key.0, key.1, key.2, key.3)
}

/// The outcome of one baseline comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Fatal problems (count mismatches, cells gone missing).
    pub errors: Vec<String>,
    /// Non-fatal notes (new cells, drift summaries).
    pub warnings: Vec<String>,
    /// Per-cell latency drift lines, `(key description, drift ratio)`.
    pub drift: Vec<(String, f64)>,
    /// The baseline file's top-level `schema` member, when present.
    pub baseline_schema: Option<u64>,
}

/// The top-level `schema` version of a trajectory file, when present.
#[must_use]
pub fn schema_of(json: &str) -> Option<u64> {
    let v: Value = serde_json::from_str(json).ok()?;
    v.get("schema")?.as_u64()
}

impl Comparison {
    /// Whether the fresh run is acceptable against the baseline.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Recursively collects every measurement-shaped object in `v`. The
/// nearest enclosing object with a string `id` (a reporter) namespaces its
/// measurements via `scope`.
fn collect_cells(v: &Value, scope: &str, out: &mut BTreeMap<Key, Cell>, dups: &mut Vec<String>) {
    match v {
        Value::Object(map) => {
            if let (Some(dataset), Some(config), Some(query), Some(value)) = (
                map.get("dataset").and_then(Value::as_str),
                map.get("config").and_then(Value::as_str),
                map.get("query").and_then(Value::as_str),
                map.get("value").and_then(Value::as_f64),
            ) {
                let key = (
                    scope.to_owned(),
                    dataset.to_owned(),
                    config.to_owned(),
                    query.to_owned(),
                );
                let cell = Cell {
                    value,
                    count: map.get("count").and_then(Value::as_u64),
                };
                if out.insert(key.clone(), cell).is_some() {
                    dups.push(describe(&key));
                }
            } else {
                let scope = map.get("id").and_then(Value::as_str).unwrap_or(scope);
                for child in map.values() {
                    collect_cells(child, scope, out, dups);
                }
            }
        }
        Value::Array(items) => {
            for child in items {
                collect_cells(child, scope, out, dups);
            }
        }
        _ => {}
    }
}

/// Parses a trajectory file into its measurement cells.
pub fn cells_of(json: &str) -> Result<BTreeMap<Key, Cell>, String> {
    let v = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    let mut dups = Vec::new();
    collect_cells(&v, "", &mut out, &mut dups);
    if out.is_empty() {
        return Err("no measurement records found".into());
    }
    if !dups.is_empty() {
        return Err(format!("duplicate measurement keys: {}", dups.join(", ")));
    }
    Ok(out)
}

/// Diffs a fresh trajectory run against the committed baseline. See the
/// module docs for what is fatal vs. reported.
#[must_use]
pub fn compare_json(baseline: &str, fresh: &str) -> Comparison {
    let mut cmp = Comparison {
        baseline_schema: schema_of(baseline),
        ..Comparison::default()
    };
    let (base, new) = match (cells_of(baseline), cells_of(fresh)) {
        (Ok(b), Ok(n)) => (b, n),
        (b, n) => {
            if let Err(e) = b {
                cmp.errors.push(format!("baseline unreadable: {e}"));
            }
            if let Err(e) = n {
                cmp.errors.push(format!("fresh run unreadable: {e}"));
            }
            return cmp;
        }
    };
    for (key, b) in &base {
        let desc = describe(key);
        let Some(n) = new.get(key) else {
            cmp.errors.push(format!(
                "{desc}: present in baseline, missing from fresh run"
            ));
            continue;
        };
        match (b.count, n.count) {
            (Some(bc), Some(nc)) if bc != nc => cmp.errors.push(format!(
                "{desc}: count mismatch (baseline {bc}, fresh {nc}) — results changed"
            )),
            (Some(bc), None) => cmp.errors.push(format!(
                "{desc}: baseline has count {bc}, fresh run reports none"
            )),
            _ => {}
        }
        if b.value > 0.0 && n.value > 0.0 {
            cmp.drift.push((desc, n.value / b.value));
        }
    }
    // Reporter ids with any baseline coverage: a new cell inside one of
    // these warns per cell (partial coverage drift); an id absent from
    // the baseline entirely is a new experiment and gets one note.
    let baseline_ids: std::collections::BTreeSet<&str> =
        base.keys().map(|k| k.0.as_str()).collect();
    let mut new_tables: BTreeMap<&str, usize> = BTreeMap::new();
    for key in new.keys() {
        if base.contains_key(key) {
            continue;
        }
        if baseline_ids.contains(key.0.as_str()) {
            cmp.warnings.push(format!(
                "{}: new in fresh run — regenerate the committed baseline \
                 (run bench_smoke without APLUS_BENCH_OUT) to track it",
                describe(key)
            ));
        } else {
            *new_tables.entry(key.0.as_str()).or_insert(0) += 1;
        }
    }
    for (id, cells) in new_tables {
        cmp.warnings.push(format!(
            "table {id}: not in baseline ({cells} new cells) — a new experiment; \
             regenerate the committed baseline to start tracking it"
        ));
    }
    cmp
}

/// Renders a human-readable report; `name` labels the file pair.
#[must_use]
pub fn render_report(name: &str, cmp: &Comparison) -> String {
    let mut out = format!("== bench_compare: {name} ==\n");
    for e in &cmp.errors {
        out.push_str(&format!("ERROR   {e}\n"));
    }
    for w in &cmp.warnings {
        out.push_str(&format!("warning {w}\n"));
    }
    // Latency drift: worst slowdowns first, capped to keep logs readable.
    let mut drift = cmp.drift.clone();
    drift.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shown = drift.len().min(8);
    for (desc, ratio) in &drift[..shown] {
        out.push_str(&format!(
            "drift   {desc}: {ratio:.2}x vs baseline (informational)\n"
        ));
    }
    if drift.len() > shown {
        out.push_str(&format!(
            "drift   … and {} more cells\n",
            drift.len() - shown
        ));
    }
    let schema = cmp
        .baseline_schema
        .map_or_else(|| "unversioned".into(), |v| format!("v{v}"));
    out.push_str(&format!(
        "{}: {} cells compared against baseline schema {schema}, {} errors, {} warnings\n",
        if cmp.passed() { "PASS" } else { "FAIL" },
        cmp.drift.len(),
        cmp.errors.len(),
        cmp.warnings.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(count: u64, value: f64) -> String {
        format!(
            r#"{{"schema":2,"reports":[{{"id":"t","title":"x","measurements":[
                {{"dataset":"D","config":"C","query":"Q","value":{value},"count":{count}}},
                {{"dataset":"D","config":"C","query":"Mem","value":1.5,"count":null}}
            ]}}]}}"#
        )
    }

    #[test]
    fn identical_documents_pass() {
        let cmp = compare_json(&doc(7, 0.5), &doc(7, 0.5));
        assert!(cmp.passed(), "{:?}", cmp.errors);
        assert!(cmp.warnings.is_empty());
        assert_eq!(cmp.drift.len(), 2);
        assert_eq!(cmp.baseline_schema, Some(2));
        assert!(render_report("tables", &cmp).contains("baseline schema v2"));
    }

    #[test]
    fn whole_new_table_is_one_informational_note() {
        let base = r#"{"schema":5,"reports":[{"id":"t1","title":"x","measurements":[
            {"dataset":"D","config":"C","query":"Q1","value":1.0,"count":1}]}]}"#;
        let fresh = r#"{"schema":6,"reports":[
            {"id":"t1","title":"x","measurements":[
                {"dataset":"D","config":"C","query":"Q1","value":1.0,"count":1}]},
            {"id":"t13","title":"new","measurements":[
                {"dataset":"D","config":"C","query":"Q1","value":1.0,"count":1},
                {"dataset":"D","config":"C","query":"Q2","value":1.0,"count":2}]}]}"#;
        let cmp = compare_json(base, fresh);
        assert!(cmp.passed(), "{:?}", cmp.errors);
        // Two new cells, but one consolidated note — the table is new.
        assert_eq!(cmp.warnings.len(), 1, "{:?}", cmp.warnings);
        assert!(cmp.warnings[0].contains("table t13"), "{:?}", cmp.warnings);
        assert!(
            cmp.warnings[0].contains("2 new cells"),
            "{:?}",
            cmp.warnings
        );
        assert_eq!(cmp.baseline_schema, Some(5));
    }

    #[test]
    fn latency_drift_is_not_fatal() {
        let cmp = compare_json(&doc(7, 0.5), &doc(7, 5.0));
        assert!(cmp.passed());
        let q_drift = cmp
            .drift
            .iter()
            .find(|(d, _)| d.ends_with("/Q"))
            .map(|&(_, r)| r)
            .unwrap();
        assert!((q_drift - 10.0).abs() < 1e-9);
        assert!(render_report("scaling", &cmp).contains("PASS"));
    }

    #[test]
    fn count_mismatch_fails() {
        let cmp = compare_json(&doc(7, 0.5), &doc(8, 0.5));
        assert!(!cmp.passed());
        assert!(cmp.errors[0].contains("count mismatch"), "{:?}", cmp.errors);
        assert!(render_report("tables", &cmp).contains("FAIL"));
    }

    #[test]
    fn missing_baseline_cell_fails_and_new_cell_warns() {
        let base = r#"{"measurements":[
            {"dataset":"D","config":"C","query":"Q1","value":1.0,"count":1},
            {"dataset":"D","config":"C","query":"Q2","value":1.0,"count":2}]}"#;
        let fresh = r#"{"measurements":[
            {"dataset":"D","config":"C","query":"Q1","value":1.0,"count":1},
            {"dataset":"D","config":"C","query":"Q3","value":1.0,"count":3}]}"#;
        let cmp = compare_json(base, fresh);
        assert_eq!(cmp.errors.len(), 1);
        assert!(cmp.errors[0].contains("Q2"));
        assert_eq!(cmp.warnings.len(), 1);
        assert!(cmp.warnings[0].contains("Q3"));
    }

    #[test]
    fn unreadable_input_fails() {
        let cmp = compare_json("not json", &doc(1, 1.0));
        assert!(!cmp.passed());
        assert!(cmp.errors[0].contains("baseline unreadable"));
        // A JSON document with no measurements is also unreadable.
        let cmp = compare_json(&doc(1, 1.0), "{\"schema\": 2}");
        assert!(cmp.errors[0].contains("no measurement records"));
    }
}
