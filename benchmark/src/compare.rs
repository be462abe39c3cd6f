//! `aplus-benchmark compare FIRST.json SECOND.json`: do two result files of
//! the same code agree within the bounds `BENCHMARK.json` fixes?

use serde_json::Value as Json;

/// Metrics that are counts of the program's own work or bytes: on the same
/// code and dataset they must repeat exactly, whatever the seed.
const EXACT: &[&str] = &[
    "index_mb",
    "core.bytes_per_edge.primary",
    "core.bytes_per_edge.VPt",
    "core.bytes_per_edge.VPc",
    "core.bytes_per_edge.EPc",
    "query.candidates_per_row",
    "query.lists_per_row",
    "query.block_share",
    "storage.wal_bytes_per_commit",
];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs(file: &Json) -> Result<&Vec<Json>, String> {
    file.get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| "no \"runs\" list".to_owned())
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How far `second` is from `first`, as a share of `first`.
pub fn relative_difference(first: f64, second: f64) -> f64 {
    ((second - first) / first).abs()
}

/// Returns whether every pair agreed.
pub fn main(files: &[String]) -> Result<bool, String> {
    let [first, second] = files else {
        return Err("usage: compare FIRST.json SECOND.json".to_owned());
    };
    let (first, second) = (load(first)?, load(second)?);
    let contract = load("BENCHMARK.json")?;
    let bounds: Vec<(String, f64)> = contract
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            (text(m, "name").to_owned(), bound)
        })
        .collect();

    let mut agreed = true;
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "apart by", "bound"
    );
    for a in runs(&first)? {
        let traced = a.get("trace").and_then(Json::as_u64) == Some(1);
        let workload = text(a, "workload");
        let Some(b) = runs(&second)?
            .iter()
            .find(|b| text(b, "workload") == workload && b.get("trace") == a.get("trace"))
        else {
            return Err(format!(
                "second file lacks {workload} (trace {})",
                u8::from(traced)
            ));
        };
        for run in [a, b] {
            if run.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{workload:<18} a run was not correct");
                agreed = false;
            }
        }
        if !traced {
            for (name, bound) in &bounds {
                let (Some(x), Some(y)) = (metric(a, name), metric(b, name)) else {
                    return Err(format!("{workload} lacks {name}"));
                };
                let apart = relative_difference(x, y);
                let ok = apart <= *bound;
                agreed &= ok;
                println!(
                    "{workload:<18} {name:<30} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.1}%{}",
                    apart * 100.0,
                    bound * 100.0,
                    if ok { "" } else { "  BEYOND THE BOUND" }
                );
            }
        }
        for name in EXACT {
            if let (Some(x), Some(y)) = (metric(a, name), metric(b, name)) {
                if x != y {
                    agreed = false;
                    println!("{workload:<18} {name:<30} {x:>14} {y:>14}   MUST REPEAT EXACTLY");
                }
            }
        }
    }
    println!("{}", if agreed { "AGREE" } else { "DISAGREE" });
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_is_relative_to_the_first() {
        assert!((relative_difference(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((relative_difference(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_difference(13.5, 13.5), 0.0);
    }
}
