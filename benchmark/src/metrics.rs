//! The metric names, units and directions the benchmark reports. The same
//! lists are in `BENCHMARK.json` (a unit test keeps the two in step).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Reported by every workload's untraced
/// run, over that workload's reported op stream.
pub const END_TO_END: &[Def] = &[
    higher("ops_per_s", "1/s"),
    lower("p50_ms", "ms"),
    lower("p95_ms", "ms"),
    lower("setup_s", "s"),
    lower("index_mb", "MB"),
];

/// Single-layer metrics, reported by the traced run. A metric that does not
/// apply to a workload reads 0 there (see the README's layer matrix).
pub const PER_LAYER: &[Def] = &[
    // Workload-specific end-to-end figures. They cannot sit in
    // `END_TO_END` because every end-to-end metric must be reported (and
    // never be 0) on every workload; each is measured with tracing off.
    higher("commits_per_s", "1/s"),
    lower("recover_s", "s"),
    lower("connect_ms", "ms"),
    // core
    lower("core.list_fetch_ns", "ns"),
    lower("core.offset_list_fetch_ns", "ns"),
    lower("core.bytes_per_edge.primary", "B"),
    lower("core.bytes_per_edge.VPt", "B"),
    lower("core.bytes_per_edge.VPc", "B"),
    lower("core.bytes_per_edge.EPc", "B"),
    lower("core.build_s", "s"),
    lower("core.reconfigure_s", "s"),
    lower("core.create_vp_s", "s"),
    lower("core.create_ep_s", "s"),
    higher("core.reconfig_speedup", "ratio"),
    higher("core.secondary_speedup", "ratio"),
    // query
    lower("query.parse_us", "us"),
    lower("query.plan_us", "us"),
    lower("query.exec_ms", "ms"),
    lower("query.candidates_per_row", "count"),
    lower("query.lists_per_row", "count"),
    higher("query.block_share", "ratio"),
    lower("query.flatten_share", "ratio"),
    // The durable workload's reader, beside the writer (its op stream is
    // not the reported one: it did not repeat within a tenth).
    higher("query.reader_ops_per_s", "1/s"),
    lower("query.reader_p50_ms", "ms"),
    lower("query.reader_slowdown", "ratio"),
    // runtime
    higher("runtime.speedup_2w", "ratio"),
    lower("runtime.morsel_imbalance", "ratio"),
    // server
    lower("server.codec_us", "us"),
    lower("server.wire_overhead_us", "us"),
    lower("server.first_request_ms", "ms"),
    // storage
    lower("storage.wal_append_us", "us"),
    lower("storage.fsync_us", "us"),
    lower("storage.wal_bytes_per_commit", "B"),
    lower("storage.checkpoint_s", "s"),
    lower("storage.checkpoint_bytes", "B"),
    lower("storage.recover_load_s", "s"),
    lower("storage.recover_replay_s", "s"),
    // graph
    lower("graph.commit_mem_us", "us"),
    // obs
    lower("obs.profile_overhead", "ratio"),
    // From the spans of the traced half-window: where an op's time goes,
    // as shares of the op (a wire request, a read, or a commit).
    lower("trace.server_share", "ratio"),
    lower("trace.prepare_share", "ratio"),
    lower("trace.exec_share", "ratio"),
    lower("trace.cow_share", "ratio"),
    lower("trace.storage_share", "ratio"),
    // Untraced ops/s divided by traced ops/s of the same run.
    lower("trace.overhead", "ratio"),
];

/// One reported value and the number of samples behind it (0 when the
/// value is not a statistic of samples, e.g. a byte count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Values by metric name; [`Values::complete`] fills in the rest.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// Every metric of `defs` in order; unset ones read 0 (not applicable
    /// to this workload). A value set under a name `defs` lacks is a bug.
    pub fn complete(&self, defs: &[Def]) -> Vec<(Def, Value)> {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not declared"
            );
        }
        defs.iter()
            .map(|d| {
                let unset = Value {
                    value: 0.0,
                    samples: 0,
                };
                (*d, self.get(d.name).unwrap_or(unset))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let root = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        root.get(section)
            .and_then(|v| v.as_array())
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn in_code(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        assert_eq!(declared("end_to_end"), in_code(END_TO_END));
        assert_eq!(declared("per_layer"), in_code(PER_LAYER));
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads() {
        let root = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let names: Vec<String> = root
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        let kinds: Vec<String> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name().to_owned())
            .collect();
        assert_eq!(names, kinds);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut v = Values::default();
        v.set("p50_ms", 1.5, 10);
        let all = v.complete(END_TO_END);
        assert_eq!(all.len(), END_TO_END.len());
        assert_eq!(all[1].1.value, 1.5);
        assert_eq!(all[0].1.value, 0.0);
    }
}
