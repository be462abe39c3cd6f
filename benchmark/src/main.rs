//! The repo benchmark: five closed-loop workloads against the A+ indexes
//! GDBMS, reporting end-to-end metrics (untraced) and per-layer metrics
//! (traced). See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! aplus-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                 [--out DIR] [--rev R]
//! aplus-benchmark compare FIRST.json SECOND.json
//! ```
//!
//! With `--workload` and `--trace` both given, one run happens and the last
//! line of stdout is the result object the driver reads. Otherwise every
//! missing choice is iterated (all workloads; untraced then traced).

mod compare;
mod driver;
mod metrics;
mod probes;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Def, END_TO_END, PER_LAYER};
use run::{RunConfig, RunResult};
use workloads::{Kind, Scale};

/// The measured window when `--seconds` is absent (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out_dir: PathBuf,
    rev: String,
}

fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out_dir: default_out_dir(),
        rev: "unknown".to_owned(),
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" | "--duration-s" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("{flag}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("{flag} must be in (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                // `--trace 0`, `--trace 1`, or a bare `--trace` (= 1).
                args.trace = Some(match argv.next() {
                    Some(v) if v == "0" => false,
                    Some(v) if v == "1" => true,
                    other => {
                        pending = other;
                        true
                    }
                });
            }
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--rev" => args.rev = value("a revision")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn defs_of(result: &RunResult) -> &'static [Def] {
    if result.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for every metric of the run.
fn metrics_json(result: &RunResult, with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, (def, v)) in result.values.complete(defs_of(result)).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": {{\"value\": {}", def.name, v.value);
        let _ = write!(out, ", \"unit\": \"{}\"", def.unit);
        if with_samples {
            let _ = write!(out, ", \"samples\": {}", v.samples);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The object the driver reads from the last line of stdout.
fn contract_json(result: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct(),
        result.attempted,
        result.failed,
        metrics_json(result, false)
    )
}

fn run_json(result: &RunResult) -> String {
    let problems: Vec<String> = result.problems.iter().map(|p| json_string(p)).collect();
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"p95_supported\": {}, \"problems\": [{}], \
         \"metrics\": {}}}",
        result.kind.name(),
        u8::from(result.trace),
        result.seed,
        result.correct(),
        result.attempted,
        result.failed,
        result.p95_supported,
        problems.join(", "),
        metrics_json(result, true)
    )
}

fn print_human(result: &RunResult) {
    println!(
        "== {} (trace {}, seed {}): {} ops attempted, {} failed, {}",
        result.kind.name(),
        u8::from(result.trace),
        result.seed,
        result.attempted,
        result.failed,
        if result.correct() {
            "correct"
        } else {
            "NOT CORRECT"
        }
    );
    for p in &result.problems {
        println!("   problem: {p}");
    }
    if !result.p95_supported {
        println!("   note: fewer than 200 samples, so p95 has fewer than 10 beyond it");
    }
    for (def, v) in result.values.complete(defs_of(result)) {
        let samples = if v.samples > 0 {
            format!("  (n={})", v.samples)
        } else {
            String::new()
        };
        println!(
            "   {:<32} {:>16.6} {:<6} {} is better{samples}",
            def.name,
            v.value,
            def.unit,
            def.better.as_str()
        );
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = argv.skip(1).collect();
        return match compare::main(&files) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("aplus-benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aplus-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    let kinds = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let traces = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut results = Vec::new();
    for &trace in &traces {
        for &kind in &kinds {
            let cfg = RunConfig {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                trace,
                out_dir: args.out_dir.clone(),
                scale: Scale::FROZEN,
                warmup_s: run::WARMUP_S,
                setup_reps: run::SETUP_REPS,
            };
            match run::run(&cfg) {
                Ok(result) => {
                    print_human(&result);
                    results.push(result);
                }
                Err(e) => {
                    eprintln!("aplus-benchmark: {} could not run: {e}", kind.name());
                    return ExitCode::from(2);
                }
            }
        }
    }

    let runs: Vec<String> = results.iter().map(run_json).collect();
    let file = format!(
        "{{\"meta\": {{\"nproc\": {}, \"vertices\": {}, \"edges\": {}, \"seed\": {}, \
         \"seconds\": {}, \"warmup_s\": {}, \"setup_reps\": {}, \"fsync\": \"always\", \
         \"rev\": {}}},\n \"runs\": [\n  {}\n ]}}\n",
        nproc(),
        Scale::FROZEN.vertices,
        Scale::FROZEN.edges,
        args.seed,
        args.seconds,
        run::WARMUP_S,
        run::SETUP_REPS,
        json_string(&args.rev),
        runs.join(",\n  ")
    );
    let path = args.out_dir.join("results.json");
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("aplus-benchmark: writing {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("results written to {}", path.display());

    if let [only] = results.as_slice() {
        println!("{}", contract_json(only));
    }
    if results.iter().all(RunResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| (*w).to_owned()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "wire_point",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Kind::WirePoint));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, Some(false)));
    }

    #[test]
    fn bare_trace_flag_and_duration_alias() {
        let a = parse(&["--trace", "--duration-s", "3"]).unwrap();
        assert_eq!((a.trace, a.seconds, a.workload), (Some(true), 3.0, None));
        assert_eq!(
            parse(&["--seed", "2", "--trace"]).unwrap().trace,
            Some(true)
        );
        assert_eq!(parse(&[]).unwrap().trace, None);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
