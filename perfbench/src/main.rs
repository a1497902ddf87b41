//! One benchmark for the coordinator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <match_standing|register_churn|wire_durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run builds the system in-process, drives the named workload from
//! a generator seeded by `--seed`, checks the outputs, prints every
//! metric by name with its unit and sample count, and ends with one
//! JSON line: the end-to-end metrics of `BENCHMARK.json` with
//! `--trace 0`, its per-layer metrics with `--trace 1`. Any failed
//! output check makes the run exit non-zero. See `perfbench/README.md`.

mod hostspeed;
mod inproc;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use youtopia_core::{CoordinatorConfig, ShardedConfig};

/// End-to-end metrics of `BENCHMARK.json`, printed by every untraced run.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "rss_mb",
    "match_p50_ms",
    "register_p50_ms",
    "arrivals_per_s",
    "churn_ops_per_s",
];

/// Per-layer metrics of `BENCHMARK.json`, printed by every traced run.
pub const PER_LAYER: &[&str] = &[
    "sql.parse_us",
    "core.compile_us",
    "core.matcher_us",
    "core.candidates_scanned",
    "core.index_pruned",
    "core.index_prune_rate",
    "core.triggers_pruned",
    "core.unify_attempts",
    "core.unify_hit_rate",
    "core.nodes_expanded",
    "core.rows_scanned",
    "core.pool_misses",
    "core.pending_skew",
    "exec.build_ms",
    "bench.trace_overhead_pct",
];

/// Shards of every coordinator the benchmark builds.
pub const SHARDS: usize = 4;
/// Flights in the generated database.
pub const FLIGHTS: usize = 100;
/// Cities the flights fly to.
pub const CITIES: &[&str] = &["Paris", "Rome"];
/// Destination every generated query asks for.
pub const DEST: &str = "Paris";
/// Answer relations the generated queries spread over.
pub const RELATIONS: usize = 8;
/// Set-ups per untraced `wire_durable` run; `setup_s` is their median
/// (the in-process workloads set up once per epoch instead).
pub const SETUP_REPEATS: usize = 9;
/// Span buffer of a traced run.
pub const SPAN_CAPACITY: usize = 400_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Measure the wire workload's pipelined capacity instead of running.
    pub calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The coordinator configuration every workload uses: 4 shards,
/// deterministic `CHOOSE`, defaults otherwise.
pub fn sharded_config() -> ShardedConfig {
    let mut base = CoordinatorConfig::default();
    base.match_config.randomize = false;
    ShardedConfig {
        shards: SHARDS,
        base,
        ..ShardedConfig::default()
    }
}

/// Scratch directory for WAL files and span dumps, inside the
/// benchmark's own directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    dir
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        wire::calibrate(&args);
        return ExitCode::SUCCESS;
    }
    let report = match args.workload.as_str() {
        "match_standing" => inproc::match_standing(&args),
        "register_churn" => inproc::register_churn(&args),
        "wire_durable" => wire::wire_durable(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let keys = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {} seed={} seconds={} trace={} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    print!("{}", report.render_table());
    match report.result_line(keys) {
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let workloads = ["match_standing", "register_churn", "wire_durable"];
        let expected: Vec<&str> = workloads
            .iter()
            .chain(END_TO_END)
            .chain(PER_LAYER)
            .copied()
            .collect();
        assert_eq!(names, expected);
    }
}
