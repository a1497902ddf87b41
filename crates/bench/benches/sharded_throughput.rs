//! Sharded-coordinator throughput. Measures end-to-end submission
//! throughput of a multi-relation pair workload over a standing noise
//! load, comparing
//!
//! * **serial**: one shard, one arrival at a time (`submit_sql` per
//!   request) — the paper's serial coordinator, one matching domain
//!   over the whole pending registry — against
//! * **sharded**: 4 shards fed by batch submission; routing by
//!   answer-relation signature confines every cascade and match
//!   attempt to one shard's registry.
//!
//! The headline numbers — requests/second for both configurations and
//! their ratio — are written to `BENCH_sharded.json` at the repository
//! root so the result is a committed artifact. A criterion group also
//! reports per-storm submission latency across noise levels.
//!
//! Run with: `cargo bench -p youtopia-bench --bench sharded_throughput`

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use youtopia_bench::{build_stack, preload_noise};
use youtopia_core::ShardedConfig;
use youtopia_travel::{drive_batched, Request, WorkloadGen};

/// Workload shape shared by the headline comparison and the criterion
/// series: `PAIRS` coordinating pairs spread over `RELATIONS` answer
/// relations, arriving on top of a standing noise load.
const RELATIONS: usize = 8;
const PAIRS: usize = 250;
const FLIGHTS: usize = 200;
const BATCH: usize = 64;
const SHARDS: usize = 4;

fn storm_workload(noise: usize) -> (Vec<Request>, Vec<Request>) {
    let mut gen = WorkloadGen::new(42);
    let noise_reqs = gen.noise_multi(noise, "Paris", RELATIONS);
    let storm = gen.pair_storm_multi(PAIRS, "Paris", RELATIONS);
    (noise_reqs, storm)
}

/// Serial throughput: per-arrival submission to one shard.
/// Returns (elapsed seconds, answered count).
fn run_serial(noise: usize) -> (f64, usize) {
    let config = ShardedConfig {
        shards: 1,
        ..Default::default()
    };
    let stack = build_stack(7, FLIGHTS, &["Paris", "Rome"], config);
    let (noise_reqs, storm) = storm_workload(noise);
    preload_noise(&stack.coordinator, &noise_reqs);
    let started = Instant::now();
    let mut answered = 0;
    for r in &storm {
        if let youtopia_core::Submission::Answered(_) = stack
            .coordinator
            .submit_sql(&r.owner, &r.sql)
            .expect("storm submits")
        {
            answered += 1;
        }
    }
    (started.elapsed().as_secs_f64(), answered)
}

/// Sharded throughput: batched submission drained per shard.
fn run_sharded(noise: usize) -> (f64, usize) {
    let config = ShardedConfig {
        shards: SHARDS,
        ..Default::default()
    };
    let stack = build_stack(7, FLIGHTS, &["Paris", "Rome"], config);
    let (noise_reqs, storm) = storm_workload(noise);
    preload_noise(&stack.coordinator, &noise_reqs);
    let started = Instant::now();
    let report = drive_batched(&stack.coordinator, &storm, BATCH);
    let elapsed = started.elapsed().as_secs_f64();
    stack
        .coordinator
        .check_routing_invariants()
        .expect("routing invariants hold");
    (elapsed, report.answered)
}

/// Median of three timed runs (each run builds a fresh stack).
fn median_of_three(run: impl Fn(usize) -> (f64, usize), noise: usize) -> (f64, usize) {
    let mut runs = [run(noise), run(noise), run(noise)];
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs[1]
}

/// The headline comparison, written to `BENCH_sharded.json`.
fn headline_comparison() {
    let noise = 6000;
    let requests = PAIRS * 2;

    let (serial_secs, serial_answered) = median_of_three(run_serial, noise);
    let (sharded_secs, sharded_answered) = median_of_three(run_sharded, noise);
    assert_eq!(serial_answered, PAIRS, "every pair closes (serial)");
    assert_eq!(sharded_answered, PAIRS, "every pair closes (sharded)");

    let serial_rps = requests as f64 / serial_secs;
    let sharded_rps = requests as f64 / sharded_secs;
    let speedup = sharded_rps / serial_rps;

    println!("\n=== sharded_throughput headline ===");
    println!("workload: {PAIRS} pairs over {RELATIONS} relations, {noise} standing noise");
    println!("serial    : {serial_rps:10.0} req/s  ({serial_secs:.3}s)");
    println!("sharded/{SHARDS} : {sharded_rps:10.0} req/s  ({sharded_secs:.3}s)");
    println!("speedup   : {speedup:.2}x\n");

    let json = format!(
        "{{\n  \"bench\": \"sharded_throughput\",\n  \"workload\": {{\n    \"pairs\": {PAIRS},\n    \"requests\": {requests},\n    \"relations\": {RELATIONS},\n    \"standing_noise\": {noise},\n    \"flights\": {FLIGHTS},\n    \"batch_size\": {BATCH}\n  }},\n  \"serial\": {{\n    \"seconds\": {serial_secs:.6},\n    \"requests_per_sec\": {serial_rps:.1}\n  }},\n  \"sharded\": {{\n    \"shards\": {SHARDS},\n    \"seconds\": {sharded_secs:.6},\n    \"requests_per_sec\": {sharded_rps:.1}\n  }},\n  \"speedup\": {speedup:.3}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded.json");
    std::fs::write(path, json).expect("write BENCH_sharded.json");
    println!("wrote {path}");
}

fn bench_sharded_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_throughput_storm");
    group.sample_size(10);
    group.throughput(Throughput::Elements((PAIRS * 2) as u64));

    for &noise in &[0usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::new("serial", noise), &noise, |b, &noise| {
            b.iter_batched(|| noise, run_serial, BatchSize::PerIteration);
        });
        group.bench_with_input(BenchmarkId::new("sharded4", noise), &noise, |b, &noise| {
            b.iter_batched(|| noise, run_sharded, BatchSize::PerIteration);
        });
    }
    group.finish();

    // the headline (median-of-three full runs + committed JSON artifact)
    // is skipped in fast/smoke mode so CI stays quick and never rewrites
    // BENCH_sharded.json with numbers from foreign hardware
    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_none() {
        headline_comparison();
    }
}

criterion_group!(benches, bench_sharded_throughput);
criterion_main!(benches);
