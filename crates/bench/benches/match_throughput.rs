//! Match throughput: arrival-driven matching against a *loaded*
//! standing registry (the tentpole experiment of the staged-pipeline
//! PR).
//!
//! A sharded coordinator is pre-loaded with `standing` registrations
//! that can never match (their partners never arrive), spread across
//! several answer relations. A storm of matched pairs then arrives in
//! batches; every pair must coordinate *through* the standing load, so
//! throughput measures how well the staged pipeline — batched index
//! scans, stage-1 trigger pruning, pooled scratch — keeps doomed
//! candidates out of the search, and how well the indexed cascade
//! keeps the standing load out of every post-commit retry. The headline
//! series (arrivals per second plus the matcher's scan/prune counters,
//! the index prune rate and the queries the cascade checked) and the
//! 8k÷1k throughput ratio are written to `BENCH_match.json` at the
//! repository root, with the host and commit they were measured on.
//!
//! Run with: `cargo bench -p youtopia-bench --bench match_throughput`
//! (`YOUTOPIA_BENCH_FAST=1` skips the headline series, so CI never
//! rewrites the committed artifact with foreign-hardware numbers.)

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use youtopia_bench::{host_description, source_commit};
use youtopia_core::{CoordinatorConfig, ShardedConfig, ShardedCoordinator};
use youtopia_travel::{drive_batched, WorkloadGen};

const RELATIONS: usize = 8;
const FLIGHTS: usize = 100;
const SHARDS: usize = 4;
const BATCH: usize = 128;
const PAIRS: usize = 1000;
/// Independent storms per standing load; the series reports the median.
const RUNS: usize = 3;
const STANDING: [usize; 3] = [1000, 4000, 8000];

fn config() -> ShardedConfig {
    let mut base = CoordinatorConfig::default();
    base.match_config.randomize = false;
    ShardedConfig {
        shards: SHARDS,
        workers: 0,
        auto_checkpoint_bytes: 0,
        fair_drain: false,
        checkpoint: Default::default(),
        base,
    }
}

/// A coordinator pre-loaded with `standing` never-matching
/// registrations across [`RELATIONS`] answer relations.
fn loaded_coordinator(standing: usize) -> (ShardedCoordinator, WorkloadGen) {
    let mut generator = WorkloadGen::new(23);
    let db = generator
        .build_database(FLIGHTS, &["Paris", "Rome"])
        .expect("database builds");
    let co = ShardedCoordinator::with_config(db, config());
    let noise = generator.noise_multi(standing, "Paris", RELATIONS);
    drive_batched(&co, &noise, BATCH);
    (co, generator)
}

/// Drives `pairs` matched pairs into the loaded coordinator; returns
/// (seconds, arrivals driven).
fn run_storm(co: &ShardedCoordinator, generator: &mut WorkloadGen, pairs: usize) -> (f64, usize) {
    let requests = generator.pair_storm_multi(pairs, "Paris", RELATIONS);
    let started = Instant::now();
    drive_batched(co, &requests, BATCH);
    (started.elapsed().as_secs_f64(), requests.len())
}

/// The headline series, written to `BENCH_match.json`.
fn headline_series() {
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for standing in STANDING {
        // median of independent storms against identical loads
        let mut runs = Vec::new();
        for _ in 0..RUNS {
            let (co, mut generator) = loaded_coordinator(standing);
            let before = co.stats();
            let (seconds, arrivals) = run_storm(&co, &mut generator, PAIRS);
            let after = co.stats();
            runs.push((seconds, arrivals, before, after));
        }
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (seconds, arrivals, before, after) = runs[RUNS / 2];
        let answered = after.answered - before.answered;
        assert_eq!(
            answered as usize,
            2 * PAIRS,
            "every pair coordinates despite the standing load"
        );
        let scanned = after.match_work.candidates_scanned - before.match_work.candidates_scanned;
        let index_pruned = after.match_work.index_pruned - before.match_work.index_pruned;
        let triggers_pruned = after.match_work.triggers_pruned - before.match_work.triggers_pruned;
        let pool_hits = after.match_work.pool_hits - before.match_work.pool_hits;
        let pool_misses = after.match_work.pool_misses - before.match_work.pool_misses;
        let cascade_checked = after.match_work.cascade_checked - before.match_work.cascade_checked;
        let prune_rate = index_pruned as f64 / (index_pruned + scanned).max(1) as f64;
        let per_sec = arrivals as f64 / seconds;
        rates.push(per_sec);
        println!(
            "match_throughput: {arrivals:5} arrivals over {standing:5} standing \
             in {seconds:.4}s ({per_sec:.0} arrivals/s, prune rate {prune_rate:.3})"
        );
        rows.push(format!(
            "    {{\n      \"standing\": {standing},\n      \"arrivals\": {arrivals},\n      \
             \"answered\": {answered},\n      \"seconds\": {seconds:.6},\n      \
             \"arrivals_per_sec\": {per_sec:.1},\n      \
             \"candidates_scanned\": {scanned},\n      \
             \"index_pruned\": {index_pruned},\n      \
             \"triggers_pruned\": {triggers_pruned},\n      \
             \"index_prune_rate\": {prune_rate:.4},\n      \
             \"cascade_checked\": {cascade_checked},\n      \
             \"pool_hits\": {pool_hits},\n      \"pool_misses\": {pool_misses}\n    }}"
        ));
    }
    // throughput at the largest standing load relative to the smallest
    let ratio = rates[rates.len() - 1] / rates[0];
    println!("match_throughput: 8k/1k arrivals_per_sec ratio {ratio:.3}");
    let json = format!(
        "{{\n  \"bench\": \"match_throughput\",\n  \"host\": \"{}\",\n  \
         \"commit\": \"{}\",\n  \"workload\": {{\n    \
         \"relations\": {RELATIONS},\n    \"flights\": {FLIGHTS},\n    \
         \"shards\": {SHARDS},\n    \"batch\": {BATCH},\n    \"pairs\": {PAIRS},\n    \
         \"runs_per_series\": {RUNS}\n  }},\n  \
         \"arrivals_per_sec_ratio_8k_over_1k\": {ratio:.4},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        host_description(),
        source_commit(),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_match.json");
    std::fs::write(path, json).expect("write BENCH_match.json");
    println!("wrote {path}");
}

fn bench_match_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_throughput");
    group.sample_size(10);

    for &standing in &[500usize, 2000] {
        group.throughput(Throughput::Elements(128));
        group.bench_with_input(
            BenchmarkId::new("pair_storm", standing),
            &standing,
            |b, &standing| {
                b.iter_batched(
                    || loaded_coordinator(standing),
                    |(co, mut generator)| run_storm(&co, &mut generator, 64),
                    BatchSize::PerIteration,
                );
            },
        );
    }
    group.finish();

    if std::env::var_os("YOUTOPIA_BENCH_FAST").is_none() {
        headline_series();
    }
}

criterion_group!(benches, bench_match_throughput);
criterion_main!(benches);
