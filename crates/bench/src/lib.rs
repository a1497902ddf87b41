//! # youtopia-bench
//!
//! Shared helpers for the benchmark harness. The `experiments` runner
//! (`src/bin/experiments.rs`) prints experiments E1–E10; the measured
//! ones also have a Criterion bench target under `benches/` whose doc
//! comment names its experiment (E3 `multi_constraint`, E4
//! `simultaneous_pairs`, E5 `group_size`, E7 `loaded_system`, E9
//! `choose_semantics`, E10 `ablation_matcher`). This library holds the
//! common setup code so the benches and the runner stay consistent.

#![warn(missing_docs)]

use youtopia_core::{ShardedConfig, ShardedCoordinator, Submission};
use youtopia_storage::Database;
use youtopia_travel::{drive_batched, Request, WorkloadGen};

/// A prepared coordination stack: database + coordinator.
pub struct Stack {
    /// The database with the travel schema and generated flights.
    pub db: Database,
    /// The coordinator under test.
    pub coordinator: ShardedCoordinator,
}

/// Builds a stack whose database has `n_flights` flights to the given
/// cities, with the supplied coordinator configuration (`shards: 1`
/// for the paper's serial coordinator).
pub fn build_stack(seed: u64, n_flights: usize, cities: &[&str], config: ShardedConfig) -> Stack {
    let mut gen = WorkloadGen::new(seed);
    let db = gen
        .build_database(n_flights, cities)
        .expect("workload database builds");
    let coordinator = ShardedCoordinator::with_config(db.clone(), config);
    Stack { db, coordinator }
}

/// Submits requests one arrival at a time, in order; returns
/// (answered, pending) counts. Panics on rejection — the generators
/// only produce safe queries.
pub fn submit_all(coordinator: &ShardedCoordinator, requests: &[Request]) -> (usize, usize) {
    let mut answered = 0;
    let mut pending = 0;
    for r in requests {
        match coordinator
            .submit_sql(&r.owner, &r.sql)
            .expect("generated queries are safe")
        {
            Submission::Answered(_) => answered += 1,
            Submission::Pending(_) => pending += 1,
        }
    }
    (answered, pending)
}

/// Pre-loads never-matching queries (the standing load of the
/// loaded-system experiments, e.g. [`WorkloadGen::noise`] or
/// [`WorkloadGen::noise_multi`]) in batches of 256. On one shard a
/// batch drains arrival by arrival, so this equals submitting them one
/// at a time.
pub fn preload_noise(coordinator: &ShardedCoordinator, noise: &[Request]) {
    let report = drive_batched(coordinator, noise, 256);
    assert_eq!(report.answered, 0, "noise must not match");
    assert_eq!(report.pending, noise.len());
}

/// One line naming the measuring host — CPU model and logical CPU
/// count — for the committed BENCH JSON artifacts.
pub fn host_description() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{cpu}, {cpus} logical CPUs")
}

/// The git commit the bench ran on, suffixed `-dirty` when the working
/// tree had uncommitted changes; `unknown` outside a git checkout.
pub fn source_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{head}-dirty")
        }
        Some(head) => head,
        None => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shard() -> ShardedConfig {
        ShardedConfig {
            shards: 1,
            ..Default::default()
        }
    }

    #[test]
    fn stack_builds_and_matches_pairs() {
        let stack = build_stack(1, 50, &["Paris"], one_shard());
        let mut gen = WorkloadGen::new(2);
        let reqs = gen.pair_storm(5, "Paris");
        let (answered, pending) = submit_all(&stack.coordinator, &reqs);
        assert_eq!(answered, 5, "each second half closes a pair");
        assert_eq!(pending, 5);
        assert_eq!(stack.coordinator.pending_count(), 0);
    }

    #[test]
    fn noise_preload_stays_pending() {
        let stack = build_stack(1, 50, &["Paris"], one_shard());
        let mut gen = WorkloadGen::new(3);
        preload_noise(&stack.coordinator, &gen.noise(20, "Paris"));
        assert_eq!(stack.coordinator.pending_count(), 20);
    }
}
