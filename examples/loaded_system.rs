//! The loaded-system scalability demonstration (paper, Section 3):
//! "we also demonstrate the scalability of our coordination algorithm
//! by allowing our examples to be run on a loaded system, where a large
//! number of entangled queries are trying to coordinate
//! simultaneously."
//!
//! The demo preloads N unmatchable pending queries, then measures how
//! long a fresh pair takes to coordinate on top of that standing load,
//! for the incremental indexed matcher and for the naive
//! subset-enumeration baseline.
//!
//! Run with: `cargo run --release --example loaded_system`

use std::time::Instant;

use youtopia::core::MatchConfig;
use youtopia::travel::{drive_batched, WorkloadGen};
use youtopia::{CoordinatorConfig, MatcherKind, ShardedConfig, ShardedCoordinator, Submission};

fn measure(matcher: MatcherKind, noise: usize, trials: usize) -> (f64, u64) {
    let mut gen = WorkloadGen::new(42);
    let db = gen
        .build_database(200, &["Paris", "Rome", "London"])
        .unwrap();
    // The workload is pairs, so a group-size bound of 3 is generous for
    // both matchers. Without a bound the naive baseline enumerates
    // ~2^pending subsets per *unmatched* arrival and never terminates —
    // which is itself the point of E7, but we want numbers on the page.
    let config = CoordinatorConfig {
        matcher,
        match_config: MatchConfig {
            max_group_size: 3,
            ..MatchConfig::default()
        },
        ..CoordinatorConfig::default()
    };
    let coordinator = ShardedCoordinator::single(db, config);

    // standing load: `noise` pending queries that never match
    for r in gen.noise(noise, "Paris") {
        let sub = coordinator.submit_sql(&r.owner, &r.sql).unwrap();
        assert!(matches!(sub, Submission::Pending(_)));
    }
    assert_eq!(coordinator.pending_count(), noise);

    // measured work: fresh pairs coordinate on top of the load, and
    // lonely queries arrive that match nobody (the common case on a
    // loaded system, and where the naive algorithm pays)
    let started = Instant::now();
    for t in 0..trials {
        let a = format!("probeA{t}");
        let b = format!("probeB{t}");
        let first = WorkloadGen::pair_request(&a, &b, "Paris");
        let second = WorkloadGen::pair_request(&b, &a, "Paris");
        let s1 = coordinator.submit_sql(&first.owner, &first.sql).unwrap();
        assert!(matches!(s1, Submission::Pending(_)));
        let s2 = coordinator.submit_sql(&second.owner, &second.sql).unwrap();
        assert!(
            matches!(s2, Submission::Answered(_)),
            "probe pair must match"
        );
        let lonely = WorkloadGen::pair_request(&format!("lone{t}"), "nobody", "Paris");
        let s3 = coordinator.submit_sql(&lonely.owner, &lonely.sql).unwrap();
        assert!(matches!(s3, Submission::Pending(_)));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let per_step_ms = elapsed * 1e3 / trials as f64;
    let work = coordinator.stats().match_work;
    (
        per_step_ms,
        work.candidates_considered + work.subsets_tested,
    )
}

/// The sharded variant: the same standing load, spread over four
/// relation families, probed through batched submission. The closing
/// arrival's match and cascade only scan the probe's own shard.
fn measure_sharded(noise: usize, trials: usize) -> f64 {
    const RELATIONS: usize = 4;
    let mut gen = WorkloadGen::new(42);
    let db = gen
        .build_database(200, &["Paris", "Rome", "London"])
        .unwrap();
    let coordinator = ShardedCoordinator::with_config(
        db,
        ShardedConfig {
            shards: 4,
            base: CoordinatorConfig {
                match_config: MatchConfig {
                    max_group_size: 3,
                    ..MatchConfig::default()
                },
                ..CoordinatorConfig::default()
            },
            ..Default::default()
        },
    );
    let standing = gen.noise_multi(noise, "Paris", RELATIONS);
    let report = drive_batched(&coordinator, &standing, 256);
    assert_eq!(report.pending, noise);

    let started = Instant::now();
    for t in 0..trials {
        let rel = format!("Reservation{}", t % RELATIONS);
        let a = format!("probeA{t}");
        let b = format!("probeB{t}");
        let batch = vec![
            WorkloadGen::pair_request_on(&rel, &a, &b, "Paris"),
            WorkloadGen::pair_request_on(&rel, &b, &a, "Paris"),
            WorkloadGen::pair_request_on(&rel, &format!("lone{t}"), "nobody", "Paris"),
        ];
        let report = drive_batched(&coordinator, &batch, batch.len());
        // within a batch the pair's first half reports Pending (its
        // notification arrives through the ticket); only the closing
        // half and the lonely arrival differ in outcome
        assert_eq!(report.answered, 1, "probe pair must match");
        assert_eq!(report.pending, 2);
    }
    started.elapsed().as_secs_f64() * 1e3 / trials as f64
}

fn main() {
    println!("Loaded-system experiment (E7): coordination latency vs standing load");
    println!("each step = one matched pair + one unmatched arrival");
    println!("(`work` counts candidate heads considered + subsets tested)\n");
    println!(
        "{:>8} | {:>22} | {:>22}",
        "pending", "indexed matcher", "naive baseline"
    );
    println!(
        "{:>8} | {:>10} {:>11} | {:>10} {:>11}",
        "", "ms/step", "work", "ms/step", "work"
    );
    println!("---------+------------------------+-----------------------");

    for &noise in &[0usize, 10, 50, 100, 500, 1000, 2000] {
        let trials = 10;
        let (indexed_ms, indexed_work) = measure(MatcherKind::Incremental, noise, trials);
        // the naive matcher's subset enumeration explodes; keep its load
        // bounded so the demo finishes (this asymmetry IS the result)
        let (naive_ms, naive_work) = if noise <= 500 {
            measure(MatcherKind::Naive, noise, trials)
        } else {
            (f64::NAN, 0)
        };
        if naive_ms.is_nan() {
            println!(
                "{noise:>8} | {indexed_ms:>10.3} {indexed_work:>11} | {:>10} {:>11}",
                "skipped", "-"
            );
        } else {
            println!(
                "{noise:>8} | {indexed_ms:>10.3} {indexed_work:>11} | {naive_ms:>10.3} {naive_work:>11}"
            );
        }
    }

    println!("\nSharded coordinator (4 shards, batched submission) on the same load:");
    println!("{:>8} | {:>10}", "pending", "ms/step");
    println!("---------+-----------");
    for &noise in &[0usize, 100, 500, 1000, 2000] {
        let sharded_ms = measure_sharded(noise, 10);
        println!("{noise:>8} | {sharded_ms:>10.3}");
    }

    println!(
        "\nShape check (matches the paper's scalability claim): the indexed matcher's \
         per-pair latency stays near-flat as pending queries grow, because the \
         constant-position index only surfaces the handful of heads naming the right \
         partner. The naive baseline re-enumerates subsets of the whole pending set \
         and falls off a cliff — and that is with its group-size bound already \
         lowered to 3; at the default bound of 16 it does not terminate at all."
    );
}
