//! E5 — group booking scalability (§3.1 "Group flight booking"):
//! latency of the group-closing submission as the group size grows.
//! Each member's query carries n-1 answer constraints naming every
//! other member, so both the structural search and the grounding grow
//! with n.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use youtopia_core::{CoordinatorConfig, ShardedCoordinator, Submission};
use youtopia_travel::{Request, WorkloadGen};

/// ShardedCoordinator with a group of `size` submitted except for its last
/// member; returns the closing request.
fn staged_group(size: usize) -> (ShardedCoordinator, Request) {
    let mut gen = WorkloadGen::new(13);
    let db = gen.build_database(100, &["Paris"]).unwrap();
    let coordinator = ShardedCoordinator::single(db, CoordinatorConfig::default());
    let mut requests = gen.group(0, size, "Paris");
    let closing = requests.pop().expect("non-empty group");
    for r in &requests {
        let sub = coordinator.submit_sql(&r.owner, &r.sql).unwrap();
        assert!(
            matches!(sub, Submission::Pending(_)),
            "group must stay open"
        );
    }
    (coordinator, closing)
}

fn bench_group_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_size_close_latency");
    group.sample_size(10);
    for &size in &[2usize, 3, 4, 6, 8, 12, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter_batched(
                || staged_group(size),
                |(coordinator, closing)| {
                    let sub = coordinator
                        .submit_sql(&closing.owner, &closing.sql)
                        .unwrap();
                    assert!(
                        matches!(sub, Submission::Answered(_)),
                        "last member closes the group"
                    );
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_group_size);
criterion_main!(benches);
