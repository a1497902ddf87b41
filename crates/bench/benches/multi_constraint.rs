//! E3 — constraint complexity (§3.1 "Book a flight and a hotel with a
//! friend" generalized): latency of closing a pair whose queries carry
//! 1 + k answer constraints over 1 + k answer relations. The
//! flight+hotel scenario is k = 1.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use youtopia_core::{CoordinatorConfig, ShardedCoordinator, Submission};
use youtopia_travel::{Request, WorkloadGen};

fn staged(extra: usize) -> (ShardedCoordinator, Request) {
    let mut gen = WorkloadGen::new(19);
    let db = gen.build_database(100, &["Paris"]).unwrap();
    let coordinator = ShardedCoordinator::single(db, CoordinatorConfig::default());
    let first = WorkloadGen::pair_with_constraint_count("a", "b", "Paris", extra);
    let closing = WorkloadGen::pair_with_constraint_count("b", "a", "Paris", extra);
    let sub = coordinator.submit_sql(&first.owner, &first.sql).unwrap();
    assert!(matches!(sub, Submission::Pending(_)));
    (coordinator, closing)
}

fn bench_multi_constraint(c: &mut Criterion) {
    let mut group = c.benchmark_group("constraints_per_query_close_latency");
    group.sample_size(10);
    for &extra in &[0usize, 1, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(1 + extra),
            &extra,
            |b, &extra| {
                b.iter_batched(
                    || staged(extra),
                    |(coordinator, closing)| {
                        let sub = coordinator
                            .submit_sql(&closing.owner, &closing.sql)
                            .unwrap();
                        assert!(matches!(sub, Submission::Answered(_)));
                        coordinator // dropped outside the measurement
                    },
                    BatchSize::PerIteration,
                );
            },
        );
    }
    group.finish();

    // the concrete paper scenario: flight+hotel pair vs flight-only pair
    let mut scenario = c.benchmark_group("flight_hotel_vs_flight_only");
    scenario.sample_size(10);
    scenario.bench_function("flight_only", |b| {
        b.iter_batched(
            || {
                let mut gen = WorkloadGen::new(23);
                let db = gen.build_database(100, &["Paris"]).unwrap();
                let coordinator = ShardedCoordinator::single(db, CoordinatorConfig::default());
                let first = WorkloadGen::pair_request("a", "b", "Paris");
                coordinator.submit_sql(&first.owner, &first.sql).unwrap();
                (coordinator, WorkloadGen::pair_request("b", "a", "Paris"))
            },
            |(coordinator, closing)| {
                let sub = coordinator
                    .submit_sql(&closing.owner, &closing.sql)
                    .unwrap();
                assert!(matches!(sub, Submission::Answered(_)));
                coordinator // dropped outside the measurement
            },
            BatchSize::PerIteration,
        );
    });
    scenario.bench_function("flight_and_hotel", |b| {
        b.iter_batched(
            || {
                let mut gen = WorkloadGen::new(23);
                let db = gen.build_database(100, &["Paris"]).unwrap();
                let coordinator = ShardedCoordinator::single(db, CoordinatorConfig::default());
                let first = WorkloadGen::pair_flight_hotel("a", "b", "Paris");
                coordinator.submit_sql(&first.owner, &first.sql).unwrap();
                (
                    coordinator,
                    WorkloadGen::pair_flight_hotel("b", "a", "Paris"),
                )
            },
            |(coordinator, closing)| {
                let sub = coordinator
                    .submit_sql(&closing.owner, &closing.sql)
                    .unwrap();
                assert!(matches!(sub, Submission::Answered(_)));
                coordinator // dropped outside the measurement
            },
            BatchSize::PerIteration,
        );
    });
    scenario.finish();
}

criterion_group!(benches, bench_multi_constraint);
criterion_main!(benches);
