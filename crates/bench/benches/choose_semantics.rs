//! E9 — `CHOOSE 1` semantics (§2.1): the cost of the nondeterministic
//! choice as the eligible domain grows. A self-contained entangled
//! query picks one of N eligible flights; the grounding phase's
//! randomized row selection implements the paper's "the system
//! nondeterministically chooses either flight 122 or 123".
//!
//! (The *distribution* of choices is validated by the integration test
//! `tests/choose_nondeterminism.rs`; a bench measures only cost.)

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use youtopia_core::{CoordinatorConfig, ShardedCoordinator, Submission};
use youtopia_travel::WorkloadGen;

fn bench_choose(c: &mut Criterion) {
    let mut group = c.benchmark_group("choose_one_domain_size");
    group.sample_size(10);
    for &n_flights in &[10usize, 100, 1000, 5000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(n_flights),
            &n_flights,
            |b, &n| {
                b.iter_batched(
                    || {
                        let mut gen = WorkloadGen::new(31);
                        let db = gen.build_database(n, &["Paris"]).unwrap();
                        ShardedCoordinator::single(db, CoordinatorConfig::default())
                    },
                    |coordinator| {
                        let sub = coordinator
                            .submit_sql(
                                "solo",
                                "SELECT 'solo', fno INTO ANSWER Reservation \
                                 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
                                 CHOOSE 1",
                            )
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

    // pair coordination over growing shared domains: the grounding must
    // agree on one of N flights
    let mut pair = c.benchmark_group("choose_one_pair_domain_size");
    pair.sample_size(10);
    for &n_flights in &[10usize, 100, 1000] {
        pair.bench_with_input(
            BenchmarkId::from_parameter(n_flights),
            &n_flights,
            |b, &n| {
                b.iter_batched(
                    || {
                        let mut gen = WorkloadGen::new(37);
                        let db = gen.build_database(n, &["Paris"]).unwrap();
                        let coordinator =
                            ShardedCoordinator::single(db, CoordinatorConfig::default());
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
            },
        );
    }
    pair.finish();
}

criterion_group!(benches, bench_choose);
criterion_main!(benches);
