//! E4 — "Multiple simultaneous bookings" (§3.1): throughput of p pairs
//! of users concurrently coordinating flight reservations. Measures
//! end-to-end submissions (parse → compile → register → match → apply)
//! per second.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use youtopia_bench::submit_all;
use youtopia_core::{CoordinatorConfig, ShardedCoordinator};
use youtopia_travel::{Request, WorkloadGen};

fn prepared(pairs: usize) -> (ShardedCoordinator, Vec<Request>) {
    let mut gen = WorkloadGen::new(17);
    let db = gen.build_database(100, &["Paris"]).unwrap();
    let coordinator = ShardedCoordinator::single(db, CoordinatorConfig::default());
    let requests = gen.pair_storm(pairs, "Paris");
    (coordinator, requests)
}

fn bench_simultaneous_pairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("simultaneous_pairs_throughput");
    group.sample_size(10);
    for &pairs in &[10usize, 50, 100, 200] {
        group.throughput(Throughput::Elements(2 * pairs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |b, &pairs| {
            b.iter_batched(
                || prepared(pairs),
                |(coordinator, requests)| {
                    let (answered, pending) = submit_all(&coordinator, &requests);
                    assert_eq!(answered, pairs);
                    assert_eq!(pending, pairs);
                    assert_eq!(coordinator.pending_count(), 0, "no cross-pair mismatches");
                    coordinator // dropped outside the measurement
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simultaneous_pairs);
criterion_main!(benches);
