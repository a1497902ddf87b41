//! E10 — ablation of the matcher's design choices (see
//! `docs/matching.md`):
//!
//! 1. constant-position indexing of pending heads (registry);
//! 2. forward checking (σ-sharpened candidate lookup + fail-first
//!    grounding order).
//!
//! Measured as pair-close latency on top of 200 standing pending
//! queries, across the four on/off combinations.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use youtopia_bench::preload_noise;
use youtopia_core::{CoordinatorConfig, MatchConfig, ShardedCoordinator, Submission};
use youtopia_travel::{Request, WorkloadGen};

fn staged(
    use_const_index: bool,
    forward_checking: bool,
    noise: usize,
) -> (ShardedCoordinator, Request) {
    let mut gen = WorkloadGen::new(29);
    let db = gen.build_database(200, &["Paris"]).unwrap();
    let config = CoordinatorConfig {
        use_const_index,
        match_config: MatchConfig {
            forward_checking,
            ..MatchConfig::default()
        },
        ..CoordinatorConfig::default()
    };
    let coordinator = ShardedCoordinator::single(db, config);
    preload_noise(&coordinator, &gen.noise(noise, "Paris"));
    let first = WorkloadGen::pair_request("probeA", "probeB", "Paris");
    coordinator.submit_sql(&first.owner, &first.sql).unwrap();
    (
        coordinator,
        WorkloadGen::pair_request("probeB", "probeA", "Paris"),
    )
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher_ablation_200_pending");
    group.sample_size(10);
    let variants: &[(&str, bool, bool)] = &[
        ("index_on_fc_on", true, true),
        ("index_off_fc_on", false, true),
        ("index_on_fc_off", true, false),
        ("index_off_fc_off", false, false),
    ];
    for &(name, idx, fc) in variants {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(idx, fc),
            |b, &(idx, fc)| {
                b.iter_batched(
                    || staged(idx, fc, 200),
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
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
