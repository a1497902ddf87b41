//! Equivalence property: with `randomize` off and a fixed seed, the
//! sharded coordinator (4 shards, batch draining) produces the
//! **identical** set of coordination outcomes — group members *and*
//! answer tuples — as the serial single-mutex coordinator, on
//! randomized travel workloads.
//!
//! Why this should hold exactly: ids are allocated in submission order
//! in both modes; a batch drain processes each shard's bucket
//! arrival-by-arrival, which is precisely the serial algorithm
//! restricted to that shard; and queries on different shards can never
//! interact (disjoint answer relations, so neither pending heads nor
//! committed answers cross over). With randomization disabled the
//! matcher is deterministic, so the per-shard runs reproduce the serial
//! ones verbatim.

use proptest::prelude::*;

use youtopia::core::MatchConfig;
use youtopia::{
    run_sql, CoordinatorConfig, Database, MatchNotification, ShardedConfig, ShardedCoordinator,
    Submission,
};

/// One generated workload: pair requests `(me, friend, relation, dest)`
/// over small pools, so coordinations actually fire and relations form
/// several independent components.
#[derive(Debug, Clone)]
struct Workload {
    requests: Vec<(String, String, String, String)>,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let relation = prop_oneof![Just("Res0"), Just("Res1"), Just("Res2"), Just("Res3")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    proptest::collection::vec((name.clone(), name, relation, dest), 1..14).prop_map(|reqs| {
        Workload {
            requests: reqs
                .into_iter()
                .map(|(a, b, r, d)| (a.to_string(), b.to_string(), r.to_string(), d.to_string()))
                .collect(),
        }
    })
}

fn scenario_db() -> Database {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(
        &db,
        "INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris'), (3, 'Rome')",
    )
    .unwrap();
    db
}

fn pair_sql(me: &str, friend: &str, relation: &str, dest: &str) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER {relation} \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
         AND ('{friend}', fno) IN ANSWER {relation} CHOOSE 1"
    )
}

fn config(seed: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        match_config: MatchConfig {
            randomize: false,
            ..MatchConfig::default()
        },
        seed,
        ..CoordinatorConfig::default()
    }
}

/// Canonical, comparable form of one query's coordination outcome:
/// `(qid, sorted group ids, answers)`.
type Outcome = (u64, Vec<u64>, Vec<(String, Vec<String>)>);

fn canonical(n: &MatchNotification) -> Outcome {
    let mut group: Vec<u64> = n.group.iter().map(|q| q.0).collect();
    group.sort_unstable();
    let answers = n
        .answers
        .iter()
        .map(|(rel, tuple)| {
            (
                rel.clone(),
                tuple.values().iter().map(|v| format!("{v:?}")).collect(),
            )
        })
        .collect();
    (n.id.0, group, answers)
}

/// Runs the workload through the serial coordinator, collecting every
/// notification (immediate or delivered through a ticket) plus the
/// still-pending ids.
fn run_serial(w: &Workload, seed: u64) -> (Vec<Outcome>, Vec<u64>) {
    let co = ShardedCoordinator::single(scenario_db(), config(seed));
    let mut tickets = Vec::new();
    let mut outcomes = Vec::new();
    for (me, friend, rel, dest) in &w.requests {
        match co.submit_sql(me, &pair_sql(me, friend, rel, dest)).unwrap() {
            Submission::Answered(n) => outcomes.push(canonical(&n)),
            Submission::Pending(t) => tickets.push(t),
        }
    }
    let mut pending = Vec::new();
    for t in tickets {
        match t.receiver.try_recv() {
            Ok(n) => outcomes.push(canonical(&n)),
            Err(_) => pending.push(t.id.0),
        }
    }
    outcomes.sort();
    pending.sort_unstable();
    (outcomes, pending)
}

/// Runs the workload through the sharded coordinator as one batch.
fn run_sharded(w: &Workload, seed: u64, shards: usize) -> (Vec<Outcome>, Vec<u64>) {
    let co = ShardedCoordinator::with_config(
        scenario_db(),
        ShardedConfig {
            shards,
            workers: 4,
            auto_checkpoint_bytes: 0,
            fair_drain: false,
            checkpoint: Default::default(),
            base: config(seed),
        },
    );
    let batch: Vec<(String, String)> = w
        .requests
        .iter()
        .map(|(me, friend, rel, dest)| (me.clone(), pair_sql(me, friend, rel, dest)))
        .collect();
    let mut tickets = Vec::new();
    let mut outcomes = Vec::new();
    for outcome in co.submit_batch_sql(&batch) {
        match outcome.expect("generated queries are safe") {
            Submission::Answered(n) => outcomes.push(canonical(&n)),
            Submission::Pending(t) => tickets.push(t),
        }
    }
    let mut pending = Vec::new();
    for t in tickets {
        match t.receiver.try_recv() {
            Ok(n) => outcomes.push(canonical(&n)),
            Err(_) => pending.push(t.id.0),
        }
    }
    co.check_routing_invariants()
        .expect("routing invariants hold");
    outcomes.sort();
    pending.sort_unstable();
    (outcomes, pending)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The acceptance property of the sharding PR: sharded (N=4) and
    /// serial coordinators yield identical matches — same answered
    /// queries, same groups, same answer tuples — and identical
    /// pending sets, under a fixed seed with randomization disabled.
    #[test]
    fn sharded_equals_serial(workload in arb_workload(), seed in 0u64..1000) {
        let (serial_outcomes, serial_pending) = run_serial(&workload, seed);
        let (sharded_outcomes, sharded_pending) = run_sharded(&workload, seed, 4);
        prop_assert_eq!(
            &serial_outcomes,
            &sharded_outcomes,
            "matches diverged on {:?}",
            &workload
        );
        prop_assert_eq!(
            &serial_pending,
            &sharded_pending,
            "pending sets diverged on {:?}",
            &workload
        );
    }

    /// The same equivalence with a degenerate single shard — the
    /// sharded machinery with N=1 *is* the serial algorithm.
    #[test]
    fn single_shard_equals_serial(workload in arb_workload(), seed in 0u64..200) {
        let (serial_outcomes, serial_pending) = run_serial(&workload, seed);
        let (sharded_outcomes, sharded_pending) = run_sharded(&workload, seed, 1);
        prop_assert_eq!(&serial_outcomes, &sharded_outcomes);
        prop_assert_eq!(&serial_pending, &sharded_pending);
    }
}
