//! Equivalence property (acceptance criterion of the async-submission
//! PR): under a fixed seed with randomization disabled, driving a
//! workload through `submit_async` + a [`WaiterSet`] yields the
//! **identical** set of coordination outcomes — group members *and*
//! answer tuples — and the identical pending set as the sync `submit`
//! path, on both the serial and the sharded (batch-draining)
//! coordinator. Same discipline as `prop_shard_equivalence.rs`.
//!
//! Why this should hold exactly: the async path shares every stage of
//! the sync path — id allocation, logging, routing, arrival-driven
//! matching — and differs only in *how a pending query's completion is
//! delivered* (a parked waker instead of a blocking channel). With
//! randomization off the matcher is deterministic, so the only way the
//! property can fail is a bug in the waiter lifecycle itself: a waker
//! lost by a migration, a completion delivered twice, or a future left
//! pending past its terminal event.

use proptest::prelude::*;

use youtopia::core::{MatchConfig, SubmitOptions};
use youtopia::{
    compile_sql, run_sql, CoordinationOutcome, CoordinatorConfig, Database, MatchNotification,
    ShardedConfig, ShardedCoordinator, Submission, WaiterSet,
};

/// One generated workload: pair requests `(me, friend, relation,
/// dest, deadline)` over small pools — so coordinations actually fire
/// and relations form several independent components — plus the
/// mock-clock instant `sweep_at` of the `expire_due` sweep every run
/// performs after its submissions (deadline-lifecycle PR: random
/// deadlines are mixed into the equivalence workload).
#[derive(Debug, Clone)]
struct Workload {
    requests: Vec<(String, String, String, String, Option<u64>)>,
    sweep_at: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let relation = prop_oneof![Just("Res0"), Just("Res1"), Just("Res2"), Just("Res3")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    let deadline = (any::<bool>(), 1u64..100).prop_map(|(some, d)| some.then_some(d));
    (
        proptest::collection::vec((name.clone(), name, relation, dest, deadline), 1..14),
        0u64..150,
    )
        .prop_map(|(reqs, sweep_at)| Workload {
            requests: reqs
                .into_iter()
                .map(|(a, b, r, d, dl)| {
                    (
                        a.to_string(),
                        b.to_string(),
                        r.to_string(),
                        d.to_string(),
                        dl,
                    )
                })
                .collect(),
            sweep_at,
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

/// Canonical result of one run: sorted answered outcomes, sorted
/// expired ids, sorted still-pending ids.
type RunResult = (Vec<Outcome>, Vec<u64>, Vec<u64>);

fn opts_of(deadline: &Option<u64>) -> SubmitOptions {
    SubmitOptions {
        deadline: *deadline,
    }
}

/// The still-pending ids straight from the registry (tickets cannot
/// distinguish "pending" from "expired" — both leave the channel
/// empty, but an expired ticket's sender is gone).
fn pending_ids(snapshot: Vec<youtopia::core::PendingInfo>) -> Vec<u64> {
    let mut ids: Vec<u64> = snapshot.into_iter().map(|p| p.id.0).collect();
    ids.sort_unstable();
    ids
}

/// Runs the workload through the serial coordinator's sync path:
/// submissions (deadlines attached), then the `expire_due` sweep,
/// then notification collection.
fn run_serial_sync(w: &Workload, seed: u64) -> RunResult {
    let co = ShardedCoordinator::single(scenario_db(), config(seed));
    let mut tickets = Vec::new();
    let mut outcomes = Vec::new();
    for (me, friend, rel, dest, deadline) in &w.requests {
        match co
            .submit_sql_with(me, &pair_sql(me, friend, rel, dest), opts_of(deadline))
            .unwrap()
        {
            Submission::Answered(n) => outcomes.push(canonical(&n)),
            Submission::Pending(t) => tickets.push(t),
        }
    }
    let mut expired: Vec<u64> = co.expire_due(w.sweep_at).iter().map(|q| q.0).collect();
    for t in tickets {
        if let Ok(n) = t.receiver.try_recv() {
            outcomes.push(canonical(&n));
        }
    }
    outcomes.sort();
    expired.sort_unstable();
    (outcomes, expired, pending_ids(co.pending_snapshot()))
}

/// Harvests a [`WaiterSet`] to quiescence and splits the result into
/// canonical answered outcomes, the expired ids, and the still-pending
/// id set. Every future whose query terminated must resolve here — a
/// future still in the set *is* the async pending set.
fn harvest(mut set: WaiterSet) -> (Vec<Outcome>, Vec<u64>, Vec<u64>) {
    // completions fire synchronously inside the submit/sweep calls
    // (wakers run under the shard lock), so one non-blocking poll
    // harvests everything that will ever resolve
    let mut outcomes = Vec::new();
    let mut expired = Vec::new();
    for (qid, outcome) in set.poll_ready() {
        match outcome {
            CoordinationOutcome::Answered(n) => {
                assert_eq!(n.id, qid, "notification delivered to its own future");
                outcomes.push(canonical(&n));
            }
            CoordinationOutcome::Expired => expired.push(qid.0),
            other => panic!("workload never cancels, got {other:?} for {qid}"),
        }
    }
    expired.sort_unstable();
    let pending = set.ids().into_iter().map(|q| q.0).collect();
    (outcomes, expired, pending)
}

/// Runs the workload through the serial coordinator's async path: every
/// submission becomes a future held in one [`WaiterSet`]; the sweep
/// resolves due futures with `Expired`.
fn run_serial_async(w: &Workload, seed: u64) -> RunResult {
    let co = ShardedCoordinator::single(scenario_db(), config(seed));
    let mut set = WaiterSet::new();
    for (me, friend, rel, dest, deadline) in &w.requests {
        let future = co
            .submit_sql_async_with(me, &pair_sql(me, friend, rel, dest), opts_of(deadline))
            .unwrap();
        set.insert(future);
    }
    co.expire_due(w.sweep_at);
    let (mut outcomes, expired, pending) = harvest(set);
    outcomes.sort();
    assert_eq!(pending, pending_ids(co.pending_snapshot()));
    (outcomes, expired, pending)
}

/// The workload as the sharded coordinator's options-carrying batch.
fn sharded_batch(
    w: &Workload,
) -> Vec<(
    String,
    youtopia::core::CoreResult<youtopia::core::EntangledQuery>,
    SubmitOptions,
)> {
    w.requests
        .iter()
        .map(|(me, friend, rel, dest, deadline)| {
            (
                me.clone(),
                compile_sql(&pair_sql(me, friend, rel, dest)),
                opts_of(deadline),
            )
        })
        .collect()
}

/// Runs the workload through the sharded coordinator's sync batch path.
fn run_sharded_sync(w: &Workload, seed: u64, shards: usize) -> RunResult {
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
    let mut tickets = Vec::new();
    let mut outcomes = Vec::new();
    for outcome in co.submit_batch_with(sharded_batch(w)) {
        match outcome.expect("generated queries are safe") {
            Submission::Answered(n) => outcomes.push(canonical(&n)),
            Submission::Pending(t) => tickets.push(t),
        }
    }
    let mut expired: Vec<u64> = co.expire_due(w.sweep_at).iter().map(|q| q.0).collect();
    for t in tickets {
        if let Ok(n) = t.receiver.try_recv() {
            outcomes.push(canonical(&n));
        }
    }
    outcomes.sort();
    expired.sort_unstable();
    (outcomes, expired, pending_ids(co.pending_snapshot()))
}

/// Runs the workload through the sharded coordinator's async batch
/// path, all futures driven by one [`WaiterSet`].
fn run_sharded_async(w: &Workload, seed: u64, shards: usize) -> RunResult {
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
    let mut set = WaiterSet::new();
    for outcome in co.submit_batch_async_with(sharded_batch(w)) {
        set.insert(outcome.expect("generated queries are safe"));
    }
    co.expire_due(w.sweep_at);
    co.check_routing_invariants()
        .expect("routing invariants hold");
    let (mut outcomes, expired, pending) = harvest(set);
    outcomes.sort();
    assert_eq!(pending, pending_ids(co.pending_snapshot()));
    (outcomes, expired, pending)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The acceptance property of the async-submission PR, now with
    /// random deadlines mixed into the workload: the async path
    /// (`submit_async` + `WaiterSet`) yields identical matches — same
    /// answered queries, same groups, same answer tuples — the same
    /// expired set after the `expire_due` sweep, and an identical
    /// pending set as the sync `submit` path, on the serial
    /// coordinator.
    #[test]
    fn serial_async_equals_sync(workload in arb_workload(), seed in 0u64..1000) {
        let (sync_outcomes, sync_expired, sync_pending) = run_serial_sync(&workload, seed);
        let (async_outcomes, async_expired, async_pending) = run_serial_async(&workload, seed);
        prop_assert_eq!(
            &sync_outcomes,
            &async_outcomes,
            "matches diverged on {:?}",
            &workload
        );
        prop_assert_eq!(
            &sync_expired,
            &async_expired,
            "expired sets diverged on {:?}",
            &workload
        );
        prop_assert_eq!(
            &sync_pending,
            &async_pending,
            "pending sets diverged on {:?}",
            &workload
        );
    }

    /// The same equivalence through the sharded coordinator's batch
    /// drain (4 shards): async batch submission == sync batch
    /// submission == (by `prop_shard_equivalence`) the serial path —
    /// deadlines and the expiry sweep included.
    #[test]
    fn sharded_async_equals_sync(workload in arb_workload(), seed in 0u64..1000) {
        let (sync_outcomes, sync_expired, sync_pending) = run_sharded_sync(&workload, seed, 4);
        let (async_outcomes, async_expired, async_pending) =
            run_sharded_async(&workload, seed, 4);
        prop_assert_eq!(
            &sync_outcomes,
            &async_outcomes,
            "matches diverged on {:?}",
            &workload
        );
        prop_assert_eq!(
            &sync_expired,
            &async_expired,
            "expired sets diverged on {:?}",
            &workload
        );
        prop_assert_eq!(
            &sync_pending,
            &async_pending,
            "pending sets diverged on {:?}",
            &workload
        );
    }
}
