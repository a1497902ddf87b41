//! Edge cases of the coordination machinery that the demo scenarios do
//! not reach: self-satisfying queries, variable partner names,
//! mixed-arity relations, cancellation races, membership errors, and
//! group-size boundary behaviour.

use youtopia_core::{
    CoordinatorConfig, CoreError, MatchConfig, MatcherKind, ShardedCoordinator, Submission,
};
use youtopia_exec::run_sql;
use youtopia_storage::{Database, Value};

fn flights_db() -> Database {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(
        &db,
        "INSERT INTO Flights VALUES (1,'Paris'), (2,'Paris'), (3,'Rome')",
    )
    .unwrap();
    db
}

#[test]
fn a_query_can_satisfy_its_own_constraint() {
    // The constraint names the submitter itself: a singleton group where
    // the query's own head satisfies its postcondition.
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    let sub = co
        .submit_sql(
            "a",
            "SELECT 'A', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('A', fno) IN ANSWER R CHOOSE 1",
        )
        .unwrap();
    let n = sub.answered().expect("self-satisfying query answers alone");
    assert_eq!(n.group.len(), 1);
}

#[test]
fn variable_partner_name_matches_anyone() {
    // "I'll take whatever flight anyone else books" — the partner name
    // position is a variable; unification binds it to Jerry.
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    co.submit_sql(
        "jerry",
        "SELECT 'Jerry', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND (who, fno) IN ANSWER R CHOOSE 1",
    )
    .unwrap();
    // Jerry's own head satisfies `(who, fno)` by self-unification
    // (who = 'Jerry'), so he is answered alone. Check the relaxed-safety
    // waiting variant instead: whoever arrives next coordinates.
    assert_eq!(co.pending_count(), 0);

    let co2 = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    // the follower has no membership; it rides on the leader's choice
    let follower = co2
        .submit_sql(
            "follower",
            "SELECT 'Follower', fno INTO ANSWER R \
             WHERE (leader, fno) IN ANSWER R AND leader <> 'Follower' CHOOSE 1",
        )
        .unwrap();
    let Submission::Pending(follower_ticket) = follower else {
        panic!("nobody to follow yet")
    };
    let leader = co2
        .submit_sql(
            "leader",
            "SELECT 'Leader', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1",
        )
        .unwrap();
    // the leader is self-contained and answers alone...
    let n = leader.answered().expect("leader answers immediately");
    assert_eq!(n.group.len(), 1);
    // ...and the *cascade* then answers the follower against the
    // leader's freshly committed tuple (the system-wide answer relation)
    let fn_ = follower_ticket
        .receiver
        .try_recv()
        .expect("follower answered by the cascade");
    assert_eq!(fn_.answers[0].1.values()[1], Value::Int(3));
    let answers = co2.answers("R");
    assert_eq!(answers.len(), 2);
    for t in &answers {
        assert_eq!(
            t.values()[1],
            Value::Int(3),
            "both on the leader's Rome flight"
        );
    }
    assert_eq!(co2.pending_count(), 0);
}

#[test]
fn filter_on_unified_variables_prunes_partners() {
    // "a different flight than my rival": negative correlation through
    // a filter over both queries' variables.
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    co.submit_sql(
        "a",
        "SELECT 'A', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') CHOOSE 1",
    )
    .unwrap();
    // B wants a Paris flight that is NOT the one A got... but A is
    // already answered, so B references the answer relation of a new
    // coordination. Use a live pair instead: B and C must differ.
    let b = co
        .submit_sql(
            "b",
            "SELECT 'B', bf INTO ANSWER R \
             WHERE bf IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('C', cf) IN ANSWER R AND bf <> cf CHOOSE 1",
        )
        .unwrap();
    assert!(matches!(b, Submission::Pending(_)));
    let c = co
        .submit_sql(
            "c",
            "SELECT 'C', cf INTO ANSWER R \
             WHERE cf IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('B', bf) IN ANSWER R AND bf <> cf CHOOSE 1",
        )
        .unwrap();
    let n = c
        .answered()
        .expect("the pair with distinct flights matches");
    assert_eq!(n.group.len(), 2);
    let answers = co.answers("R");
    let b_fno = answers
        .iter()
        .find(|t| t.values()[0].as_str() == Some("B"))
        .unwrap();
    let c_fno = answers
        .iter()
        .find(|t| t.values()[0].as_str() == Some("C"))
        .unwrap();
    assert_ne!(b_fno.values()[1], c_fno.values()[1], "bf <> cf enforced");
}

#[test]
fn arity_mismatch_on_the_same_relation_never_unifies() {
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    co.submit_sql(
        "two",
        "SELECT 'T', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights) \
         AND ('X', fno, fno) IN ANSWER R CHOOSE 1",
    )
    .unwrap();
    let sub = co
        .submit_sql(
            "three",
            "SELECT 'X', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
        )
        .unwrap();
    // the 2-ary head cannot satisfy the 3-ary constraint; the singleton
    // still answers itself
    let n = sub.answered().unwrap();
    assert_eq!(n.group.len(), 1);
    assert_eq!(co.pending_count(), 1, "the 3-ary requester keeps waiting");
}

#[test]
fn membership_subquery_errors_surface_cleanly() {
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    // unknown table inside the membership: compile succeeds (the parser
    // cannot know), matching surfaces the executor error
    let err = co
        .submit_sql(
            "a",
            "SELECT 'A', x INTO ANSWER R \
             WHERE x IN (SELECT y FROM NoSuchTable) CHOOSE 1",
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::Exec(_)), "{err:?}");
}

#[test]
fn membership_arity_mismatch_is_reported() {
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    let err = co
        .submit_sql(
            "a",
            "SELECT 'A', x INTO ANSWER R \
             WHERE (x, x) IN (SELECT fno FROM Flights) CHOOSE 1",
        )
        .unwrap_err();
    assert!(
        matches!(&err, CoreError::Compile(msg) if msg.contains("2 terms")),
        "{err:?}"
    );
}

#[test]
fn cancelled_query_cannot_be_matched_later() {
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    let pair = |me: &str, friend: &str| {
        format!(
            "SELECT '{me}', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('{friend}', fno) IN ANSWER R CHOOSE 1"
        )
    };
    let a = co.submit_sql("a", &pair("A", "B")).unwrap();
    co.cancel(a.id()).unwrap();
    let b = co.submit_sql("b", &pair("B", "A")).unwrap();
    assert!(matches!(b, Submission::Pending(_)), "partner was cancelled");
    // resubmitting A revives the coordination
    let a2 = co.submit_sql("a", &pair("A", "B")).unwrap();
    assert!(a2.answered().is_some());
}

#[test]
fn group_size_exactly_at_the_bound_matches() {
    let db = flights_db();
    let config = CoordinatorConfig {
        match_config: MatchConfig {
            max_group_size: 3,
            randomize: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let co = ShardedCoordinator::single(db, config);
    let names = ["A", "B", "C"];
    for (i, me) in names.iter().enumerate() {
        let next = names[(i + 1) % 3];
        let sub = co
            .submit_sql(
                me,
                &format!(
                    "SELECT '{me}', fno INTO ANSWER R \
                     WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
                     AND ('{next}', fno) IN ANSWER R CHOOSE 1"
                ),
            )
            .unwrap();
        if i == 2 {
            assert!(
                sub.answered().is_some(),
                "ring of exactly max_group_size closes"
            );
        }
    }
}

#[test]
fn duplicate_queries_all_complete_via_cascade() {
    // Two copies of A's request wait; B's arrival matches one copy
    // live, and the cascade answers the second copy against the
    // committed ('B', f) tuple — everyone ends up coordinated.
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    let pair = |me: &str, friend: &str| {
        format!(
            "SELECT '{me}', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('{friend}', fno) IN ANSWER R CHOOSE 1"
        )
    };
    co.submit_sql("a", &pair("A", "B")).unwrap();
    co.submit_sql("a", &pair("A", "B")).unwrap();
    let first = co.submit_sql("b", &pair("B", "A")).unwrap();
    assert!(first.answered().is_some());
    assert_eq!(
        co.pending_count(),
        0,
        "the cascade answered the second copy too"
    );
    assert_eq!(co.answers("R").len(), 3);
}

#[test]
fn duplicate_queries_pair_disjointly_without_committed_matching() {
    // With the system-wide reading disabled, constraints are satisfied
    // only by live pending queries: two disjoint pairs must form.
    let config = CoordinatorConfig {
        match_config: MatchConfig {
            use_committed_answers: false,
            ..MatchConfig::default()
        },
        ..Default::default()
    };
    let co = ShardedCoordinator::single(flights_db(), config);
    let pair = |me: &str, friend: &str| {
        format!(
            "SELECT '{me}', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('{friend}', fno) IN ANSWER R CHOOSE 1"
        )
    };
    co.submit_sql("a", &pair("A", "B")).unwrap();
    co.submit_sql("a", &pair("A", "B")).unwrap();
    let first = co.submit_sql("b", &pair("B", "A")).unwrap();
    assert!(first.answered().is_some());
    assert_eq!(co.pending_count(), 1, "one copy of A still waits");
    let second = co.submit_sql("b", &pair("B", "A")).unwrap();
    assert!(second.answered().is_some());
    assert_eq!(co.pending_count(), 0);
    assert_eq!(co.answers("R").len(), 4);
}

#[test]
fn committed_answers_satisfy_later_constraints_directly() {
    // Kramer books first (self-contained); Jerry's later "same flight
    // as Kramer" request is answered immediately against Kramer's
    // committed reservation — the paper's first demo flow.
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    let kramer = co
        .submit_sql(
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') CHOOSE 1",
        )
        .unwrap()
        .answered()
        .unwrap();
    let kramer_fno = kramer.answers[0].1.values()[1].clone();

    let jerry = co
        .submit_sql(
            "jerry",
            "SELECT 'Jerry', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('Kramer', fno) IN ANSWER R CHOOSE 1",
        )
        .unwrap()
        .answered()
        .expect("committed answer satisfies jerry's postcondition");
    assert_eq!(jerry.group.len(), 1, "no live partner needed");
    assert_eq!(jerry.answers[0].1.values()[1], kramer_fno);
}

#[test]
fn cascade_chains_through_multiple_rounds() {
    // follower2 waits on follower1, follower1 waits on the leader. The
    // leader's single submission must unlock both, transitively, in one
    // cascade: leader commits -> follower1 matches committed tuple ->
    // follower1 commits -> follower2 matches.
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    let f2 = co
        .submit_sql(
            "f2",
            "SELECT 'F2', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('F1', fno) IN ANSWER R CHOOSE 1",
        )
        .unwrap();
    let Submission::Pending(t2) = f2 else {
        panic!()
    };
    let f1 = co
        .submit_sql(
            "f1",
            "SELECT 'F1', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('Leader', fno) IN ANSWER R CHOOSE 1",
        )
        .unwrap();
    let Submission::Pending(t1) = f1 else {
        panic!()
    };

    // {f1, f2} alone is not closed: f1's constraint still needs a
    // Leader head, so both remain pending.
    assert_eq!(co.pending_count(), 2);

    let leader = co
        .submit_sql(
            "leader",
            "SELECT 'Leader', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE fno = 1) CHOOSE 1",
        )
        .unwrap();
    assert!(leader.answered().is_some());

    // The leader's arrival may answer it alone (it is self-contained)
    // or pull f1/f2 into a live group; either way the cascade must
    // leave nobody pending and everyone on the leader's flight.
    let n1 = t1.receiver.try_recv().expect("f1 answered");
    let n2 = t2
        .receiver
        .try_recv()
        .expect("f2 answered via the second cascade round");
    assert_eq!(n1.answers[0].1.values()[1], youtopia_storage::Value::Int(1));
    assert_eq!(n2.answers[0].1.values()[1], youtopia_storage::Value::Int(1));
    assert_eq!(co.pending_count(), 0);
    assert_eq!(co.answers("R").len(), 3);
}

#[test]
fn negative_constraints_see_committed_answers() {
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    // A books flight 1 directly
    co.submit_sql(
        "a",
        "SELECT 'A', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights WHERE fno = 1) CHOOSE 1",
    )
    .unwrap()
    .answered()
    .unwrap();
    // B refuses any flight A holds: only Paris flight 2 remains eligible
    let b = co
        .submit_sql(
            "b",
            "SELECT 'B', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('A', fno) NOT IN ANSWER R CHOOSE 1",
        )
        .unwrap()
        .answered()
        .expect("flight 2 is still allowed");
    assert_eq!(b.answers[0].1.values()[1], Value::Int(2));
}

#[test]
fn empty_database_leaves_everything_pending_then_retry_matches() {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
    let pair = |me: &str, friend: &str| {
        format!(
            "SELECT '{me}', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('{friend}', fno) IN ANSWER R CHOOSE 1"
        )
    };
    co.submit_sql("a", &pair("A", "B")).unwrap();
    co.submit_sql("b", &pair("B", "A")).unwrap();
    assert_eq!(co.pending_count(), 2);
    run_sql(&db, "INSERT INTO Flights VALUES (7, 'Paris')").unwrap();
    let swept = co.retry_all().unwrap();
    assert_eq!(swept.len(), 2);
    for t in co.answers("R") {
        assert_eq!(t.values()[1], Value::Int(7));
    }
}

#[test]
fn answer_relation_name_is_case_insensitive_for_matching() {
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    co.submit_sql(
        "a",
        "SELECT 'A', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('B', fno) IN ANSWER RESERVATION CHOOSE 1",
    )
    .unwrap();
    let sub = co
        .submit_sql(
            "b",
            "SELECT 'B', fno INTO ANSWER reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('A', fno) IN ANSWER Reservation CHOOSE 1",
        )
        .unwrap();
    assert!(sub.answered().is_some(), "relation case must not matter");
}

#[test]
fn stats_survive_failed_and_successful_submissions() {
    let co = ShardedCoordinator::single(flights_db(), CoordinatorConfig::default());
    let _ = co.submit_sql("x", "SELECT 'X', v INTO ANSWER R CHOOSE 1"); // unsafe
    co.submit_sql(
        "solo",
        "SELECT 'S', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
    )
    .unwrap();
    let stats = co.stats();
    assert_eq!(stats.rejected_unsafe, 1);
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.answered, 1);
    assert_eq!(stats.groups_matched, 1);
}

#[test]
fn int_and_float_constants_coordinate_under_both_matchers() {
    // Unification bridges `3` and `3.0` (SQL numeric equality), so B's
    // constraint `(3.0, fno)` is satisfied by A's head `(3, fno)`. The
    // candidate index must find that head too, not only the naive
    // matcher's full relation scan.
    for matcher in [MatcherKind::Naive, MatcherKind::Incremental] {
        let co = ShardedCoordinator::single(
            flights_db(),
            CoordinatorConfig {
                matcher,
                ..Default::default()
            },
        );
        let a = co
            .submit_sql(
                "a",
                "SELECT 3, fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights) \
                 AND (4, fno) IN ANSWER R CHOOSE 1",
            )
            .unwrap();
        let Submission::Pending(ticket) = a else {
            panic!("{matcher:?}: A has no partner yet")
        };
        let b = co
            .submit_sql(
                "b",
                "SELECT 4, fno INTO ANSWER R \
                 WHERE fno IN (SELECT fno FROM Flights) \
                 AND (3.0, fno) IN ANSWER R CHOOSE 1",
            )
            .unwrap();
        let nb = b
            .answered()
            .unwrap_or_else(|| panic!("{matcher:?}: B pairs with A's bridged head"));
        let na = ticket.receiver.try_recv().expect("A answered with B");
        assert_eq!(nb.group.len(), 2, "{matcher:?}");
        assert_eq!(na.answers[0].1.values()[1], nb.answers[0].1.values()[1]);
        assert_eq!(co.pending_count(), 0, "{matcher:?}");
    }
}
