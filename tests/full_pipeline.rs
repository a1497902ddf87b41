//! E8 + cross-crate integration: SQL text in, coordinated answers out,
//! across every layer (lexer → parser → compiler → safety → registry →
//! matcher → executor → storage → WAL), plus the admin console and the
//! Figure 2 architecture path.

use youtopia::travel::{AdminConsole, TravelService};
use youtopia::{run_sql, CoordinatorConfig, Database, ShardedCoordinator, StatementOutcome};

#[test]
fn figure2_architecture_path() {
    // middle tier generates entangled SQL -> query compiler -> IR ->
    // coordination component -> execution engine -> database
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(&db, "INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris')").unwrap();
    let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());

    // The compiler stage is observable: pending queries expose their IR.
    co.submit_sql(
        "kramer",
        "SELECT 'K', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('J', fno) IN ANSWER R CHOOSE 1",
    )
    .unwrap();
    let snap = co.pending_snapshot();
    assert_eq!(snap.len(), 1);
    assert!(
        snap[0].ir.contains("R('K', ?q1.fno)"),
        "IR visible: {}",
        snap[0].ir
    );
    assert!(
        snap[0].ir.contains("requires: R('J', ?q1.fno)"),
        "{}",
        snap[0].ir
    );

    // Coordination accesses regular tables (membership evaluation) and
    // pending-query state; execution applies the answers.
    co.submit_sql(
        "jerry",
        "SELECT 'J', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('K', fno) IN ANSWER R CHOOSE 1",
    )
    .unwrap();
    assert_eq!(co.answers("R").len(), 2);
}

#[test]
fn admin_console_covers_sql_and_entangled_input() {
    let site = TravelService::bootstrap_demo().unwrap();
    let console = AdminConsole::new(site.db().clone(), site.coordinator().clone());

    // regular SQL
    let out = console.execute("SELECT COUNT(*) FROM Flights");
    assert!(out.contains("7"), "{out}");

    // entangled input through the same command line
    let out = console.execute_as(
        "kramer",
        "SELECT 'Kramer', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
    );
    assert!(out.contains("registered"), "{out}");

    // the special inspection mode
    let pending = console.execute("SHOW PENDING");
    assert!(pending.contains("owner=kramer"), "{pending}");
    assert!(pending.contains("ir:"), "{pending}");

    // completing the pair through the console
    let out = console.execute_as(
        "jerry",
        "SELECT 'Jerry', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
    );
    assert!(out.contains("answered immediately"), "{out}");
    assert_eq!(
        console.execute("SHOW PENDING"),
        "(no pending entangled queries)"
    );
}

#[test]
fn wal_recovery_preserves_coordinated_answers() {
    let dir = std::env::temp_dir().join(format!("youtopia_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.wal");
    let _ = std::fs::remove_file(&path);

    {
        let wal = youtopia::storage::Wal::open(&path).unwrap();
        let db = Database::with_wal(wal);
        run_sql(
            &db,
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
        )
        .unwrap();
        run_sql(&db, "INSERT INTO Flights VALUES (122, 'Paris')").unwrap();
        let co = ShardedCoordinator::single(db, CoordinatorConfig::default());
        co.submit_sql(
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights) \
             AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        )
        .unwrap();
        co.submit_sql(
            "jerry",
            "SELECT 'Jerry', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights) \
             AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
        )
        .unwrap();
        // both answers are in the answer relation, durably
    }

    // crash-restart: replay the WAL into a fresh database
    let recovered = Database::recover(youtopia::storage::Wal::open(&path).unwrap()).unwrap();
    {
        let read = recovered.read();
        let reservation = read.table("Reservation").unwrap();
        assert_eq!(reservation.len(), 2, "coordinated answers survive recovery");
        let fnos: std::collections::HashSet<i64> = reservation
            .scan()
            .map(|(_, t)| t.values()[1].as_int().unwrap())
            .collect();
        assert_eq!(fnos.len(), 1, "both tuples carry the coordinated flight");
    }

    // checkpointing compacts the log without changing recovered state
    recovered.checkpoint().unwrap();
    let after_checkpoint = Database::recover(youtopia::storage::Wal::open(&path).unwrap()).unwrap();
    let read = after_checkpoint.read();
    assert_eq!(read.table("Reservation").unwrap().len(), 2);
    assert_eq!(read.table("Flights").unwrap().len(), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn queries_in_flight_from_many_threads_all_complete() {
    let site = std::sync::Arc::new({
        let s = TravelService::bootstrap_demo().unwrap();
        for i in 0..10 {
            s.social()
                .import_friends(&format!("u{i}"), &[&format!("v{i}")])
                .unwrap();
        }
        s
    });
    let mut handles = Vec::new();
    for i in 0..10 {
        for side in 0..2u8 {
            let site = site.clone();
            handles.push(std::thread::spawn(move || {
                let (me, friend) = if side == 0 {
                    (format!("u{i}"), format!("v{i}"))
                } else {
                    (format!("v{i}"), format!("u{i}"))
                };
                site.coordinate_flight(&me, &friend, "Paris", youtopia::FlightPrefs::default())
                    .unwrap();
            }));
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(site.coordinator().pending_count(), 0, "every pair matched");
    assert_eq!(site.coordinator().stats().groups_matched, 10);
    for i in 0..10 {
        let u = site.account_view(&format!("u{i}")).unwrap();
        let v = site.account_view(&format!("v{i}")).unwrap();
        assert_eq!(u.flights, v.flights, "pair {i} shares its flight");
    }
}

#[test]
fn unsafe_and_malformed_input_is_reported_not_crashing() {
    let db = Database::new();
    run_sql(&db, "CREATE TABLE T (a INT)").unwrap();
    let co = ShardedCoordinator::single(db, CoordinatorConfig::default());
    // unsafe: head variable never restricted
    assert!(co
        .submit_sql("x", "SELECT 'X', v INTO ANSWER R CHOOSE 1")
        .is_err());
    // parse error
    assert!(co.submit_sql("x", "SELECT INTO").is_err());
    // not entangled
    assert!(co.submit_sql("x", "SELECT 1").is_err());
    // CHOOSE k != 1
    assert!(co
        .submit_sql(
            "x",
            "SELECT 'X', v INTO ANSWER R WHERE v IN (SELECT a FROM T) CHOOSE 3"
        )
        .is_err());
    assert_eq!(co.pending_count(), 0);
}

#[test]
fn membership_subqueries_may_use_the_full_sql_surface() {
    // joins + aggregates inside the membership predicate's subquery
    let db = Database::new();
    for sql in [
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING, price FLOAT)",
        "CREATE TABLE Ratings (fno INT, stars INT)",
        "INSERT INTO Flights VALUES (1, 'Paris', 400.0), (2, 'Paris', 420.0), (3, 'Paris', 900.0)",
        "INSERT INTO Ratings VALUES (1, 5), (1, 4), (2, 2), (3, 5)",
    ] {
        run_sql(&db, sql).unwrap();
    }
    let co = ShardedCoordinator::single(db, CoordinatorConfig::default());
    // only well-rated affordable flights are eligible
    let q = |me: &str, friend: &str| {
        format!(
            "SELECT '{me}', fno INTO ANSWER R \
             WHERE fno IN (SELECT f.fno FROM Flights f JOIN Ratings r ON f.fno = r.fno \
                           WHERE f.price < 500 GROUP BY f.fno HAVING AVG(r.stars) >= 4) \
             AND ('{friend}', fno) IN ANSWER R CHOOSE 1"
        )
    };
    co.submit_sql("a", &q("A", "B")).unwrap();
    let sub = co.submit_sql("b", &q("B", "A")).unwrap();
    let n = sub.answered().expect("pair matches");
    // flight 1 is the only one passing price < 500 AND avg stars >= 4
    assert_eq!(n.answers[0].1.values()[1].as_int(), Some(1));
}

#[test]
fn show_tables_lists_answer_relations_once_created() {
    let db = Database::new();
    run_sql(
        &db,
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING)",
    )
    .unwrap();
    run_sql(&db, "INSERT INTO Flights VALUES (1, 'Paris')").unwrap();
    let co = ShardedCoordinator::single(db.clone(), CoordinatorConfig::default());
    co.submit_sql(
        "solo",
        "SELECT 'solo', fno INTO ANSWER BrandNewAnswerRel \
         WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
    )
    .unwrap();
    let StatementOutcome::TableNames(names) = run_sql(&db, "SHOW TABLES").unwrap() else {
        panic!()
    };
    assert!(names.iter().any(|n| n == "BrandNewAnswerRel"), "{names:?}");
}
