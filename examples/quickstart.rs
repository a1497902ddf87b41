//! Quickstart: the paper's worked example (Section 2.1 and Figure 1).
//!
//! Kramer wants to travel to Paris on the same flight as Jerry. Each
//! submits an entangled query; neither can be answered alone. When both
//! are in the system, Youtopia answers them jointly with a shared,
//! nondeterministically chosen flight number.
//!
//! Run with: `cargo run --example quickstart`

use youtopia::{
    run_sql, CoordinatorConfig, Database, ShardedCoordinator, StatementOutcome, Submission,
};

fn main() {
    // ---- the Figure 1 database -------------------------------------- //
    let db = Database::new();
    for sql in [
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest STRING NOT NULL)",
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), \
         (136, 'Rome')",
        "CREATE TABLE Airlines (fno INT PRIMARY KEY, airline STRING NOT NULL)",
        "INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), \
         (134, 'Lufthansa'), (136, 'Alitalia')",
    ] {
        run_sql(&db, sql).expect("setup succeeds");
    }
    println!("Flight database (paper, Figure 1a):");
    if let StatementOutcome::Rows(rs) = run_sql(
        &db,
        "SELECT f.fno, f.dest, a.airline FROM Flights f \
                      JOIN Airlines a ON f.fno = a.fno ORDER BY f.fno",
    )
    .unwrap()
    {
        for row in &rs.rows {
            println!("  {row}");
        }
    }

    // ---- the coordination component --------------------------------- //
    let coordinator = ShardedCoordinator::single(db, CoordinatorConfig::default());

    // Kramer's entangled query, verbatim from the paper.
    let kramer_sql = "SELECT 'Kramer', fno INTO ANSWER Reservation \
                      WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
                      AND ('Jerry', fno) IN ANSWER Reservation \
                      CHOOSE 1";
    println!("\nKramer submits:\n  {kramer_sql}");
    let kramer = coordinator
        .submit_sql("kramer", kramer_sql)
        .expect("safe query");
    let Submission::Pending(ticket) = kramer else {
        unreachable!("no partner yet: the query must wait");
    };
    println!(
        "  -> not answerable alone; registered as {} ({} pending)",
        ticket.id,
        coordinator.pending_count()
    );

    // Jerry's symmetric query: the names are swapped.
    let jerry_sql = "SELECT 'Jerry', fno INTO ANSWER Reservation \
                     WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
                     AND ('Kramer', fno) IN ANSWER Reservation \
                     CHOOSE 1";
    println!("\nJerry submits the symmetric query:\n  {jerry_sql}");
    let jerry = coordinator
        .submit_sql("jerry", jerry_sql)
        .expect("safe query")
        .answered()
        .expect("the pair matches immediately");

    // Kramer is notified asynchronously.
    let kramer = ticket
        .receiver
        .try_recv()
        .expect("kramer's notification is waiting");

    println!("\nJointly answered (group {:?}):", jerry.group);
    let (rel, jerry_tuple) = &jerry.answers[0];
    let (_, kramer_tuple) = &kramer.answers[0];
    println!("  {rel}{jerry_tuple}   <- Jerry's answer");
    println!("  {rel}{kramer_tuple}   <- Kramer's answer");

    let jerry_fno = jerry_tuple.values()[1].as_int().unwrap();
    let kramer_fno = kramer_tuple.values()[1].as_int().unwrap();
    assert_eq!(
        jerry_fno, kramer_fno,
        "mutual constraint satisfaction (Figure 1b)"
    );
    assert!(
        [122, 123, 134].contains(&jerry_fno),
        "the choice is always a Paris flight, never Rome's 136"
    );
    println!(
        "\nBoth received flight {jerry_fno} — one of the Paris flights, chosen \
         nondeterministically (CHOOSE 1)."
    );

    // The answer relation is a real table; regular SQL sees it.
    if let StatementOutcome::Rows(rs) =
        run_sql(coordinator.db(), "SELECT * FROM Reservation").unwrap()
    {
        println!("\nThe shared answer relation now contains:");
        for row in &rs.rows {
            println!("  {row}");
        }
    }
    let stats = coordinator.stats();
    println!(
        "\nstats: submitted={} groups_matched={} matching_time={:.3}ms",
        stats.submitted,
        stats.groups_matched,
        stats.matching_nanos as f64 / 1e6
    );
}
