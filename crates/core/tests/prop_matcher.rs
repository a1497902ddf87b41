//! Property-based tests for the coordination machinery:
//!
//! * unification soundness (a successful unifier really unifies);
//! * the registry's candidate index is a sound overapproximation;
//! * matcher soundness — every produced match satisfies every
//!   constraint of every member against the actual database;
//! * the incremental matcher and the exhaustive baseline agree on
//!   matchability for random scenarios;
//! * the cascade's indexed trigger list equals the full-registry scan,
//!   and cascade chains coordinate identically with the candidate index
//!   on and off.
//!
//! Numeric constants are drawn in bridged pairs (`Int(k)` and
//! `Float(k as f64)`), which unification treats as equal, so every
//! value-keyed index is checked against the SQL numeric bridge.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use youtopia_core::matcher::baseline::match_query_naive;
use youtopia_core::matcher::search::match_query;
use youtopia_core::{
    compile_sql, AnswerConstraint, Atom, EntangledQuery, GroupMatch, MatchConfig, MatchStats,
    Pending, QueryId, Registry, Subst, Term, Var,
};
use youtopia_exec::run_sql;
use youtopia_storage::{Database, Tuple, Value};

// --------------------------------------------------------------------- //
// Unification properties
// --------------------------------------------------------------------- //

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..4).prop_map(|i| Term::Const(Value::Int(i))),
        (0i64..4).prop_map(|i| Term::Const(Value::Float(i as f64))),
        "[ab]".prop_map(|s| Term::Const(Value::Str(s))),
        (0u8..4).prop_map(|i| Term::Var(Var::new(format!("v{i}")))),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    ("[RS]", proptest::collection::vec(arb_term(), 1..4))
        .prop_map(|(rel, terms)| Atom::new(rel, terms))
}

proptest! {
    #[test]
    fn unifier_really_unifies(a in arb_atom(), b in arb_atom()) {
        let mut s = Subst::new();
        if s.unify_atoms(&a, &b) {
            // applying the substitution must make the atoms identical
            // up to remaining (shared) variables
            let ra = s.apply_atom(&a);
            let rb = s.apply_atom(&b);
            prop_assert_eq!(ra.relation.to_lowercase(), rb.relation.to_lowercase());
            for (ta, tb) in ra.terms.iter().zip(&rb.terms) {
                match (ta, tb) {
                    (Term::Const(x), Term::Const(y)) => {
                        prop_assert!(x.sql_eq(y) || x == y, "{x:?} vs {y:?}")
                    }
                    (Term::Var(x), Term::Var(y)) => prop_assert_eq!(x, y),
                    other => prop_assert!(false, "mixed resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unification_is_symmetric(a in arb_atom(), b in arb_atom()) {
        let mut s1 = Subst::new();
        let mut s2 = Subst::new();
        prop_assert_eq!(s1.unify_atoms(&a, &b), s2.unify_atoms(&b, &a));
    }

    #[test]
    fn binding_then_union_equals_union_then_binding(
        v in 0i64..5,
    ) {
        let (x, y) = (Var::new("x"), Var::new("y"));
        let mut s1 = Subst::new();
        assert!(s1.bind(&x, Value::Int(v)));
        assert!(s1.union(&x, &y));
        let mut s2 = Subst::new();
        assert!(s2.union(&x, &y));
        assert!(s2.bind(&x, Value::Int(v)));
        prop_assert_eq!(s1.lookup(&y), s2.lookup(&y));
        prop_assert_eq!(s1.lookup(&y), Some(&Value::Int(v)));
    }
}

// --------------------------------------------------------------------- //
// Scenario generation: random pair/ring coordination requests over a
// small name pool, so matches actually occur.
// --------------------------------------------------------------------- //

#[derive(Debug, Clone)]
struct Scenario {
    /// (me, friend, dest) — each becomes a pair request.
    requests: Vec<(String, String, String)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let name = prop_oneof![Just("A"), Just("B"), Just("C"), Just("D")];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    proptest::collection::vec((name.clone(), name, dest), 1..6).prop_map(|reqs| Scenario {
        requests: reqs
            .into_iter()
            .map(|(a, b, d)| (a.to_string(), b.to_string(), d.to_string()))
            .collect(),
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

fn pair_sql(me: &str, friend: &str, dest: &str) -> String {
    format!(
        "SELECT '{me}', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
         AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
    )
}

fn registry_for(scenario: &Scenario) -> Registry {
    let mut reg = Registry::new();
    for (i, (me, friend, dest)) in scenario.requests.iter().enumerate() {
        let id = QueryId(i as u64 + 1);
        let q = compile_sql(&pair_sql(me, friend, dest))
            .unwrap()
            .namespaced(id);
        reg.insert(Pending {
            id,
            owner: me.clone(),
            query: q,
            seq: id.0,
            deadline: None,
        });
    }
    reg
}

/// Checks the match against the scenario's semantics: per member, the
/// head is ground, names are right, the flight satisfies the member's
/// own destination predicate, and the member's constraint is satisfied
/// by some answer in the group.
fn assert_match_sound(scenario: &Scenario, m: &GroupMatch) {
    // all answers, flattened
    let all: Vec<(&str, &[Value])> = m
        .answers
        .values()
        .flatten()
        .map(|(rel, t)| (rel.as_str(), t.values()))
        .collect();
    for &qid in &m.members {
        let (me, friend, dest) = &scenario.requests[(qid.0 - 1) as usize];
        let my_answers = &m.answers[&qid];
        assert_eq!(my_answers.len(), 1, "CHOOSE 1: one answer per query");
        let (rel, tuple) = &my_answers[0];
        assert_eq!(rel, "Reservation");
        assert_eq!(tuple.values()[0].as_str(), Some(me.as_str()));
        let fno = tuple.values()[1].as_int().expect("ground flight number");
        // membership: fno is a flight to my dest
        let eligible: &[i64] = if dest == "Paris" { &[1, 2] } else { &[3] };
        assert!(
            eligible.contains(&fno),
            "{me}'s flight {fno} must go to {dest}"
        );
        // constraint: (friend, fno) is among the group's answers
        let satisfied = all.iter().any(|(r, vals)| {
            *r == "Reservation"
                && vals[0].as_str() == Some(friend.as_str())
                && vals[1].as_int() == Some(fno)
        });
        assert!(
            satisfied,
            "{me}'s constraint ('{friend}', {fno}) must be satisfied by the group"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_are_sound(scenario in arb_scenario(), seed in 0u64..1000) {
        let db = scenario_db();
        let reg = registry_for(&scenario);
        let read = db.read();
        let config = MatchConfig::default();
        for trigger in 1..=scenario.requests.len() as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = MatchStats::default();
            if let Some(m) = match_query(
                &reg,
                read.catalog(),
                QueryId(trigger),
                &config,
                &mut rng,
                &mut stats,
            )
            .unwrap()
            {
                prop_assert!(m.members.contains(&QueryId(trigger)));
                assert_match_sound(&scenario, &m);
            }
        }
    }

    #[test]
    fn incremental_and_naive_agree_on_matchability(
        scenario in arb_scenario(),
        seed in 0u64..100,
    ) {
        let db = scenario_db();
        let reg = registry_for(&scenario);
        let read = db.read();
        let config = MatchConfig { randomize: false, ..MatchConfig::default() };
        for trigger in 1..=scenario.requests.len() as u64 {
            let mut rng1 = StdRng::seed_from_u64(seed);
            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut s1 = MatchStats::default();
            let mut s2 = MatchStats::default();
            let incr = match_query(
                &reg, read.catalog(), QueryId(trigger), &config, &mut rng1, &mut s1,
            )
            .unwrap();
            let naive = match_query_naive(
                &reg, read.catalog(), QueryId(trigger), &config, &mut rng2, &mut s2,
            )
            .unwrap();
            prop_assert_eq!(
                incr.is_some(),
                naive.is_some(),
                "disagreement on trigger {} in {:?}",
                trigger,
                &scenario
            );
            if let Some(m) = &naive {
                assert_match_sound(&scenario, m);
            }
        }
    }

    #[test]
    fn registry_candidates_are_a_superset_of_unifiable_heads(
        scenario in arb_multi_scenario(),
        constraint in arb_constraint(),
    ) {
        let reg = registry_for_multi(&scenario, true);
        let candidates = reg.candidates_for(&constraint);
        // brute force: every pending head that unifies must be listed
        for pending in reg.iter() {
            for (head_idx, head) in pending.query.heads.iter().enumerate() {
                let mut s = Subst::new();
                if s.unify_atoms(&constraint, head) {
                    let href = youtopia_core::HeadRef { qid: pending.id, head_idx };
                    prop_assert!(
                        candidates.contains(&href),
                        "index dropped unifiable head {head} for constraint {constraint}"
                    );
                }
            }
        }
    }
}

// --------------------------------------------------------------------- //
// Matcher ablation: the staged pipeline (batched candidate resolution,
// pooled scratch, index-first trigger pruning) must be observationally
// identical to the exhaustive baseline — same matchability, same
// members, same answers — on multi-relation workloads, with the
// candidate index both on and off.
// --------------------------------------------------------------------- //

#[derive(Debug, Clone)]
struct MultiScenario {
    /// (me, friend, dest, answer-relation) — pair requests spread over
    /// several answer relations, so the per-relation index actually
    /// partitions the registry. Names are SQL literals: strings, or a
    /// bridged numeric pair (`3` and `3.0`) that unifies across types.
    requests: Vec<(String, String, String, String)>,
}

fn arb_multi_scenario() -> impl Strategy<Value = MultiScenario> {
    let name = prop_oneof![
        Just("'A'"),
        Just("'B'"),
        Just("'C'"),
        Just("'D'"),
        Just("3"),
        Just("3.0")
    ];
    let dest = prop_oneof![Just("Paris"), Just("Rome")];
    let rel = prop_oneof![Just("Reservation"), Just("Lodging"), Just("Tour")];
    proptest::collection::vec((name.clone(), name, dest, rel), 1..7).prop_map(|reqs| {
        MultiScenario {
            requests: reqs
                .into_iter()
                .map(|(a, b, d, r)| (a.to_string(), b.to_string(), d.to_string(), r.to_string()))
                .collect(),
        }
    })
}

fn multi_pair_sql(me: &str, friend: &str, dest: &str, rel: &str) -> String {
    format!(
        "SELECT {me}, fno INTO ANSWER {rel} \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') \
         AND ({friend}, fno) IN ANSWER {rel} CHOOSE 1"
    )
}

fn registry_for_multi(scenario: &MultiScenario, use_const_index: bool) -> Registry {
    let mut reg = if use_const_index {
        Registry::new()
    } else {
        Registry::without_const_index()
    };
    for (i, (me, friend, dest, rel)) in scenario.requests.iter().enumerate() {
        let id = QueryId(i as u64 + 1);
        let q = compile_sql(&multi_pair_sql(me, friend, dest, rel))
            .unwrap()
            .namespaced(id);
        reg.insert(Pending {
            id,
            owner: me.clone(),
            query: q,
            seq: id.0,
            deadline: None,
        });
    }
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn staged_matcher_equals_naive_on_multi_relation_workloads(
        scenario in arb_multi_scenario(),
        seed in 0u64..100,
    ) {
        let db = scenario_db();
        let read = db.read();
        let config = MatchConfig {
            randomize: false,
            ..MatchConfig::default()
        };
        for use_const_index in [true, false] {
            let reg = registry_for_multi(&scenario, use_const_index);
            for trigger in 1..=scenario.requests.len() as u64 {
                let mut rng1 = StdRng::seed_from_u64(seed);
                let mut rng2 = StdRng::seed_from_u64(seed);
                let mut s1 = MatchStats::default();
                let mut s2 = MatchStats::default();
                let staged = match_query(
                    &reg, read.catalog(), QueryId(trigger), &config, &mut rng1, &mut s1,
                )
                .unwrap();
                let naive = match_query_naive(
                    &reg, read.catalog(), QueryId(trigger), &config, &mut rng2, &mut s2,
                )
                .unwrap();
                // Observational equality: same matchability, and when a
                // match exists, the *same* match — members and per-member
                // answers — so the registry retains the same pending set
                // after either matcher applies it.
                prop_assert_eq!(
                    &staged,
                    &naive,
                    "staged vs naive diverge (use_const_index={}) on trigger {} in {:?}",
                    use_const_index,
                    trigger,
                    &scenario
                );
            }
        }
    }
}

fn arb_constraint() -> impl Strategy<Value = Atom> {
    let name_term = prop_oneof![
        Just(Term::constant("A")),
        Just(Term::constant("B")),
        Just(Term::constant("C")),
        Just(Term::constant(3i64)),
        Just(Term::constant(3.0)),
        Just(Term::var("who")),
    ];
    let fno_term = prop_oneof![
        (1i64..4).prop_map(Term::constant),
        (1i64..4).prop_map(|k| Term::constant(k as f64)),
        Just(Term::var("f")),
    ];
    let rel = prop_oneof![Just("Reservation"), Just("lodging"), Just("TOUR")];
    (rel, name_term, fno_term).prop_map(|(r, n, f)| Atom::new(r, vec![n, f]))
}

// --------------------------------------------------------------------- //
// End-to-end invariants of arrival-driven matching.
// --------------------------------------------------------------------- //

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrival-driven matching is *locally maximal*: once every query
    /// has had its arrival-time match attempt, no matchable group
    /// remains among the still-pending queries (with an unchanged
    /// database, a later global sweep finds nothing). This is exactly
    /// why matching only on arrival loses no coordination opportunities.
    #[test]
    fn arrival_driven_matching_leaves_no_matchable_residue(
        scenario in arb_scenario(),
        seed in 0u64..50,
    ) {
        use youtopia_core::{ShardedCoordinator, CoordinatorConfig};

        let co = ShardedCoordinator::single(
            scenario_db(),
            CoordinatorConfig { seed, ..Default::default() },
        );
        for (me, friend, dest) in &scenario.requests {
            co.submit_sql(me, &pair_sql(me, friend, dest)).unwrap();
        }
        let pending_before = co.pending_count();
        let swept = co.retry_all().unwrap();
        prop_assert!(
            swept.is_empty(),
            "a global sweep found {} answers the arrival-driven matcher missed in {:?}",
            swept.len(),
            &scenario
        );
        prop_assert_eq!(co.pending_count(), pending_before);
    }

    /// Answered + pending always partitions submissions, and every
    /// coordinated pair of answers shares its flight.
    #[test]
    fn accounting_invariants_hold(scenario in arb_scenario(), seed in 0u64..50) {
        use youtopia_core::{ShardedCoordinator, CoordinatorConfig};

        let co = ShardedCoordinator::single(
            scenario_db(),
            CoordinatorConfig { seed, ..Default::default() },
        );
        for (me, friend, dest) in &scenario.requests {
            co.submit_sql(me, &pair_sql(me, friend, dest)).unwrap();
        }
        let stats = co.stats();
        prop_assert_eq!(stats.submitted as usize, scenario.requests.len());
        prop_assert_eq!(
            stats.answered as usize + co.pending_count(),
            scenario.requests.len()
        );
    }
}

// --------------------------------------------------------------------- //
// The cascade: after a match commits, the pending queries a fresh answer
// tuple could satisfy are found through the registry's constraint
// postings. The trigger list must equal the full-registry scan it
// replaced — same queries, same (id) order — so every retry, RNG draw
// and commit of the cascade is unchanged.
// --------------------------------------------------------------------- //

/// Values drawn so that unifiable pairs of different types occur:
/// `Int(k)` / `Float(k)`, and both float zeros.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(|k| Value::Float(k as f64)),
        Just(Value::Float(-0.0)),
        "[ab]".prop_map(Value::Str),
    ]
}

/// Relation names differing only in case name the same relation.
fn arb_relation() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("R"), Just("r"), Just("S"), Just("s")]
}

/// A query's answer constraints: several per query, mixed arity, some
/// negated.
fn arb_constraints() -> impl Strategy<Value = Vec<AnswerConstraint>> {
    let term = prop_oneof![
        arb_value().prop_map(Term::Const),
        (0u8..3).prop_map(|i| Term::Var(Var::new(format!("v{i}")))),
    ];
    let atom = (arb_relation(), proptest::collection::vec(term, 1..4))
        .prop_map(|(rel, terms)| Atom::new(rel, terms));
    let constraint = (atom, (0u8..5).prop_map(|k| k == 0))
        .prop_map(|(atom, negated)| AnswerConstraint { atom, negated });
    proptest::collection::vec(constraint, 1..4)
}

fn arb_fresh() -> impl Strategy<Value = Vec<(String, Tuple)>> {
    let tuple = (arb_relation(), proptest::collection::vec(arb_value(), 1..4))
        .prop_map(|(rel, values)| (rel.to_string(), Tuple::new(values)));
    proptest::collection::vec(tuple, 0..4)
}

/// The cascade's pre-index trigger filter: every pending query, in id
/// order, with a positive constraint that unifies with a fresh tuple.
fn full_scan_triggers(reg: &Registry, fresh: &[(String, Tuple)]) -> Vec<QueryId> {
    reg.iter()
        .filter(|p| {
            p.query.constraints.iter().filter(|c| !c.negated).any(|c| {
                fresh.iter().any(|(rel, tuple)| {
                    c.atom.relation.eq_ignore_ascii_case(rel)
                        && c.atom.arity() == tuple.arity()
                        && {
                            let mut s = Subst::new();
                            c.atom
                                .terms
                                .iter()
                                .zip(tuple.values())
                                .all(|(t, v)| s.unify_terms(t, &Term::Const(v.clone())))
                        }
                })
            })
        })
        .map(|p| p.id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cascade_triggers_equal_full_scan(
        queries in proptest::collection::vec((arb_constraints(), any::<bool>()), 1..12),
        rounds in proptest::collection::vec(arb_fresh(), 1..4),
    ) {
        for use_const_index in [true, false] {
            let mut reg = if use_const_index {
                Registry::new()
            } else {
                Registry::without_const_index()
            };
            for (i, (constraints, _)) in queries.iter().enumerate() {
                let id = QueryId(i as u64 + 1);
                let query = EntangledQuery {
                    heads: vec![Atom::new("R", vec![Term::var("v0")])],
                    memberships: Vec::new(),
                    filters: Vec::new(),
                    constraints: constraints.clone(),
                    choose: 1,
                    sql: String::new(),
                };
                reg.insert(Pending {
                    id,
                    owner: format!("o{i}"),
                    query: query.namespaced(id),
                    seq: id.0,
                    deadline: None,
                });
            }
            // withdrawn queries must leave no posting behind
            for (i, (_, removed)) in queries.iter().enumerate() {
                if *removed {
                    reg.remove(QueryId(i as u64 + 1));
                }
            }
            for fresh in &rounds {
                let mut checked = 0;
                let indexed = reg.cascade_triggers(fresh, &mut checked);
                let expected = full_scan_triggers(&reg, fresh);
                prop_assert_eq!(
                    &indexed,
                    &expected,
                    "cascade triggers diverge for fresh tuples {:?}",
                    fresh
                );
                prop_assert!(checked as usize >= indexed.len());
                prop_assert!(checked as usize <= reg.len());
            }
        }
    }
}

/// One link of a cascade chain: group `i` is the pair `P{i}`/`Q{i}`.
/// `P{i}` also writes its level into `L`; `P{i+1}` may wait on that
/// level through a bridged float constant and `Q{i+1}` on `Q{i}`'s
/// reservation, so each committed group releases the next one.
fn chain_sql(i: usize, member: char, waits: bool) -> String {
    let dest = "fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')";
    match member {
        'P' => {
            let link = if waits && i > 1 {
                format!(" AND ({}.0, fno) IN ANSWER L", i - 1)
            } else {
                String::new()
            };
            format!(
                "SELECT 'P{i}', fno INTO ANSWER R, {i}, fno INTO ANSWER L \
                 WHERE {dest} AND ('Q{i}', fno) IN ANSWER R{link} CHOOSE 1"
            )
        }
        _ => {
            let link = if waits && i > 1 {
                format!(" AND ('Q{}', fno) IN ANSWER R", i - 1)
            } else {
                String::new()
            };
            format!(
                "SELECT 'Q{i}', fno INTO ANSWER R \
                 WHERE {dest} AND ('P{i}', fno) IN ANSWER R{link} CHOOSE 1"
            )
        }
    }
}

/// Everything observable of a chain run: per query (id, group, answers)
/// in id order, the answer relations and the pending set.
type ChainOutcome = (Vec<(u64, Vec<u64>, String)>, String, String, Vec<u64>);

fn run_chain(
    links: &[(bool, bool)],
    noise: usize,
    seed: u64,
    use_const_index: bool,
) -> (ChainOutcome, u64) {
    use youtopia_core::{CoordinatorConfig, ShardedCoordinator, Submission};

    let mut config = CoordinatorConfig {
        seed,
        use_const_index,
        ..Default::default()
    };
    config.match_config.randomize = false;
    let co = ShardedCoordinator::single(scenario_db(), config);
    let mut notes = Vec::new();
    let mut tickets = Vec::new();
    let mut record = |sub: Submission| match sub {
        Submission::Answered(n) => notes.push(n),
        Submission::Pending(t) => tickets.push(t),
    };
    for j in 0..noise {
        let sql = format!(
            "SELECT 'N{j}', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights) AND ('Ghost', fno) IN ANSWER R CHOOSE 1"
        );
        record(co.submit_sql("noise", &sql).unwrap());
    }
    // last group first: each group can only commit once its
    // predecessor has, so group 1's arrival drives the whole chain
    // through the cascade
    for (i, &(p_waits, q_waits)) in links.iter().enumerate().rev() {
        let level = i + 1;
        record(co.submit_sql("p", &chain_sql(level, 'P', p_waits)).unwrap());
        record(co.submit_sql("q", &chain_sql(level, 'Q', q_waits)).unwrap());
    }
    notes.extend(tickets.iter().filter_map(|t| t.receiver.try_recv().ok()));
    let mut answered: Vec<(u64, Vec<u64>, String)> = notes
        .iter()
        .map(|n| {
            (
                n.id.0,
                n.group.iter().map(|q| q.0).collect(),
                format!("{:?}", n.answers),
            )
        })
        .collect();
    answered.sort();
    let mut pending: Vec<u64> = co.pending_snapshot().iter().map(|p| p.id.0).collect();
    pending.sort_unstable();
    let outcome = (
        answered,
        format!("{:?}", co.answers("R")),
        format!("{:?}", co.answers("L")),
        pending,
    );
    (outcome, co.stats().match_work.cascade_checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A chain of groups where each group's committed answers satisfy
    /// the next group's postconditions resolves completely through the
    /// cascade, with identical matches and pending set whether the
    /// candidate index is on or off. `randomize` is off, as in the other
    /// equivalence properties: with it on, the matcher shuffles each
    /// provider list, which is longer without the index (it keeps the
    /// heads the index would prune), so the two runs draw differently.
    #[test]
    fn cascade_chain_is_identical_with_index_on_and_off(
        links in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..6),
        noise in 0usize..4,
        seed in 0u64..50,
    ) {
        let (on, checked) = run_chain(&links, noise, seed, true);
        let (off, _) = run_chain(&links, noise, seed, false);
        prop_assert_eq!(&on, &off);
        prop_assert_eq!(on.0.len(), 2 * links.len(), "every chain member answers");
        prop_assert_eq!(on.3.len(), noise, "only the noise stays pending");
        if links.iter().skip(1).any(|&(p, q)| p || q) {
            prop_assert!(checked > 0, "a waiting link is released by the cascade");
        }
    }
}
