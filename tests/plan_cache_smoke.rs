//! Tier-1 referee for the plan cache: a statement text's plan is reused only
//! while every table its binder resolved is the very table the statement's
//! snapshot holds. A commit to another table keeps the plan; a write to a
//! referenced table, a `DROP` + `CREATE` under the same name, a dropped
//! `CLONE` source and a transaction's private writes do not; time travel and
//! failures are never stored; optimizer on and off are separate entries. The
//! 42 `compile_small` statements return the same rows from a cached plan as
//! from a cold compile, at 1 and 2 threads, through both text entry points.
//! The cache's own tests (eviction order among them) are in
//! `crates/snowdb/src/plan_cache.rs`.

use std::sync::Arc;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::verify::{canonical_rows, default_lattice, first_diff, verify_sql, DEFAULT_EPSILON};
use snowq::snowdb::{Database, QueryOptions, QueryResult, Session, StatementResult, Variant};
use snowq::ssb::{self, SsbConfig};

fn query(db: &Database, sql: &str) -> QueryResult {
    db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The plan-cache flag and the rows of one run.
fn run(db: &Database, sql: &str) -> (bool, Vec<Vec<Variant>>) {
    let r = query(db, sql);
    (r.profile.plan_cached, r.rows)
}

fn exec(db: &Database, sql: &str) {
    db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
}

fn ints(rows: &[Vec<Variant>]) -> Vec<Vec<i64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.as_i64().unwrap_or_else(|| panic!("{v:?}"))).collect())
        .collect()
}

fn two_tables() -> Database {
    let db = Database::new();
    exec(&db, "CREATE TABLE a (X INT)");
    exec(&db, "CREATE TABLE b (Y INT)");
    exec(&db, "INSERT INTO a VALUES (1), (2)");
    exec(&db, "INSERT INTO b VALUES (10)");
    db
}

const SUM_A: &str = "SELECT COUNT(*), SUM(X) FROM a";

#[test]
fn a_write_keeps_the_plans_over_other_tables_and_invalidates_its_own() {
    let db = two_tables();
    assert_eq!(run(&db, SUM_A), (false, vec![vec![Variant::Int(2), Variant::Int(3)]]));
    assert!(run(&db, SUM_A).0, "the second run reuses the plan");
    exec(&db, "INSERT INTO b VALUES (20)");
    assert!(run(&db, SUM_A).0, "a write to b leaves the plan over a valid");
    exec(&db, "INSERT INTO a VALUES (4)");
    let (cached, rows) = run(&db, SUM_A);
    assert!(!cached, "a write to a invalidates it");
    assert_eq!(ints(&rows), [[3, 7]]);
    assert!(run(&db, SUM_A).0);
}

#[test]
fn drop_and_create_under_the_same_name_misses() {
    let db = two_tables();
    let star = "SELECT * FROM a";
    run(&db, star);
    assert!(run(&db, star).0);
    exec(&db, "DROP TABLE a");
    exec(&db, "CREATE TABLE a (P INT, Q INT)");
    exec(&db, "INSERT INTO a VALUES (5, 6)");
    let r = query(&db, star);
    assert!(!r.profile.plan_cached);
    assert_eq!(r.columns, ["P", "Q"]);
    assert_eq!(ints(&r.rows), [[5, 6]]);
}

#[test]
fn a_plan_over_a_clone_outlives_its_dropped_source() {
    let db = two_tables();
    let over_c = "SELECT SUM(X) FROM c";
    run(&db, SUM_A);
    exec(&db, "CREATE TABLE c CLONE a");
    assert!(run(&db, SUM_A).0, "cloning a leaves a itself unchanged");
    assert_eq!(run(&db, over_c), (false, vec![vec![Variant::Int(3)]]));
    exec(&db, "DROP TABLE a");
    assert_eq!(run(&db, over_c), (true, vec![vec![Variant::Int(3)]]));
    let err = db.query(SUM_A).expect_err("the source is gone");
    assert!(err.to_string().contains("does not exist"), "{err}");
}

#[test]
fn a_transaction_s_private_writes_neither_leak_nor_share_a_plan() {
    let db = Arc::new(two_tables());
    let (s1, s2) = (Session::new(db.clone()), Session::new(db.clone()));
    let count = "SELECT COUNT(*) FROM a";
    let rows = |s: &Session| {
        let r = s.query(count).unwrap();
        (r.profile.plan_cached, ints(&r.rows)[0][0])
    };
    assert_eq!(rows(&s1), (false, 2));
    assert_eq!(rows(&s2), (true, 2));
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (3)").unwrap();
    assert_eq!(rows(&s1), (false, 3), "the transaction sees its own insert");
    assert_eq!(rows(&s1), (true, 3));
    assert_eq!(rows(&s2), (false, 2), "another session neither sees it nor reuses its plan");
    // The statement path validates against the same effective snapshot.
    match s1.execute(count).unwrap() {
        StatementResult::Rows(r) => {
            assert!(!r.profile.plan_cached, "s2 replaced the entry");
            assert_eq!(ints(&r.rows), [[3]]);
        }
        other => panic!("{other:?}"),
    }
    s1.execute("ROLLBACK").unwrap();
    assert_eq!(rows(&s1), (false, 2));
    assert_eq!(rows(&s2), (true, 2));
}

#[test]
fn time_travel_is_never_stored() {
    let db = two_tables();
    let version = db.schema_generation();
    exec(&db, "INSERT INTO a VALUES (3)");
    let at = format!("SELECT COUNT(*) FROM a AT(VERSION => {version})");
    for _ in 0..2 {
        let (cached, rows) = run(&db, &at);
        assert!(!cached);
        assert_eq!(ints(&rows), [[2]]);
    }
}

#[test]
fn the_optimizer_on_and_off_are_separate_entries() {
    let db = two_tables();
    let raw = QueryOptions { optimize: false, ..Default::default() };
    let cached = |opts: &QueryOptions| db.query_with(SUM_A, opts).unwrap().profile.plan_cached;
    assert!(!cached(&raw));
    assert!(!cached(&QueryOptions::default()));
    assert!(cached(&raw));
    assert!(cached(&QueryOptions::default()));
}

#[test]
fn a_text_that_failed_to_bind_binds_after_create_table() {
    let db = two_tables();
    let later = "SELECT COUNT(*) FROM later";
    for _ in 0..2 {
        let err = db.query(later).expect_err("no such table yet");
        assert!(err.to_string().contains("does not exist"), "{err}");
    }
    exec(&db, "CREATE TABLE later (Z INT)");
    assert_eq!(run(&db, later), (false, vec![vec![Variant::Int(0)]]));
    assert!(run(&db, later).0);
}

#[test]
fn compile_explain_and_the_lattice_leave_the_cache_alone() {
    let db = two_tables();
    db.compile(SUM_A).unwrap();
    db.explain(SUM_A).unwrap();
    exec(&db, &format!("EXPLAIN ANALYZE {SUM_A}"));
    let report = verify_sql(&db, SUM_A, &default_lattice(1), DEFAULT_EPSILON).unwrap();
    assert!(report.divergences.is_empty());
    assert!(!run(&db, SUM_A).0, "none of them stored a plan");
}

/// `snowbench`'s `compile_small` database and its 42 statements: ADL q1–q8
/// and SSB q1.1–q4.3, each translated from JSONiq and handwritten.
fn compile_small() -> (Arc<Database>, Vec<(String, String)>) {
    let db = Database::new();
    adl::generator::load_into(&db, "hep", &AdlConfig { events: 16, seed: 42, ..Default::default() });
    ssb::load_ssb_tiny(&db, &SsbConfig { seed: 42, ..Default::default() });
    let db = Arc::new(db);
    let generated = |jsoniq: &str, strategy| {
        translate_query(db.clone(), jsoniq, strategy).unwrap().sql().to_string()
    };
    let mut texts = Vec::new();
    for q in adl::queries::queries("hep") {
        let strategy =
            if q.join_based { NestedStrategy::JoinBased } else { NestedStrategy::FlagColumn };
        texts.push((format!("adl.{}.gen", q.id), generated(&q.jsoniq, strategy)));
        texts.push((format!("adl.{}.sql", q.id), q.handwritten_sql));
    }
    for q in ssb::queries() {
        texts.push((format!("ssb.{}.gen", q.id), generated(&q.jsoniq, NestedStrategy::FlagColumn)));
        texts.push((format!("ssb.{}.sql", q.id), q.sql));
    }
    (db, texts)
}

fn same_rows(id: &str, a: &[Vec<Variant>], b: &[Vec<Variant>]) {
    let (a, b) = (canonical_rows(a.to_vec()), canonical_rows(b.to_vec()));
    assert!(first_diff(&a, &b, DEFAULT_EPSILON).is_none(), "{id}: {a:?}\n!=\n{b:?}");
}

#[test]
fn every_compile_small_statement_returns_the_same_rows_from_a_cached_plan() {
    let mut reference: Vec<Vec<Vec<Variant>>> = Vec::new();
    for threads in [1, 2] {
        let (db, texts) = compile_small();
        assert_eq!(texts.len(), 42);
        let session = Session::new(db.clone());
        let opts = QueryOptions { threads: Some(threads), ..Default::default() };
        for (i, (id, sql)) in texts.iter().enumerate() {
            let id = format!("{id} threads={threads}");
            let cold = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{id}: {e}"));
            let warm = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!((cold.profile.plan_cached, warm.profile.plan_cached), (false, true), "{id}");
            assert_eq!(cold.columns, warm.columns, "{id}");
            same_rows(&id, &cold.rows, &warm.rows);
            // The statement path shares the entry.
            match session.execute(sql).unwrap_or_else(|e| panic!("{id}: {e}")) {
                StatementResult::Rows(r) => {
                    assert!(r.profile.plan_cached, "{id}: statement path");
                    same_rows(&id, &cold.rows, &r.rows);
                }
                other => panic!("{id}: {other:?}"),
            }
            match reference.get(i) {
                Some(rows) => same_rows(&id, rows, &cold.rows),
                None => reference.push(cold.rows),
            }
        }
    }
}
