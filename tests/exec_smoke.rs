//! Tier-1 smoke for the executor's two producers of expression columns: the
//! compiled expression DAG (`vectorize` on) and the row evaluator (off) feed
//! the same operator bodies, so a statement returns the same rows, or fails
//! with the same error, under either. The deep suites (the 24-configuration
//! lattice, `tests/parallel.rs::producers`, the DAG differential) live in
//! `crates/snowdb/tests` and run with `cargo test --workspace`.

use std::sync::Arc;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::{Database, QueryOptions, QueryResult, SnowError};

fn run(db: &Database, sql: &str, vectorize: bool) -> Result<QueryResult, SnowError> {
    let opts = QueryOptions { vectorize: Some(vectorize), threads: Some(2), ..Default::default() };
    db.query_with(sql, &opts)
}

#[test]
fn generated_q6_returns_the_same_rows_under_either_producer() {
    let db = Database::new();
    adl::generator::load_into(&db, "hep", &AdlConfig { events: 64, seed: 1234, partition_rows: 16 });
    let db = Arc::new(db);
    let q6 = adl::queries::queries("hep").into_iter().find(|q| q.id == "q6").expect("q6");
    assert!(q6.join_based, "q6 is the JOIN-based query: SEQ8() stamps, joins, FLATTEN, ARRAY_AGG");
    let sql = translate_query(db.clone(), &q6.jsoniq, NestedStrategy::JoinBased)
        .expect("translates")
        .sql()
        .to_string();
    let by_dag = run(&db, &sql, true).expect("runs vectorized").rows;
    let by_rows = run(&db, &sql, false).expect("runs row by row").rows;
    assert!(!by_dag.is_empty());
    assert_eq!(format!("{by_dag:?}"), format!("{by_rows:?}"));
}

#[test]
fn a_raising_statement_reports_the_same_error_under_either_producer() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT, k INT)").expect("creates");
    db.execute("INSERT INTO t VALUES (1, 4), (2, 0), (3, 5)").expect("inserts");
    let sql = "SELECT id, SUM(100 / k) FROM t WHERE id > 0 GROUP BY id ORDER BY id";
    let by_dag = run(&db, sql, true).expect_err("divides by zero").to_string();
    let by_rows = run(&db, sql, false).expect_err("divides by zero").to_string();
    assert!(by_dag.contains("division by zero"), "{by_dag}");
    assert_eq!(by_dag, by_rows);
}
