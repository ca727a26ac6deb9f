//! End-to-end tests for the statement surface: DDL, DML, EXPLAIN, LIKE.

mod common;

use std::sync::Arc;

use common::{msg, rows};
use snowdb::engine::StatementResult;
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::{Database, Session, SnowError, Variant};

#[test]
fn create_insert_query_drop_lifecycle() {
    let db = Database::new();
    db.execute("CREATE TABLE people (name VARCHAR, age INT)").unwrap();
    db.execute("INSERT INTO people VALUES ('ada', 36), ('grace', 45 + 1)").unwrap();
    db.execute("INSERT INTO people VALUES ('edsger', 40)").unwrap();
    let r = rows(db.execute("SELECT name FROM people WHERE age > 39 ORDER BY name").unwrap());
    assert_eq!(r, vec![vec![Variant::str("edsger")], vec![Variant::str("grace")]]);
    db.execute("DROP TABLE people").unwrap();
    assert!(db.execute("SELECT * FROM people").is_err());
    // IF EXISTS tolerates missing tables.
    db.execute("DROP TABLE IF EXISTS people").unwrap();
    assert!(db.execute("DROP TABLE people").is_err());
}

#[test]
fn create_duplicate_table_is_rejected() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    assert!(db.execute("CREATE TABLE t (a INT)").is_err());
}

#[test]
fn insert_arity_mismatch_is_rejected() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    assert!(db.execute("INSERT INTO t VALUES (1)").is_err());
}

#[test]
fn explain_returns_plan_text() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    match db.execute("EXPLAIN SELECT a FROM t WHERE a > 1").unwrap() {
        StatementResult::Message(plan) => {
            assert!(plan.contains("Scan T"), "{plan}");
            assert!(plan.contains("Filter"), "{plan}");
        }
        other => panic!("{other:?}"),
    }
    // Also available directly.
    let plan = db.explain("SELECT b FROM t").unwrap();
    assert!(plan.contains("Project"), "{plan}");
}

#[test]
fn like_patterns() {
    let db = Database::new();
    db.execute("CREATE TABLE t (s VARCHAR)").unwrap();
    db.execute("INSERT INTO t VALUES ('MFGR#1201'), ('MFGR#22'), ('other'), ('M_GR')")
        .unwrap();
    let r = rows(db.execute("SELECT s FROM t WHERE s LIKE 'MFGR#12%' ORDER BY s").unwrap());
    assert_eq!(r, vec![vec![Variant::str("MFGR#1201")]]);
    let r = rows(db.execute("SELECT COUNT(*) FROM t WHERE s LIKE 'M%'").unwrap());
    assert_eq!(r[0][0], Variant::Int(3));
    let r = rows(db.execute("SELECT COUNT(*) FROM t WHERE s LIKE 'M_GR'").unwrap());
    assert_eq!(r[0][0], Variant::Int(1));
    let r = rows(db.execute("SELECT COUNT(*) FROM t WHERE s NOT LIKE '%#%'").unwrap());
    assert_eq!(r[0][0], Variant::Int(2));
}

#[test]
fn like_with_null_is_null() {
    let db = Database::new();
    db.execute("CREATE TABLE t (s VARCHAR)").unwrap();
    db.execute("INSERT INTO t VALUES ('x')").unwrap();
    let r = rows(db.execute("SELECT NULL LIKE 'x' FROM t").unwrap());
    assert!(r[0][0].is_null());
}

#[test]
fn like_empty_and_wildcard_edge_cases() {
    let db = Database::new();
    db.execute("CREATE TABLE t (s VARCHAR)").unwrap();
    db.execute("INSERT INTO t VALUES ('')").unwrap();
    let r = rows(db.execute("SELECT s LIKE '%', s LIKE '_', s LIKE '' FROM t").unwrap());
    assert_eq!(r[0], vec![Variant::Bool(true), Variant::Bool(false), Variant::Bool(true)]);
}

fn shared_db(rows: i64) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.load_table(
        "t",
        vec![ColumnDef::new("X", ColumnType::Int)],
        (0..rows).map(|i| vec![Variant::Int(i)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    db
}

/// Every statement kind that executes a plan is bounded by the limits of the
/// session that ran it — not by the database-wide defaults, and not by
/// another session's.
#[test]
fn plan_executing_statements_run_under_their_sessions_limits() {
    let db = shared_db(1000);
    let limited = Session::new(db.clone());
    let free = Session::new(db.clone());
    limited.execute("SET MAX_BYTES_SCANNED = 1").unwrap();
    for sql in [
        "SELECT sum(x) FROM t",
        "EXPLAIN ANALYZE SELECT sum(x) FROM t",
        "VERIFY SELECT sum(x) FROM t",
    ] {
        match limited.execute(sql) {
            Err(SnowError::ResourceExhausted(trip)) => {
                assert_eq!(trip.resource, "bytes_scanned", "{sql}");
                assert_eq!(trip.limit, 1, "{sql}");
            }
            other => panic!("{sql}: expected the session's budget to trip, got {other:?}"),
        }
        free.execute(sql).unwrap_or_else(|e| panic!("{sql}: unlimited session failed: {e}"));
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: bare database failed: {e}"));
    }
    // A plan that is only rendered scans nothing and trips nothing.
    limited.execute("EXPLAIN SELECT sum(x) FROM t").unwrap();
}

/// Read-only `EXPLAIN [ANALYZE]` is accepted inside a transaction and plans
/// against the transaction's effective catalog.
#[test]
fn explain_inside_a_transaction_sees_the_transactions_writes() {
    let db = shared_db(10);
    let s = Session::new(db.clone());
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (100), (101), (102)").unwrap();
    let plan = msg(s.execute("EXPLAIN SELECT x FROM t WHERE x > 1").unwrap());
    assert!(plan.contains("Scan T") && plan.contains("Filter"), "{plan}");
    let analyzed = msg(s.execute("EXPLAIN ANALYZE SELECT x FROM t").unwrap());
    assert!(analyzed.contains("-- 13 row(s) in"), "{analyzed}");
    // Another session still analyses the committed version.
    let other = msg(Session::new(db).execute("EXPLAIN ANALYZE SELECT x FROM t").unwrap());
    assert!(other.contains("-- 10 row(s) in"), "{other}");
    s.execute("ROLLBACK").unwrap();
    let after = msg(s.execute("EXPLAIN ANALYZE SELECT x FROM t").unwrap());
    assert!(after.contains("-- 10 row(s) in"), "{after}");
}

/// Statements whose effect a transaction's write set cannot express stay
/// rejected inside one, with the message they always had.
#[test]
fn catalog_mutations_and_verify_inside_a_transaction_are_rejected() {
    let s = Session::new(shared_db(10));
    s.execute("BEGIN").unwrap();
    for sql in [
        "CREATE TABLE u (a INT)",
        "DROP TABLE t",
        "UNDROP TABLE t",
        "CREATE TABLE c CLONE t",
        "VERIFY SELECT x FROM t",
    ] {
        match s.execute(sql) {
            Err(SnowError::Catalog(m)) => assert!(
                m.starts_with(
                    "statement is not supported inside a transaction (COMMIT or ROLLBACK first): "
                ),
                "{sql}: {m}"
            ),
            other => panic!("{sql}: unexpected {other:?}"),
        }
    }
    match s.execute("SET DATA_RETENTION_VERSIONS = 4") {
        Err(SnowError::Catalog(m)) => assert_eq!(
            m,
            "cannot change DATA_RETENTION_VERSIONS inside a transaction (COMMIT or ROLLBACK first)"
        ),
        other => panic!("unexpected {other:?}"),
    }
    // Ordinary session parameters are session state, not catalog state.
    s.execute("SET STATEMENT_TIMEOUT_IN_SECONDS = 30").unwrap();
    assert!(s.in_transaction());
    s.execute("ROLLBACK").unwrap();
}

/// A statement over `t(a)` that nests exactly `levels` parser levels
/// (`sql::parser::MAX_DEPTH`): `query` and every `expr` count one each, and
/// so do a `NOT` and a unary minus.
fn nested(shape: &str, levels: usize) -> String {
    // Below the `SELECT`'s `query` and its item's `expr`.
    let n = levels - 2;
    // Below the one `expr` of a `VALUES` tuple or a `SET` target.
    let m = levels - 1;
    match shape {
        "parentheses" => format!("SELECT {}a{} FROM t", "(".repeat(n), ")".repeat(n)),
        "nested calls" => format!("SELECT {}a{} FROM t", "ABS(".repeat(n), ")".repeat(n)),
        "CASE WHEN" => format!(
            "SELECT {}a{} FROM t",
            "CASE WHEN a > 0 THEN ".repeat(n),
            " ELSE 0 END".repeat(n)
        ),
        "NOT" => format!("SELECT {}a > 0 FROM t", "NOT ".repeat(n)),
        "unary minus" => format!("SELECT {}a FROM t", "- ".repeat(n)),
        "derived tables" => format!(
            "SELECT * FROM {}t{}",
            "(SELECT * FROM ".repeat(levels - 1),
            ")".repeat(levels - 1)
        ),
        "INSERT VALUES" => format!("INSERT INTO t VALUES ({}4{})", "(".repeat(m), ")".repeat(m)),
        "UPDATE SET" => format!("UPDATE t SET a = {}a + 1{}", "(".repeat(m), ")".repeat(m)),
        _ => unreachable!("{shape}"),
    }
}

/// Every statement runs on its caller's thread: on the 2 MiB stack Rust gives
/// a spawned thread, in a debug build, each shape at the parser's bound is
/// parsed, bound, optimized and executed, and one level past it — or ten
/// thousand — is `SnowError::Parse` naming the bound, never a stack overflow.
#[test]
fn nesting_at_the_bound_runs_on_a_small_stack_and_past_it_is_a_typed_error() {
    use snowdb::sql::parser::MAX_DEPTH;
    let run = || {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let bound = format!("depth ({MAX_DEPTH})");
        let too_deep =
            |sql: &str| matches!(db.execute(sql), Err(SnowError::Parse(m)) if m.contains(&bound));
        let ints = |vals: &[i64]| vals.iter().map(|&v| vec![Variant::Int(v)]).collect::<Vec<_>>();
        for shape in ["parentheses", "nested calls", "CASE WHEN", "NOT", "unary minus", "derived tables"] {
            let answer = rows(db.execute(&nested(shape, MAX_DEPTH)).unwrap());
            assert_eq!(answer, rows(db.execute(&nested(shape, 2)).unwrap()), "{shape}");
            assert_eq!(answer.len(), 3, "{shape}");
            assert!(too_deep(&nested(shape, MAX_DEPTH + 1)), "{shape}");
            assert!(too_deep(&nested(shape, 10_000)), "{shape}");
        }
        assert!(too_deep(&nested("INSERT VALUES", MAX_DEPTH + 1)));
        msg(db.execute(&nested("INSERT VALUES", MAX_DEPTH)).unwrap());
        assert!(too_deep(&nested("UPDATE SET", MAX_DEPTH + 1)));
        msg(db.execute(&nested("UPDATE SET", MAX_DEPTH)).unwrap());
        assert_eq!(rows(db.execute("SELECT a FROM t ORDER BY a").unwrap()), ints(&[2, 3, 4, 5]));
        // Refused by the parser, not handed to the passes after it, whose
        // recursion over 140 derived tables would overflow this stack.
        assert!(too_deep(&nested("derived tables", 140)));
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .expect("spawn a thread")
        .join()
        .expect("no stack overflow, no panic");
}
