//! Tier-1 smoke for the statement grammar: one tokenizer decides where a
//! statement's parts begin, so a comment, a quote and a `;` mean the same
//! thing in every statement, and a clause the grammar does not have is a
//! typed parse error — never a row, a predicate or a `LIMIT` taken from a
//! comment or silently dropped. The table-driven grammar cases live beside
//! the parser (`sql::statement`'s in-file tests) and the expression-level
//! reference property in `crates/snowdb/tests/property.rs`.

use std::sync::Arc;

use snowdb::{Database, Session, SnowError, StatementResult, Variant};

fn four_rows() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (k INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 2), (4, 4)").unwrap();
    db
}

fn ints(db: &Database, sql: &str) -> Vec<Vec<i64>> {
    let rows = db.query(sql).unwrap().rows;
    rows.iter()
        .map(|r| r.iter().map(|v| v.as_i64().unwrap_or_else(|| panic!("{sql}: {v:?}"))).collect())
        .collect()
}

#[test]
fn a_comment_adds_no_tuple() {
    let db = four_rows();
    db.execute("INSERT INTO t VALUES (5, 5) -- , (6, 6)").unwrap();
    assert_eq!(
        ints(&db, "SELECT k, b FROM t ORDER BY k"),
        [[1, 1], [2, 2], [3, 2], [4, 4], [5, 5]]
    );
}

#[test]
fn delete_with_a_limit_is_a_parse_error_and_deletes_nothing() {
    let db = four_rows();
    for sql in ["DELETE FROM t WHERE k = 1 LIMIT 0", "DELETE FROM t WHERE k = 1 ORDER BY k"] {
        assert!(matches!(db.execute(sql), Err(SnowError::Parse(_))), "{sql}");
    }
    assert_eq!(ints(&db, "SELECT count(*) FROM t"), [[4]]);
}

#[test]
fn a_commented_where_is_not_the_predicate() {
    let db = four_rows();
    db.execute("UPDATE t SET k = 0 -- WHERE gone\n WHERE b = 2").unwrap();
    assert_eq!(
        ints(&db, "SELECT k, b FROM t ORDER BY b, k"),
        [[1, 1], [0, 2], [0, 2], [4, 4]]
    );
}

/// What a statement of the round-trip script must answer.
enum Want {
    /// A message containing this text.
    Msg(&'static str),
    /// One integer column with these values.
    Rows(&'static [i64]),
}

/// Every `Statement` variant, in an order one session can run top to bottom.
const SCRIPT: &[(&str, Want)] = &[
    ("CREATE TABLE u (a INT, s VARCHAR)", Want::Msg("created table U")),
    ("INSERT INTO u VALUES (1, 'x;--'), (2, '/* y */')", Want::Msg("2 row")),
    ("SELECT a FROM u ORDER BY a", Want::Rows(&[1, 2])),
    ("EXPLAIN SELECT a FROM u", Want::Msg("Scan U")),
    ("EXPLAIN ANALYZE SELECT a FROM u", Want::Msg("-- 2 row(s) in")),
    ("VERIFY SELECT a FROM u", Want::Msg("VERIFY SELECT a FROM u\n")),
    ("UPDATE u SET a = a + 10 WHERE s = '/* y */'", Want::Msg("1 row")),
    ("DELETE FROM u WHERE s = 'x;--'", Want::Msg("1 row")),
    ("SELECT a FROM u", Want::Rows(&[12])),
    ("CREATE TABLE c CLONE u AT(VERSION => 2)", Want::Msg("zero-copy clone of U")),
    ("SELECT a FROM c ORDER BY a", Want::Rows(&[1, 2])),
    ("DROP TABLE c", Want::Msg("dropped table C")),
    ("UNDROP TABLE c", Want::Msg("undropped table C")),
    ("SET STATEMENT_TIMEOUT_IN_SECONDS = 30", Want::Msg("STATEMENT_TIMEOUT_IN_SECONDS set to 30")),
    ("UNSET STATEMENT_TIMEOUT_IN_SECONDS", Want::Msg("STATEMENT_TIMEOUT_IN_SECONDS cleared")),
    ("BEGIN", Want::Msg("transaction started")),
    ("COMMIT", Want::Msg("commit")),
    ("START TRANSACTION", Want::Msg("transaction started")),
    ("ROLLBACK", Want::Msg("rolled back")),
];

fn run_script(tag: &str, execute: &dyn Fn(&str) -> snowdb::Result<StatementResult>) {
    for (sql, want) in SCRIPT {
        let decorated = format!("-- {sql};\n/* ; */ {sql} ; -- done");
        let got = execute(&decorated);
        match (got, want) {
            (Ok(StatementResult::Message(m)), Want::Msg(part)) => {
                assert!(m.contains(part), "{tag}: {sql}: {m}")
            }
            (Ok(StatementResult::Rows(r)), Want::Rows(vals)) => {
                let want: Vec<_> = vals.iter().map(|&v| vec![Variant::Int(v)]).collect();
                assert_eq!(r.rows, want, "{tag}: {sql}");
            }
            // A bare database has no transaction slot; that it says so shows
            // the verb was recognised under its comment and `;`.
            (Err(SnowError::Catalog(m)), _) if tag == "database" => {
                assert!(m.starts_with("explicit transactions require a session"), "{sql}: {m}")
            }
            (got, _) => panic!("{tag}: {sql}: unexpected {got:?}"),
        }
    }
}

#[test]
fn every_statement_kind_runs_under_a_comment_and_a_semicolon() {
    let db = Database::new();
    run_script("database", &|sql| db.execute(sql));
    let session = Session::new(Arc::new(Database::new()));
    run_script("session", &|sql| session.execute(sql));
}
