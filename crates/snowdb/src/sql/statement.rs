//! Statement-level SQL: queries plus the small DDL/DML surface the REPL and
//! examples use (`CREATE TABLE`, `INSERT INTO ... VALUES`, `UPDATE`,
//! `DELETE`, `DROP TABLE`, `EXPLAIN`, and the transaction verbs
//! `BEGIN`/`COMMIT`/`ROLLBACK`) — grammar rules of the one [`Parser`], over
//! the one token stream (DESIGN.md, "One statement path", has the EBNF).

use super::ast::{Expr, Query, Travel};
use super::lexer::Token;
use super::parser::{parse_with, Parser};
use crate::error::{Result, SnowError};
use crate::storage::ColumnType;

/// A parsed SQL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    Query(Query),
    Explain(Query),
    /// `EXPLAIN ANALYZE <query>`: run the query and render the plan annotated
    /// with measured per-operator metrics.
    ExplainAnalyze(Query),
    /// `VERIFY <query>`: run the query across the execution-configuration
    /// lattice and report agreement (or a divergence repro). The oracle
    /// re-plans `query` per configuration; `text` is what its report quotes:
    /// the source slice `query` was parsed from, from its first token to its
    /// last — comments before it, the closing `;` and trailing whitespace
    /// excluded.
    Verify { query: Query, text: String },
    CreateTable { name: String, columns: Vec<(String, ColumnType)> },
    /// `CREATE TABLE name CLONE source [AT(VERSION => n)]`: a zero-copy
    /// metadata clone — the new table shares the source's immutable
    /// partitions (optionally as of a retained historical version).
    CloneTable { name: String, source: String, travel: Option<Travel> },
    /// `UNDROP TABLE name`: restores the most recent retained version of a
    /// dropped table.
    Undrop { name: String },
    Insert { table: String, rows: Vec<Vec<Expr>> },
    /// `UPDATE t SET col = expr [, ...] [WHERE pred]`: copy-on-write
    /// partition rewrite; SET expressions see the *old* row.
    Update { table: String, sets: Vec<(String, Expr)>, predicate: Option<Expr> },
    /// `DELETE FROM t [WHERE pred]`: rows are deleted iff the predicate is
    /// `TRUE` (`FALSE`-or-`NULL` rows survive).
    Delete { table: String, predicate: Option<Expr> },
    DropTable { name: String, if_exists: bool },
    /// `BEGIN [TRANSACTION|WORK]` / `START TRANSACTION`.
    Begin,
    /// `COMMIT [TRANSACTION|WORK]`.
    Commit,
    /// `ROLLBACK [TRANSACTION|WORK]`.
    Rollback,
    /// `SET <parameter> = <value>`: session parameter assignment (Snowflake
    /// convention: `0` clears the limit).
    Set { name: String, value: u64 },
    /// `UNSET <parameter>`: clears a session parameter.
    Unset { name: String },
}

/// Parses one statement (an optional trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    parse_with(sql, Parser::statement)
}

impl Parser<'_> {
    /// One statement, chosen by its first keyword; anything else is a query.
    /// The caller checks that nothing but an optional `;` follows. Each rule
    /// below starts after its keyword.
    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("EXPLAIN") {
            self.explain()
        } else if self.eat_kw("VERIFY") {
            self.verify()
        } else if self.eat_kw("CREATE") {
            self.create()
        } else if self.eat_kw("INSERT") {
            self.insert()
        } else if self.eat_kw("UPDATE") {
            self.update()
        } else if self.eat_kw("DELETE") {
            self.delete()
        } else if self.eat_kw("DROP") {
            self.drop_table()
        } else if self.eat_kw("UNDROP") {
            self.expect_kw("TABLE")?;
            Ok(Statement::Undrop { name: self.ident()? })
        } else if self.eat_kw("SET") {
            self.set()
        } else if self.eat_kw("UNSET") {
            Ok(Statement::Unset { name: self.ident()? })
        } else if self.eat_kw("BEGIN") {
            Ok(self.txn_verb(Statement::Begin))
        } else if self.eat_kw("START") {
            self.expect_kw("TRANSACTION")?;
            Ok(Statement::Begin)
        } else if self.eat_kw("COMMIT") {
            Ok(self.txn_verb(Statement::Commit))
        } else if self.eat_kw("ROLLBACK") {
            Ok(self.txn_verb(Statement::Rollback))
        } else {
            Ok(Statement::Query(self.query()?))
        }
    }

    /// `EXPLAIN [ANALYZE] query`.
    fn explain(&mut self) -> Result<Statement> {
        if self.eat_kw("ANALYZE") {
            return Ok(Statement::ExplainAnalyze(self.query()?));
        }
        Ok(Statement::Explain(self.query()?))
    }

    /// `VERIFY query`.
    fn verify(&mut self) -> Result<Statement> {
        let from = self.offset();
        let query = self.query()?;
        Ok(Statement::Verify { query, text: self.source_since(from).to_string() })
    }

    /// `CREATE TABLE name ( col type [, ...] )` or
    /// `CREATE TABLE name CLONE source [AT(VERSION => n) | BEFORE(VERSION => n)]`.
    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        if self.eat_kw("CLONE") {
            let source = self.ident()?;
            return Ok(Statement::CloneTable { name, source, travel: self.maybe_travel()? });
        }
        self.expect_sym("(")?;
        let columns = self.comma_list(|p| {
            let col = p.ident()?;
            let ty_name = p.type_name()?;
            let ty = ColumnType::parse(&ty_name)
                .ok_or_else(|| SnowError::Parse(format!("unknown column type '{ty_name}'")))?;
            Ok((col, ty))
        })?;
        self.expect_sym(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    /// `INSERT INTO name VALUES (expr, ...) [, (expr, ...)]*`.
    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let rows = self.comma_list(|p| {
            p.expect_sym("(")?;
            let row = p.comma_list(Self::expr)?;
            p.expect_sym(")")?;
            Ok(row)
        })?;
        Ok(Statement::Insert { table, rows })
    }

    /// `UPDATE name SET col = expr [, ...] [WHERE predicate]`; a SET target
    /// may be qualified (`t.col`), the qualifier is not checked.
    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let sets = self.comma_list(|p| {
            let mut col = p.ident()?;
            if p.eat_sym(".") {
                col = p.ident()?;
            }
            p.expect_sym("=")?;
            Ok((col, p.expr()?))
        })?;
        Ok(Statement::Update { table, sets, predicate: self.maybe_where()? })
    }

    /// `DELETE FROM name [WHERE predicate]`.
    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        Ok(Statement::Delete { table, predicate: self.maybe_where()? })
    }

    fn maybe_where(&mut self) -> Result<Option<Expr>> {
        if self.eat_kw("WHERE") {
            return self.expr().map(Some);
        }
        Ok(None)
    }

    /// `DROP TABLE [IF EXISTS] name`.
    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        // `IF` is not reserved: `DROP TABLE if` drops a table named IF.
        let if_exists = self.peek().is_kw("IF") && self.peek2().is_kw("EXISTS");
        if if_exists {
            self.next();
            self.next();
        }
        Ok(Statement::DropTable { name: self.ident()?, if_exists })
    }

    /// `SET name = value`.
    fn set(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_sym("=")?;
        match self.next() {
            Token::Int(v) if v >= 0 => Ok(Statement::Set { name, value: v as u64 }),
            t => Err(SnowError::Parse(format!(
                "expected non-negative integer value for SET, found {t:?}"
            ))),
        }
    }

    /// Finishes `BEGIN`/`COMMIT`/`ROLLBACK`: an optional `TRANSACTION`/`WORK`
    /// noise word.
    fn txn_verb(&mut self, stmt: Statement) -> Statement {
        if !self.eat_kw("TRANSACTION") {
            self.eat_kw("WORK");
        }
        stmt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let s = parse_statement("CREATE TABLE t (a INT, b DOUBLE, c VARIANT)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "T");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0], ("A".to_string(), ColumnType::Int));
                assert_eq!(columns[2].1, ColumnType::Variant);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_values() {
        let s =
            parse_statement("INSERT INTO t VALUES (1, 'a'), (2 + 3, 'b,с(x)')").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "T");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_drop_variants() {
        assert!(matches!(
            parse_statement("DROP TABLE t").unwrap(),
            Statement::DropTable { if_exists: false, .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable { if_exists: true, .. }
        ));
    }

    #[test]
    fn parses_clone_and_undrop() {
        match parse_statement("CREATE TABLE t2 CLONE t1").unwrap() {
            Statement::CloneTable { name, source, travel } => {
                assert_eq!(name, "T2");
                assert_eq!(source, "T1");
                assert!(travel.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("CREATE TABLE t2 CLONE t1 AT(VERSION => 3)").unwrap() {
            Statement::CloneTable { travel, .. } => {
                assert_eq!(travel, Some(Travel { before: false, version: 3 }));
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("CREATE TABLE t2 CLONE t1 BEFORE(VERSION => 7)").unwrap() {
            Statement::CloneTable { travel, .. } => {
                assert_eq!(travel, Some(Travel { before: true, version: 7 }));
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("UNDROP TABLE t").unwrap() {
            Statement::Undrop { name } => assert_eq!(name, "T"),
            other => panic!("{other:?}"),
        }
        for bad in [
            "UNDROP t",
            "UNDROP TABLE t x",
            "CREATE TABLE t2 CLONE t1 AT(VERSION 3)",
            "CREATE TABLE t2 CLONE t1 AT(VERSION => -1)",
            "CREATE TABLE t2 CLONE t1 garbage",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_time_travel_queries() {
        use super::super::ast::{SetExpr, TableFactor};
        let travel_of = |sql: &str| -> Option<Travel> {
            match parse_statement(sql).unwrap() {
                Statement::Query(q) => match q.body {
                    SetExpr::Select(sel) => match sel.from.unwrap().base {
                        TableFactor::Table { travel, .. } => travel,
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(
            travel_of("SELECT * FROM t AT(VERSION => 5)"),
            Some(Travel { before: false, version: 5 })
        );
        assert_eq!(
            travel_of("SELECT * FROM t BEFORE(VERSION => 2) x WHERE x.a > 0"),
            Some(Travel { before: true, version: 2 })
        );
        // AT without '(' is still a plain alias (back-compat).
        assert_eq!(travel_of("SELECT * FROM t at"), None);
        assert!(parse_statement("SELECT * FROM t AT(VERSION 5)").is_err());
    }

    #[test]
    fn parses_explain_and_plain_queries() {
        assert!(matches!(
            parse_statement("EXPLAIN SELECT 1").unwrap(),
            Statement::Explain(_)
        ));
        assert!(matches!(parse_statement("SELECT 1").unwrap(), Statement::Query(_)));
    }

    #[test]
    fn parses_explain_analyze() {
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE SELECT 1").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
        assert!(matches!(
            parse_statement("  explain   analyze SELECT 1").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
        // A table named ANALYZE must not trigger the ANALYZE path.
        assert!(matches!(
            parse_statement("EXPLAIN SELECT a FROM analyze_log").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn parses_verify() {
        match parse_statement("VERIFY SELECT 1").unwrap() {
            Statement::Verify { text, .. } => assert_eq!(text, "SELECT 1"),
            other => panic!("{other:?}"),
        }
        // Syntax errors in the verified query surface at parse time.
        assert!(parse_statement("VERIFY SELECT 1 +").is_err());
    }

    #[test]
    fn insert_table_named_like_values_keyword() {
        // The keyword scan must not split at the table name or at a string
        // literal containing "values"; the old substring search did both.
        let s = parse_statement("INSERT INTO values_log VALUES (1, 'values'), (2, 'x')")
            .unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "VALUES_LOG");
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    /// One token stream decides where a statement's parts begin: a comment,
    /// a quote and a `;` mean the same thing in every statement, and nothing
    /// after a complete statement is silently dropped. Each text is either
    /// the statement it means (`Some`) or a typed parse error (`None`).
    #[test]
    fn comments_quotes_and_trailing_text_mean_the_same_everywhere() {
        let means = |clean: &str| Some(parse_statement(clean).unwrap());
        let quoted_ident = Statement::Insert {
            table: "T".into(),
            rows: vec![vec![Expr::Ident(vec!["a'b".into()])]],
        };
        let cases = [
            ("INSERT INTO t VALUES (1) -- (2)", means("INSERT INTO t VALUES (1)")),
            ("INSERT INTO t /* VALUES */ VALUES (1)", means("INSERT INTO t VALUES (1)")),
            ("INSERT INTO t VALUES (\"a'b\")", Some(quoted_ident)),
            ("INSERT INTO t VALUES (1) garbage (2)", None),
            ("INSERT INTO t VALUES (1 FROM nums WHERE FALSE)", None),
            ("INSERT INTO t VALUES (1),, (2) x", None),
            ("INSERT INTO t VALUES (1),", None),
            ("INSERT INTO t VALUES (1 AS x)", None),
            ("DELETE FROM t;", means("DELETE FROM t")),
            ("DELETE FROM t WHERE k = 1 LIMIT 0", None),
            ("DELETE FROM t WHERE k = 1 ORDER BY k", None),
            ("DELETE FROM t WHERE k = 1 FROM u", None),
            (
                "UPDATE t SET a = 1 -- WHERE gone\n WHERE b = 2",
                means("UPDATE t SET a = 1 WHERE b = 2"),
            ),
            // The right side of a SET is a whole expression, not an operand.
            (
                "UPDATE t SET b = a > 1, c = NOT b WHERE a",
                means("UPDATE t SET b = (a > 1), c = (NOT b) WHERE a"),
            ),
            ("UPDATE t SET a = 1 AS z, b = 2", None),
            ("UPDATE t SET a = 1 FROM u WHERE b = 2", None),
            ("UPDATE t SET a = 1 WHERE b = 2 LIMIT 1", None),
            ("DROP TABLE t extra", None),
            ("CREATE TABLE t (a INT) extra", None),
            ("CREATE TABLE t (a NUMBER(38", None),
            ("-- note\nEXPLAIN SELECT 1", means("EXPLAIN SELECT 1")),
            ("/* c */ EXPLAIN ANALYZE SELECT 1", means("EXPLAIN ANALYZE SELECT 1")),
            ("VERIFY/**/SELECT 1", means("VERIFY SELECT 1")),
            ("VERIFY -- c\n SELECT 1 ; ", means("VERIFY SELECT 1")),
            ("SET x = 1;", means("SET x = 1")),
            ("BEGIN;", means("BEGIN")),
            ("BEGIN;;", None),
        ];
        for (sql, want) in cases {
            match (parse_statement(sql), want) {
                (Ok(got), Some(want)) => assert_eq!(got, want, "{sql}"),
                (Err(SnowError::Parse(_)), None) => {}
                (got, want) => panic!("{sql}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn deep_nesting_in_dml_is_a_typed_error() {
        let (open, close) = ("(".repeat(100_000), ")".repeat(100_000));
        for sql in [
            format!("INSERT INTO t VALUES ({open}1{close})"),
            format!("UPDATE t SET a = {open}1{close}"),
            format!("DELETE FROM t WHERE {open}1{close}"),
        ] {
            assert!(matches!(parse_statement(&sql), Err(SnowError::Parse(_))));
        }
    }

    #[test]
    fn rejects_malformed_ddl() {
        for bad in [
            "CREATE TABLE t",
            "CREATE TABLE t ()",
            "INSERT t VALUES (1)",
            "INSERT INTO t VALUES",
            "DROP t",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_delete() {
        match parse_statement("DELETE FROM t").unwrap() {
            Statement::Delete { table, predicate } => {
                assert_eq!(table, "T");
                assert!(predicate.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("DELETE FROM t WHERE a > 3 AND b = 'where'").unwrap() {
            Statement::Delete { table, predicate } => {
                assert_eq!(table, "T");
                assert!(predicate.is_some());
            }
            other => panic!("{other:?}"),
        }
        for bad in ["DELETE t", "DELETE FROM t WHERE", "DELETE FROM t GARBAGE"] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_update() {
        match parse_statement("UPDATE t SET a = a + 1, b = 'set' WHERE a < 5").unwrap() {
            Statement::Update { table, sets, predicate } => {
                assert_eq!(table, "T");
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].0, "A");
                assert_eq!(sets[1].0, "B");
                assert!(predicate.is_some());
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("UPDATE t SET x = 0").unwrap() {
            Statement::Update { sets, predicate, .. } => {
                assert_eq!(sets.len(), 1);
                assert!(predicate.is_none());
            }
            other => panic!("{other:?}"),
        }
        for bad in ["UPDATE t", "UPDATE t SET", "UPDATE t SET a + 1", "UPDATE t SET 1 = 2"] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_transaction_verbs() {
        for (sql, want) in [
            ("BEGIN", Statement::Begin),
            ("begin transaction", Statement::Begin),
            ("BEGIN WORK", Statement::Begin),
            ("START TRANSACTION", Statement::Begin),
            ("COMMIT", Statement::Commit),
            ("commit work", Statement::Commit),
            ("ROLLBACK", Statement::Rollback),
            ("ROLLBACK TRANSACTION", Statement::Rollback),
        ] {
            assert_eq!(parse_statement(sql).unwrap(), want, "{sql}");
        }
        for bad in ["BEGIN 1", "START", "COMMIT now please", "ROLLBACK TO x"] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_set_and_unset() {
        match parse_statement("SET STATEMENT_TIMEOUT_IN_SECONDS = 30").unwrap() {
            Statement::Set { name, value } => {
                assert_eq!(name, "STATEMENT_TIMEOUT_IN_SECONDS");
                assert_eq!(value, 30);
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("unset statement_memory_limit").unwrap() {
            Statement::Unset { name } => assert_eq!(name, "STATEMENT_MEMORY_LIMIT"),
            other => panic!("{other:?}"),
        }
        for bad in [
            "SET x",
            "SET x = 'str'",
            "SET x = -1",
            "SET x = 1 2",
            "UNSET x y",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject {bad:?}");
        }
    }
}
