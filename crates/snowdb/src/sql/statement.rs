//! Statement-level SQL: queries plus the small DDL/DML surface the REPL and
//! examples use (`CREATE TABLE`, `INSERT INTO ... VALUES`, `UPDATE`,
//! `DELETE`, `DROP TABLE`, `EXPLAIN`, and the transaction verbs
//! `BEGIN`/`COMMIT`/`ROLLBACK`).

use super::ast::{BinOp, Expr, Query, Travel};
use super::lexer::{tokenize, Token};
use super::parser::parse_query;
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
    /// re-plans `query` per configuration; `text` is what its report quotes.
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

/// Parses one statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let toks = tokenize(sql)?;
    match toks.first() {
        Some(t) if t.is_kw("EXPLAIN") => {
            let rest = sql.trim_start();
            let rest = &rest[rest.len().min(7)..]; // strip "EXPLAIN"
            if toks.get(1).is_some_and(|t| t.is_kw("ANALYZE")) {
                let rest = rest.trim_start();
                let rest = &rest[rest.len().min(7)..]; // strip "ANALYZE"
                return Ok(Statement::ExplainAnalyze(parse_query(rest)?));
            }
            Ok(Statement::Explain(parse_query(rest)?))
        }
        Some(t) if t.is_kw("VERIFY") => {
            let rest = sql.trim_start();
            let rest = &rest[rest.len().min(6)..]; // strip "VERIFY"
            Ok(Statement::Verify { query: parse_query(rest)?, text: rest.trim().to_string() })
        }
        Some(t) if t.is_kw("CREATE") => parse_create(&toks),
        Some(t) if t.is_kw("INSERT") => parse_insert(sql, &toks),
        Some(t) if t.is_kw("UPDATE") => parse_update(sql, &toks),
        Some(t) if t.is_kw("DELETE") => parse_delete(sql, &toks),
        Some(t) if t.is_kw("DROP") => parse_drop(&toks),
        Some(t) if t.is_kw("UNDROP") => parse_undrop(&toks),
        Some(t) if t.is_kw("SET") => parse_set(&toks),
        Some(t) if t.is_kw("UNSET") => parse_unset(&toks),
        Some(t) if t.is_kw("BEGIN") => parse_txn_verb(&toks, 1, Statement::Begin),
        Some(t) if t.is_kw("START") => {
            if !toks.get(1).is_some_and(|t| t.is_kw("TRANSACTION")) {
                return Err(SnowError::Parse("expected START TRANSACTION".into()));
            }
            parse_txn_verb(&toks, 2, Statement::Begin)
        }
        Some(t) if t.is_kw("COMMIT") => parse_txn_verb(&toks, 1, Statement::Commit),
        Some(t) if t.is_kw("ROLLBACK") => parse_txn_verb(&toks, 1, Statement::Rollback),
        _ => Ok(Statement::Query(parse_query(sql)?)),
    }
}

/// Finishes a transaction verb: an optional `TRANSACTION`/`WORK` noise word,
/// then end of statement.
fn parse_txn_verb(toks: &[Token], mut i: usize, stmt: Statement) -> Result<Statement> {
    if i == 1 && toks.get(i).is_some_and(|t| t.is_kw("TRANSACTION") || t.is_kw("WORK")) {
        i += 1;
    }
    if !matches!(toks.get(i), Some(Token::Eof) | None) {
        return Err(SnowError::Parse(format!(
            "unexpected trailing tokens after {stmt:?}"
        )));
    }
    Ok(stmt)
}

fn parse_set(toks: &[Token]) -> Result<Statement> {
    // SET name = value
    let name = ident_at(toks, 1)?;
    if !toks.get(2).is_some_and(|t| t.is_sym("=")) {
        return Err(SnowError::Parse("expected '=' after SET parameter name".into()));
    }
    let value = match toks.get(3) {
        Some(Token::Int(v)) if *v >= 0 => *v as u64,
        other => {
            return Err(SnowError::Parse(format!(
                "expected non-negative integer value for SET, found {other:?}"
            )))
        }
    };
    if !matches!(toks.get(4), Some(Token::Eof) | None) {
        return Err(SnowError::Parse("unexpected trailing tokens after SET".into()));
    }
    Ok(Statement::Set { name, value })
}

fn parse_unset(toks: &[Token]) -> Result<Statement> {
    // UNSET name
    let name = ident_at(toks, 1)?;
    if !matches!(toks.get(2), Some(Token::Eof) | None) {
        return Err(SnowError::Parse("unexpected trailing tokens after UNSET".into()));
    }
    Ok(Statement::Unset { name })
}

fn ident_at(toks: &[Token], i: usize) -> Result<String> {
    match toks.get(i) {
        Some(Token::Ident { text, .. }) => Ok(text.clone()),
        other => Err(SnowError::Parse(format!("expected identifier, found {other:?}"))),
    }
}

fn parse_create(toks: &[Token]) -> Result<Statement> {
    // CREATE TABLE name ( col type [, ...] )
    // CREATE TABLE name CLONE source [AT(VERSION => n) | BEFORE(VERSION => n)]
    let mut i = 1;
    if !toks.get(i).is_some_and(|t| t.is_kw("TABLE")) {
        return Err(SnowError::Parse("expected CREATE TABLE".into()));
    }
    i += 1;
    let name = ident_at(toks, i)?;
    i += 1;
    if toks.get(i).is_some_and(|t| t.is_kw("CLONE")) {
        let source = ident_at(toks, i + 1)?;
        i += 2;
        let travel = parse_travel_tokens(toks, &mut i)?;
        if !matches!(toks.get(i), Some(Token::Eof) | None) {
            return Err(SnowError::Parse("unexpected trailing tokens after CLONE".into()));
        }
        return Ok(Statement::CloneTable { name, source, travel });
    }
    if !toks.get(i).is_some_and(|t| t.is_sym("(")) {
        return Err(SnowError::Parse("expected '(' after table name".into()));
    }
    i += 1;
    let mut columns = Vec::new();
    loop {
        let col = ident_at(toks, i)?;
        i += 1;
        let ty_name = ident_at(toks, i)?;
        i += 1;
        // Skip optional precision arguments like NUMBER(38, 0).
        if toks.get(i).is_some_and(|t| t.is_sym("(")) {
            while !toks.get(i).is_some_and(|t| t.is_sym(")")) {
                i += 1;
                if i > toks.len() {
                    return Err(SnowError::Parse("unterminated type arguments".into()));
                }
            }
            i += 1;
        }
        let ty = ColumnType::parse(&ty_name)
            .ok_or_else(|| SnowError::Parse(format!("unknown column type '{ty_name}'")))?;
        columns.push((col, ty));
        if toks.get(i).is_some_and(|t| t.is_sym(",")) {
            i += 1;
            continue;
        }
        break;
    }
    if !toks.get(i).is_some_and(|t| t.is_sym(")")) {
        return Err(SnowError::Parse("expected ')' to close column list".into()));
    }
    if columns.is_empty() {
        return Err(SnowError::Parse("CREATE TABLE requires at least one column".into()));
    }
    Ok(Statement::CreateTable { name, columns })
}

fn parse_insert(sql: &str, toks: &[Token]) -> Result<Statement> {
    // INSERT INTO name VALUES (expr, ...) [, (expr, ...)]*
    if !(toks.get(1).is_some_and(|t| t.is_kw("INTO"))) {
        return Err(SnowError::Parse("expected INSERT INTO".into()));
    }
    let table = ident_at(toks, 2)?;
    if !toks.get(3).is_some_and(|t| t.is_kw("VALUES")) {
        return Err(SnowError::Parse("expected VALUES".into()));
    }
    // Reuse the expression parser by rewriting each tuple into a SELECT list.
    let values_pos = find_keyword(sql, "VALUES").ok_or_else(|| {
        SnowError::Parse("expected VALUES keyword in INSERT statement".into())
    })?;
    let tail = &sql[values_pos + "VALUES".len()..];
    let mut rows = Vec::new();
    for tuple in split_tuples(tail)? {
        let q = parse_query(&format!("SELECT {tuple}"))?;
        match q.body {
            super::ast::SetExpr::Select(sel) => {
                let row: Vec<Expr> = sel
                    .items
                    .into_iter()
                    .map(|it| match it {
                        super::ast::SelectItem::Expr { expr, .. } => Ok(expr),
                        other => Err(SnowError::Parse(format!(
                            "invalid VALUES item {other:?}"
                        ))),
                    })
                    .collect::<Result<_>>()?;
                rows.push(row);
            }
            _ => return Err(SnowError::Parse("invalid VALUES list".into())),
        }
    }
    if rows.is_empty() {
        return Err(SnowError::Parse("VALUES requires at least one tuple".into()));
    }
    Ok(Statement::Insert { table, rows })
}

/// Locates the byte offset of keyword `kw` in a statement: case-insensitive,
/// on a word boundary, and outside string literals and quoted identifiers.
/// A naive substring search mis-splits statements like
/// `INSERT INTO values_log VALUES (1)` at the table name, and the old
/// `.expect` on its result turned that planner-adjacent edge into a process
/// abort instead of a parse error. `UPDATE`/`DELETE` use the same scan to
/// split at `SET`/`WHERE`.
fn find_keyword(sql: &str, kw: &str) -> Option<usize> {
    let bytes = sql.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' | b'"' => {
                let quote = bytes[i];
                i += 1;
                while i < bytes.len() && bytes[i] != quote {
                    i += 1;
                }
                i += 1; // past the closing quote (or end of input)
            }
            b if is_word(b) => {
                let start = i;
                while i < bytes.len() && is_word(bytes[i]) {
                    i += 1;
                }
                if sql[start..i].eq_ignore_ascii_case(kw) {
                    return Some(start);
                }
            }
            _ => i += 1,
        }
    }
    None
}

/// Parses a comma-separated expression list by rewriting it into a `SELECT`
/// projection (the same trick `INSERT ... VALUES` uses), so `UPDATE`/`DELETE`
/// expressions get the full expression grammar for free.
fn parse_expr_list(text: &str) -> Result<Vec<Expr>> {
    if text.trim().is_empty() {
        return Err(SnowError::Parse("expected an expression".into()));
    }
    let q = parse_query(&format!("SELECT {text}"))?;
    match q.body {
        super::ast::SetExpr::Select(sel) => sel
            .items
            .into_iter()
            .map(|it| match it {
                super::ast::SelectItem::Expr { expr, .. } => Ok(expr),
                other => Err(SnowError::Parse(format!("invalid expression {other:?}"))),
            })
            .collect(),
        _ => Err(SnowError::Parse("invalid expression list".into())),
    }
}

fn parse_single_expr(text: &str) -> Result<Expr> {
    let mut items = parse_expr_list(text)?;
    if items.len() != 1 {
        return Err(SnowError::Parse(format!(
            "expected a single expression, found {}",
            items.len()
        )));
    }
    Ok(items.remove(0))
}

fn parse_delete(sql: &str, toks: &[Token]) -> Result<Statement> {
    // DELETE FROM name [WHERE predicate]
    if !toks.get(1).is_some_and(|t| t.is_kw("FROM")) {
        return Err(SnowError::Parse("expected DELETE FROM".into()));
    }
    let table = ident_at(toks, 2)?;
    let predicate = match toks.get(3) {
        Some(Token::Eof) | None => None,
        Some(t) if t.is_kw("WHERE") => {
            let pos = find_keyword(sql, "WHERE")
                .ok_or_else(|| SnowError::Parse("expected WHERE".into()))?;
            Some(parse_single_expr(&sql[pos + "WHERE".len()..])?)
        }
        other => {
            return Err(SnowError::Parse(format!(
                "unexpected token after DELETE FROM {table}: {other:?}"
            )))
        }
    };
    Ok(Statement::Delete { table, predicate })
}

fn parse_update(sql: &str, toks: &[Token]) -> Result<Statement> {
    // UPDATE name SET col = expr [, ...] [WHERE predicate]
    let table = ident_at(toks, 1)?;
    if !toks.get(2).is_some_and(|t| t.is_kw("SET")) {
        return Err(SnowError::Parse("expected SET after UPDATE table name".into()));
    }
    let set_pos = find_keyword(sql, "SET")
        .ok_or_else(|| SnowError::Parse("expected SET in UPDATE".into()))?;
    let where_pos = find_keyword(sql, "WHERE");
    let assignments = match where_pos {
        Some(w) => &sql[set_pos + "SET".len()..w],
        None => &sql[set_pos + "SET".len()..],
    };
    let mut sets = Vec::new();
    for item in parse_expr_list(assignments)? {
        // Each assignment parses as an equality expression whose left side
        // must be a plain (optionally qualified) column reference.
        match item {
            Expr::Binary { left, op: BinOp::Eq, right } => match *left {
                Expr::Ident(parts) if !parts.is_empty() => {
                    let col = parts.last().expect("non-empty ident path").clone();
                    sets.push((col, *right));
                }
                other => {
                    return Err(SnowError::Parse(format!(
                        "SET target must be a column name, found {other:?}"
                    )))
                }
            },
            other => {
                return Err(SnowError::Parse(format!(
                    "expected 'column = expression' in SET, found {other:?}"
                )))
            }
        }
    }
    if sets.is_empty() {
        return Err(SnowError::Parse("UPDATE requires at least one assignment".into()));
    }
    let predicate = where_pos
        .map(|w| parse_single_expr(&sql[w + "WHERE".len()..]))
        .transpose()?;
    Ok(Statement::Update { table, sets, predicate })
}

/// Splits `(a, b), (c, d)` into top-level tuples, respecting nesting and
/// string literals.
fn split_tuples(text: &str) -> Result<Vec<String>> {
    let mut tuples = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                if depth > 0 {
                    current.push(c);
                }
            }
            '(' if !in_str => {
                if depth > 0 {
                    current.push(c);
                }
                depth += 1;
            }
            ')' if !in_str => {
                if depth == 0 {
                    return Err(SnowError::Parse("unbalanced ')' in VALUES".into()));
                }
                depth -= 1;
                if depth == 0 {
                    tuples.push(std::mem::take(&mut current));
                } else {
                    current.push(c);
                }
            }
            _ => {
                if depth > 0 {
                    current.push(c);
                }
            }
        }
    }
    if depth != 0 || in_str {
        return Err(SnowError::Parse("unterminated VALUES tuple".into()));
    }
    Ok(tuples)
}

/// Token-level `AT(VERSION => n)` / `BEFORE(VERSION => n)` for the DDL
/// surface (`CREATE ... CLONE`); the query parser has its own copy.
fn parse_travel_tokens(toks: &[Token], i: &mut usize) -> Result<Option<Travel>> {
    let before = match toks.get(*i) {
        Some(t) if t.is_kw("AT") => false,
        Some(t) if t.is_kw("BEFORE") => true,
        _ => return Ok(None),
    };
    if !toks.get(*i + 1).is_some_and(|t| t.is_sym("(")) {
        return Ok(None);
    }
    *i += 2;
    if !toks.get(*i).is_some_and(|t| t.is_kw("VERSION")) {
        return Err(SnowError::Parse("expected VERSION in AT/BEFORE clause".into()));
    }
    *i += 1;
    if !toks.get(*i).is_some_and(|t| t.is_sym("=>")) {
        return Err(SnowError::Parse("expected '=>' after VERSION".into()));
    }
    *i += 1;
    let version = match toks.get(*i) {
        Some(Token::Int(n)) if *n >= 0 => *n as u64,
        other => {
            return Err(SnowError::Parse(format!(
                "expected version number, found {other:?}"
            )))
        }
    };
    *i += 1;
    if !toks.get(*i).is_some_and(|t| t.is_sym(")")) {
        return Err(SnowError::Parse("expected ')' to close AT/BEFORE clause".into()));
    }
    *i += 1;
    Ok(Some(Travel { before, version }))
}

fn parse_undrop(toks: &[Token]) -> Result<Statement> {
    // UNDROP TABLE name
    if !toks.get(1).is_some_and(|t| t.is_kw("TABLE")) {
        return Err(SnowError::Parse("expected UNDROP TABLE".into()));
    }
    let name = ident_at(toks, 2)?;
    if !matches!(toks.get(3), Some(Token::Eof) | None) {
        return Err(SnowError::Parse("unexpected trailing tokens after UNDROP".into()));
    }
    Ok(Statement::Undrop { name })
}

fn parse_drop(toks: &[Token]) -> Result<Statement> {
    // DROP TABLE [IF EXISTS] name
    if !toks.get(1).is_some_and(|t| t.is_kw("TABLE")) {
        return Err(SnowError::Parse("expected DROP TABLE".into()));
    }
    let mut i = 2;
    let if_exists = toks.get(i).is_some_and(|t| t.is_kw("IF"))
        && toks.get(i + 1).is_some_and(|t| t.is_kw("EXISTS"));
    if if_exists {
        i += 2;
    }
    let name = ident_at(toks, i)?;
    Ok(Statement::DropTable { name, if_exists })
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
