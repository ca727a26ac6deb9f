//! Recursive-descent SQL parser.

use super::ast::*;
use super::lexer::{tokenize_spanned, Token};
use crate::error::{Result, SnowError};
use crate::variant::Variant;

/// Parses one SQL query (an optional trailing `;` is allowed).
pub fn parse_query(sql: &str) -> Result<Query> {
    parse_with(sql, Parser::query)
}

/// The one way SQL text becomes a tree, on the caller's stack: tokenize once
/// (a lexical error is `SnowError::Lex` and never reaches the parser), run
/// `rule`, an optional `;` and the end-of-input check. A statement that nests
/// deeper than [`MAX_DEPTH`] is a typed [`SnowError::Parse`].
pub(super) fn parse_with<'a, T>(
    sql: &'a str,
    rule: fn(&mut Parser<'a>) -> Result<T>,
) -> Result<T> {
    let (tokens, starts) = tokenize_spanned(sql)?;
    let mut p = Parser { sql, tokens, starts, pos: 0, depth: 0 };
    let parsed = rule(&mut p)?;
    p.eat_sym(";");
    p.expect_eof()?;
    Ok(parsed)
}

/// Keywords that terminate an implicit (AS-less) alias position.
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION", "ON", "JOIN",
    "LEFT", "RIGHT", "INNER", "OUTER", "CROSS", "LATERAL", "AND", "OR", "NOT", "AS", "BY",
    "CASE", "WHEN", "THEN", "ELSE", "END", "IS", "IN", "BETWEEN", "NULL", "TRUE", "FALSE",
    "DISTINCT", "EXCLUDE", "ALL", "ASC", "DESC", "NULLS", "FIRST", "LAST", "LIKE",
];

/// Most levels a statement may nest (`Parser::nested`). Parsing, binding,
/// optimizing, lowering and execution all recurse over the tree on the
/// caller's stack, so the bound is what keeps hostile nesting a typed error
/// rather than a stack-overflow abort on a 2 MiB thread. At the bound the
/// hungriest shapes (nested calls, `CASE WHEN`, derived tables) run end to
/// end in 1 MiB of stack in an unoptimized build and in 176 KiB in an
/// optimized one; the deepest generated statement, translated ADL q8, nests
/// 49 levels.
pub const MAX_DEPTH: usize = 64;

/// The one recursive-descent parser, over the one token stream: the query
/// grammar lives here, the statement grammar in [`super::statement`].
pub(super) struct Parser<'a> {
    /// The source the tokens came from, for [`Parser::source_since`].
    sql: &'a str,
    tokens: Vec<Token>,
    /// Byte offset in `sql` where each token starts.
    starts: Vec<usize>,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// Runs `rule` one nesting level down: every recursion cycle of the
    /// grammar goes through here, so bounding `depth` bounds the stack.
    fn nested<T>(&mut self, rule: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(SnowError::Parse(format!(
                "query exceeds maximum nesting depth ({MAX_DEPTH})"
            )));
        }
        self.depth += 1;
        let parsed = rule(self);
        self.depth -= 1;
        parsed
    }

    pub(super) fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    pub(super) fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    /// Consumes the current token by value (the parser never looks back at a
    /// token it consumed; the closing `Eof` is never consumed).
    pub(super) fn next(&mut self) -> Token {
        if self.pos == self.tokens.len() - 1 {
            return Token::Eof;
        }
        self.pos += 1;
        std::mem::replace(&mut self.tokens[self.pos - 1], Token::Eof)
    }

    /// Byte offset in the source where the current token starts.
    pub(super) fn offset(&self) -> usize {
        self.starts[self.pos]
    }

    /// The source text from byte `from` up to the current token, trailing
    /// whitespace trimmed.
    pub(super) fn source_since(&self, from: usize) -> &str {
        self.sql[from..self.offset()].trim_end()
    }

    pub(super) fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(super) fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SnowError::Parse(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    pub(super) fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek().is_sym(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(super) fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(SnowError::Parse(format!("expected '{s}', found {:?}", self.peek())))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        match self.peek() {
            Token::Eof => Ok(()),
            t => Err(SnowError::Parse(format!("unexpected trailing token {t:?}"))),
        }
    }

    pub(super) fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident { text, .. } => Ok(text),
            t => Err(SnowError::Parse(format!("expected identifier, found {t:?}"))),
        }
    }

    /// `item { "," item }`.
    pub(super) fn comma_list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat_sym(",") {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Bare alias position: an identifier that is not a reserved keyword.
    fn maybe_alias(&mut self) -> Option<String> {
        match self.peek() {
            Token::Ident { text, quoted }
                if *quoted || !RESERVED.iter().any(|k| text.eq_ignore_ascii_case(k)) =>
            {
                self.ident().ok()
            }
            _ => None,
        }
    }

    // ---- query structure -------------------------------------------------

    pub(super) fn query(&mut self) -> Result<Query> {
        // Derived tables re-enter `query` without passing through `expr`;
        // guard this cycle too so deeply nested subqueries stay a typed error.
        self.nested(Self::query_inner)
    }

    fn query_inner(&mut self) -> Result<Query> {
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                let nulls_first = if self.eat_kw("NULLS") {
                    if self.eat_kw("FIRST") {
                        Some(true)
                    } else {
                        self.expect_kw("LAST")?;
                        Some(false)
                    }
                } else {
                    None
                };
                order_by.push(OrderItem { expr, desc, nulls_first });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                t => return Err(SnowError::Parse(format!("expected LIMIT count, found {t:?}"))),
            }
        } else {
            None
        };
        Ok(Query { body, order_by, limit })
    }

    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.set_operand()?;
        while self.peek().is_kw("UNION") {
            self.pos += 1;
            self.expect_kw("ALL")?;
            let right = self.set_operand()?;
            left = SetExpr::UnionAll(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn set_operand(&mut self) -> Result<SetExpr> {
        if self.peek().is_sym("(") {
            // `( query )` used as a set operand.
            let save = self.pos;
            self.pos += 1;
            if self.peek().is_kw("SELECT") || self.peek().is_sym("(") {
                let q = self.query()?;
                self.expect_sym(")")?;
                return Ok(SetExpr::Query(Box::new(q)));
            }
            self.pos = save;
        }
        Ok(SetExpr::Select(Box::new(self.select()?)))
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let items = self.comma_list(Self::select_item)?;
        let from = if self.eat_kw("FROM") { Some(self.parse_from_clause()?) } else { None };
        let selection = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by = self.comma_list(Self::expr)?;
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        Ok(Select { distinct, items, from, selection, group_by, having })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym("*") {
            let mut exclude = Vec::new();
            if self.eat_kw("EXCLUDE") {
                let parens = self.eat_sym("(");
                exclude = self.comma_list(Self::ident)?;
                if parens {
                    self.expect_sym(")")?;
                }
            }
            return Ok(SelectItem::Wildcard { exclude });
        }
        // `alias.*`
        if matches!(self.peek(), Token::Ident { .. })
            && self.peek2().is_sym(".")
            && self.tokens.get(self.pos + 2).is_some_and(|t| t.is_sym("*"))
        {
            let q = self.ident()?;
            self.pos += 2;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { self.maybe_alias() };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from_clause(&mut self) -> Result<FromClause> {
        let base = self.table_factor()?;
        let mut items = Vec::new();
        loop {
            if self.eat_sym(",") {
                // Only lateral flatten is allowed after a comma (no implicit
                // cross joins in this dialect; the translation never emits them).
                items.push(self.lateral_flatten()?);
            } else if self.peek().is_kw("JOIN")
                || self.peek().is_kw("INNER")
                || self.peek().is_kw("LEFT")
                || self.peek().is_kw("CROSS")
            {
                items.push(self.join()?);
            } else if self.peek().is_kw("LATERAL") {
                items.push(self.lateral_flatten()?);
            } else {
                break;
            }
        }
        Ok(FromClause { base, items })
    }

    fn join(&mut self) -> Result<FromItem> {
        let kind = if self.eat_kw("LEFT") {
            self.eat_kw("OUTER");
            JoinKind::LeftOuter
        } else if self.eat_kw("CROSS") {
            JoinKind::Cross
        } else {
            self.eat_kw("INNER");
            JoinKind::Inner
        };
        self.expect_kw("JOIN")?;
        let factor = self.table_factor()?;
        let on = if self.eat_kw("ON") { Some(self.expr()?) } else { None };
        if kind != JoinKind::Cross && on.is_none() {
            return Err(SnowError::Parse("JOIN requires an ON condition".into()));
        }
        Ok(FromItem::Join { kind, factor, on })
    }

    fn lateral_flatten(&mut self) -> Result<FromItem> {
        self.expect_kw("LATERAL")?;
        self.expect_kw("FLATTEN")?;
        self.expect_sym("(")?;
        self.expect_kw("INPUT")?;
        self.expect_sym("=>")?;
        let input = self.expr()?;
        let mut outer = false;
        while self.eat_sym(",") {
            if self.eat_kw("OUTER") {
                self.expect_sym("=>")?;
                if self.eat_kw("TRUE") {
                    outer = true;
                } else {
                    self.expect_kw("FALSE")?;
                }
            } else {
                return Err(SnowError::Parse(format!(
                    "unsupported FLATTEN argument {:?}",
                    self.peek()
                )));
            }
        }
        self.expect_sym(")")?;
        self.eat_kw("AS");
        let alias = self.ident()?;
        Ok(FromItem::Flatten { input, outer, alias })
    }

    fn table_factor(&mut self) -> Result<TableFactor> {
        if self.eat_sym("(") {
            if self.peek().is_kw("SELECT") || self.peek().is_sym("(") {
                let q = self.query()?;
                self.expect_sym(")")?;
                let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { self.maybe_alias() };
                return Ok(TableFactor::Derived { query: Box::new(q), alias });
            }
            // Snowpark emits `FROM (tablename)`.
            let name = self.ident()?;
            self.expect_sym(")")?;
            let travel = self.maybe_travel()?;
            let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { self.maybe_alias() };
            return Ok(TableFactor::Table { name, alias, travel });
        }
        let name = self.ident()?;
        let travel = self.maybe_travel()?;
        let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { self.maybe_alias() };
        Ok(TableFactor::Table { name, alias, travel })
    }

    /// `AT(VERSION => n)` / `BEFORE(VERSION => n)` after a base table name.
    /// `AT` and `BEFORE` are not reserved words, so the clause only engages
    /// when immediately followed by `(` — `FROM t at` still parses as an
    /// alias.
    pub(super) fn maybe_travel(&mut self) -> Result<Option<Travel>> {
        let before = if self.peek().is_kw("AT") && self.peek2().is_sym("(") {
            false
        } else if self.peek().is_kw("BEFORE") && self.peek2().is_sym("(") {
            true
        } else {
            return Ok(None);
        };
        self.pos += 1;
        self.expect_sym("(")?;
        self.expect_kw("VERSION")?;
        self.expect_sym("=>")?;
        let version = match self.next() {
            Token::Int(n) if n >= 0 => n as u64,
            t => return Err(SnowError::Parse(format!("expected version number, found {t:?}"))),
        };
        self.expect_sym(")")?;
        Ok(Some(Travel { before, version }))
    }

    // ---- expressions -----------------------------------------------------

    pub(super) fn expr(&mut self) -> Result<Expr> {
        // Every recursion cycle through the expression grammar passes through
        // `expr` (parenthesised re-entry), `not_expr` (NOT chains) or
        // `unary_expr` (+/- chains); bounding those bounds the stack.
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary { left: Box::new(left), op: BinOp::Or, right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary { left: Box::new(left), op: BinOp::And, right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.nested(Self::not_expr)?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        // IS [NOT] NULL
        if self.peek().is_kw("IS") {
            self.pos += 1;
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN / [NOT] BETWEEN
        let negated = if self.peek().is_kw("NOT")
            && (self.peek2().is_kw("IN")
                || self.peek2().is_kw("BETWEEN")
                || self.peek2().is_kw("LIKE"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            let pattern = self.add_expr()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let list = self.comma_list(Self::expr)?;
            self.expect_sym(")")?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.add_expr()?;
            self.expect_kw("AND")?;
            let high = self.add_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        let op = match self.peek() {
            Token::Sym("=") => Some(BinOp::Eq),
            Token::Sym("<>") | Token::Sym("!=") => Some(BinOp::NotEq),
            Token::Sym("<") => Some(BinOp::Lt),
            Token::Sym("<=") => Some(BinOp::LtEq),
            Token::Sym(">") => Some(BinOp::Gt),
            Token::Sym(">=") => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            return Ok(Expr::Binary { left: Box::new(left), op, right: Box::new(right) });
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Token::Sym("+") => BinOp::Add,
                Token::Sym("-") => BinOp::Sub,
                Token::Sym("||") => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Token::Sym("*") => BinOp::Mul,
                Token::Sym("/") => BinOp::Div,
                Token::Sym("%") => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_sym("-") {
            let inner = self.nested(Self::unary_expr)?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat_sym("+") {
            let inner = self.nested(Self::unary_expr)?;
            return Ok(Expr::Unary { op: UnaryOp::Plus, expr: Box::new(inner) });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        loop {
            if self.eat_sym("::") {
                let ty = self.type_name()?;
                e = Expr::Cast { expr: Box::new(e), ty };
            } else if self.peek().is_sym(":") {
                self.pos += 1;
                let mut steps = vec![PathStep::Field(self.path_field()?)];
                self.path_steps(&mut steps)?;
                e = Expr::Path { base: Box::new(e), steps };
            } else if self.peek().is_sym("[") {
                let mut steps = Vec::new();
                self.path_steps(&mut steps)?;
                e = Expr::Path { base: Box::new(e), steps };
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// Parses a chain of `.field` / `[idx]` steps (after an initial `:` root or
    /// directly from a bracket).
    fn path_steps(&mut self, steps: &mut Vec<PathStep>) -> Result<()> {
        loop {
            if self.eat_sym(".") {
                steps.push(PathStep::Field(self.path_field()?));
            } else if self.eat_sym("[") {
                match self.peek() {
                    Token::Int(i) => {
                        let i = *i;
                        self.pos += 1;
                        steps.push(PathStep::Index(i));
                    }
                    _ => {
                        let e = self.expr()?;
                        steps.push(PathStep::IndexExpr(Box::new(e)));
                    }
                }
                self.expect_sym("]")?;
            } else {
                return Ok(());
            }
        }
    }

    /// A path field keeps the case of quoted identifiers; unquoted fields keep
    /// their *original* case in Snowflake, but our lexer folds to upper — the
    /// data generators therefore use upper-case field names or quoted paths.
    fn path_field(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident { text, .. } => Ok(text),
            Token::Str(s) => Ok(s),
            t => Err(SnowError::Parse(format!("expected path field, found {t:?}"))),
        }
    }

    pub(super) fn type_name(&mut self) -> Result<String> {
        let name = self.ident()?;
        // `NUMBER(38, 0)`-style precision arguments are accepted and ignored.
        if self.eat_sym("(") {
            loop {
                match self.next() {
                    Token::Sym(")") => break,
                    Token::Eof => return Err(SnowError::Parse("unterminated type".into())),
                    _ => {}
                }
            }
        }
        Ok(name)
    }

    fn primary(&mut self) -> Result<Expr> {
        if let Token::Ident { text, quoted: false } = self.peek() {
            let literal = match text.as_str() {
                "TRUE" => Variant::Bool(true),
                "FALSE" => Variant::Bool(false),
                "NULL" => Variant::Null,
                "CASE" => return self.case_expr(),
                "CAST" => {
                    self.pos += 1;
                    self.expect_sym("(")?;
                    let e = self.expr()?;
                    self.expect_kw("AS")?;
                    let ty = self.type_name()?;
                    self.expect_sym(")")?;
                    return Ok(Expr::Cast { expr: Box::new(e), ty });
                }
                _ => return self.call_or_column(),
            };
            self.pos += 1;
            return Ok(Expr::Literal(literal));
        }
        match self.next() {
            Token::Int(i) => Ok(Expr::Literal(Variant::Int(i))),
            Token::Float(f) => Ok(Expr::Literal(Variant::Float(f))),
            Token::Str(s) => Ok(Expr::Literal(Variant::str(s))),
            Token::Sym("(") => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            // Quoted identifiers are never calls or keywords.
            Token::Ident { text, .. } => self.column(text),
            t => Err(SnowError::Parse(format!("unexpected token {t:?} in expression"))),
        }
    }

    /// An unquoted, non-keyword identifier in expression position: a
    /// function call when `(` follows, else a column reference.
    fn call_or_column(&mut self) -> Result<Expr> {
        let is_call = self.peek2().is_sym("(");
        let name = self.ident()?;
        if !is_call {
            return self.column(name);
        }
        self.pos += 1;
        let mut args = Vec::new();
        let mut distinct = false;
        let mut star = false;
        if self.eat_sym("*") {
            star = true;
        } else if !self.peek().is_sym(")") {
            distinct = self.eat_kw("DISTINCT");
            args = self.comma_list(Self::expr)?;
        }
        self.expect_sym(")")?;
        Ok(Expr::Func { name, args, distinct, star })
    }

    /// A possibly qualified column reference, `a` or `a.b`, whose first part
    /// has been consumed.
    fn column(&mut self, first: String) -> Result<Expr> {
        let mut parts = vec![first];
        if self.peek().is_sym(".") && matches!(self.peek2(), Token::Ident { .. }) {
            self.pos += 1;
            parts.push(self.ident()?);
        }
        Ok(Expr::Ident(parts))
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw("CASE")?;
        let operand = if self.peek().is_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            let val = self.expr()?;
            branches.push((cond, val));
        }
        if branches.is_empty() {
            return Err(SnowError::Parse("CASE requires at least one WHEN".into()));
        }
        let else_expr =
            if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(q: &Query) -> &Select {
        match &q.body {
            SetExpr::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let bound = format!("depth ({MAX_DEPTH})");
        let too_deep = |sql: &str| matches!(parse_query(sql), Err(SnowError::Parse(m)) if m.contains(&bound));
        // Parenthesised expressions re-enter `expr` recursively.
        let parens = format!("SELECT {}1{}", "(".repeat(100_000), ")".repeat(100_000));
        assert!(too_deep(&parens));
        // NOT chains recurse through `not_expr`.
        let nots = format!("SELECT {} TRUE", "NOT ".repeat(100_000));
        assert!(too_deep(&nots));
        // Unary minus chains recurse through `unary_expr` (`--` would open a
        // comment).
        let negs = format!("SELECT {}1", "- ".repeat(100_000));
        assert!(too_deep(&negs));
        // Nested derived tables re-enter `query`.
        let subs = format!(
            "SELECT * FROM {}t{}",
            "(SELECT * FROM ".repeat(100_000),
            ")".repeat(100_000)
        );
        assert!(too_deep(&subs));
        // `query` and `expr` are levels 1 and 2: nesting up to the bound is
        // accepted, one level more is the typed error.
        let parens = |n: usize| format!("SELECT {}1{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_query(&parens(MAX_DEPTH - 2)).is_ok());
        assert!(too_deep(&parens(MAX_DEPTH - 1)));
        let nots = |n: usize| format!("SELECT {} TRUE", "NOT ".repeat(n));
        assert!(parse_query(&nots(MAX_DEPTH - 2)).is_ok());
        assert!(too_deep(&nots(MAX_DEPTH - 1)));

        // The same tree at any depth up to the bound, and an error after a
        // deep part is the error.
        for parens in MAX_DEPTH - 6..=MAX_DEPTH - 2 {
            let (open, close) = ("(".repeat(parens), ")".repeat(parens));
            let q = parse_query(&format!("SELECT {open}1{close}, {open}x + 2{close}")).unwrap();
            assert_eq!(q, parse_query("SELECT 1, x + 2").unwrap(), "{parens} parentheses");
            let bad = parse_query(&format!("SELECT {open}1{close} FROM"));
            assert!(matches!(bad, Err(SnowError::Parse(m)) if !m.contains("depth")), "{parens}");
        }
    }

    #[test]
    fn parses_minimal_select() {
        let q = parse_query("SELECT 1").unwrap();
        let s = sel(&q);
        assert_eq!(s.items.len(), 1);
        assert!(s.from.is_none());
    }

    #[test]
    fn parses_paper_fig2_query() {
        let q = parse_query(
            r#"SELECT count(DISTINCT "O_CLERK") FROM (
                 SELECT * FROM (SELECT * FROM (orders))
                 WHERE (("O_TOTALPRICE" >= 90000 :: int)
                   AND ("O_TOTALPRICE" <= 120000 :: int)))"#,
        )
        .unwrap();
        let s = sel(&q);
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Func { name, distinct, .. }, .. } => {
                assert_eq!(name, "COUNT");
                assert!(distinct);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_lateral_flatten() {
        let q = parse_query(
            "SELECT f.VALUE:pt FROM events, LATERAL FLATTEN(INPUT => JET, OUTER => TRUE) f",
        )
        .unwrap();
        let s = sel(&q);
        let from = s.from.as_ref().unwrap();
        match &from.items[0] {
            FromItem::Flatten { outer, alias, .. } => {
                assert!(*outer);
                assert_eq!(alias, "F");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_variant_paths() {
        let q = parse_query("SELECT v:a.b[0].c FROM t").unwrap();
        let s = sel(&q);
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Path { steps, .. }, .. } => {
                assert_eq!(steps.len(), 4);
                assert_eq!(steps[0], PathStep::Field("A".into()));
                assert_eq!(steps[1], PathStep::Field("B".into()));
                assert_eq!(steps[2], PathStep::Index(0));
                assert_eq!(steps[3], PathStep::Field("C".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_joins() {
        let q = parse_query(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id INNER JOIN c ON c.x = a.x",
        )
        .unwrap();
        let s = sel(&q);
        let items = &s.from.as_ref().unwrap().items;
        assert!(matches!(items[0], FromItem::Join { kind: JoinKind::LeftOuter, .. }));
        assert!(matches!(items[1], FromItem::Join { kind: JoinKind::Inner, .. }));
    }

    #[test]
    fn parses_group_order_limit() {
        let q = parse_query(
            "SELECT x, count(*) c FROM t WHERE x > 0 GROUP BY x HAVING count(*) > 1 \
             ORDER BY c DESC NULLS LAST LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.order_by[0].nulls_first, Some(false));
        let s = sel(&q);
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_union_all() {
        let q = parse_query("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3").unwrap();
        match &q.body {
            SetExpr::UnionAll(l, _) => assert!(matches!(**l, SetExpr::UnionAll(..))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_case_between_in() {
        let q = parse_query(
            "SELECT CASE WHEN a BETWEEN 1 AND 2 THEN 'x' WHEN a IN (3,4) THEN 'y' ELSE 'z' END FROM t",
        )
        .unwrap();
        let s = sel(&q);
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Case { branches, else_expr, .. }, .. } => {
                assert_eq!(branches.len(), 2);
                assert!(else_expr.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_wildcard_exclude() {
        let q = parse_query("SELECT * EXCLUDE (rowid, keep) FROM t").unwrap();
        let s = sel(&q);
        match &s.items[0] {
            SelectItem::Wildcard { exclude } => {
                assert_eq!(exclude, &["ROWID".to_string(), "KEEP".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let q = parse_query("SELECT 1 + 2 * 3 < 10 AND NOT FALSE").unwrap();
        let s = sel(&q);
        // (((1 + (2*3)) < 10) AND (NOT FALSE))
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::And, .. }, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "SELECT",
            "SELECT 1 FROM",
            "SELECT 1 WHERE",
            "SELECT * FROM t JOIN u",
            "SELECT CASE END FROM t",
            "SELECT 1 UNION SELECT 2",
        ] {
            assert!(parse_query(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn alias_forms() {
        let q = parse_query("SELECT a AS x, b y FROM t1 AS u").unwrap();
        let s = sel(&q);
        match (&s.items[0], &s.items[1]) {
            (
                SelectItem::Expr { alias: Some(x), .. },
                SelectItem::Expr { alias: Some(y), .. },
            ) => {
                assert_eq!(x, "X");
                assert_eq!(y, "Y");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
