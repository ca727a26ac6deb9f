//! Recursive-descent JSONiq parser.
//!
//! The parser moves each token out of the token vector as it consumes it,
//! and copies each distinct name once: every occurrence in the tree shares
//! it. It keeps two depths against [`MAX_DEPTH`]: its own nesting (every
//! `ExprSingle` — the inside of a `(`, `[` or `{`, an argument, a clause's
//! expression — and every prefix operator), which bounds its recursion, and
//! the height of every node it builds, which bounds the recursion of every
//! later stage: a chain of `+` or of `.field` steps is built by a loop, not
//! by recursion, and is as deep as it is long.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use snowdb::Variant;

use crate::ast::*;
use crate::lexer::{tokenize, Tok};

/// Parses a JSONiq main module (optional function declarations + body).
pub fn parse(src: &str) -> JResult<Module> {
    let toks = tokenize(src)?;
    let names = HashMap::with_capacity_and_hasher(toks.len() / 4, Default::default());
    let mut p = Parser { toks, pos: 0, nesting: 0, height: 0, names };
    let mut functions = Vec::new();
    while p.peek().is_name("declare") {
        functions.push(p.function_decl()?);
    }
    let body = p.expr()?;
    match p.peek() {
        Tok::Eof => Ok(Module { functions, body }),
        t => Err(JsoniqError::Parse(format!("unexpected trailing token {t:?}"))),
    }
}

struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    /// How many nested constructs the parser is inside.
    nesting: usize,
    /// The height of the expression the last parsing method returned.
    height: usize,
    /// Every name read so far: a name the text repeats is copied once.
    names: HashMap<&'a str, Name, BuildHasherDefault<Fnv>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok<'a> {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Tok<'a> {
        self.toks.get(self.pos + 1).unwrap_or(&Tok::Eof)
    }

    /// Consumes the current token, moving it out: the parser never looks
    /// back. The final `Eof` stays in place.
    fn next(&mut self) -> Tok<'a> {
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
            std::mem::replace(&mut self.toks[self.pos - 1], Tok::Eof)
        } else {
            Tok::Eof
        }
    }

    /// The shared copy of a name read from the source.
    fn intern(&mut self, name: &'a str) -> Name {
        self.names.entry(name).or_insert_with(|| name.into()).clone()
    }

    /// Runs `f` one construct deeper, refusing to nest past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> JResult<T>) -> JResult<T> {
        if self.nesting >= MAX_DEPTH {
            return Err(JsoniqError::too_deep());
        }
        self.nesting += 1;
        let out = f(self);
        self.nesting -= 1;
        out
    }

    /// Finishes `e`, whose deepest child is `below` levels high (0 for a
    /// leaf), refusing a tree higher than [`MAX_DEPTH`].
    fn node(&mut self, e: Expr, below: usize) -> JResult<Expr> {
        let height = below + e.levels();
        if height > MAX_DEPTH {
            return Err(JsoniqError::too_deep());
        }
        self.height = height;
        Ok(e)
    }

    /// Parses with `f` and returns the result with its height.
    fn measured(&mut self, f: impl FnOnce(&mut Self) -> JResult<Expr>) -> JResult<(Expr, usize)> {
        let e = f(self)?;
        Ok((e, self.height))
    }

    fn eat_name(&mut self, n: &str) -> bool {
        if self.peek().is_name(n) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_name(&mut self, n: &str) -> JResult<()> {
        if self.eat_name(n) {
            Ok(())
        } else {
            Err(JsoniqError::Parse(format!("expected '{n}', found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek().is_sym(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> JResult<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(JsoniqError::Parse(format!("expected '{s}', found {:?}", self.peek())))
        }
    }

    fn var(&mut self) -> JResult<Name> {
        match self.next() {
            Tok::Var(v) => Ok(self.intern(v)),
            t => Err(JsoniqError::Parse(format!("expected a $variable, found {t:?}"))),
        }
    }

    fn name(&mut self) -> JResult<Name> {
        match self.next() {
            Tok::Name(n) => Ok(self.intern(n)),
            t => Err(JsoniqError::Parse(format!("expected a name, found {t:?}"))),
        }
    }

    /// A name or a string literal: a field after `.`, an object key.
    fn key(&mut self, what: &str) -> JResult<Name> {
        match self.next() {
            Tok::Name(n) => Ok(self.intern(n)),
            Tok::Str(Cow::Borrowed(s)) => Ok(self.intern(s)),
            Tok::Str(s) => Ok(s.into()),
            t => Err(JsoniqError::Parse(format!("expected {what}, found {t:?}"))),
        }
    }

    /// `ExprSingle ("," ExprSingle)*` up to `close`, which it consumes: the
    /// items and the height of the highest.
    fn list(&mut self, close: &str) -> JResult<(Vec<Expr>, usize)> {
        let mut items = Vec::new();
        let mut below = 0;
        if !self.peek().is_sym(close) {
            loop {
                let (e, h) = self.measured(Self::expr_single)?;
                items.push(e);
                below = below.max(h);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym(close)?;
        Ok((items, below))
    }

    fn function_decl(&mut self) -> JResult<FunctionDecl> {
        self.expect_name("declare")?;
        self.expect_name("function")?;
        let name = self.name()?;
        self.expect_sym("(")?;
        let mut params = Vec::new();
        if !self.peek().is_sym(")") {
            loop {
                params.push(self.var()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        self.expect_sym("{")?;
        let body = self.expr()?;
        self.expect_sym("}")?;
        // Trailing ';' after a declaration is customary.
        self.eat_sym(";");
        Ok(FunctionDecl { name, params, body })
    }

    /// Expr := ExprSingle ("," ExprSingle)*
    fn expr(&mut self) -> JResult<Expr> {
        let (first, h) = self.measured(Self::expr_single)?;
        if !self.peek().is_sym(",") {
            return Ok(first);
        }
        let mut items = vec![first];
        let mut below = h;
        while self.eat_sym(",") {
            let (e, h) = self.measured(Self::expr_single)?;
            items.push(e);
            below = below.max(h);
        }
        self.node(Expr::Sequence(items), below)
    }

    fn expr_single(&mut self) -> JResult<Expr> {
        self.nested(|p| match p.peek() {
            t if t.is_name("for") || t.is_name("let") => {
                if matches!(p.peek2(), Tok::Var(_)) {
                    return p.flwor();
                }
                p.binary(OR)
            }
            t if t.is_name("if") && p.peek2().is_sym("(") => p.if_expr(),
            t if (t.is_name("some") || t.is_name("every"))
                && matches!(p.peek2(), Tok::Var(_)) =>
            {
                p.quantified()
            }
            _ => p.binary(OR),
        })
    }

    fn flwor(&mut self) -> JResult<Expr> {
        let mut clauses = Vec::new();
        // The height of the highest expression in the clauses so far.
        let mut below = 0;
        let sub = |p: &mut Self, below: &mut usize| -> JResult<Expr> {
            let (e, h) = p.measured(Self::expr_single)?;
            *below = (*below).max(h);
            Ok(e)
        };
        loop {
            if self.peek().is_name("for") && matches!(self.peek2(), Tok::Var(_)) {
                self.pos += 1;
                loop {
                    let var = self.var()?;
                    let allowing_empty = if self.eat_name("allowing") {
                        self.expect_name("empty")?;
                        true
                    } else {
                        false
                    };
                    let at = if self.eat_name("at") { Some(self.var()?) } else { None };
                    self.expect_name("in")?;
                    let expr = sub(self, &mut below)?;
                    clauses.push(Clause::For { var, at, expr, allowing_empty });
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            } else if self.peek().is_name("let") && matches!(self.peek2(), Tok::Var(_)) {
                self.pos += 1;
                loop {
                    let var = self.var()?;
                    self.expect_sym(":=")?;
                    let expr = sub(self, &mut below)?;
                    clauses.push(Clause::Let { var, expr });
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            } else if self.peek().is_name("where") {
                self.pos += 1;
                clauses.push(Clause::Where(sub(self, &mut below)?));
            } else if self.peek().is_name("group") {
                self.pos += 1;
                self.expect_name("by")?;
                let mut keys = Vec::new();
                loop {
                    let var = self.var()?;
                    let expr = if self.eat_sym(":=") { Some(sub(self, &mut below)?) } else { None };
                    keys.push((var, expr));
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                clauses.push(Clause::GroupBy { keys });
            } else if self.peek().is_name("order") {
                self.pos += 1;
                self.expect_name("by")?;
                let mut keys = Vec::new();
                loop {
                    let e = sub(self, &mut below)?;
                    let desc = if self.eat_name("descending") {
                        true
                    } else {
                        self.eat_name("ascending");
                        false
                    };
                    keys.push((e, desc));
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                clauses.push(Clause::OrderBy { keys });
            } else if self.peek().is_name("count") && matches!(self.peek2(), Tok::Var(_)) {
                self.pos += 1;
                clauses.push(Clause::Count(self.var()?));
            } else if self.peek().is_name("return") {
                self.pos += 1;
                let ret = sub(self, &mut below)?;
                if clauses.is_empty() {
                    return Err(JsoniqError::Parse(
                        "FLWOR requires at least one clause before return".into(),
                    ));
                }
                if !matches!(clauses[0], Clause::For { .. } | Clause::Let { .. }) {
                    return Err(JsoniqError::Parse(
                        "FLWOR must start with a for or let clause".into(),
                    ));
                }
                let fl = Expr::Flwor(Flwor { clauses, return_expr: Box::new(ret) });
                return self.node(fl, below);
            } else {
                return Err(JsoniqError::Parse(format!(
                    "expected a FLWOR clause or return, found {:?}",
                    self.peek()
                )));
            }
            if clauses.len() + below >= MAX_DEPTH {
                return Err(JsoniqError::too_deep());
            }
        }
    }

    fn if_expr(&mut self) -> JResult<Expr> {
        self.expect_name("if")?;
        self.expect_sym("(")?;
        let (cond, hc) = self.measured(Self::expr)?;
        self.expect_sym(")")?;
        self.expect_name("then")?;
        let (then, ht) = self.measured(Self::expr_single)?;
        self.expect_name("else")?;
        let (else_, he) = self.measured(Self::expr_single)?;
        let e = Expr::If { cond: Box::new(cond), then: Box::new(then), else_: Box::new(else_) };
        self.node(e, hc.max(ht).max(he))
    }

    /// `some $x in E satisfies P` desugars to `exists(for $x in E where P return 1)`;
    /// `every ...` to `empty(for $x in E where not(P) return 1)`.
    fn quantified(&mut self) -> JResult<Expr> {
        let every = self.peek().is_name("every");
        self.pos += 1;
        let mut vars = Vec::new();
        let mut below = 0;
        loop {
            let v = self.var()?;
            self.expect_name("in")?;
            let (e, h) = self.measured(Self::expr_single)?;
            below = below.max(h);
            vars.push((v, e));
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_name("satisfies")?;
        let (pred, h) = self.measured(Self::expr_single)?;
        let (cond, h) = if every { (Expr::Not(Box::new(pred)), h + 1) } else { (pred, h) };
        let below = below.max(h);
        let mut clauses: Vec<Clause> = vars
            .into_iter()
            .map(|(var, expr)| Clause::For { var, at: None, expr, allowing_empty: false })
            .collect();
        clauses.push(Clause::Where(cond));
        let fl = Expr::Flwor(Flwor { clauses, return_expr: Box::new(Expr::int(1)) });
        let below = below + fl.levels();
        self.node(
            Expr::FunctionCall { name: if every { "empty" } else { "exists" }.into(), args: vec![fl] },
            below,
        )
    }

    // ---- operators, by precedence climbing ----

    /// An operand and the binary operators binding at least as tightly as
    /// `min`, left-associative except for the comparisons and `to`, which
    /// take one operator each. A prefix `not` (not followed by `(`, which
    /// calls the function) binds tighter than `and` and looser than a
    /// comparison. An operator left over where a tighter one stopped — `eq`
    /// after `a eq b`, or after `not a` — ends the expression, as it does in
    /// a grammar with one rule per precedence level.
    fn binary(&mut self, min: u8) -> JResult<Expr> {
        let (mut left, mut below, mut last) =
            if min <= NOT && self.peek().is_name("not") && !self.peek2().is_sym("(") {
                self.pos += 1;
                let (x, h) = self.nested(|p| p.measured(|p| p.binary(NOT)))?;
                (self.node(Expr::Not(Box::new(x)), h)?, self.height, Some(NOT))
            } else {
                let (e, h) = self.measured(Self::unary_expr)?;
                (e, h, None)
            };
        while let Some((op, prec)) = binary_op(self.peek()) {
            let left_over = last.is_some_and(|l| {
                prec > l || (prec == l && (prec == COMPARISON || prec == RANGE))
            });
            if prec < min || left_over {
                break;
            }
            self.pos += 1;
            let (right, h) = self.measured(|p| p.binary(prec + 1))?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
            left = self.node(left, below.max(h))?;
            below = self.height;
            last = Some(prec);
        }
        self.height = below;
        Ok(left)
    }

    fn unary_expr(&mut self) -> JResult<Expr> {
        if self.eat_sym("-") {
            let (x, h) = self.nested(|p| p.measured(Self::unary_expr))?;
            return self.node(Expr::Neg(Box::new(x)), h);
        }
        if self.eat_sym("+") {
            return self.nested(Self::unary_expr);
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> JResult<Expr> {
        let (mut e, mut below) = self.measured(Self::primary)?;
        loop {
            let step = if self.peek().is_sym(".") {
                self.pos += 1;
                let field = self.key("a field name after '.'")?;
                Expr::ObjectLookup { base: Box::new(e), field }
            } else if self.peek().is_sym("[[") {
                self.pos += 1;
                let (idx, h) = self.measured(Self::expr)?;
                below = below.max(h);
                self.expect_sym("]]")?;
                Expr::ArrayLookup { base: Box::new(e), index: Box::new(idx) }
            } else if self.peek().is_sym("[") {
                self.pos += 1;
                if self.eat_sym("]") {
                    Expr::ArrayUnbox { base: Box::new(e) }
                } else {
                    let (pred, h) = self.measured(Self::expr)?;
                    below = below.max(h);
                    self.expect_sym("]")?;
                    Expr::Predicate { base: Box::new(e), pred: Box::new(pred) }
                }
            } else {
                break;
            };
            e = self.node(step, below)?;
            below = self.height;
        }
        self.height = below;
        Ok(e)
    }

    fn primary(&mut self) -> JResult<Expr> {
        let name_call = matches!(self.peek(), Tok::Name(_)) && self.peek2().is_sym("(");
        match self.next() {
            Tok::Int(i) => self.node(Expr::Literal(Variant::Int(i)), 0),
            Tok::Float(f) => self.node(Expr::Literal(Variant::Float(f)), 0),
            Tok::Str(s) => self.node(Expr::Literal(Variant::str(s)), 0),
            Tok::Var(v) => {
                let v = self.intern(v);
                self.node(Expr::VarRef(v), 0)
            }
            Tok::Sym("(") => {
                if self.eat_sym(")") {
                    return self.node(Expr::Sequence(Vec::new()), 0);
                }
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Sym("[") => {
                let (items, below) = self.list("]")?;
                self.node(Expr::ArrayConstructor(items), below)
            }
            Tok::Sym("{") => {
                let mut pairs = Vec::new();
                let mut below = 0;
                if !self.peek().is_sym("}") {
                    loop {
                        let key = self.key("an object key")?;
                        self.expect_sym(":")?;
                        let (v, h) = self.measured(Self::expr_single)?;
                        below = below.max(h);
                        pairs.push((key, v));
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                }
                self.expect_sym("}")?;
                self.node(Expr::ObjectConstructor(pairs), below)
            }
            Tok::Name(n) if name_call => {
                self.pos += 1;
                let (args, below) = self.list(")")?;
                let name = self.intern(n);
                self.node(Expr::FunctionCall { name, args }, below)
            }
            Tok::Name("true") => self.node(Expr::Literal(Variant::Bool(true)), 0),
            Tok::Name("false") => self.node(Expr::Literal(Variant::Bool(false)), 0),
            Tok::Name("null") => self.node(Expr::Literal(Variant::Null), 0),
            Tok::Name(n) => Err(JsoniqError::Parse(format!("unexpected name '{n}' in expression"))),
            t => Err(JsoniqError::Parse(format!("unexpected token {t:?} in expression"))),
        }
    }
}

/// FNV-1a: names are short, and a keyed hash would cost more than the
/// copy it saves.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let start = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        self.0 = bytes
            .iter()
            .fold(start, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3));
    }
}

/// Binary operator precedences, loosest first; `NOT` is the prefix `not`.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const COMPARISON: u8 = 4;
const RANGE: u8 = 5;
const ADDITIVE: u8 = 6;
const MULTIPLICATIVE: u8 = 7;

/// The binary operator a token stands for, and its precedence.
fn binary_op(t: &Tok<'_>) -> Option<(BinaryOp, u8)> {
    Some(match t {
        Tok::Name("or") => (BinaryOp::Or, OR),
        Tok::Name("and") => (BinaryOp::And, AND),
        Tok::Name("eq") | Tok::Sym("=") => (BinaryOp::Eq, COMPARISON),
        Tok::Name("ne") | Tok::Sym("!=") => (BinaryOp::Ne, COMPARISON),
        Tok::Name("lt") | Tok::Sym("<") => (BinaryOp::Lt, COMPARISON),
        Tok::Name("le") | Tok::Sym("<=") => (BinaryOp::Le, COMPARISON),
        Tok::Name("gt") | Tok::Sym(">") => (BinaryOp::Gt, COMPARISON),
        Tok::Name("ge") | Tok::Sym(">=") => (BinaryOp::Ge, COMPARISON),
        Tok::Name("to") => (BinaryOp::To, RANGE),
        Tok::Sym("+") => (BinaryOp::Add, ADDITIVE),
        Tok::Sym("-") => (BinaryOp::Sub, ADDITIVE),
        Tok::Sym("||") => (BinaryOp::Concat, ADDITIVE),
        Tok::Sym("*") => (BinaryOp::Mul, MULTIPLICATIVE),
        Tok::Name("div") => (BinaryOp::Div, MULTIPLICATIVE),
        Tok::Name("idiv") => (BinaryOp::IDiv, MULTIPLICATIVE),
        Tok::Name("mod") => (BinaryOp::Mod, MULTIPLICATIVE),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing1_from_paper() {
        // Simplified ADL Q3 reference code (paper Listing 1).
        let m = parse(
            r#"for $jet in collection("adl").Jet[]
               where abs($jet.eta) lt 1
               return $jet.pt"#,
        )
        .unwrap();
        let fl = match &m.body {
            Expr::Flwor(fl) => fl,
            other => panic!("expected FLWOR, got {other:?}"),
        };
        assert_eq!(fl.clauses.len(), 2);
        assert!(matches!(&fl.clauses[0], Clause::For { var, .. } if &**var == "jet"));
        assert!(matches!(&fl.clauses[1], Clause::Where(_)));
    }

    #[test]
    fn parses_function_declarations() {
        let m = parse(
            r#"declare function hypot($a, $b) { sqrt($a * $a + $b * $b) };
               hypot(3, 4)"#,
        )
        .unwrap();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].params, [Name::from("a"), Name::from("b")]);
    }

    #[test]
    fn parses_group_by_and_order_by() {
        let m = parse(
            r#"for $e in collection("adl")
               let $v := $e.MET
               group by $bin := floor($v)
               order by $bin descending
               return {"value": $bin, "count": count($e)}"#,
        )
        .unwrap();
        let fl = match &m.body {
            Expr::Flwor(fl) => fl,
            other => panic!("{other:?}"),
        };
        assert!(matches!(&fl.clauses[2], Clause::GroupBy { keys } if keys.len() == 1));
        assert!(matches!(&fl.clauses[3], Clause::OrderBy { keys } if keys[0].1));
        assert!(matches!(&*fl.return_expr, Expr::ObjectConstructor(p) if p.len() == 2));
    }

    #[test]
    fn parses_nested_flwor_in_let() {
        let m = parse(
            r#"for $event in collection("adl")
               let $filtered := (
                 for $m in $event.Muon[]
                 where $m.pt gt 10
                 return $m
               )
               return size($filtered)"#,
        )
        .unwrap();
        let fl = match &m.body {
            Expr::Flwor(fl) => fl,
            other => panic!("{other:?}"),
        };
        match &fl.clauses[1] {
            Clause::Let { expr: Expr::Flwor(_), .. } => {}
            other => panic!("expected nested FLWOR in let, got {other:?}"),
        }
    }

    #[test]
    fn parses_positional_for_and_brackets() {
        let m = parse(
            r#"for $j at $i in collection("x").JET[]
               return $j[[1]]"#,
        )
        .unwrap();
        let fl = match &m.body {
            Expr::Flwor(fl) => fl,
            other => panic!("{other:?}"),
        };
        assert!(matches!(&fl.clauses[0], Clause::For { at: Some(i), .. } if &**i == "i"));
        assert!(matches!(&*fl.return_expr, Expr::ArrayLookup { .. }));
    }

    #[test]
    fn parses_quantified_expressions() {
        let m = parse(r#"some $x in (1, 2, 3) satisfies $x gt 2"#).unwrap();
        match &m.body {
            Expr::FunctionCall { name, args } => {
                assert_eq!(&**name, "exists");
                assert!(matches!(&args[0], Expr::Flwor(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence_and_unary() {
        let m = parse("1 + 2 * 3 eq 7 and not false").unwrap();
        assert!(matches!(&m.body, Expr::Binary { op: BinaryOp::And, .. }));
        let m = parse("-2 * 3").unwrap();
        match &m.body {
            Expr::Binary { op: BinaryOp::Mul, left, .. } => {
                assert!(matches!(&**left, Expr::Neg(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_if_and_sequences() {
        let m = parse("if (1 eq 1) then (1, 2) else ()").unwrap();
        match &m.body {
            Expr::If { then, else_, .. } => {
                assert!(matches!(&**then, Expr::Sequence(v) if v.len() == 2));
                assert!(matches!(&**else_, Expr::Sequence(v) if v.is_empty()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "for $x",
            "for $x in y return",
            "let $x = 1 return $x",
            "{ 1: 2 }",
            "return 1",
            "where 1 return 2",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn string_object_keys() {
        let m = parse(r#"{"a b": 1}"#).unwrap();
        assert!(matches!(&m.body, Expr::ObjectConstructor(p) if &*p[0].0 == "a b"));
    }
}
