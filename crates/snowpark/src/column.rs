//! [`Col`]: a partial SQL sub-expression.

use std::fmt::Write;
use std::sync::Arc;

use crate::{push_ident, push_str_lit};

/// A column expression. Like Snowpark's `Column`, a `Col` is not bound to any
/// dataset: it is a fragment of SQL logic that becomes meaningful when plugged
/// into a [`crate::DataFrame`] method (paper §III-B1).
///
/// A `Col` is a node of an expression tree whose children are shared, so
/// building one on top of others copies no text and cloning one is a
/// reference count. The tree is rendered once, into the statement's text,
/// when [`crate::DataFrame::sql`] asks. Each node also records what a
/// dataframe needs to tell whether the expression may join the `SELECT`
/// below it instead of wrapping it: whether it reads any column, calls
/// `SEQ8()` or calls an aggregate.
#[derive(Clone)]
pub struct Col(Arc<Node>);

struct Node {
    kind: Kind,
    /// Whether the expression reads a column: it is a reference, or an
    /// operand reads one.
    reads: bool,
    /// Whether the expression calls `SEQ8()`.
    seq8: bool,
    /// Whether the expression calls an aggregate function.
    aggregate: bool,
    path: Path,
}

/// What a node renders as.
enum Kind {
    /// Fixed text that reads no column: `NULL`, `TRUE`, `PI()`, `SEQ8()`,
    /// `COUNT(*)`.
    Text(&'static str),
    Int(i64),
    Float(f64),
    /// A string literal, quoted when rendered.
    Str(Box<str>),
    /// A reference to the column `name`, qualified by `relation` if given.
    Ref { relation: Option<Box<str>>, name: Box<str> },
    /// `(a op b)`
    Binary(&'static str, Col, Col),
    /// `(op x)`
    Prefix(&'static str, Col),
    /// `(x op)`
    Postfix(Col, &'static str),
    /// `(x :: TYPE)`
    Cast(Col, Box<str>),
    /// `(x BETWEEN low AND high)`
    Between(Col, Col, Col),
    /// `(x IN (items))`
    InList(Col, Box<[Col]>),
    /// `NAME(args)`, `prefix` written before the first argument
    /// (`COUNT(DISTINCT x)`).
    Call { name: &'static str, prefix: &'static str, args: Box<[Col]> },
    /// `OBJECT_CONSTRUCT('k1', v1, …)`
    Object(Box<[(Box<str>, Col)]>),
    /// A field step: `x:"NAME"` after a reference, `x."NAME"` after a path
    /// step, `GET(x, 'NAME')` otherwise.
    Field(Col, Box<str>),
    /// An element step: `x[i]` after a path step, `GET(x, i)` otherwise.
    Element(Col, i64),
}

/// How a field or element step extends an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// Not rooted at a column reference: steps are `GET` calls.
    None,
    /// A plain (possibly qualified) column reference: a field step starts a
    /// Snowflake `:` path.
    Column,
    /// A `:` path has started: field steps are `.name`, element steps `[i]`.
    Steps,
}

/// Sort direction for [`crate::DataFrame::sort`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    Asc,
    Desc,
}

impl std::fmt::Debug for Col {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Col").field(&self.sql()).finish()
    }
}

impl Kind {
    /// Calls `f` on each operand, in rendering order.
    fn for_each_operand<'a>(&'a self, mut f: impl FnMut(&'a Col)) {
        match self {
            Kind::Text(_) | Kind::Int(_) | Kind::Float(_) | Kind::Str(_) | Kind::Ref { .. } => {}
            Kind::Binary(_, a, b) => {
                f(a);
                f(b);
            }
            Kind::Prefix(_, x)
            | Kind::Postfix(x, _)
            | Kind::Cast(x, _)
            | Kind::Field(x, _)
            | Kind::Element(x, _) => f(x),
            Kind::Between(x, lo, hi) => {
                f(x);
                f(lo);
                f(hi);
            }
            Kind::InList(x, items) => {
                f(x);
                items.iter().for_each(f);
            }
            Kind::Call { args, .. } => args.iter().for_each(f),
            Kind::Object(pairs) => pairs.iter().for_each(|(_, v)| f(v)),
        }
    }
}

impl Col {
    /// A node over its operands: it reads what they read and calls what
    /// they call.
    fn node(kind: Kind) -> Col {
        let (mut reads, mut seq8, mut aggregate) = (matches!(kind, Kind::Ref { .. }), false, false);
        kind.for_each_operand(|c| {
            reads |= c.0.reads;
            seq8 |= c.0.seq8;
            aggregate |= c.0.aggregate;
        });
        let path = match &kind {
            Kind::Ref { .. } => Path::Column,
            Kind::Field(base, _) if base.0.path != Path::None => Path::Steps,
            Kind::Element(base, _) if base.0.path == Path::Steps => Path::Steps,
            _ => Path::None,
        };
        Col(Arc::new(Node { kind, reads, seq8, aggregate, path }))
    }

    /// Fixed text that reads no column.
    pub(crate) fn text(sql: &'static str) -> Col {
        Col::node(Kind::Text(sql))
    }

    pub(crate) fn int(v: i64) -> Col {
        Col::node(Kind::Int(v))
    }

    pub(crate) fn float(v: f64) -> Col {
        Col::node(Kind::Float(v))
    }

    pub(crate) fn string(v: &str) -> Col {
        Col::node(Kind::Str(v.into()))
    }

    /// A reference to the column `name`, qualified by `relation` if given.
    pub(crate) fn reference(relation: Option<&str>, name: &str) -> Col {
        Col::node(Kind::Ref { relation: relation.map(Into::into), name: name.into() })
    }

    /// `NAME(args)`.
    pub(crate) fn call(name: &'static str, args: &[&Col]) -> Col {
        Col::node(Kind::Call { name, prefix: "", args: args.iter().map(|&c| c.clone()).collect() })
    }

    /// An aggregate call, `NAME(prefix x)`, or `fixed` text (`COUNT(*)`).
    pub(crate) fn aggregate(name: &'static str, prefix: &'static str, x: Option<&Col>) -> Col {
        let kind = match x {
            Some(x) => Kind::Call { name, prefix, args: Box::new([x.clone()]) },
            None => Kind::Text(name),
        };
        let mut c = Col::node(kind);
        Arc::get_mut(&mut c.0).expect("a new node").aggregate = true;
        c
    }

    /// `SEQ8()`.
    pub(crate) fn seq8() -> Col {
        let mut c = Col::text("SEQ8()");
        Arc::get_mut(&mut c.0).expect("a new node").seq8 = true;
        c
    }

    /// `OBJECT_CONSTRUCT('k1', v1, …)`.
    pub(crate) fn object(pairs: &[(&str, Col)]) -> Col {
        Col::node(Kind::Object(pairs.iter().map(|(k, v)| ((*k).into(), v.clone())).collect()))
    }

    /// The rendered SQL of this expression. A dataframe renders its
    /// columns in place, into its statement's text; this renders one alone.
    pub fn sql(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    /// Appends the expression's SQL (parenthesized where needed) to `out`.
    pub(crate) fn render(&self, out: &mut String) {
        let list = |out: &mut String, items: &[Col]| {
            for (i, c) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                c.render(out);
            }
        };
        match &self.0.kind {
            Kind::Text(t) => out.push_str(t),
            Kind::Int(v) => write!(out, "{v}").expect("writing to a String"),
            Kind::Float(v) if v.fract() == 0.0 && v.is_finite() => {
                write!(out, "{v:.1}").expect("writing to a String")
            }
            Kind::Float(v) => write!(out, "{v}").expect("writing to a String"),
            Kind::Str(v) => push_str_lit(out, v),
            Kind::Ref { relation, name } => {
                if let Some(r) = relation {
                    push_ident(out, r);
                    out.push('.');
                }
                push_ident(out, name);
            }
            Kind::Binary(op, a, b) => {
                out.push('(');
                a.render(out);
                out.push(' ');
                out.push_str(op);
                out.push(' ');
                b.render(out);
                out.push(')');
            }
            Kind::Prefix(op, x) => {
                out.push('(');
                out.push_str(op);
                out.push(' ');
                x.render(out);
                out.push(')');
            }
            Kind::Postfix(x, op) => {
                out.push('(');
                x.render(out);
                out.push(' ');
                out.push_str(op);
                out.push(')');
            }
            Kind::Cast(x, ty) => {
                out.push('(');
                x.render(out);
                out.push_str(" :: ");
                out.push_str(ty);
                out.push(')');
            }
            Kind::Between(x, lo, hi) => {
                out.push('(');
                x.render(out);
                out.push_str(" BETWEEN ");
                lo.render(out);
                out.push_str(" AND ");
                hi.render(out);
                out.push(')');
            }
            Kind::InList(x, items) => {
                out.push('(');
                x.render(out);
                out.push_str(" IN (");
                list(out, items);
                out.push_str("))");
            }
            Kind::Call { name, prefix, args } => {
                out.push_str(name);
                out.push('(');
                out.push_str(prefix);
                list(out, args);
                out.push(')');
            }
            Kind::Object(pairs) => {
                out.push_str("OBJECT_CONSTRUCT(");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_str_lit(out, k);
                    out.push_str(", ");
                    v.render(out);
                }
                out.push(')');
            }
            Kind::Field(base, name) => match base.0.path {
                Path::None => {
                    out.push_str("GET(");
                    base.render(out);
                    out.push_str(", ");
                    push_str_lit(out, name);
                    out.push(')');
                }
                path => {
                    base.render(out);
                    out.push(if path == Path::Column { ':' } else { '.' });
                    push_ident(out, name);
                }
            },
            Kind::Element(base, index) => {
                if base.0.path == Path::Steps {
                    base.render(out);
                    write!(out, "[{index}]").expect("writing to a String");
                } else {
                    out.push_str("GET(");
                    base.render(out);
                    write!(out, ", {index})").expect("writing to a String");
                }
            }
        }
    }

    /// Whether `pred` holds for the name of a column the expression reads.
    /// Walks only the operands that read a column, and allocates nothing.
    pub(crate) fn reads_any(&self, pred: &mut impl FnMut(&str) -> bool) -> bool {
        if !self.0.reads {
            return false;
        }
        if let Kind::Ref { name, .. } = &self.0.kind {
            return pred(name);
        }
        let mut found = false;
        self.0.kind.for_each_operand(|c| found = found || c.reads_any(pred));
        found
    }

    pub(crate) fn calls_seq8(&self) -> bool {
        self.0.seq8
    }

    pub(crate) fn is_aggregate(&self) -> bool {
        self.0.aggregate
    }

    fn binary(&self, op: &'static str, rhs: &Col) -> Col {
        Col::node(Kind::Binary(op, self.clone(), rhs.clone()))
    }

    // ---- arithmetic ----

    pub fn add(&self, rhs: &Col) -> Col {
        self.binary("+", rhs)
    }

    pub fn sub(&self, rhs: &Col) -> Col {
        self.binary("-", rhs)
    }

    pub fn mul(&self, rhs: &Col) -> Col {
        self.binary("*", rhs)
    }

    pub fn div(&self, rhs: &Col) -> Col {
        self.binary("/", rhs)
    }

    pub fn rem(&self, rhs: &Col) -> Col {
        self.binary("%", rhs)
    }

    pub fn neg(&self) -> Col {
        Col::node(Kind::Prefix("-", self.clone()))
    }

    // ---- comparison ----

    pub fn eq(&self, rhs: &Col) -> Col {
        self.binary("=", rhs)
    }

    pub fn neq(&self, rhs: &Col) -> Col {
        self.binary("<>", rhs)
    }

    pub fn lt(&self, rhs: &Col) -> Col {
        self.binary("<", rhs)
    }

    pub fn le(&self, rhs: &Col) -> Col {
        self.binary("<=", rhs)
    }

    pub fn gt(&self, rhs: &Col) -> Col {
        self.binary(">", rhs)
    }

    pub fn ge(&self, rhs: &Col) -> Col {
        self.binary(">=", rhs)
    }

    pub fn between(&self, low: &Col, high: &Col) -> Col {
        Col::node(Kind::Between(self.clone(), low.clone(), high.clone()))
    }

    pub fn in_list(&self, items: &[Col]) -> Col {
        Col::node(Kind::InList(self.clone(), items.into()))
    }

    pub fn is_null(&self) -> Col {
        Col::node(Kind::Postfix(self.clone(), "IS NULL"))
    }

    pub fn is_not_null(&self) -> Col {
        Col::node(Kind::Postfix(self.clone(), "IS NOT NULL"))
    }

    // ---- boolean ----

    pub fn and(&self, rhs: &Col) -> Col {
        self.binary("AND", rhs)
    }

    pub fn or(&self, rhs: &Col) -> Col {
        self.binary("OR", rhs)
    }

    pub fn not(&self) -> Col {
        Col::node(Kind::Prefix("NOT", self.clone()))
    }

    // ---- nested data access ----

    /// Accesses a sub-field of a variant value (paper §IV-A).
    ///
    /// Emits Snowflake `:`/`.` path syntax when rooted at a column reference
    /// and a `GET` call otherwise.
    pub fn subfield(&self, name: &str) -> Col {
        Col::node(Kind::Field(self.clone(), name.into()))
    }

    /// Accesses an array element by position.
    pub fn element(&self, index: i64) -> Col {
        Col::node(Kind::Element(self.clone(), index))
    }

    // ---- misc ----

    /// `expr :: TYPE`
    pub fn cast(&self, ty: &str) -> Col {
        Col::node(Kind::Cast(self.clone(), ty.into()))
    }

    /// Renders `expr AS alias` for select lists.
    pub fn alias(&self, name: &str) -> AliasedCol {
        AliasedCol { col: self.clone(), alias: Some(Arc::from(name)) }
    }
}

/// A select-list item: expression plus optional alias.
#[derive(Clone, Debug)]
pub struct AliasedCol {
    pub(crate) col: Col,
    pub(crate) alias: Option<Arc<str>>,
}

impl AliasedCol {
    pub(crate) fn render(&self, out: &mut String) {
        self.col.render(out);
        if let Some(a) = &self.alias {
            out.push_str(" AS ");
            push_ident(out, a);
        }
    }
}

impl From<Col> for AliasedCol {
    fn from(col: Col) -> AliasedCol {
        AliasedCol { col, alias: None }
    }
}

impl From<&Col> for AliasedCol {
    fn from(col: &Col) -> AliasedCol {
        AliasedCol { col: col.clone(), alias: None }
    }
}

#[cfg(test)]
mod tests {
    use crate::functions as f;

    #[test]
    fn operators_parenthesize() {
        let e = f::col("A").add(&f::col("B")).mul(&f::lit(2));
        assert_eq!(e.sql(), r#"(("A" + "B") * 2)"#);
    }

    #[test]
    fn subfield_uses_path_syntax_on_references() {
        let e = f::col("V").subfield("MUON").element(0).subfield("PT");
        assert_eq!(e.sql(), r#""V":"MUON"[0]."PT""#);
    }

    /// Whether a path has started is recorded, not read off the text: a
    /// column whose name contains `:` still starts one.
    #[test]
    fn a_colon_in_a_column_name_does_not_start_a_path() {
        assert_eq!(f::col("A:B").subfield("X").sql(), r#""A:B":"X""#);
        assert_eq!(f::col("AB").subfield("X").sql(), r#""AB":"X""#);
        assert_eq!(f::col("A:B").element(0).sql(), r#"GET("A:B", 0)"#);
        assert_eq!(f::col("A:B").subfield("X").element(1).sql(), r#""A:B":"X"[1]"#);
    }

    #[test]
    fn reads_and_calls_are_recorded() {
        let reads = |c: &crate::Col| {
            let mut names = Vec::new();
            c.reads_any(&mut |n| {
                names.push(n.to_string());
                false
            });
            names
        };
        let e = f::iff(&f::col("A").gt(&f::seq8()), &f::col_of("F", "VALUE"), &f::lit(1));
        assert_eq!(reads(&e), ["A", "VALUE"]);
        assert!(e.calls_seq8() && !e.is_aggregate());
        let s = f::sum(&f::col("B")).add(&f::lit(1));
        assert!(s.is_aggregate() && !s.calls_seq8());
        assert_eq!(reads(&s), ["B"]);
        assert!(!f::lit(1).add(&f::seq8()).reads_any(&mut |_| true));
    }

    #[test]
    fn subfield_falls_back_to_get() {
        let e = f::lit(1).add(&f::lit(2)).subfield("X");
        assert_eq!(e.sql(), "GET((1 + 2), 'X')");
    }

    #[test]
    fn comparison_and_logic() {
        let e = f::col("A").ge(&f::lit(1)).and(&f::col("B").is_not_null().not());
        assert_eq!(e.sql(), r#"(("A" >= 1) AND (NOT ("B" IS NOT NULL)))"#);
    }

    #[test]
    fn cast_and_between() {
        let e = f::col("X").cast("INT").between(&f::lit(1), &f::lit(5));
        assert_eq!(e.sql(), r#"(("X" :: INT) BETWEEN 1 AND 5)"#);
    }
}
