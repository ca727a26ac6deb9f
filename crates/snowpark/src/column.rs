//! [`Col`]: a partial SQL sub-expression.

use std::sync::Arc;

use crate::{push_ident, quote_ident, quote_str};

/// A column expression. Like Snowpark's `Column`, a `Col` is not bound to any
/// dataset: it is a fragment of SQL logic that becomes meaningful when plugged
/// into a [`crate::DataFrame`] method (paper §III-B1).
///
/// Besides its text, a `Col` keeps what a dataframe needs to tell whether the
/// expression may join the `SELECT` below it instead of wrapping it: the
/// column names it reads (its operands that read any are kept), and whether
/// it calls `SEQ8()` or an aggregate. Cloning one is a reference count.
#[derive(Clone, Debug)]
pub struct Col(Arc<Expr>);

#[derive(Debug)]
struct Expr {
    /// Rendered SQL for the expression (already parenthesized where needed).
    sql: String,
    /// For a reference, the name of the column, as given to
    /// [`crate::functions::col`] / [`crate::functions::col_of`] (unquoted,
    /// without the relation).
    name: Option<String>,
    /// The operands that read a column.
    operands: Vec<Col>,
    /// Whether the expression calls `SEQ8()`.
    seq8: bool,
    /// Whether the expression calls an aggregate function.
    aggregate: bool,
    path: Path,
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

impl Col {
    fn new(expr: Expr) -> Col {
        Col(Arc::new(expr))
    }

    /// An expression that reads no column.
    pub(crate) fn raw(sql: impl Into<String>) -> Col {
        Col::over(sql.into(), &[])
    }

    /// A reference, rendered as `sql`, to the column called `name`.
    pub(crate) fn reference(sql: String, name: &str) -> Col {
        Col::new(Expr { name: Some(name.to_string()), path: Path::Column, ..Col::expr(sql, &[]) })
    }

    /// An expression rendered as `sql` over `operands`: it reads what they
    /// read and calls what they call.
    pub(crate) fn over(sql: String, operands: &[&Col]) -> Col {
        Col::new(Col::expr(sql, operands))
    }

    fn expr(sql: String, operands: &[&Col]) -> Expr {
        let reads = |c: &Col| c.0.name.is_some() || !c.0.operands.is_empty();
        Expr {
            sql,
            name: None,
            operands: operands.iter().filter(|c| reads(c)).map(|&c| c.clone()).collect(),
            seq8: operands.iter().any(|c| c.0.seq8),
            aggregate: operands.iter().any(|c| c.0.aggregate),
            path: Path::None,
        }
    }

    /// `SEQ8()`.
    pub(crate) fn seq8() -> Col {
        Col::new(Expr { seq8: true, ..Col::expr("SEQ8()".into(), &[]) })
    }

    /// An aggregate call rendered as `sql` over `operands`.
    pub(crate) fn aggregate(sql: String, operands: &[&Col]) -> Col {
        Col::new(Expr { aggregate: true, ..Col::expr(sql, operands) })
    }

    /// A path step rendered as `sql` over this expression.
    fn step(&self, sql: String) -> Col {
        Col::new(Expr { path: Path::Steps, ..Col::expr(sql, &[self]) })
    }

    /// The rendered SQL of this expression.
    pub fn sql(&self) -> &str {
        &self.0.sql
    }

    /// Names of the columns the expression reads, in order.
    pub(crate) fn reads(&self) -> Vec<&str> {
        fn go<'a>(c: &'a Col, out: &mut Vec<&'a str>) {
            out.extend(c.0.name.as_deref());
            c.0.operands.iter().for_each(|o| go(o, out));
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    pub(crate) fn calls_seq8(&self) -> bool {
        self.0.seq8
    }

    pub(crate) fn is_aggregate(&self) -> bool {
        self.0.aggregate
    }

    fn binary(&self, op: &str, rhs: &Col) -> Col {
        Col::over(format!("({} {op} {})", self.sql(), rhs.sql()), &[self, rhs])
    }

    fn unary(&self, sql: String) -> Col {
        Col::over(sql, &[self])
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
        self.unary(format!("(- {})", self.sql()))
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
        Col::over(format!("({} BETWEEN {} AND {})", self.sql(), low.sql(), high.sql()), &[self, low, high])
    }

    pub fn in_list(&self, items: &[Col]) -> Col {
        let list: Vec<&str> = items.iter().map(|c| c.sql()).collect();
        let mut operands = vec![self];
        operands.extend(items);
        Col::over(format!("({} IN ({}))", self.sql(), list.join(", ")), &operands)
    }

    pub fn is_null(&self) -> Col {
        self.unary(format!("({} IS NULL)", self.sql()))
    }

    pub fn is_not_null(&self) -> Col {
        self.unary(format!("({} IS NOT NULL)", self.sql()))
    }

    // ---- boolean ----

    pub fn and(&self, rhs: &Col) -> Col {
        self.binary("AND", rhs)
    }

    pub fn or(&self, rhs: &Col) -> Col {
        self.binary("OR", rhs)
    }

    pub fn not(&self) -> Col {
        self.unary(format!("(NOT {})", self.sql()))
    }

    // ---- nested data access ----

    /// Accesses a sub-field of a variant value (paper §IV-A).
    ///
    /// Emits Snowflake `:`/`.` path syntax when rooted at a column reference
    /// and a `GET` call otherwise.
    pub fn subfield(&self, name: &str) -> Col {
        let sep = match self.0.path {
            Path::None => return self.unary(format!("GET({}, {})", self.sql(), quote_str(name))),
            Path::Column => ':',
            Path::Steps => '.',
        };
        self.step(format!("{}{sep}{}", self.sql(), quote_ident(name)))
    }

    /// Accesses an array element by position.
    pub fn element(&self, index: i64) -> Col {
        if self.0.path == Path::Steps {
            self.step(format!("{}[{index}]", self.sql()))
        } else {
            self.unary(format!("GET({}, {index})", self.sql()))
        }
    }

    // ---- misc ----

    /// `expr :: TYPE`
    pub fn cast(&self, ty: &str) -> Col {
        self.unary(format!("({} :: {ty})", self.sql()))
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
        out.push_str(self.col.sql());
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
        let e = f::iff(&f::col("A").gt(&f::seq8()), &f::col_of("F", "VALUE"), &f::lit(1));
        assert_eq!(e.reads(), ["A", "VALUE"]);
        assert!(e.calls_seq8() && !e.is_aggregate());
        let s = f::sum(&f::col("B")).add(&f::lit(1));
        assert!(s.is_aggregate() && !s.calls_seq8());
        assert_eq!(s.reads(), ["B"]);
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
