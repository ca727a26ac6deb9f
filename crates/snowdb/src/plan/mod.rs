//! Bound logical plans and physical expressions.

pub mod binder;
mod explain;
pub mod physical;

pub use binder::{bind_query, Catalog};
pub use explain::{explain, explain_analyze, explain_record, expr_str};

use std::sync::Arc;

use crate::sql::{BinOp, JoinKind, UnaryOp};
use crate::storage::Table;
use crate::variant::Variant;

/// An output column of a plan node: optional relation qualifier plus name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub qualifier: Option<String>,
    pub name: String,
}

impl Field {
    pub fn new(qualifier: Option<&str>, name: impl Into<String>) -> Field {
        Field { qualifier: qualifier.map(str::to_string), name: name.into() }
    }

    pub fn bare(name: impl Into<String>) -> Field {
        Field { qualifier: None, name: name.into() }
    }
}

/// Cast target types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CastType {
    Int,
    Float,
    Bool,
    Str,
    Variant,
}

/// Scalar function identifiers resolved at bind time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuncId {
    Abs,
    Sqrt,
    Power,
    Exp,
    Ln,
    Log,
    Floor,
    Ceil,
    Round,
    Sign,
    Mod,
    Atan,
    Atan2,
    Asin,
    Acos,
    Sin,
    Cos,
    Tan,
    Sinh,
    Cosh,
    Tanh,
    Pi,
    Greatest,
    Least,
    Coalesce,
    Nvl,
    NullIf,
    Iff,
    Div0,
    ObjectConstruct,
    ArrayConstruct,
    ArraySize,
    ArrayCat,
    ArrayContains,
    /// `ARRAY_FILTER(arr, field_or_null, op, literal)` — restricted native
    /// array filtering (paper §VII-B future work): keeps elements whose field
    /// (or the element itself) compares against a literal.
    ArrayFilter,
    Get,
    TypeOf,
    ToDouble,
    Upper,
    Lower,
    Substr,
    Length,
    Concat,
    /// Per-query monotonically increasing row number (stand-in for `SEQ8()`).
    Seq8,
}

impl FuncId {
    /// Resolves a scalar function name.
    pub fn from_name(name: &str) -> Option<FuncId> {
        Some(match name {
            "ABS" => FuncId::Abs,
            "SQRT" => FuncId::Sqrt,
            "POWER" | "POW" => FuncId::Power,
            "EXP" => FuncId::Exp,
            "LN" => FuncId::Ln,
            "LOG" => FuncId::Log,
            "FLOOR" => FuncId::Floor,
            "CEIL" | "CEILING" => FuncId::Ceil,
            "ROUND" => FuncId::Round,
            "SIGN" => FuncId::Sign,
            "MOD" => FuncId::Mod,
            "ATAN" => FuncId::Atan,
            "ATAN2" => FuncId::Atan2,
            "ASIN" => FuncId::Asin,
            "ACOS" => FuncId::Acos,
            "SIN" => FuncId::Sin,
            "COS" => FuncId::Cos,
            "TAN" => FuncId::Tan,
            "SINH" => FuncId::Sinh,
            "COSH" => FuncId::Cosh,
            "TANH" => FuncId::Tanh,
            "PI" => FuncId::Pi,
            "GREATEST" => FuncId::Greatest,
            "LEAST" => FuncId::Least,
            "COALESCE" => FuncId::Coalesce,
            "NVL" | "IFNULL" => FuncId::Nvl,
            "NULLIF" => FuncId::NullIf,
            "IFF" => FuncId::Iff,
            "DIV0" => FuncId::Div0,
            // Both spellings map to keep-null semantics; see the evaluator.
            "OBJECT_CONSTRUCT" | "OBJECT_CONSTRUCT_KEEP_NULL" => FuncId::ObjectConstruct,
            "ARRAY_CONSTRUCT" => FuncId::ArrayConstruct,
            "ARRAY_SIZE" => FuncId::ArraySize,
            "ARRAY_CAT" => FuncId::ArrayCat,
            "ARRAY_CONTAINS" => FuncId::ArrayContains,
            "ARRAY_FILTER" => FuncId::ArrayFilter,
            "GET" => FuncId::Get,
            "TYPEOF" => FuncId::TypeOf,
            "TO_DOUBLE" => FuncId::ToDouble,
            "UPPER" => FuncId::Upper,
            "LOWER" => FuncId::Lower,
            "SUBSTR" | "SUBSTRING" => FuncId::Substr,
            "LENGTH" | "LEN" => FuncId::Length,
            "CONCAT" => FuncId::Concat,
            "SEQ8" => FuncId::Seq8,
            _ => return None,
        })
    }

    /// The function's SQL name, as error messages print it.
    pub fn name(self) -> &'static str {
        match self {
            FuncId::Abs => "ABS",
            FuncId::Sqrt => "SQRT",
            FuncId::Power => "POWER",
            FuncId::Exp => "EXP",
            FuncId::Ln => "LN",
            FuncId::Log => "LOG",
            FuncId::Floor => "FLOOR",
            FuncId::Ceil => "CEIL",
            FuncId::Round => "ROUND",
            FuncId::Sign => "SIGN",
            FuncId::Mod => "MOD",
            FuncId::Atan => "ATAN",
            FuncId::Atan2 => "ATAN2",
            FuncId::Asin => "ASIN",
            FuncId::Acos => "ACOS",
            FuncId::Sin => "SIN",
            FuncId::Cos => "COS",
            FuncId::Tan => "TAN",
            FuncId::Sinh => "SINH",
            FuncId::Cosh => "COSH",
            FuncId::Tanh => "TANH",
            FuncId::Pi => "PI",
            FuncId::Greatest => "GREATEST",
            FuncId::Least => "LEAST",
            FuncId::Coalesce => "COALESCE",
            FuncId::Nvl => "NVL",
            FuncId::NullIf => "NULLIF",
            FuncId::Iff => "IFF",
            FuncId::Div0 => "DIV0",
            FuncId::ObjectConstruct => "OBJECT_CONSTRUCT",
            FuncId::ArrayConstruct => "ARRAY_CONSTRUCT",
            FuncId::ArraySize => "ARRAY_SIZE",
            FuncId::ArrayCat => "ARRAY_CAT",
            FuncId::ArrayContains => "ARRAY_CONTAINS",
            FuncId::ArrayFilter => "ARRAY_FILTER",
            FuncId::Get => "GET",
            FuncId::TypeOf => "TYPEOF",
            FuncId::ToDouble => "TO_DOUBLE",
            FuncId::Upper => "UPPER",
            FuncId::Lower => "LOWER",
            FuncId::Substr => "SUBSTR",
            FuncId::Length => "LENGTH",
            FuncId::Concat => "CONCAT",
            FuncId::Seq8 => "SEQ8",
        }
    }

    /// True for functions whose result depends on evaluation order, which must
    /// never be constant-folded or deduplicated.
    pub fn is_volatile(self) -> bool {
        matches!(self, FuncId::Seq8)
    }
}

/// Aggregate function kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
    /// `ARRAY_AGG(x)`: collects non-null values into an array.
    ArrayAgg,
    /// `ANY_VALUE(x)`: first value seen in the group.
    AnyValue,
    /// `BOOLAND_AGG(x)`: conjunction over non-null booleans.
    BoolAnd,
    /// `BOOLOR_AGG(x)`: disjunction over non-null booleans.
    BoolOr,
    /// `MIN_BY(value, key)`: value of the first row with the minimal key.
    MinBy,
    /// `MAX_BY(value, key)`: value of the first row with the maximal key.
    MaxBy,
}

impl AggKind {
    /// Resolves an aggregate function name (before considering DISTINCT/star).
    pub fn from_name(name: &str) -> Option<AggKind> {
        Some(match name {
            "COUNT" => AggKind::Count,
            "SUM" => AggKind::Sum,
            "MIN" => AggKind::Min,
            "MAX" => AggKind::Max,
            "AVG" => AggKind::Avg,
            "ARRAY_AGG" => AggKind::ArrayAgg,
            "ANY_VALUE" => AggKind::AnyValue,
            "BOOLAND_AGG" => AggKind::BoolAnd,
            "BOOLOR_AGG" => AggKind::BoolOr,
            "MIN_BY" => AggKind::MinBy,
            "MAX_BY" => AggKind::MaxBy,
            _ => return None,
        })
    }
}

/// One bound aggregate: kind plus input expression (`None` for `COUNT(*)`).
/// `arg2` carries the key expression of `MIN_BY`/`MAX_BY`.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    pub kind: AggKind,
    pub arg: Option<PExpr>,
    pub arg2: Option<PExpr>,
}

/// One step of a bound variant path.
#[derive(Clone, Debug, PartialEq)]
pub enum PStep {
    Field(String),
    Index(i64),
    IndexExpr(Box<PExpr>),
}

/// Bound (physical) scalar expression: column references are positional.
#[derive(Clone, Debug, PartialEq)]
pub enum PExpr {
    Col(usize),
    Lit(Variant),
    Unary { op: UnaryOp, expr: Box<PExpr> },
    Binary { left: Box<PExpr>, op: BinOp, right: Box<PExpr> },
    Not(Box<PExpr>),
    IsNull { expr: Box<PExpr>, negated: bool },
    InList { expr: Box<PExpr>, list: Vec<PExpr>, negated: bool },
    Case {
        operand: Option<Box<PExpr>>,
        branches: Vec<(PExpr, PExpr)>,
        else_expr: Option<Box<PExpr>>,
    },
    Func { f: FuncId, args: Vec<PExpr> },
    Cast { expr: Box<PExpr>, ty: CastType },
    Path { base: Box<PExpr>, steps: Vec<PStep> },
    /// `expr [NOT] LIKE pattern` with `%`/`_` wildcards.
    Like { expr: Box<PExpr>, pattern: Box<PExpr>, negated: bool },
}

impl PExpr {
    /// The walk: calls `f` on each direct sub-expression, in the order the
    /// row evaluator reaches them. Every read-only traversal is built on it.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a PExpr)) {
        match self {
            PExpr::Col(_) | PExpr::Lit(_) => {}
            PExpr::Unary { expr, .. }
            | PExpr::Not(expr)
            | PExpr::IsNull { expr, .. }
            | PExpr::Cast { expr, .. } => f(expr),
            PExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            PExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            PExpr::Case { operand, branches, else_expr } => {
                operand.iter().for_each(|o| f(o));
                for (c, v) in branches {
                    f(c);
                    f(v);
                }
                else_expr.iter().for_each(|e| f(e));
            }
            PExpr::Func { args, .. } => args.iter().for_each(f),
            PExpr::Path { base, steps } => {
                f(base);
                for s in steps {
                    if let PStep::IndexExpr(e) = s {
                        f(e);
                    }
                }
            }
            PExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
        }
    }

    /// The map: as [`PExpr::for_each_child`], handing out each direct
    /// sub-expression for rewriting in place. Every rewrite is built on it.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut PExpr)) {
        match self {
            PExpr::Col(_) | PExpr::Lit(_) => {}
            PExpr::Unary { expr, .. }
            | PExpr::Not(expr)
            | PExpr::IsNull { expr, .. }
            | PExpr::Cast { expr, .. } => f(expr),
            PExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            PExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            PExpr::Case { operand, branches, else_expr } => {
                operand.iter_mut().for_each(|o| f(o));
                for (c, v) in branches {
                    f(c);
                    f(v);
                }
                else_expr.iter_mut().for_each(|e| f(e));
            }
            PExpr::Func { args, .. } => args.iter_mut().for_each(f),
            PExpr::Path { base, steps } => {
                f(base);
                for s in steps {
                    if let PStep::IndexExpr(e) = s {
                        f(e);
                    }
                }
            }
            PExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
        }
    }

    /// As [`PExpr::for_each_child`], also telling `f` whether the child sits
    /// behind a guard — whether the row evaluator may skip it for a row: the
    /// right operand of `AND`/`OR`, the items of an `IN` list, everything in a
    /// `CASE` after its first condition, the branches of `IFF`, the later
    /// arguments of `NVL`/`COALESCE`, and a path step's index. This is the one
    /// place the guard positions are named.
    pub fn for_each_child_guarded<'a>(&'a self, f: &mut impl FnMut(&'a PExpr, bool)) {
        match self {
            PExpr::Binary { left, op, right } => {
                f(left, false);
                f(right, matches!(op, BinOp::And | BinOp::Or));
            }
            PExpr::InList { expr, list, .. } => {
                f(expr, false);
                list.iter().for_each(|item| f(item, true));
            }
            PExpr::Case { operand, branches, else_expr } => {
                operand.iter().for_each(|o| f(o, false));
                for (k, (c, v)) in branches.iter().enumerate() {
                    f(c, k > 0);
                    f(v, true);
                }
                else_expr.iter().for_each(|e| f(e, true));
            }
            PExpr::Func { f: func, args } => {
                let guards_from = match (func, args.len()) {
                    (FuncId::Iff, 3) | (FuncId::Nvl, 2) | (FuncId::Coalesce, _) => 1,
                    _ => usize::MAX,
                };
                args.iter().enumerate().for_each(|(k, a)| f(a, k >= guards_from));
            }
            PExpr::Path { base, steps } => {
                f(base, false);
                for s in steps {
                    if let PStep::IndexExpr(e) = s {
                        f(e, true);
                    }
                }
            }
            other => other.for_each_child(&mut |c| f(c, false)),
        }
    }

    /// Calls `f` on this expression and every sub-expression, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PExpr)) {
        f(self);
        self.for_each_child(&mut |c| c.visit(f));
    }

    /// True when `found` holds for this expression or a sub-expression;
    /// nothing after the first hit is looked at.
    pub fn any(&self, found: &mut impl FnMut(&PExpr) -> bool) -> bool {
        found(self) || {
            let mut hit = false;
            self.for_each_child(&mut |c| hit = hit || c.any(found));
            hit
        }
    }

    /// Collects the column indices referenced by this expression.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        self.visit(&mut |e| {
            if let PExpr::Col(i) = e {
                out.push(*i);
            }
        });
    }

    /// True when the expression contains a volatile function.
    pub fn is_volatile(&self) -> bool {
        self.any(&mut PExpr::is_volatile_call)
    }

    /// True when the node itself — not an operand — calls a volatile function.
    pub fn is_volatile_call(&self) -> bool {
        matches!(self, PExpr::Func { f, .. } if f.is_volatile())
    }

    /// Renumbers every column reference through `f`: the one way an
    /// expression moves to another schema. Nothing is allocated.
    pub fn map_cols(mut self, f: &impl Fn(usize) -> usize) -> PExpr {
        fn go(e: &mut PExpr, f: &impl Fn(usize) -> usize) {
            match e {
                PExpr::Col(i) => *i = f(*i),
                other => other.for_each_child_mut(&mut |c| go(c, f)),
            }
        }
        go(&mut self, f);
        self
    }

    /// Replaces every column reference by a copy of the expression `subs`
    /// holds for it: a projection's output columns become the expressions
    /// over its input.
    pub fn substitute(mut self, subs: &[PExpr]) -> PExpr {
        fn go(e: &mut PExpr, subs: &[PExpr]) {
            match e {
                PExpr::Col(i) => *e = subs[*i].clone(),
                other => other.for_each_child_mut(&mut |c| go(c, subs)),
            }
        }
        go(&mut self, subs);
        self
    }
}

/// The conjuncts of `e`, left to right: `e` itself when it is no `AND`.
pub fn conjuncts(e: &PExpr) -> Vec<&PExpr> {
    fn go<'a>(e: &'a PExpr, out: &mut Vec<&'a PExpr>) {
        if let PExpr::Binary { left, op: BinOp::And, right } = e {
            go(left, out);
            go(right, out);
        } else {
            out.push(e);
        }
    }
    let mut out = Vec::new();
    go(e, &mut out);
    out
}

/// As [`conjuncts`], taking a predicate apart — a filter's or an ON
/// condition's, which keep a row only where it is TRUE. So `IFF(c, TRUE,
/// FALSE)`, the flag-column strategy's spelling of a nested `where`, is read
/// as `c` and split in turn: `c` is evaluated either way.
pub(crate) fn into_conjuncts(e: PExpr) -> Vec<PExpr> {
    fn go(e: PExpr, out: &mut Vec<PExpr>) {
        match e {
            PExpr::Binary { left, op: BinOp::And, right } => {
                go(*left, out);
                go(*right, out);
            }
            PExpr::Func { f: FuncId::Iff, mut args }
                if matches!(
                    args.as_slice(),
                    [_, PExpr::Lit(Variant::Bool(true)), PExpr::Lit(Variant::Bool(false))]
                ) =>
            {
                go(args.swap_remove(0), out)
            }
            e => out.push(e),
        }
    }
    let mut out = Vec::new();
    go(e, &mut out);
    out
}

/// Splits an ON predicate into equi-join key pairs `(left key, right key)`
/// — the `=` conjuncts with one operand over left columns only and the other
/// over right columns only, which is what the executor hashes — and residual
/// conjuncts. Every expression stays bound against the concatenated schema:
/// a right key is evaluated over the right input with its columns shifted by
/// `left_arity` ([`crate::exec::RowView::shifted`],
/// [`crate::exec::dag::ExprDag::compile_shifted`]).
pub(crate) fn split_join_on(on: &PExpr, left_arity: usize) -> (Vec<(&PExpr, &PExpr)>, Vec<&PExpr>) {
    // Some(true) = reads only left columns, Some(false) = only right, None =
    // both or none.
    let side = |e: &PExpr| {
        let (mut left, mut right) = (false, false);
        e.visit(&mut |x| {
            if let PExpr::Col(c) = x {
                *(if *c < left_arity { &mut left } else { &mut right }) = true;
            }
        });
        (left != right).then_some(left)
    };
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts(on) {
        if let PExpr::Binary { left, op: BinOp::Eq, right } = c {
            match (side(left), side(right)) {
                (Some(true), Some(false)) => {
                    equi.push((&**left, &**right));
                    continue;
                }
                (Some(false), Some(true)) => {
                    equi.push((&**right, &**left));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    (equi, residual)
}

/// Recognizes `col <cmp> literal`, `literal <cmp> col` (the comparison
/// flipped so that the column stands left) and `col IS [NOT] NULL` (against
/// a NULL literal): the predicates column statistics can decide, spelled the
/// way [`crate::storage::ColumnStats::may_match`] and
/// [`crate::storage::ColumnStats::selectivity`] take them.
pub(crate) fn col_cmp_lit(p: &PExpr) -> Option<(usize, &'static str, &Variant)> {
    match p {
        PExpr::IsNull { expr, negated } => match **expr {
            PExpr::Col(c) => {
                Some((c, if *negated { "IS NOT NULL" } else { "IS NULL" }, &Variant::Null))
            }
            _ => None,
        },
        PExpr::Binary { left, op, right } => {
            let (col, lit, flipped) = match (&**left, &**right) {
                (PExpr::Col(c), PExpr::Lit(v)) => (*c, v, false),
                (PExpr::Lit(v), PExpr::Col(c)) => (*c, v, true),
                _ => return None,
            };
            let cmp = match (op, flipped) {
                (BinOp::Eq, _) => "=",
                (BinOp::NotEq, _) => "<>",
                (BinOp::Lt, false) | (BinOp::Gt, true) => "<",
                (BinOp::LtEq, false) | (BinOp::GtEq, true) => "<=",
                (BinOp::Gt, false) | (BinOp::Lt, true) => ">",
                (BinOp::GtEq, false) | (BinOp::LtEq, true) => ">=",
                _ => return None,
            };
            Some((col, cmp, lit))
        }
        _ => None,
    }
}

/// A predicate pushed into a scan for partition pruning: `column <cmp> literal`.
///
/// Pruning predicates are advisory — the original `Filter` stays in the plan, so
/// pruning can never change results, only skip partitions that provably cannot
/// contribute.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanPredicate {
    pub col: usize,
    pub cmp: &'static str,
    pub lit: Variant,
}

/// A bound sort key.
#[derive(Clone, Debug, PartialEq)]
pub struct SortKey {
    pub expr: PExpr,
    pub desc: bool,
    pub nulls_first: Option<bool>,
}

/// A bound plan node together with its output schema.
///
/// Bound plans are trees. The optimizer's last pass
/// ([`crate::optimize::share`]) turns the optimized plan into a DAG without
/// changing this type: structurally identical subtrees that more than one
/// parent reads carry the same `share` id, and everything downstream
/// (lowering, execution, `EXPLAIN`, costing) treats the first occurrence in
/// plan order as the subtree and every later one as a reference to its result.
#[derive(Clone, Debug)]
pub struct Node {
    pub kind: NodeKind,
    pub fields: Vec<Field>,
    /// Share class of this subtree; `None` on raw bound plans and on subtrees
    /// with a single reader.
    pub share: Option<u32>,
}

/// Plan operators.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Base-table scan. `materialize[i]` marks table columns actually consumed
    /// by the query; unmarked columns are neither read nor accounted.
    Scan {
        table: Arc<Table>,
        pushed: Vec<ScanPredicate>,
        materialize: Vec<bool>,
    },
    /// A single row with no columns; basis for `SELECT` without `FROM`.
    Values,
    Project { input: Box<Node>, exprs: Vec<PExpr> },
    /// Passes the rows on which `pred` is TRUE. A run-preserving filter
    /// (`per` names a row-id column) besides passes one row of each run of
    /// equal `per` values in a batch that has no such row: it only ever
    /// holds a copy of a gated aggregate's `KEEP` conjuncts
    /// ([`crate::optimize::keep`]).
    Filter { input: Box<Node>, pred: PExpr, per: Option<usize> },
    /// `LATERAL FLATTEN`: appends VALUE, INDEX, KEY, SEQ, THIS columns.
    /// `emit[k]` is false for an appended column nothing reads; it is then
    /// produced as all-NULL. `from` is an
    /// integer expression over the input columns: a row emits the array
    /// items whose `INDEX` is at least its value, none where it is NULL, and
    /// none of an object or a scalar ([`crate::optimize::flatten_bound`]);
    /// an `OUTER` flatten emits one pad row instead of none.
    Flatten { input: Box<Node>, expr: PExpr, outer: bool, emit: [bool; 5], from: Option<PExpr> },
    Aggregate { input: Box<Node>, groups: Vec<PExpr>, aggs: Vec<AggExpr> },
    Join {
        left: Box<Node>,
        right: Box<Node>,
        kind: JoinKind,
        /// Raw ON predicate over the concatenated (left ++ right) schema.
        on: Option<PExpr>,
    },
    Sort { input: Box<Node>, keys: Vec<SortKey> },
    Limit { input: Box<Node>, n: u64 },
    UnionAll { left: Box<Node>, right: Box<Node> },
    Distinct { input: Box<Node> },
}

impl NodeKind {
    /// The operator's input nodes, in order.
    pub fn inputs(&self) -> Vec<&Node> {
        match self {
            NodeKind::Scan { .. } | NodeKind::Values => Vec::new(),
            NodeKind::Project { input, .. }
            | NodeKind::Filter { input, .. }
            | NodeKind::Flatten { input, .. }
            | NodeKind::Aggregate { input, .. }
            | NodeKind::Sort { input, .. }
            | NodeKind::Limit { input, .. }
            | NodeKind::Distinct { input } => vec![input],
            NodeKind::Join { left, right, .. } | NodeKind::UnionAll { left, right } => {
                vec![left, right]
            }
        }
    }

    /// Mutable access to the operator's input nodes, in order.
    pub fn inputs_mut(&mut self) -> Vec<&mut Node> {
        match self {
            NodeKind::Scan { .. } | NodeKind::Values => Vec::new(),
            NodeKind::Project { input, .. }
            | NodeKind::Filter { input, .. }
            | NodeKind::Flatten { input, .. }
            | NodeKind::Aggregate { input, .. }
            | NodeKind::Sort { input, .. }
            | NodeKind::Limit { input, .. }
            | NodeKind::Distinct { input } => vec![input],
            NodeKind::Join { left, right, .. } | NodeKind::UnionAll { left, right } => {
                vec![left, right]
            }
        }
    }

    /// Every expression the operator evaluates, in the order lowering
    /// compiles them: the projection list, the predicate, the flatten input
    /// and its bound (a literal bound is read from the plan, not compiled),
    /// the sort keys, the ON condition; for an aggregate the group keys, then
    /// each aggregate's arguments (`arg`, then `arg2`).
    pub fn exprs(&self) -> Vec<&PExpr> {
        match self {
            NodeKind::Scan { .. }
            | NodeKind::Values
            | NodeKind::Limit { .. }
            | NodeKind::UnionAll { .. }
            | NodeKind::Distinct { .. } => Vec::new(),
            NodeKind::Project { exprs, .. } => exprs.iter().collect(),
            NodeKind::Filter { pred, .. } => vec![pred],
            NodeKind::Flatten { expr, from, .. } => std::iter::once(expr).chain(from).collect(),
            NodeKind::Aggregate { groups, aggs, .. } => groups
                .iter()
                .chain(aggs.iter().flat_map(|a| a.arg.iter().chain(&a.arg2)))
                .collect(),
            NodeKind::Join { on, .. } => on.iter().collect(),
            NodeKind::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
        }
    }

    /// Mutable access to the same expressions, in the same order.
    pub fn exprs_mut(&mut self) -> Vec<&mut PExpr> {
        match self {
            NodeKind::Scan { .. }
            | NodeKind::Values
            | NodeKind::Limit { .. }
            | NodeKind::UnionAll { .. }
            | NodeKind::Distinct { .. } => Vec::new(),
            NodeKind::Project { exprs, .. } => exprs.iter_mut().collect(),
            NodeKind::Filter { pred, .. } => vec![pred],
            NodeKind::Flatten { expr, from, .. } => std::iter::once(expr).chain(from).collect(),
            NodeKind::Aggregate { groups, aggs, .. } => groups
                .iter_mut()
                .chain(aggs.iter_mut().flat_map(|a| a.arg.iter_mut().chain(&mut a.arg2)))
                .collect(),
            NodeKind::Join { on, .. } => on.iter_mut().collect(),
            NodeKind::Sort { keys, .. } => keys.iter_mut().map(|k| &mut k.expr).collect(),
        }
    }

    /// The input column that output column `col` copies unchanged, as its
    /// input's position in [`NodeKind::inputs`] and its column there: a
    /// projection's bare `Col`, every column of a filter, sort, limit or
    /// distinct, a flatten's input columns and both sides of a join. An
    /// aggregate's and a union's outputs are new values, and copy nothing.
    pub fn copies(&self, col: usize) -> Option<(usize, usize)> {
        match self {
            NodeKind::Project { exprs, .. } => match exprs[col] {
                PExpr::Col(c) => Some((0, c)),
                _ => None,
            },
            NodeKind::Filter { .. }
            | NodeKind::Sort { .. }
            | NodeKind::Limit { .. }
            | NodeKind::Distinct { .. } => Some((0, col)),
            NodeKind::Flatten { input, .. } => (col < input.arity()).then_some((0, col)),
            NodeKind::Join { left, .. } => match col.checked_sub(left.arity()) {
                Some(c) => Some((1, c)),
                None => Some((0, col)),
            },
            NodeKind::Scan { .. }
            | NodeKind::Values
            | NodeKind::Aggregate { .. }
            | NodeKind::UnionAll { .. } => None,
        }
    }
}

impl Node {
    /// A node read by a single parent.
    pub fn new(kind: NodeKind, fields: Vec<Field>) -> Node {
        Node { kind, fields, share: None }
    }

    /// Rebuilds the node with `f` applied to each of its inputs.
    pub fn map_inputs(self, f: fn(Node) -> Node) -> Node {
        let b = |n: Box<Node>| Box::new(f(*n));
        let kind = match self.kind {
            leaf @ (NodeKind::Scan { .. } | NodeKind::Values) => leaf,
            NodeKind::Project { input, exprs } => NodeKind::Project { input: b(input), exprs },
            NodeKind::Filter { input, pred, per } => {
                NodeKind::Filter { input: b(input), pred, per }
            }
            NodeKind::Flatten { input, expr, outer, emit, from } => {
                NodeKind::Flatten { input: b(input), expr, outer, emit, from }
            }
            NodeKind::Aggregate { input, groups, aggs } => {
                NodeKind::Aggregate { input: b(input), groups, aggs }
            }
            NodeKind::Join { left, right, kind, on } => {
                NodeKind::Join { left: b(left), right: b(right), kind, on }
            }
            NodeKind::Sort { input, keys } => NodeKind::Sort { input: b(input), keys },
            NodeKind::Limit { input, n } => NodeKind::Limit { input: b(input), n },
            NodeKind::UnionAll { left, right } => {
                NodeKind::UnionAll { left: b(left), right: b(right) }
            }
            NodeKind::Distinct { input } => NodeKind::Distinct { input: b(input) },
        };
        Node { kind, fields: self.fields, share: self.share }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// The lineage of column `col`: this node and column, then each
    /// [`NodeKind::copies`] edge down to the node that computes the value.
    pub fn lineage(&self, col: usize) -> impl Iterator<Item = (&Node, usize)> {
        std::iter::successors(Some((self, col)), |&(node, col)| {
            let (input, c) = node.kind.copies(col)?;
            Some((node.kind.inputs()[input], c))
        })
    }

    /// Counts plan nodes, a rough complexity metric used in tests and the
    /// compile-time experiment. A shared subtree counts once; each further
    /// reference to it counts as one node.
    pub fn node_count(&self) -> usize {
        fn count(node: &Node, seen: &mut Vec<u32>) -> usize {
            if let Some(id) = node.share {
                if seen.contains(&id) {
                    return 1;
                }
                seen.push(id);
            }
            1 + node.kind.inputs().into_iter().map(|c| count(c, seen)).sum::<usize>()
        }
        count(self, &mut Vec::new())
    }
}
