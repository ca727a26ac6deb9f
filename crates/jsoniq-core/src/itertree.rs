//! The iterator tree.
//!
//! Mirrors RumbleDB's runtime-iterator layer (paper §III-A3): the rewritten
//! expression tree is lowered into a tree of iterators split into **FLWOR
//! clause iterators** (chained through their left child) and **non-FLWOR
//! iterators** (expression fragments). Each iterator supports two execution
//! modes: local interpretation ([`crate::interp`], the RumbleDB-like baseline)
//! and native Snowflake translation ([`crate::snowflake`], the paper's
//! `processNativeSnowflake`).

use crate::ast::{BinaryOp, Clause, Expr, Flwor, Item, JResult, JsoniqError, Name};

/// Built-in functions resolved at iterator-tree construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    // Sequence aggregates.
    Count,
    Sum,
    Min,
    Max,
    Avg,
    Exists,
    Empty,
    // Scalar math.
    Abs,
    Sqrt,
    Exp,
    Log,
    Pow,
    Floor,
    Ceiling,
    Round,
    Sin,
    Cos,
    Tan,
    Asin,
    Acos,
    Atan,
    Atan2,
    Sinh,
    Cosh,
    Tanh,
    Pi,
    // Arrays / objects.
    Size,
    Keys,
    Members,
    // Logic / misc.
    Not,
    Boolean,
    Head,
    Integer,
    Double,
    StringFn,
    Concat,
    Substring,
    StringLength,
}

impl Builtin {
    /// Resolves a built-in by JSONiq name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "count" => Builtin::Count,
            "sum" => Builtin::Sum,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "avg" => Builtin::Avg,
            "exists" => Builtin::Exists,
            "empty" => Builtin::Empty,
            "abs" => Builtin::Abs,
            "sqrt" => Builtin::Sqrt,
            "exp" => Builtin::Exp,
            "log" => Builtin::Log,
            "pow" | "power" => Builtin::Pow,
            "floor" => Builtin::Floor,
            "ceiling" => Builtin::Ceiling,
            "round" => Builtin::Round,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "tan" => Builtin::Tan,
            "asin" => Builtin::Asin,
            "acos" => Builtin::Acos,
            "atan" => Builtin::Atan,
            "atan2" => Builtin::Atan2,
            "sinh" => Builtin::Sinh,
            "cosh" => Builtin::Cosh,
            "tanh" => Builtin::Tanh,
            "pi" => Builtin::Pi,
            "size" => Builtin::Size,
            "keys" => Builtin::Keys,
            "members" => Builtin::Members,
            "not" => Builtin::Not,
            "boolean" => Builtin::Boolean,
            "head" => Builtin::Head,
            "integer" | "int" => Builtin::Integer,
            "double" | "number" => Builtin::Double,
            "string" => Builtin::StringFn,
            "concat" => Builtin::Concat,
            "substring" => Builtin::Substring,
            "string_length" | "string-length" => Builtin::StringLength,
            _ => return None,
        })
    }
}

/// One runtime iterator. FLWOR clause iterators hold their predecessor in
/// `left` (paper Fig. 3b); the first clause of a FLWOR has `left == None`.
#[derive(Clone, Debug, PartialEq)]
pub enum RIter {
    // ---- FLWOR clause iterators ----
    ForClause {
        left: Option<Box<RIter>>,
        var: Name,
        at: Option<Name>,
        allowing_empty: bool,
        expr: Box<RIter>,
    },
    LetClause {
        left: Option<Box<RIter>>,
        var: Name,
        expr: Box<RIter>,
    },
    WhereClause {
        left: Box<RIter>,
        pred: Box<RIter>,
    },
    GroupByClause {
        left: Box<RIter>,
        keys: Vec<(Name, Option<RIter>)>,
    },
    OrderByClause {
        left: Box<RIter>,
        keys: Vec<(RIter, bool)>,
    },
    CountClause {
        left: Box<RIter>,
        var: Name,
    },
    ReturnClause {
        left: Box<RIter>,
        expr: Box<RIter>,
    },
    // ---- non-FLWOR iterators ----
    Literal(Item),
    VarRef(Name),
    Comparison { op: BinaryOp, left: Box<RIter>, right: Box<RIter> },
    Arithmetic { op: BinaryOp, left: Box<RIter>, right: Box<RIter> },
    Logical { op: BinaryOp, left: Box<RIter>, right: Box<RIter> },
    StringConcat { left: Box<RIter>, right: Box<RIter> },
    Range { left: Box<RIter>, right: Box<RIter> },
    Not(Box<RIter>),
    Neg(Box<RIter>),
    ObjectLookup { base: Box<RIter>, field: Name },
    ArrayUnbox { base: Box<RIter> },
    ArrayLookup { base: Box<RIter>, index: Box<RIter> },
    Predicate { base: Box<RIter>, pred: Box<RIter> },
    ObjectConstructor(Vec<(Name, RIter)>),
    ArrayConstructor(Vec<RIter>),
    Sequence(Vec<RIter>),
    If { cond: Box<RIter>, then: Box<RIter>, else_: Box<RIter> },
    FunctionCall { func: Builtin, args: Vec<RIter> },
    Collection(Name),
}

/// Counts of iterator kinds, reproducing the paper's Table II split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterCounts {
    pub flwor: usize,
    pub other: usize,
}

impl IterCounts {
    pub fn total(&self) -> usize {
        self.flwor + self.other
    }
}

/// Builds the iterator tree from a rewritten expression tree.
pub fn build(e: &Expr) -> JResult<RIter> {
    Ok(match e {
        Expr::Literal(v) => RIter::Literal(v.clone()),
        Expr::VarRef(v) => RIter::VarRef(v.clone()),
        Expr::ObjectConstructor(pairs) => RIter::ObjectConstructor(
            pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), build(v)?)))
                .collect::<JResult<_>>()?,
        ),
        Expr::ArrayConstructor(items) => {
            RIter::ArrayConstructor(items.iter().map(build).collect::<JResult<_>>()?)
        }
        Expr::Sequence(items) => {
            RIter::Sequence(items.iter().map(build).collect::<JResult<_>>()?)
        }
        Expr::Flwor(fl) => build_flwor(fl)?,
        Expr::If { cond, then, else_ } => RIter::If {
            cond: Box::new(build(cond)?),
            then: Box::new(build(then)?),
            else_: Box::new(build(else_)?),
        },
        Expr::Binary { op, left, right } => {
            let l = Box::new(build(left)?);
            let r = Box::new(build(right)?);
            match op {
                BinaryOp::And | BinaryOp::Or => RIter::Logical { op: *op, left: l, right: r },
                BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge => RIter::Comparison { op: *op, left: l, right: r },
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::IDiv
                | BinaryOp::Mod => RIter::Arithmetic { op: *op, left: l, right: r },
                BinaryOp::To => RIter::Range { left: l, right: r },
                BinaryOp::Concat => RIter::StringConcat { left: l, right: r },
            }
        }
        Expr::Neg(x) => RIter::Neg(Box::new(build(x)?)),
        Expr::Not(x) => RIter::Not(Box::new(build(x)?)),
        Expr::ObjectLookup { base, field } => {
            RIter::ObjectLookup { base: Box::new(build(base)?), field: field.clone() }
        }
        Expr::ArrayUnbox { base } => RIter::ArrayUnbox { base: Box::new(build(base)?) },
        Expr::ArrayLookup { base, index } => RIter::ArrayLookup {
            base: Box::new(build(base)?),
            index: Box::new(build(index)?),
        },
        Expr::Predicate { base, pred } => RIter::Predicate {
            base: Box::new(build(base)?),
            pred: Box::new(build(pred)?),
        },
        Expr::FunctionCall { name, args } => {
            if &**name == "collection" {
                match args.as_slice() {
                    [Expr::Literal(Item::Str(s))] => return Ok(RIter::Collection(s.clone())),
                    _ => {
                        return Err(JsoniqError::Static(
                            "collection() requires one string literal argument".into(),
                        ))
                    }
                }
            }
            let func = Builtin::from_name(name).ok_or_else(|| {
                JsoniqError::Static(format!("unknown function '{name}'"))
            })?;
            RIter::FunctionCall { func, args: args.iter().map(build).collect::<JResult<_>>()? }
        }
    })
}

fn build_flwor(fl: &Flwor) -> JResult<RIter> {
    let mut chain: Option<Box<RIter>> = None;
    for c in &fl.clauses {
        let node = match c {
            Clause::For { var, at, expr, allowing_empty } => RIter::ForClause {
                left: chain.take(),
                var: var.clone(),
                at: at.clone(),
                allowing_empty: *allowing_empty,
                expr: Box::new(build(expr)?),
            },
            Clause::Let { var, expr } => RIter::LetClause {
                left: chain.take(),
                var: var.clone(),
                expr: Box::new(build(expr)?),
            },
            Clause::Where(p) => RIter::WhereClause {
                left: chain.take().ok_or_else(|| {
                    JsoniqError::Static("where cannot start a FLWOR".into())
                })?,
                pred: Box::new(build(p)?),
            },
            Clause::GroupBy { keys } => RIter::GroupByClause {
                left: chain.take().ok_or_else(|| {
                    JsoniqError::Static("group by cannot start a FLWOR".into())
                })?,
                keys: keys
                    .iter()
                    .map(|(v, e)| Ok((v.clone(), e.as_ref().map(build).transpose()?)))
                    .collect::<JResult<_>>()?,
            },
            Clause::OrderBy { keys } => RIter::OrderByClause {
                left: chain.take().ok_or_else(|| {
                    JsoniqError::Static("order by cannot start a FLWOR".into())
                })?,
                keys: keys
                    .iter()
                    .map(|(e, d)| Ok((build(e)?, *d)))
                    .collect::<JResult<_>>()?,
            },
            Clause::Count(v) => RIter::CountClause {
                left: chain.take().ok_or_else(|| {
                    JsoniqError::Static("count cannot start a FLWOR".into())
                })?,
                var: v.clone(),
            },
        };
        chain = Some(Box::new(node));
    }
    Ok(RIter::ReturnClause {
        left: chain.ok_or_else(|| JsoniqError::Static("empty FLWOR".into()))?,
        expr: Box::new(build(&fl.return_expr)?),
    })
}

impl RIter {
    /// True for FLWOR clause iterators.
    pub fn is_flwor(&self) -> bool {
        matches!(
            self,
            RIter::ForClause { .. }
                | RIter::LetClause { .. }
                | RIter::WhereClause { .. }
                | RIter::GroupByClause { .. }
                | RIter::OrderByClause { .. }
                | RIter::CountClause { .. }
                | RIter::ReturnClause { .. }
        )
    }

    /// Counts iterators by class (paper Table II).
    pub fn counts(&self) -> IterCounts {
        let mut c = IterCounts::default();
        self.visit(&mut |it| {
            if it.is_flwor() {
                c.flwor += 1;
            } else {
                c.other += 1;
            }
        });
        c
    }

    /// Pre-order traversal over all iterators.
    pub fn visit(&self, f: &mut dyn FnMut(&RIter)) {
        f(self);
        self.for_each_child(&mut |c| c.visit(f));
    }

    /// The walk: calls `f` on each direct child in declaration order — a
    /// clause's predecessor (`left`) before its own expressions; `cond`,
    /// `then`, `else`; left before right. Every read-only traversal is built
    /// on it.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a RIter)) {
        match self {
            RIter::Literal(_) | RIter::VarRef(_) | RIter::Collection(_) => {}
            RIter::ForClause { left, expr, .. } | RIter::LetClause { left, expr, .. } => {
                if let Some(l) = left {
                    f(l);
                }
                f(expr);
            }
            RIter::GroupByClause { left, keys } => {
                f(left);
                keys.iter().filter_map(|(_, e)| e.as_ref()).for_each(f);
            }
            RIter::OrderByClause { left, keys } => {
                f(left);
                keys.iter().for_each(|(e, _)| f(e));
            }
            RIter::CountClause { left: x, .. }
            | RIter::Not(x)
            | RIter::Neg(x)
            | RIter::ObjectLookup { base: x, .. }
            | RIter::ArrayUnbox { base: x } => f(x),
            RIter::WhereClause { left: a, pred: b }
            | RIter::ReturnClause { left: a, expr: b }
            | RIter::Comparison { left: a, right: b, .. }
            | RIter::Arithmetic { left: a, right: b, .. }
            | RIter::Logical { left: a, right: b, .. }
            | RIter::StringConcat { left: a, right: b }
            | RIter::Range { left: a, right: b }
            | RIter::ArrayLookup { base: a, index: b }
            | RIter::Predicate { base: a, pred: b } => {
                f(a);
                f(b);
            }
            RIter::ObjectConstructor(pairs) => pairs.iter().for_each(|(_, v)| f(v)),
            RIter::ArrayConstructor(items)
            | RIter::Sequence(items)
            | RIter::FunctionCall { args: items, .. } => items.iter().for_each(f),
            RIter::If { cond, then, else_ } => {
                f(cond);
                f(then);
                f(else_);
            }
        }
    }

    /// The map: as [`RIter::for_each_child`], handing out each direct child
    /// for rewriting in place and stopping at the first error.
    pub fn try_for_each_child_mut<E>(
        &mut self,
        f: &mut impl FnMut(&mut RIter) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            RIter::Literal(_) | RIter::VarRef(_) | RIter::Collection(_) => {}
            RIter::ForClause { left, expr, .. } | RIter::LetClause { left, expr, .. } => {
                if let Some(l) = left {
                    f(l)?;
                }
                f(expr)?;
            }
            RIter::GroupByClause { left, keys } => {
                f(left)?;
                for e in keys.iter_mut().filter_map(|(_, e)| e.as_mut()) {
                    f(e)?;
                }
            }
            RIter::OrderByClause { left, keys } => {
                f(left)?;
                for (e, _) in keys {
                    f(e)?;
                }
            }
            RIter::CountClause { left: x, .. }
            | RIter::Not(x)
            | RIter::Neg(x)
            | RIter::ObjectLookup { base: x, .. }
            | RIter::ArrayUnbox { base: x } => f(x)?,
            RIter::WhereClause { left: a, pred: b }
            | RIter::ReturnClause { left: a, expr: b }
            | RIter::Comparison { left: a, right: b, .. }
            | RIter::Arithmetic { left: a, right: b, .. }
            | RIter::Logical { left: a, right: b, .. }
            | RIter::StringConcat { left: a, right: b }
            | RIter::Range { left: a, right: b }
            | RIter::ArrayLookup { base: a, index: b }
            | RIter::Predicate { base: a, pred: b } => {
                f(a)?;
                f(b)?;
            }
            RIter::ObjectConstructor(pairs) => {
                for (_, v) in pairs {
                    f(v)?;
                }
            }
            RIter::ArrayConstructor(items)
            | RIter::Sequence(items)
            | RIter::FunctionCall { args: items, .. } => {
                for i in items {
                    f(i)?;
                }
            }
            RIter::If { cond, then, else_ } => {
                f(cond)?;
                f(then)?;
                f(else_)?;
            }
        }
        Ok(())
    }
}

/// Convenience: parse + rewrite + lower a JSONiq query to its iterator tree.
pub fn compile(src: &str) -> JResult<RIter> {
    let module = crate::parser::parse(src)?;
    let expr = crate::expr::rewrite(&module)?;
    build(&expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_iterator_shape() {
        let it = compile(
            r#"for $jet in collection("adl").Jet[]
               where abs($jet.eta) lt 1
               return $jet.pt"#,
        )
        .unwrap();
        // Root is the return clause, whose left child is the where clause,
        // whose left child is the for clause (paper Fig. 3b).
        match &it {
            RIter::ReturnClause { left, .. } => match &**left {
                RIter::WhereClause { left, .. } => {
                    assert!(matches!(&**left, RIter::ForClause { .. }))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn counts_split_flwor_vs_other() {
        let it = compile(
            r#"for $jet in collection("adl").Jet[]
               where abs($jet.eta) lt 1
               return $jet.pt"#,
        )
        .unwrap();
        let c = it.counts();
        // for, where, return
        assert_eq!(c.flwor, 3);
        assert!(c.other >= 6); // collection, lookup, unbox, abs, lookup, literal, cmp, ...
        assert_eq!(c.total(), c.flwor + c.other);
    }

    #[test]
    fn collection_requires_literal() {
        let err = compile(r#"for $x in collection($name) return $x"#).unwrap_err();
        assert!(matches!(err, JsoniqError::Static(_)));
    }

    #[test]
    fn unknown_function_is_static_error() {
        let err = compile("nosuchfn(1)").unwrap_err();
        assert!(matches!(err, JsoniqError::Static(_)));
    }

    #[test]
    fn group_by_key_expression_is_counted() {
        let it = compile(
            r#"for $e in collection("t")
               group by $k := $e.X
               return count($e)"#,
        )
        .unwrap();
        let c = it.counts();
        assert_eq!(c.flwor, 3); // for, group by, return
    }
}
