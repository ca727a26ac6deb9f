//! Row-at-a-time expression evaluator.

use std::cmp::Ordering;

use crate::error::{Result, SnowError};
use crate::plan::{CastType, FuncId, PExpr, PStep};
use crate::sql::{BinOp, UnaryOp};
use crate::variant::{cmp_variants, NumericPair, Object, Variant};

use super::{Chunk, ExecCtx};

/// A logical row assembled from one or more chunks laid side by side; column
/// indices address the concatenation. Joins use two parts, everything else one.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    parts: &'a [(&'a Chunk, usize)],
    /// Columns of the schema that precede the first part.
    offset: usize,
}

impl<'a> RowView<'a> {
    /// A view over a single chunk row.
    pub fn new(parts: &'a [(&'a Chunk, usize)]) -> RowView<'a> {
        RowView { parts, offset: 0 }
    }

    /// A view whose first part starts at column `offset` of the schema the
    /// expression was bound against: a join's right input, addressed in the
    /// concatenated schema.
    pub fn shifted(parts: &'a [(&'a Chunk, usize)], offset: usize) -> RowView<'a> {
        RowView { parts, offset }
    }

    /// Reads the value of logical column `idx`.
    ///
    /// Column indices are produced by the binder against the node schema, so an
    /// out-of-range index is a planner bug — but it must surface as a query
    /// error, not a panic: a worker-thread panic poisons the morsel dispatcher
    /// and takes the whole process down instead of failing one statement.
    pub fn col(&self, idx: usize) -> Result<Variant> {
        if let Some(mut rest) = idx.checked_sub(self.offset) {
            for (chunk, row) in self.parts {
                if rest < chunk.cols.len() {
                    return Ok(chunk.cols[rest].get(*row));
                }
                rest -= chunk.cols.len();
            }
        }
        let arity: usize = self.parts.iter().map(|(c, _)| c.cols.len()).sum();
        Err(SnowError::Exec(format!(
            "internal: column index {idx} out of range for row of {arity} columns"
        )))
    }
}

/// Evaluates a bound expression for one row.
pub fn eval(e: &PExpr, row: RowView<'_>, ctx: &mut ExecCtx) -> Result<Variant> {
    match e {
        PExpr::Col(i) => row.col(*i),
        PExpr::Lit(v) => Ok(v.clone()),
        PExpr::Unary { op, expr } => {
            let v = eval(expr, row, ctx)?;
            match op {
                UnaryOp::Plus => Ok(v),
                UnaryOp::Neg => neg(&v),
            }
        }
        PExpr::Binary { left, op, right } => eval_binary(left, *op, right, row, ctx),
        PExpr::Not(x) => not(&eval(x, row, ctx)?),
        PExpr::IsNull { expr, negated } => {
            let v = eval(expr, row, ctx)?;
            Ok(Variant::Bool(v.is_null() != *negated))
        }
        PExpr::InList { expr, list, negated } => {
            let v = eval(expr, row, ctx)?;
            if v.is_null() {
                return Ok(Variant::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, row, ctx)?;
                if iv.is_null() {
                    saw_null = true;
                } else if iv == v {
                    return Ok(Variant::Bool(!*negated));
                }
            }
            if saw_null {
                Ok(Variant::Null)
            } else {
                Ok(Variant::Bool(*negated))
            }
        }
        PExpr::Case { operand, branches, else_expr } => {
            let op_val = operand.as_ref().map(|o| eval(o, row, ctx)).transpose()?;
            for (cond, val) in branches {
                let hit = match &op_val {
                    Some(ov) => {
                        let cv = eval(cond, row, ctx)?;
                        !ov.is_null() && !cv.is_null() && *ov == cv
                    }
                    None => matches!(eval(cond, row, ctx)?, Variant::Bool(true)),
                };
                if hit {
                    return eval(val, row, ctx);
                }
            }
            match else_expr {
                Some(e) => eval(e, row, ctx),
                None => Ok(Variant::Null),
            }
        }
        PExpr::Func { f, args } => eval_func(*f, args, row, ctx),
        PExpr::Cast { expr, ty } => {
            let v = eval(expr, row, ctx)?;
            cast(v, *ty)
        }
        PExpr::Like { expr, pattern, negated } => {
            let v = eval(expr, row, ctx)?;
            let p = eval(pattern, row, ctx)?;
            like(&v, &p, *negated)
        }
        PExpr::Path { base, steps } => {
            let root = eval(base, row, ctx)?;
            // Steps walk by reference: only the leaf is cloned.
            let mut v = &root;
            for s in steps {
                if v.is_null() {
                    break;
                }
                v = match s {
                    PStep::Field(f) => v.field_ref(f),
                    PStep::Index(i) => v.index_ref(*i),
                    PStep::IndexExpr(e) => match eval(e, row, ctx)?.as_i64() {
                        Some(i) => v.index_ref(i),
                        None => &Variant::Null,
                    },
                };
            }
            Ok(v.clone())
        }
    }
}

fn eval_binary(
    left: &PExpr,
    op: BinOp,
    right: &PExpr,
    row: RowView<'_>,
    ctx: &mut ExecCtx,
) -> Result<Variant> {
    // Three-valued logic with short-circuiting for AND/OR.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = eval(left, row, ctx)?;
        let lb = truth(&l)?;
        match (op, lb) {
            (BinOp::And, Some(false)) => return Ok(Variant::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Variant::Bool(true)),
            _ => {}
        }
        let r = eval(right, row, ctx)?;
        let rb = truth(&r)?;
        return Ok(match (op, lb, rb) {
            (BinOp::And, Some(true), Some(b)) => Variant::Bool(b),
            (BinOp::And, _, Some(false)) => Variant::Bool(false),
            (BinOp::Or, Some(false), Some(b)) => Variant::Bool(b),
            (BinOp::Or, _, Some(true)) => Variant::Bool(true),
            _ => Variant::Null,
        });
    }

    let l = eval(left, row, ctx)?;
    let r = eval(right, row, ctx)?;
    binary(op, &l, &r)
}

/// `-v`. An `i64::MIN` operand promotes to `Float`, like every other integer
/// overflow in this evaluator.
pub(crate) fn neg(v: &Variant) -> Result<Variant> {
    match v {
        Variant::Null => Ok(Variant::Null),
        Variant::Int(i) => Ok(match i.checked_neg() {
            Some(n) => Variant::Int(n),
            None => Variant::Float(-(*i as f64)),
        }),
        Variant::Float(f) => Ok(Variant::Float(-f)),
        other => Err(SnowError::Exec(format!(
            "cannot negate value of type {}",
            other.type_name()
        ))),
    }
}

/// `NOT v` under three-valued logic.
pub(crate) fn not(v: &Variant) -> Result<Variant> {
    match v {
        Variant::Null => Ok(Variant::Null),
        Variant::Bool(b) => Ok(Variant::Bool(!b)),
        other => Err(SnowError::Exec(format!(
            "NOT requires a boolean, got {}",
            other.type_name()
        ))),
    }
}

/// `v [NOT] LIKE p`.
pub(crate) fn like(v: &Variant, p: &Variant, negated: bool) -> Result<Variant> {
    if v.is_null() || p.is_null() {
        return Ok(Variant::Null);
    }
    match (v.as_str(), p.as_str()) {
        (Some(text), Some(pat)) => Ok(Variant::Bool(like_match(text, pat) != negated)),
        _ => Err(SnowError::Exec("LIKE expects string operands".into())),
    }
}

/// Every binary operator except `AND`/`OR` (which short-circuit and are
/// evaluated by their callers), over two evaluated operands.
pub(crate) fn binary(op: BinOp, l: &Variant, r: &Variant) -> Result<Variant> {
    if l.is_null() || r.is_null() {
        return Ok(Variant::Null);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => arith(l, op, r),
        BinOp::Div => match NumericPair::coerce(l, r) {
            Some(NumericPair::Int(a, b)) => {
                if b == 0 {
                    Err(SnowError::Exec("division by zero".into()))
                } else {
                    // Snowflake `/` produces a fractional result.
                    Ok(Variant::Float(a as f64 / b as f64))
                }
            }
            Some(NumericPair::Float(a, b)) => {
                if b == 0.0 {
                    Err(SnowError::Exec("division by zero".into()))
                } else {
                    Ok(Variant::Float(a / b))
                }
            }
            None => Err(type_err("divide", l, r)),
        },
        BinOp::Mod => match NumericPair::coerce(l, r) {
            Some(NumericPair::Int(a, b)) => {
                if b == 0 {
                    Err(SnowError::Exec("division by zero".into()))
                } else {
                    // `wrapping_rem`: `i64::MIN % -1` is 0, not a panic.
                    Ok(Variant::Int(a.wrapping_rem(b)))
                }
            }
            Some(NumericPair::Float(a, b)) => Ok(Variant::Float(a % b)),
            None => Err(type_err("mod", l, r)),
        },
        BinOp::Eq => Ok(Variant::Bool(l == r)),
        BinOp::NotEq => Ok(Variant::Bool(l != r)),
        BinOp::Lt => Ok(Variant::Bool(ordered(l, r)? == Ordering::Less)),
        BinOp::LtEq => Ok(Variant::Bool(ordered(l, r)? != Ordering::Greater)),
        BinOp::Gt => Ok(Variant::Bool(ordered(l, r)? == Ordering::Greater)),
        BinOp::GtEq => Ok(Variant::Bool(ordered(l, r)? != Ordering::Less)),
        BinOp::Concat => match (l, r) {
            (Variant::Str(a), Variant::Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Ok(Variant::from(s))
            }
            _ => Ok(Variant::from(format!("{l}{r}"))),
        },
        BinOp::And | BinOp::Or => Err(SnowError::internal(
            "expr",
            "AND/OR reached the strict binary evaluator",
        )),
    }
}

fn arith(l: &Variant, op: BinOp, r: &Variant) -> Result<Variant> {
    match NumericPair::coerce(l, r) {
        Some(NumericPair::Int(a, b)) => {
            let res = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                _ => unreachable!(),
            };
            Ok(match res {
                Some(v) => Variant::Int(v),
                // Promote to double on i64 overflow rather than failing the query.
                None => {
                    let (af, bf) = (a as f64, b as f64);
                    Variant::Float(match op {
                        BinOp::Add => af + bf,
                        BinOp::Sub => af - bf,
                        BinOp::Mul => af * bf,
                        _ => unreachable!(),
                    })
                }
            })
        }
        Some(NumericPair::Float(a, b)) => Ok(Variant::Float(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            _ => unreachable!(),
        })),
        None => Err(type_err("apply arithmetic to", l, r)),
    }
}

fn ordered(l: &Variant, r: &Variant) -> Result<Ordering> {
    let comparable = matches!(
        (l, r),
        (Variant::Int(_) | Variant::Float(_), Variant::Int(_) | Variant::Float(_))
            | (Variant::Str(_), Variant::Str(_))
            | (Variant::Bool(_), Variant::Bool(_))
    );
    if !comparable {
        return Err(type_err("compare", l, r));
    }
    Ok(cmp_variants(l, r))
}

fn type_err(what: &str, l: &Variant, r: &Variant) -> SnowError {
    SnowError::Exec(format!(
        "cannot {what} values of types {} and {}",
        l.type_name(),
        r.type_name()
    ))
}

/// SQL `LIKE` matching: `%` matches any run of characters, `_` any single one.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => {
                (0..=t.len()).any(|skip| rec(&t[skip..], rest))
            }
            Some(('_', rest)) => match t.split_first() {
                Some((_, tr)) => rec(tr, rest),
                None => false,
            },
            Some((c, rest)) => match t.split_first() {
                Some((tc, tr)) => tc == c && rec(tr, rest),
                None => false,
            },
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// SQL truth value of an expression result: `Some(bool)` or `None` for NULL.
pub fn truth(v: &Variant) -> Result<Option<bool>> {
    match v {
        Variant::Null => Ok(None),
        Variant::Bool(b) => Ok(Some(*b)),
        other => Err(SnowError::Exec(format!(
            "expected a boolean condition, got {}",
            other.type_name()
        ))),
    }
}

/// Casts a value (`::type`, `CAST`, `TO_DOUBLE`, ...).
pub fn cast(v: Variant, ty: CastType) -> Result<Variant> {
    if v.is_null() {
        return Ok(Variant::Null);
    }
    match ty {
        CastType::Variant => Ok(v),
        CastType::Int => match &v {
            Variant::Int(_) => Ok(v),
            // Snowflake rounds half away from zero when casting to integer.
            Variant::Float(f) if f.is_finite() => Ok(Variant::Int(f.round() as i64)),
            Variant::Bool(b) => Ok(Variant::Int(*b as i64)),
            Variant::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Variant::Int)
                .map_err(|_| SnowError::Exec(format!("cannot cast '{s}' to INTEGER"))),
            _ => Err(SnowError::Exec(format!("cannot cast {} to INTEGER", v.type_name()))),
        },
        CastType::Float => match &v {
            Variant::Float(_) => Ok(v),
            Variant::Int(i) => Ok(Variant::Float(*i as f64)),
            Variant::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Variant::Float)
                .map_err(|_| SnowError::Exec(format!("cannot cast '{s}' to DOUBLE"))),
            _ => Err(SnowError::Exec(format!("cannot cast {} to DOUBLE", v.type_name()))),
        },
        CastType::Bool => match &v {
            Variant::Bool(_) => Ok(v),
            Variant::Int(i) => Ok(Variant::Bool(*i != 0)),
            Variant::Str(s) if s.eq_ignore_ascii_case("true") => Ok(Variant::Bool(true)),
            Variant::Str(s) if s.eq_ignore_ascii_case("false") => Ok(Variant::Bool(false)),
            _ => Err(SnowError::Exec(format!("cannot cast {} to BOOLEAN", v.type_name()))),
        },
        CastType::Str => match &v {
            Variant::Str(_) => Ok(v),
            other => Ok(Variant::from(crate::variant::to_json(other))),
        },
    }
}

fn need_f64(v: &Variant, f: FuncId) -> Result<f64> {
    v.as_f64().ok_or_else(|| {
        SnowError::Exec(format!("{} expects a number, got {}", f.name(), v.type_name()))
    })
}

/// The `f64 -> f64` function behind a NULL-propagating unary math builtin —
/// the one definition the row evaluator and the batch kernels both call.
pub(crate) fn math1_fn(f: FuncId) -> Option<fn(f64) -> f64> {
    Some(match f {
        FuncId::Sqrt => f64::sqrt,
        FuncId::Exp => f64::exp,
        FuncId::Ln => f64::ln,
        FuncId::Atan => f64::atan,
        FuncId::Asin => f64::asin,
        FuncId::Acos => f64::acos,
        FuncId::Sin => f64::sin,
        FuncId::Cos => f64::cos,
        FuncId::Tan => f64::tan,
        FuncId::Sinh => f64::sinh,
        FuncId::Cosh => f64::cosh,
        FuncId::Tanh => f64::tanh,
        _ => return None,
    })
}

/// As [`math1_fn`], for the NULL-propagating binary math builtins.
pub(crate) fn math2_fn(f: FuncId) -> Option<fn(f64, f64) -> f64> {
    Some(match f {
        FuncId::Power => f64::powf,
        FuncId::Atan2 => f64::atan2,
        // LOG(base, x)
        FuncId::Log => |base, x| x.log(base),
        _ => return None,
    })
}

/// Arguments of a call are kept on the stack up to this arity.
const INLINE_ARGS: usize = 4;

fn eval_func(f: FuncId, args: &[PExpr], row: RowView<'_>, ctx: &mut ExecCtx) -> Result<Variant> {
    // The guards evaluate only the operand they select, so a guarded operand
    // can neither fail nor cost anything on the rows it is guarded from.
    match (f, args) {
        (FuncId::Iff, [cond, then, otherwise]) => {
            let c = eval(cond, row, ctx)?;
            return match truth(&c)? {
                Some(true) => eval(then, row, ctx),
                _ => eval(otherwise, row, ctx),
            };
        }
        (FuncId::Nvl, [first, second]) => {
            let v = eval(first, row, ctx)?;
            return if v.is_null() { eval(second, row, ctx) } else { Ok(v) };
        }
        (FuncId::Coalesce, _) => {
            for a in args {
                let v = eval(a, row, ctx)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            return Ok(Variant::Null);
        }
        (FuncId::Seq8, []) => {
            let v = ctx.seq_counter;
            ctx.seq_counter += 1;
            return Ok(Variant::Int(v));
        }
        _ => {}
    }
    if args.len() <= INLINE_ARGS {
        let mut vals = [const { Variant::Null }; INLINE_ARGS];
        for (slot, a) in vals.iter_mut().zip(args) {
            *slot = eval(a, row, ctx)?;
        }
        let refs: [&Variant; INLINE_ARGS] = std::array::from_fn(|i| &vals[i]);
        call(f, &refs[..args.len()])
    } else {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(eval(a, row, ctx)?);
        }
        call(f, &vals.iter().collect::<Vec<_>>())
    }
}

/// Applies a scalar function to evaluated arguments. `SEQ8()` is the one
/// function that is not a function of its arguments; [`eval`] handles it.
pub(crate) fn call(f: FuncId, vals: &[&Variant]) -> Result<Variant> {
    let argc = vals.len();
    let arity = |want: usize| -> Result<()> {
        if argc == want {
            Ok(())
        } else {
            Err(SnowError::Exec(format!(
                "{} expects {want} arguments, got {argc}",
                f.name()
            )))
        }
    };
    if let Some(g) = math1_fn(f) {
        arity(1)?;
        if vals[0].is_null() {
            return Ok(Variant::Null);
        }
        return Ok(Variant::Float(g(need_f64(vals[0], f)?)));
    }
    if let Some(g) = math2_fn(f) {
        arity(2)?;
        if vals[0].is_null() || vals[1].is_null() {
            return Ok(Variant::Null);
        }
        let a = need_f64(vals[0], f)?;
        let b = need_f64(vals[1], f)?;
        return Ok(Variant::Float(g(a, b)));
    }
    match f {
        FuncId::Abs | FuncId::Floor | FuncId::Ceil | FuncId::Sign => {
            arity(1)?;
            unary_num(f, vals[0])
        }
        FuncId::Round if argc == 1 => unary_num(f, vals[0]),
        FuncId::Round => {
            arity(2)?;
            if vals[0].is_null() || vals[1].is_null() {
                return Ok(Variant::Null);
            }
            let x = need_f64(vals[0], f)?;
            let d = vals[1]
                .as_i64()
                .ok_or_else(|| SnowError::Exec("ROUND scale must be an integer".into()))?;
            let m = 10f64.powi(d as i32);
            Ok(Variant::Float((x * m).round() / m))
        }
        FuncId::Mod => {
            arity(2)?;
            if vals[0].is_null() || vals[1].is_null() {
                return Ok(Variant::Null);
            }
            match NumericPair::coerce(vals[0], vals[1]) {
                // `wrapping_rem`: `i64::MIN % -1` is 0, not a panic.
                Some(NumericPair::Int(a, b)) if b != 0 => Ok(Variant::Int(a.wrapping_rem(b))),
                Some(NumericPair::Int(..)) => Err(SnowError::Exec("division by zero".into())),
                Some(NumericPair::Float(a, b)) => Ok(Variant::Float(a % b)),
                None => Err(SnowError::Exec("MOD expects numbers".into())),
            }
        }
        FuncId::Div0 => {
            arity(2)?;
            if vals[0].is_null() || vals[1].is_null() {
                return Ok(Variant::Null);
            }
            match NumericPair::coerce(vals[0], vals[1]) {
                Some(NumericPair::Int(a, b)) => {
                    Ok(if b == 0 { Variant::Int(0) } else { Variant::Float(a as f64 / b as f64) })
                }
                Some(NumericPair::Float(a, b)) => {
                    Ok(if b == 0.0 { Variant::Int(0) } else { Variant::Float(a / b) })
                }
                None => Err(SnowError::Exec("DIV0 expects numbers".into())),
            }
        }
        FuncId::Pi => {
            arity(0)?;
            Ok(Variant::Float(std::f64::consts::PI))
        }
        FuncId::Greatest | FuncId::Least => {
            if vals.is_empty() {
                return Err(SnowError::Exec(format!(
                    "{} needs at least one argument",
                    f.name()
                )));
            }
            if vals.iter().any(|v| v.is_null()) {
                return Ok(Variant::Null);
            }
            let want = if f == FuncId::Greatest { Ordering::Greater } else { Ordering::Less };
            let mut best = vals[0];
            for v in &vals[1..] {
                if cmp_variants(v, best) == want {
                    best = v;
                }
            }
            Ok(best.clone())
        }
        FuncId::Coalesce => Ok(vals.iter().find(|v| !v.is_null()).map_or(Variant::Null, |v| (*v).clone())),
        FuncId::Nvl => {
            arity(2)?;
            if vals[0].is_null() {
                Ok(vals[1].clone())
            } else {
                Ok(vals[0].clone())
            }
        }
        FuncId::NullIf => {
            arity(2)?;
            if !vals[0].is_null() && *vals[0] == *vals[1] {
                Ok(Variant::Null)
            } else {
                Ok(vals[0].clone())
            }
        }
        FuncId::Iff => {
            arity(3)?;
            match truth(vals[0])? {
                Some(true) => Ok(vals[1].clone()),
                _ => Ok(vals[2].clone()),
            }
        }
        FuncId::ObjectConstruct => {
            if !argc.is_multiple_of(2) {
                return Err(SnowError::Exec(
                    "OBJECT_CONSTRUCT expects an even number of arguments".into(),
                ));
            }
            // Keep-null semantics (OBJECT_CONSTRUCT_KEEP_NULL): the JSONiq
            // object constructor preserves null-valued fields.
            let mut obj = Object::with_capacity(argc / 2);
            for pair in vals.chunks_exact(2) {
                // The key's `Arc` is shared, not copied, into the object.
                let Variant::Str(key) = pair[0] else {
                    return Err(SnowError::Exec("OBJECT_CONSTRUCT keys must be strings".into()));
                };
                obj.insert(key.clone(), pair[1].clone());
            }
            Ok(Variant::object(obj))
        }
        FuncId::ArrayConstruct => Ok(Variant::array(vals.iter().map(|v| (*v).clone()).collect())),
        FuncId::ArraySize => {
            arity(1)?;
            match vals[0] {
                Variant::Array(a) => Ok(Variant::Int(a.len() as i64)),
                _ => Ok(Variant::Null),
            }
        }
        FuncId::ArrayCat => {
            arity(2)?;
            match (vals[0], vals[1]) {
                (Variant::Array(a), Variant::Array(b)) => {
                    let mut out = Vec::with_capacity(a.len() + b.len());
                    out.extend(a.iter().cloned());
                    out.extend(b.iter().cloned());
                    Ok(Variant::array(out))
                }
                _ => Ok(Variant::Null),
            }
        }
        FuncId::ArrayFilter => {
            arity(4)?;
            let arr = match vals[0] {
                Variant::Array(a) => a,
                _ => return Ok(Variant::Null),
            };
            let field = match vals[1] {
                Variant::Null => None,
                Variant::Str(s) => Some(s.clone()),
                _ => return Err(SnowError::Exec("ARRAY_FILTER field must be a string or NULL".into())),
            };
            let op = vals[2]
                .as_str()
                .ok_or_else(|| SnowError::Exec("ARRAY_FILTER op must be a string".into()))?
                .to_string();
            let lit = vals[3].clone();
            let mut out = Vec::new();
            for item in arr.iter() {
                let subject = match &field {
                    Some(f) => item.get_field(f),
                    None => item.clone(),
                };
                if subject.is_null() {
                    continue;
                }
                let keep = match op.as_str() {
                    "=" => subject == lit,
                    "<>" => subject != lit,
                    "<" => ordered(&subject, &lit)? == Ordering::Less,
                    "<=" => ordered(&subject, &lit)? != Ordering::Greater,
                    ">" => ordered(&subject, &lit)? == Ordering::Greater,
                    ">=" => ordered(&subject, &lit)? != Ordering::Less,
                    other => {
                        return Err(SnowError::Exec(format!(
                            "ARRAY_FILTER: unsupported operator '{other}'"
                        )))
                    }
                };
                if keep {
                    out.push(item.clone());
                }
            }
            Ok(Variant::array(out))
        }
        FuncId::ArrayContains => {
            arity(2)?;
            match vals[1] {
                Variant::Array(a) => Ok(Variant::Bool(a.iter().any(|x| x == vals[0]))),
                _ => Ok(Variant::Null),
            }
        }
        FuncId::Get => {
            arity(2)?;
            match vals[1] {
                Variant::Str(k) => Ok(vals[0].get_field(k)),
                v => match v.as_i64() {
                    Some(i) => Ok(vals[0].get_index(i)),
                    None => Ok(Variant::Null),
                },
            }
        }
        FuncId::TypeOf => {
            arity(1)?;
            Ok(Variant::from(vals[0].type_name()))
        }
        FuncId::ToDouble => {
            arity(1)?;
            cast(vals[0].clone(), CastType::Float)
        }
        FuncId::Upper => {
            arity(1)?;
            match vals[0] {
                Variant::Null => Ok(Variant::Null),
                Variant::Str(s) => Ok(Variant::from(s.to_uppercase())),
                other => Err(SnowError::Exec(format!("UPPER expects a string, got {}", other.type_name()))),
            }
        }
        FuncId::Lower => {
            arity(1)?;
            match vals[0] {
                Variant::Null => Ok(Variant::Null),
                Variant::Str(s) => Ok(Variant::from(s.to_lowercase())),
                other => Err(SnowError::Exec(format!("LOWER expects a string, got {}", other.type_name()))),
            }
        }
        FuncId::Substr => {
            if argc != 2 && argc != 3 {
                return Err(SnowError::Exec("SUBSTR expects 2 or 3 arguments".into()));
            }
            if vals.iter().any(|v| v.is_null()) {
                return Ok(Variant::Null);
            }
            let s = vals[0]
                .as_str()
                .ok_or_else(|| SnowError::Exec("SUBSTR expects a string".into()))?;
            let start = vals[1]
                .as_i64()
                .ok_or_else(|| SnowError::Exec("SUBSTR start must be an integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            // SQL is 1-based; negative counts from the end.
            let begin = if start > 0 {
                (start - 1) as usize
            } else if start < 0 {
                chars.len().saturating_sub(start.unsigned_abs() as usize)
            } else {
                0
            };
            let len = if argc == 3 {
                vals[2]
                    .as_i64()
                    .ok_or_else(|| SnowError::Exec("SUBSTR length must be an integer".into()))?
                    .max(0) as usize
            } else {
                usize::MAX
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Ok(Variant::from(out))
        }
        FuncId::Length => {
            arity(1)?;
            match vals[0] {
                Variant::Null => Ok(Variant::Null),
                Variant::Str(s) => Ok(Variant::Int(s.chars().count() as i64)),
                other => Err(SnowError::Exec(format!("LENGTH expects a string, got {}", other.type_name()))),
            }
        }
        FuncId::Concat => {
            let mut out = String::new();
            for v in vals {
                if v.is_null() {
                    return Ok(Variant::Null);
                }
                match v {
                    Variant::Str(s) => out.push_str(s),
                    other => out.push_str(&format!("{other}")),
                }
            }
            Ok(Variant::from(out))
        }
        FuncId::Seq8 => {
            arity(0)?;
            Err(SnowError::internal("expr", "SEQ8() is not a function of its arguments"))
        }
        // The math builtins returned above.
        _ => Err(SnowError::internal("expr", format!("{} has no evaluator", f.name()))),
    }
}

/// `ABS`/`FLOOR`/`CEIL`/`ROUND`/`SIGN` of one value: integers pass through
/// the rounding functions unchanged, `ABS(i64::MIN)` promotes to `Float`.
pub(crate) fn unary_num(f: FuncId, v: &Variant) -> Result<Variant> {
    Ok(match (f, v) {
        (_, Variant::Null) => Variant::Null,
        (FuncId::Abs, Variant::Int(i)) => match i.checked_abs() {
            Some(a) => Variant::Int(a),
            None => Variant::Float((*i as f64).abs()),
        },
        (FuncId::Sign, Variant::Int(i)) => Variant::Int(i.signum()),
        (_, Variant::Int(i)) => Variant::Int(*i),
        (FuncId::Abs, Variant::Float(x)) => Variant::Float(x.abs()),
        (FuncId::Floor, Variant::Float(x)) => Variant::Float(x.floor()),
        (FuncId::Ceil, Variant::Float(x)) => Variant::Float(x.ceil()),
        (FuncId::Round, Variant::Float(x)) => Variant::Float(x.round()),
        (FuncId::Sign, Variant::Float(x)) => Variant::Int(if *x > 0.0 {
            1
        } else if *x < 0.0 {
            -1
        } else {
            0
        }),
        (_, other) => {
            return Err(SnowError::Exec(format!(
                "{} expects a number, got {}",
                f.name(),
                other.type_name()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Chunk;

    fn ectx() -> ExecCtx {
        ExecCtx::default()
    }

    fn one_row() -> Chunk {
        Chunk { cols: vec![], rows: 1 }
    }

    fn ev(e: &PExpr) -> Result<Variant> {
        let c = one_row();
        let parts = [(&c, 0usize)];
        eval(e, RowView::new(&parts), &mut ectx())
    }

    fn lit(v: Variant) -> PExpr {
        PExpr::Lit(v)
    }

    fn bin(l: PExpr, op: BinOp, r: PExpr) -> PExpr {
        PExpr::Binary { left: Box::new(l), op, right: Box::new(r) }
    }

    #[test]
    fn out_of_range_column_is_a_typed_error_not_a_panic() {
        let c = Chunk {
            cols: vec![crate::exec::ColumnVec::from_variants(vec![Variant::Int(1)])],
            rows: 1,
        };
        let parts = [(&c, 0usize)];
        let err = eval(&PExpr::Col(5), RowView::new(&parts), &mut ectx()).unwrap_err();
        assert!(matches!(err, SnowError::Exec(_)));
        assert!(err.to_string().contains("column index 5 out of range"));
    }

    #[test]
    fn arithmetic_with_coercion() {
        assert_eq!(
            ev(&bin(lit(Variant::Int(2)), BinOp::Add, lit(Variant::Float(0.5)))).unwrap(),
            Variant::Float(2.5)
        );
        assert_eq!(
            ev(&bin(lit(Variant::Int(7)), BinOp::Div, lit(Variant::Int(2)))).unwrap(),
            Variant::Float(3.5)
        );
        assert_eq!(
            ev(&bin(lit(Variant::Int(7)), BinOp::Mod, lit(Variant::Int(4)))).unwrap(),
            Variant::Int(3)
        );
    }

    #[test]
    fn overflow_promotes_to_float() {
        let v = ev(&bin(lit(Variant::Int(i64::MAX)), BinOp::Add, lit(Variant::Int(1)))).unwrap();
        assert_eq!(v, Variant::Float(i64::MAX as f64 + 1.0));
    }

    #[test]
    fn three_valued_logic() {
        let t = lit(Variant::Bool(true));
        let f = lit(Variant::Bool(false));
        let n = lit(Variant::Null);
        assert_eq!(ev(&bin(f.clone(), BinOp::And, n.clone())).unwrap(), Variant::Bool(false));
        assert_eq!(ev(&bin(t.clone(), BinOp::And, n.clone())).unwrap(), Variant::Null);
        assert_eq!(ev(&bin(t.clone(), BinOp::Or, n.clone())).unwrap(), Variant::Bool(true));
        assert_eq!(ev(&bin(f, BinOp::Or, n.clone())).unwrap(), Variant::Null);
        assert_eq!(ev(&PExpr::Not(Box::new(n))).unwrap(), Variant::Null);
    }

    #[test]
    fn null_propagates_through_comparison() {
        assert_eq!(
            ev(&bin(lit(Variant::Null), BinOp::Eq, lit(Variant::Int(1)))).unwrap(),
            Variant::Null
        );
    }

    #[test]
    fn in_list_null_semantics() {
        // 1 IN (2, NULL) => NULL; 1 IN (1, NULL) => TRUE
        let e = PExpr::InList {
            expr: Box::new(lit(Variant::Int(1))),
            list: vec![lit(Variant::Int(2)), lit(Variant::Null)],
            negated: false,
        };
        assert_eq!(ev(&e).unwrap(), Variant::Null);
        let e = PExpr::InList {
            expr: Box::new(lit(Variant::Int(1))),
            list: vec![lit(Variant::Int(1)), lit(Variant::Null)],
            negated: false,
        };
        assert_eq!(ev(&e).unwrap(), Variant::Bool(true));
    }

    #[test]
    fn cast_rounds_to_int() {
        assert_eq!(cast(Variant::Float(2.5), CastType::Int).unwrap(), Variant::Int(3));
        assert_eq!(cast(Variant::Float(-2.5), CastType::Int).unwrap(), Variant::Int(-3));
        assert_eq!(cast(Variant::str(" 42 "), CastType::Int).unwrap(), Variant::Int(42));
        assert!(cast(Variant::str("x"), CastType::Int).is_err());
    }

    #[test]
    fn object_construct_keeps_nulls() {
        let e = PExpr::Func {
            f: FuncId::ObjectConstruct,
            args: vec![lit(Variant::str("a")), lit(Variant::Null)],
        };
        let v = ev(&e).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.len(), 1);
        assert!(o.get("a").unwrap().is_null());
    }

    #[test]
    fn path_access_through_arrays() {
        let inner = Variant::array(vec![Variant::Int(5), Variant::Int(6)]);
        let mut obj = Object::new();
        obj.insert("XS", inner);
        let e = PExpr::Path {
            base: Box::new(lit(Variant::object(obj))),
            steps: vec![PStep::Field("XS".into()), PStep::Index(1)],
        };
        assert_eq!(ev(&e).unwrap(), Variant::Int(6));
    }

    #[test]
    fn seq8_is_monotone() {
        let c = one_row();
        let parts = [(&c, 0usize)];
        let mut ctx = ectx();
        let e = PExpr::Func { f: FuncId::Seq8, args: vec![] };
        let a = eval(&e, RowView::new(&parts), &mut ctx).unwrap();
        let b = eval(&e, RowView::new(&parts), &mut ctx).unwrap();
        assert_eq!(a, Variant::Int(0));
        assert_eq!(b, Variant::Int(1));
    }

    #[test]
    fn substr_is_one_based() {
        let e = PExpr::Func {
            f: FuncId::Substr,
            args: vec![lit(Variant::str("hello")), lit(Variant::Int(2)), lit(Variant::Int(3))],
        };
        assert_eq!(ev(&e).unwrap(), Variant::str("ell"));
    }

    #[test]
    fn iff_and_coalesce() {
        let e = PExpr::Func {
            f: FuncId::Iff,
            args: vec![lit(Variant::Bool(false)), lit(Variant::Int(1)), lit(Variant::Int(2))],
        };
        assert_eq!(ev(&e).unwrap(), Variant::Int(2));
        let e = PExpr::Func {
            f: FuncId::Coalesce,
            args: vec![lit(Variant::Null), lit(Variant::Int(9))],
        };
        assert_eq!(ev(&e).unwrap(), Variant::Int(9));
    }
}
