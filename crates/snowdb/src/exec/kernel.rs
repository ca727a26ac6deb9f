//! Vectorized expression kernels over typed [`ColumnVec`] batches.
//!
//! [`eval_vec`] evaluates a bound expression for a whole batch at once,
//! without the per-row interpreter (no recursion, no `RowView`, no `Result`
//! plumbing). It is **infallible by construction**: a kernel is attempted
//! only for operator/type combinations that can be proven never to raise the
//! errors the serial evaluator can raise, and anything else returns `None` so
//! the caller falls back to the row-at-a-time path — which then reproduces
//! the serial semantics *including* error identity and ordering. The
//! verification lattice runs every query with vectorization on and off, so
//! any divergence between the two paths is an oracle failure.
//!
//! Rules that keep the two paths identical:
//! - Volatile functions (`SEQ8`) are `PExpr::Func`, which never vectorizes.
//! - Mixed Int/Float comparisons use the exact [`cmp_i64_f64`] /
//!   [`cmp_f64`] helpers — the same total order as the serial path.
//! - Integer arithmetic replicates the serial checked-op-then-promote rule
//!   per element, so overflow yields the identical `Float` promotion.
//! - `Neg` of `i64::MIN` falls back (the serial evaluator's behavior there
//!   is build-profile-dependent; the fallback reproduces it exactly).
//! - `AND`/`OR` vectorize only when both operands evaluate to booleans or
//!   NULLs: eager evaluation is then observationally identical to the serial
//!   short-circuit, because vectorized operands cannot error.
//! - Mixed-class `=`/`<>` vectorize to constant false/true with NULL
//!   propagation (the serial `l == r` is false across classes); mixed-class
//!   *ordering* errors in the serial path, so it falls back.

use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::{Bitmap, ColumnVec, NULL_CODE};
use crate::plan::{PExpr, PStep};
use crate::sql::{BinOp, UnaryOp};
use crate::variant::{cmp_f64, cmp_i64_f64, Variant};

use super::metrics::OpMetricsCell;
use super::Chunk;

thread_local! {
    /// Rows this worker evaluated directly on dictionary codes since the last
    /// [`eval_vec_counted`] reset.
    static ENC_CODES: Cell<u64> = const { Cell::new(0) };
    /// Rows whose encoded column a kernel had to materialize since the last
    /// [`eval_vec_counted`] reset.
    static ENC_MAT: Cell<u64> = const { Cell::new(0) };
}

fn note_on_codes(rows: usize) {
    ENC_CODES.with(|c| c.set(c.get() + rows as u64));
}

fn note_materialized(rows: usize) {
    ENC_MAT.with(|c| c.set(c.get() + rows as u64));
}

/// [`eval_vec`] plus per-operator accounting of encoded-execution rows: rows
/// the kernels evaluated directly on dictionary codes versus rows whose
/// encoded column had to be materialized first. `EXPLAIN ANALYZE` renders the
/// two as `enc=C/M` next to the existing `vec=V/F` counters.
pub fn eval_vec_counted(
    e: &PExpr,
    inp: &Chunk,
    cell: Option<&OpMetricsCell>,
) -> Option<ColumnVec> {
    ENC_CODES.with(|c| c.set(0));
    ENC_MAT.with(|c| c.set(0));
    let out = eval_vec(e, inp);
    if let Some(cell) = cell {
        let codes = ENC_CODES.with(Cell::get);
        let mat = ENC_MAT.with(Cell::get);
        if codes > 0 {
            cell.add_on_codes(codes);
        }
        if mat > 0 {
            cell.add_materialized(mat);
        }
    }
    out
}

/// Evaluates `e` over all rows of `inp`, or `None` when the expression shape
/// or operand types have no infallible kernel.
pub fn eval_vec(e: &PExpr, inp: &Chunk) -> Option<ColumnVec> {
    match eval_op(e, inp)? {
        Op::Col(c) => Some(c.clone()),
        Op::Own(c) => Some(c),
        Op::Scalar(v) => {
            let mut out = ColumnVec::new();
            for _ in 0..inp.rows {
                out.push(v.clone());
            }
            Some(out)
        }
    }
}

/// Converts a vectorized filter mask into the kept row indices, or `None`
/// when the mask is not boolean (the row path then raises the serial
/// type error at the first offending row).
pub fn mask_keep(mask: &ColumnVec) -> Option<Vec<usize>> {
    match mask {
        ColumnVec::Bool { vals, valid } => Some(
            (0..vals.len()).filter(|&i| valid.get(i) && vals[i]).collect(),
        ),
        // An all-NULL mask keeps nothing: truth(NULL) is "unknown".
        ColumnVec::Null(_) => Some(Vec::new()),
        _ => None,
    }
}

/// Intermediate operand: a borrowed input column, an owned kernel result, or
/// a scalar to broadcast. Bare column references flow through without clones.
enum Op<'a> {
    Col(&'a ColumnVec),
    Own(ColumnVec),
    Scalar(Variant),
}

impl Op<'_> {
    fn col(&self) -> Option<&ColumnVec> {
        match self {
            Op::Col(c) => Some(c),
            Op::Own(c) => Some(c),
            Op::Scalar(_) => None,
        }
    }

    /// True when every element is NULL regardless of row.
    fn all_null(&self) -> bool {
        match self {
            Op::Scalar(v) => v.is_null(),
            _ => matches!(self.col(), Some(ColumnVec::Null(_))),
        }
    }

    fn get(&self, i: usize) -> Variant {
        match self {
            Op::Scalar(v) => v.clone(),
            Op::Col(c) => c.get(i),
            Op::Own(c) => c.get(i),
        }
    }

    fn is_null_at(&self, i: usize) -> bool {
        match self {
            Op::Scalar(v) => v.is_null(),
            Op::Col(c) => c.is_null_at(i),
            Op::Own(c) => c.is_null_at(i),
        }
    }
}

fn eval_op<'a>(e: &'a PExpr, inp: &'a Chunk) -> Option<Op<'a>> {
    match e {
        // Out-of-range column indices fall back so the row path raises the
        // serial "column index out of range" error.
        PExpr::Col(i) => {
            let c = inp.cols.get(*i)?;
            // Run-length columns decode at the kernel boundary: the dict
            // fast paths below are code-indexed, runs are not. Dictionary
            // columns flow through encoded.
            if let ColumnVec::Runs { .. } = c {
                note_materialized(c.len());
                return Some(Op::Own(c.decoded()));
            }
            Some(Op::Col(c))
        }
        PExpr::Lit(v) => Some(Op::Scalar(v.clone())),
        PExpr::Unary { op: UnaryOp::Plus, expr } => eval_op(expr, inp),
        PExpr::Unary { op: UnaryOp::Neg, expr } => neg_kernel(&eval_op(expr, inp)?),
        PExpr::Not(x) => not_kernel(&eval_op(x, inp)?),
        PExpr::IsNull { expr, negated } => {
            let op = eval_op(expr, inp)?;
            Some(match op {
                Op::Scalar(v) => Op::Scalar(Variant::Bool(v.is_null() != *negated)),
                op => {
                    let n = op.col().map_or(inp.rows, ColumnVec::len);
                    let mut vals = Vec::with_capacity(n);
                    let mut valid = Bitmap::new();
                    for i in 0..n {
                        vals.push(op.is_null_at(i) != *negated);
                        valid.push(true);
                    }
                    Op::Own(ColumnVec::Bool { vals, valid })
                }
            })
        }
        PExpr::Binary { left, op, right } => {
            let l = eval_op(left, inp)?;
            let r = eval_op(right, inp)?;
            binary_kernel(&l, *op, &r, inp.rows)
        }
        PExpr::Path { base, steps } => {
            if steps.iter().any(|s| matches!(s, PStep::IndexExpr(_))) {
                return None;
            }
            let base = eval_op(base, inp)?;
            let mut out = ColumnVec::new();
            for i in 0..inp.rows {
                let mut v = base.get(i);
                for s in steps {
                    v = match s {
                        PStep::Field(f) => v.get_field(f),
                        PStep::Index(ix) => v.get_index(*ix),
                        PStep::IndexExpr(_) => unreachable!("filtered above"),
                    };
                    if v.is_null() {
                        break;
                    }
                }
                out.push(v);
            }
            Some(Op::Own(out))
        }
        // IN over a dictionary column with an all-literal list evaluates
        // per dictionary entry, then maps codes. Any other IN shape takes
        // the row path.
        PExpr::InList { expr, list, negated } => {
            let op = eval_op(expr, inp)?;
            in_list_kernel(&op, list, *negated)
        }
        // Everything else (CASE, functions, CAST, LIKE) takes the row
        // path; SEQ8 in particular is a Func and must never vectorize.
        _ => None,
    }
}

/// Dictionary IN-list kernel: the membership of each dictionary entry is
/// decided once against the literal list (in list order, reproducing the
/// serial first-match and NULL-item semantics), then broadcast over the
/// codes. Non-dictionary operands and non-literal lists decline.
fn in_list_kernel<'a>(op: &Op<'_>, list: &[PExpr], negated: bool) -> Option<Op<'a>> {
    let lits: Vec<&Variant> = list
        .iter()
        .map(|e| if let PExpr::Lit(v) = e { Some(v) } else { None })
        .collect::<Option<_>>()?;
    let ColumnVec::DictStr { codes, dict } = op.col()? else { return None };
    let has_null = lits.iter().any(|v| v.is_null());
    // Per-entry three-valued result: Some(bool) decided, None for NULL.
    let table: Vec<Option<bool>> = dict
        .iter()
        .map(|d| {
            let s = Variant::Str(d.clone());
            if lits.iter().any(|&v| !v.is_null() && *v == s) {
                Some(!negated)
            } else if has_null {
                None
            } else {
                Some(negated)
            }
        })
        .collect();
    let mut vals = Vec::with_capacity(codes.len());
    let mut valid = Bitmap::new();
    for &c in codes {
        match if c == NULL_CODE { None } else { table[c as usize] } {
            Some(b) => {
                vals.push(b);
                valid.push(true);
            }
            None => {
                vals.push(false);
                valid.push(false);
            }
        }
    }
    note_on_codes(codes.len());
    Some(Op::Own(ColumnVec::Bool { vals, valid }))
}

fn neg_kernel<'a>(op: &Op<'_>) -> Option<Op<'a>> {
    match op {
        Op::Scalar(Variant::Null) => Some(Op::Scalar(Variant::Null)),
        Op::Scalar(Variant::Int(i)) => i.checked_neg().map(|n| Op::Scalar(Variant::Int(n))),
        Op::Scalar(Variant::Float(f)) => Some(Op::Scalar(Variant::Float(-f))),
        Op::Scalar(_) => None,
        op => match op.col()? {
            ColumnVec::Null(n) => Some(Op::Own(ColumnVec::Null(*n))),
            ColumnVec::Int { vals, valid } => {
                let mut out = Vec::with_capacity(vals.len());
                for (i, &x) in vals.iter().enumerate() {
                    if valid.get(i) {
                        // i64::MIN has no negation; fall back to the row path.
                        out.push(x.checked_neg()?);
                    } else {
                        out.push(0);
                    }
                }
                Some(Op::Own(ColumnVec::Int { vals: out, valid: valid.clone() }))
            }
            ColumnVec::Float { vals, valid } => Some(Op::Own(ColumnVec::Float {
                vals: vals.iter().map(|f| -f).collect(),
                valid: valid.clone(),
            })),
            _ => None,
        },
    }
}

fn not_kernel<'a>(op: &Op<'_>) -> Option<Op<'a>> {
    match op {
        Op::Scalar(Variant::Null) => Some(Op::Scalar(Variant::Null)),
        Op::Scalar(Variant::Bool(b)) => Some(Op::Scalar(Variant::Bool(!b))),
        Op::Scalar(_) => None,
        op => match op.col()? {
            ColumnVec::Null(n) => Some(Op::Own(ColumnVec::Null(*n))),
            ColumnVec::Bool { vals, valid } => Some(Op::Own(ColumnVec::Bool {
                vals: vals.iter().map(|b| !b).collect(),
                valid: valid.clone(),
            })),
            _ => None,
        },
    }
}

fn binary_kernel<'a>(l: &Op<'_>, op: BinOp, r: &Op<'_>, rows: usize) -> Option<Op<'a>> {
    if matches!(op, BinOp::And | BinOp::Or) {
        return logic_kernel(l, op, r, rows);
    }
    // For every other operator the serial evaluator checks NULLs first, so an
    // always-NULL side forces an all-NULL result — no type errors possible.
    if l.all_null() || r.all_null() {
        return Some(Op::Own(ColumnVec::Null(rows)));
    }
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            compare_kernel(l, op, r, rows)
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul => arith_kernel(l, op, r, rows),
        BinOp::Concat => concat_kernel(l, r, rows),
        // Division and modulo raise data-dependent errors (zero divisors);
        // the row path keeps their error identity.
        BinOp::Div | BinOp::Mod => None,
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

/// Type class of an operand, ignoring NULL slots. `None` for `Var` columns,
/// whose per-row types are unknown without inspection.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Num,
    Str,
    Bool,
    Nested,
}

fn op_class(op: &Op<'_>) -> Option<Class> {
    match op {
        Op::Scalar(v) => match v {
            Variant::Int(_) | Variant::Float(_) => Some(Class::Num),
            Variant::Str(_) => Some(Class::Str),
            Variant::Bool(_) => Some(Class::Bool),
            Variant::Array(_) | Variant::Object(_) => Some(Class::Nested),
            Variant::Null => None,
        },
        op => col_class(op.col()?),
    }
}

fn col_class(c: &ColumnVec) -> Option<Class> {
    match c {
        ColumnVec::Int { .. } | ColumnVec::Float { .. } => Some(Class::Num),
        ColumnVec::Str(_) | ColumnVec::DictStr { .. } => Some(Class::Str),
        ColumnVec::Bool { .. } => Some(Class::Bool),
        ColumnVec::Runs { values, .. } => col_class(values),
        ColumnVec::Null(_) | ColumnVec::Var(_) => None,
    }
}

/// Decoded string payload of a dictionary operand, or `None` when the
/// operand is not dictionary-encoded. Counts the rows as materialized.
fn materialize_dict(op: &Op<'_>) -> Option<Vec<Option<Arc<str>>>> {
    if let Some(ColumnVec::DictStr { codes, dict }) = op.col() {
        note_materialized(codes.len());
        Some(
            codes
                .iter()
                .map(|&c| (c != NULL_CODE).then(|| dict[c as usize].clone()))
                .collect(),
        )
    } else {
        None
    }
}

/// A numeric element, preserving the Int/Float distinction for exactness.
#[derive(Clone, Copy)]
enum NumVal {
    I(i64),
    F(f64),
}

impl NumVal {
    /// The serial arithmetic coercion (`NumericPair`): integers convert via
    /// `as f64`. Comparisons never use this — they stay exact.
    fn as_f64(self) -> f64 {
        match self {
            NumVal::I(i) => i as f64,
            NumVal::F(f) => f,
        }
    }
}

/// Typed accessor over a numeric operand.
enum NumSide<'a> {
    IntCol(&'a [i64], &'a Bitmap),
    FloatCol(&'a [f64], &'a Bitmap),
    IntScalar(i64),
    FloatScalar(f64),
}

impl NumSide<'_> {
    fn at(&self, i: usize) -> Option<NumVal> {
        match self {
            NumSide::IntCol(vals, valid) => valid.get(i).then(|| NumVal::I(vals[i])),
            NumSide::FloatCol(vals, valid) => valid.get(i).then(|| NumVal::F(vals[i])),
            NumSide::IntScalar(x) => Some(NumVal::I(*x)),
            NumSide::FloatScalar(x) => Some(NumVal::F(*x)),
        }
    }
}

fn num_side<'a>(op: &'a Op<'_>) -> Option<NumSide<'a>> {
    match op {
        Op::Scalar(Variant::Int(i)) => Some(NumSide::IntScalar(*i)),
        Op::Scalar(Variant::Float(f)) => Some(NumSide::FloatScalar(*f)),
        Op::Scalar(_) => None,
        op => match op.col()? {
            ColumnVec::Int { vals, valid } => Some(NumSide::IntCol(vals, valid)),
            ColumnVec::Float { vals, valid } => Some(NumSide::FloatCol(vals, valid)),
            _ => None,
        },
    }
}

/// Exact numeric comparison — the same total order as `cmp_variants`.
fn cmp_num(a: NumVal, b: NumVal) -> Ordering {
    match (a, b) {
        (NumVal::I(x), NumVal::I(y)) => x.cmp(&y),
        (NumVal::I(x), NumVal::F(y)) => cmp_i64_f64(x, y),
        (NumVal::F(x), NumVal::I(y)) => cmp_i64_f64(y, x).reverse(),
        (NumVal::F(x), NumVal::F(y)) => cmp_f64(x, y),
    }
}

fn cmp_to_bool(op: BinOp, c: Ordering) -> bool {
    match op {
        BinOp::Eq => c == Ordering::Equal,
        BinOp::NotEq => c != Ordering::Equal,
        BinOp::Lt => c == Ordering::Less,
        BinOp::LtEq => c != Ordering::Greater,
        BinOp::Gt => c == Ordering::Greater,
        BinOp::GtEq => c != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// Maps a per-dictionary-entry decision table over codes: one comparison per
/// dictionary entry instead of one per row.
fn map_codes<'a>(codes: &[u32], table: &[bool]) -> Op<'a> {
    let mut vals = Vec::with_capacity(codes.len());
    let mut valid = Bitmap::new();
    for &c in codes {
        if c == NULL_CODE {
            vals.push(false);
            valid.push(false);
        } else {
            vals.push(table[c as usize]);
            valid.push(true);
        }
    }
    note_on_codes(codes.len());
    Op::Own(ColumnVec::Bool { vals, valid })
}

/// Comparison fast paths that never materialize dictionary strings:
/// dict-vs-string-scalar compares each dictionary entry once, and
/// same-dictionary Eq/NotEq compares raw codes (distinct codes ⇔ distinct
/// strings). Anything else declines and the generic string arm decides.
fn dict_compare<'a>(l: &Op<'_>, op: BinOp, r: &Op<'_>) -> Option<Op<'a>> {
    if let (Some(ColumnVec::DictStr { codes, dict }), Op::Scalar(Variant::Str(s))) =
        (l.col(), r)
    {
        let table: Vec<bool> =
            dict.iter().map(|d| cmp_to_bool(op, (**d).cmp(&**s))).collect();
        return Some(map_codes(codes, &table));
    }
    if let (Op::Scalar(Variant::Str(s)), Some(ColumnVec::DictStr { codes, dict })) =
        (l, r.col())
    {
        let table: Vec<bool> =
            dict.iter().map(|d| cmp_to_bool(op, (**s).cmp(&**d))).collect();
        return Some(map_codes(codes, &table));
    }
    if let (
        Some(ColumnVec::DictStr { codes: lc, dict: ld }),
        Some(ColumnVec::DictStr { codes: rc, dict: rd }),
    ) = (l.col(), r.col())
    {
        if Arc::ptr_eq(ld, rd) && matches!(op, BinOp::Eq | BinOp::NotEq) {
            let mut vals = Vec::with_capacity(lc.len());
            let mut valid = Bitmap::new();
            for (&a, &b) in lc.iter().zip(rc) {
                if a == NULL_CODE || b == NULL_CODE {
                    vals.push(false);
                    valid.push(false);
                } else {
                    vals.push((a == b) == (op == BinOp::Eq));
                    valid.push(true);
                }
            }
            note_on_codes(lc.len());
            return Some(Op::Own(ColumnVec::Bool { vals, valid }));
        }
    }
    None
}

fn compare_kernel<'a>(l: &Op<'_>, op: BinOp, r: &Op<'_>, rows: usize) -> Option<Op<'a>> {
    if let Some(res) = dict_compare(l, op, r) {
        return Some(res);
    }
    let (lc, rc) = (op_class(l)?, op_class(r)?);
    let mut vals = Vec::with_capacity(rows);
    let mut valid = Bitmap::new();
    match (lc, rc) {
        (Class::Num, Class::Num) => {
            let (a, b) = (num_side(l)?, num_side(r)?);
            for i in 0..rows {
                match (a.at(i), b.at(i)) {
                    (Some(x), Some(y)) => {
                        vals.push(cmp_to_bool(op, cmp_num(x, y)));
                        valid.push(true);
                    }
                    _ => {
                        vals.push(false);
                        valid.push(false);
                    }
                }
            }
        }
        (Class::Str, Class::Str) => {
            // Shapes the dict fast path declined (dict-vs-plain-column,
            // cross-dictionary ordering) materialize the dict side(s).
            let (ld, rd) = (materialize_dict(l), materialize_dict(r));
            let a = match &ld {
                Some(v) => StrSide::Col(v),
                None => str_side(l)?,
            };
            let b = match &rd {
                Some(v) => StrSide::Col(v),
                None => str_side(r)?,
            };
            for i in 0..rows {
                match (a.at(i), b.at(i)) {
                    (Some(x), Some(y)) => {
                        vals.push(cmp_to_bool(op, x.cmp(y)));
                        valid.push(true);
                    }
                    _ => {
                        vals.push(false);
                        valid.push(false);
                    }
                }
            }
        }
        (Class::Bool, Class::Bool) => {
            let (a, b) = (bool_side(l)?, bool_side(r)?);
            for i in 0..rows {
                match (a.at(i), b.at(i)) {
                    (Some(x), Some(y)) => {
                        vals.push(cmp_to_bool(op, x.cmp(&y)));
                        valid.push(true);
                    }
                    _ => {
                        vals.push(false);
                        valid.push(false);
                    }
                }
            }
        }
        _ => {
            // Mismatched classes: serial `=`/`<>` yields constant false/true
            // with NULL propagation; ordering raises a type error, so it must
            // take the row path to keep error identity.
            let res = match op {
                BinOp::Eq => false,
                BinOp::NotEq => true,
                _ => return None,
            };
            for i in 0..rows {
                if l.is_null_at(i) || r.is_null_at(i) {
                    vals.push(false);
                    valid.push(false);
                } else {
                    vals.push(res);
                    valid.push(true);
                }
            }
        }
    }
    Some(Op::Own(ColumnVec::Bool { vals, valid }))
}

fn arith_kernel<'a>(l: &Op<'_>, op: BinOp, r: &Op<'_>, rows: usize) -> Option<Op<'a>> {
    let (a, b) = (num_side(l)?, num_side(r)?);
    let mut out = ColumnVec::new();
    for i in 0..rows {
        match (a.at(i), b.at(i)) {
            (Some(NumVal::I(x)), Some(NumVal::I(y))) => {
                let res = match op {
                    BinOp::Add => x.checked_add(y),
                    BinOp::Sub => x.checked_sub(y),
                    BinOp::Mul => x.checked_mul(y),
                    _ => unreachable!("not arithmetic"),
                };
                // The serial rule: i64 overflow promotes the element to
                // Float rather than failing the query.
                out.push(match res {
                    Some(v) => Variant::Int(v),
                    None => {
                        let (xf, yf) = (x as f64, y as f64);
                        Variant::Float(match op {
                            BinOp::Add => xf + yf,
                            BinOp::Sub => xf - yf,
                            BinOp::Mul => xf * yf,
                            _ => unreachable!(),
                        })
                    }
                });
            }
            (Some(x), Some(y)) => {
                let (xf, yf) = (x.as_f64(), y.as_f64());
                out.push(Variant::Float(match op {
                    BinOp::Add => xf + yf,
                    BinOp::Sub => xf - yf,
                    BinOp::Mul => xf * yf,
                    _ => unreachable!(),
                }));
            }
            _ => out.push_null(),
        }
    }
    Some(Op::Own(out))
}

/// String accessor over a string-class operand.
enum StrSide<'a> {
    Col(&'a [Option<Arc<str>>]),
    Scalar(&'a Arc<str>),
}

impl<'a> StrSide<'a> {
    fn at(&self, i: usize) -> Option<&'a Arc<str>> {
        match self {
            StrSide::Col(v) => v[i].as_ref(),
            StrSide::Scalar(s) => Some(s),
        }
    }
}

fn str_side<'a>(op: &'a Op<'_>) -> Option<StrSide<'a>> {
    match op {
        Op::Scalar(Variant::Str(s)) => Some(StrSide::Scalar(s)),
        Op::Scalar(_) => None,
        op => match op.col()? {
            ColumnVec::Str(v) => Some(StrSide::Col(v)),
            _ => None,
        },
    }
}

fn concat_kernel<'a>(l: &Op<'_>, r: &Op<'_>, rows: usize) -> Option<Op<'a>> {
    let (ld, rd) = (materialize_dict(l), materialize_dict(r));
    let a = match &ld {
        Some(v) => StrSide::Col(v),
        None => str_side(l)?,
    };
    let b = match &rd {
        Some(v) => StrSide::Col(v),
        None => str_side(r)?,
    };
    let mut out: Vec<Option<Arc<str>>> = Vec::with_capacity(rows);
    for i in 0..rows {
        match (a.at(i), b.at(i)) {
            (Some(x), Some(y)) => {
                let mut s = String::with_capacity(x.len() + y.len());
                s.push_str(x);
                s.push_str(y);
                out.push(Some(Arc::from(s.as_str())));
            }
            _ => out.push(None),
        }
    }
    Some(Op::Own(ColumnVec::Str(out)))
}

/// Boolean accessor over a boolean-or-null operand.
enum BoolSide<'a> {
    Col(&'a [bool], &'a Bitmap),
    AllNull,
    Scalar(bool),
}

impl BoolSide<'_> {
    fn at(&self, i: usize) -> Option<bool> {
        match self {
            BoolSide::Col(vals, valid) => valid.get(i).then(|| vals[i]),
            BoolSide::AllNull => None,
            BoolSide::Scalar(b) => Some(*b),
        }
    }
}

fn bool_side<'a>(op: &'a Op<'_>) -> Option<BoolSide<'a>> {
    match op {
        Op::Scalar(Variant::Bool(b)) => Some(BoolSide::Scalar(*b)),
        Op::Scalar(Variant::Null) => Some(BoolSide::AllNull),
        Op::Scalar(_) => None,
        op => match op.col()? {
            ColumnVec::Bool { vals, valid } => Some(BoolSide::Col(vals, valid)),
            ColumnVec::Null(_) => Some(BoolSide::AllNull),
            _ => None,
        },
    }
}

/// Three-valued `AND`/`OR`. Vectorizes only when both operands are
/// boolean/NULL: eager evaluation is then equivalent to the serial
/// short-circuit, since neither operand can raise an error. A non-boolean
/// operand falls back so the serial path decides — it may legitimately
/// *succeed* there when short-circuiting skips the bad operand.
fn logic_kernel<'a>(l: &Op<'_>, op: BinOp, r: &Op<'_>, rows: usize) -> Option<Op<'a>> {
    let (a, b) = (bool_side(l)?, bool_side(r)?);
    let mut vals = Vec::with_capacity(rows);
    let mut valid = Bitmap::new();
    for i in 0..rows {
        let res = match op {
            BinOp::And => match (a.at(i), b.at(i)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a.at(i), b.at(i)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!("not a logic operator"),
        };
        match res {
            Some(v) => {
                vals.push(v);
                valid.push(true);
            }
            None => {
                vals.push(false);
                valid.push(false);
            }
        }
    }
    Some(Op::Own(ColumnVec::Bool { vals, valid }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{eval, ExecCtx, RowView};

    /// Reference check: `eval_vec` must agree with the serial evaluator on
    /// every row whenever it returns a column at all.
    fn assert_matches_serial(e: &PExpr, inp: &Chunk) {
        let Some(col) = eval_vec(e, inp) else { return };
        assert_eq!(col.len(), inp.rows, "kernel arity for {e:?}");
        let mut ctx = ExecCtx::default();
        for r in 0..inp.rows {
            let parts = [(inp, r)];
            let serial = eval(e, RowView::new(&parts), &mut ctx)
                .unwrap_or_else(|err| panic!("kernel vectorized a failing expr {e:?}: {err}"));
            assert_eq!(col.get(r), serial, "row {r} of {e:?}");
        }
    }

    fn chunk(cols: Vec<Vec<Variant>>) -> Chunk {
        let rows = cols.first().map_or(0, Vec::len);
        Chunk { cols: cols.into_iter().map(ColumnVec::from_variants).collect(), rows }
    }

    fn bin(l: PExpr, op: BinOp, r: PExpr) -> PExpr {
        PExpr::Binary { left: Box::new(l), op, right: Box::new(r) }
    }

    #[test]
    fn comparison_kernels_match_serial() {
        let inp = chunk(vec![
            vec![
                Variant::Int(1),
                Variant::Int((1 << 53) + 1),
                Variant::Null,
                Variant::Int(-5),
            ],
            vec![
                Variant::Float(1.0),
                Variant::Float((1i64 << 53) as f64),
                Variant::Float(2.0),
                Variant::Null,
            ],
        ]);
        for op in [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq] {
            let e = bin(PExpr::Col(0), op, PExpr::Col(1));
            assert!(eval_vec(&e, &inp).is_some(), "{op:?} should vectorize");
            assert_matches_serial(&e, &inp);
        }
        // The exactness bug: Int(2^53+1) vs Float(2^53) must be NotEq.
        let e = bin(PExpr::Col(0), BinOp::Eq, PExpr::Col(1));
        let col = eval_vec(&e, &inp).unwrap();
        assert_eq!(col.get(1), Variant::Bool(false));
    }

    #[test]
    fn arith_kernels_match_serial_including_overflow() {
        let inp = chunk(vec![
            vec![Variant::Int(i64::MAX), Variant::Int(2), Variant::Null],
            vec![Variant::Int(1), Variant::Int(3), Variant::Int(4)],
        ]);
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul] {
            let e = bin(PExpr::Col(0), op, PExpr::Col(1));
            assert!(eval_vec(&e, &inp).is_some(), "{op:?} should vectorize");
            assert_matches_serial(&e, &inp);
        }
        // Overflow promotes the element to Float, same as serial.
        let e = bin(PExpr::Col(0), BinOp::Add, PExpr::Col(1));
        let col = eval_vec(&e, &inp).unwrap();
        assert_eq!(col.get(0), Variant::Float(i64::MAX as f64 + 1.0));
        assert_eq!(col.get(1), Variant::Int(5));
    }

    #[test]
    fn logic_and_null_kernels_match_serial() {
        let b = |v: Option<bool>| v.map_or(Variant::Null, Variant::Bool);
        let vals: Vec<Variant> = [
            Some(true),
            Some(false),
            None,
            Some(true),
            None,
            Some(false),
            None,
            Some(true),
            Some(false),
        ]
        .iter()
        .map(|v| b(*v))
        .collect();
        let rvals: Vec<Variant> = vals.iter().rev().cloned().collect();
        let inp = chunk(vec![vals, rvals]);
        for op in [BinOp::And, BinOp::Or] {
            let e = bin(PExpr::Col(0), op, PExpr::Col(1));
            assert!(eval_vec(&e, &inp).is_some());
            assert_matches_serial(&e, &inp);
        }
        let e = PExpr::Not(Box::new(PExpr::Col(0)));
        assert!(eval_vec(&e, &inp).is_some());
        assert_matches_serial(&e, &inp);
        let e = PExpr::IsNull { expr: Box::new(PExpr::Col(1)), negated: true };
        assert!(eval_vec(&e, &inp).is_some());
        assert_matches_serial(&e, &inp);
    }

    #[test]
    fn fallible_shapes_do_not_vectorize() {
        let inp = chunk(vec![
            vec![Variant::Int(1), Variant::Int(0)],
            vec![Variant::str("a"), Variant::str("b")],
        ]);
        // Division can raise; mixed-class ordering raises.
        assert!(eval_vec(&bin(PExpr::Col(0), BinOp::Div, PExpr::Col(0)), &inp).is_none());
        assert!(eval_vec(&bin(PExpr::Col(0), BinOp::Lt, PExpr::Col(1)), &inp).is_none());
        // Mixed-class equality is total: it vectorizes to constant false.
        let e = bin(PExpr::Col(0), BinOp::Eq, PExpr::Col(1));
        assert!(eval_vec(&e, &inp).is_some());
        assert_matches_serial(&e, &inp);
        // AND over a non-boolean operand falls back.
        assert!(eval_vec(&bin(PExpr::Col(0), BinOp::And, PExpr::Col(0)), &inp).is_none());
        // Neg of a column containing i64::MIN falls back.
        let minp = chunk(vec![vec![Variant::Int(i64::MIN), Variant::Int(3)]]);
        let neg = PExpr::Unary { op: UnaryOp::Neg, expr: Box::new(PExpr::Col(0)) };
        assert!(eval_vec(&neg, &minp).is_none());
        assert_matches_serial(&neg, &inp);
    }

    #[test]
    fn path_steps_vectorize_over_nested_columns() {
        let mut o1 = crate::variant::Object::new();
        o1.insert("a", Variant::array(vec![Variant::Int(1), Variant::Int(2)]));
        let mut o2 = crate::variant::Object::new();
        o2.insert("b", Variant::Int(9));
        let inp = chunk(vec![vec![
            Variant::object(o1),
            Variant::object(o2),
            Variant::Null,
            Variant::Int(3),
        ]]);
        let e = PExpr::Path {
            base: Box::new(PExpr::Col(0)),
            steps: vec![PStep::Field("a".into()), PStep::Index(1)],
        };
        let col = eval_vec(&e, &inp).expect("path should vectorize");
        assert_eq!(col.get(0), Variant::Int(2));
        assert!(col.is_null_at(1));
        assert_matches_serial(&e, &inp);
    }

    #[test]
    fn concat_and_string_compare_vectorize() {
        let inp = chunk(vec![
            vec![Variant::str("a"), Variant::Null, Variant::str("c")],
            vec![Variant::str("x"), Variant::str("y"), Variant::Null],
        ]);
        for e in [
            bin(PExpr::Col(0), BinOp::Concat, PExpr::Col(1)),
            bin(PExpr::Col(0), BinOp::Lt, PExpr::Col(1)),
            bin(PExpr::Col(0), BinOp::Eq, PExpr::Lit(Variant::str("a"))),
        ] {
            assert!(eval_vec(&e, &inp).is_some(), "{e:?}");
            assert_matches_serial(&e, &inp);
        }
    }

    /// Two dictionary columns sharing one dictionary, plus one with a
    /// different dictionary holding the same strings: the fast paths must
    /// match serial on all of them, including NULL codes.
    fn dict_chunk() -> Chunk {
        let dict: std::sync::Arc<Vec<std::sync::Arc<str>>> = std::sync::Arc::new(vec![
            std::sync::Arc::from("ny"),
            std::sync::Arc::from("la"),
            std::sync::Arc::from("sf"),
        ]);
        let other: std::sync::Arc<Vec<std::sync::Arc<str>>> =
            std::sync::Arc::new(vec![std::sync::Arc::from("la"), std::sync::Arc::from("ny")]);
        let cols = vec![
            ColumnVec::DictStr { codes: vec![0, 1, NULL_CODE, 2, 0, 1], dict: dict.clone() },
            ColumnVec::DictStr { codes: vec![0, 0, 1, NULL_CODE, 2, 1], dict },
            ColumnVec::DictStr { codes: vec![1, 0, NULL_CODE, 0, 1, 0], dict: other },
        ];
        Chunk { cols, rows: 6 }
    }

    #[test]
    fn dict_scalar_compares_stay_on_codes_and_match_serial() {
        let inp = dict_chunk();
        for op in [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq] {
            for e in [
                bin(PExpr::Col(0), op, PExpr::Lit(Variant::str("la"))),
                bin(PExpr::Lit(Variant::str("ny")), op, PExpr::Col(0)),
            ] {
                assert!(eval_vec(&e, &inp).is_some(), "{e:?}");
                assert_matches_serial(&e, &inp);
            }
        }
        // A scalar absent from the dictionary still compares correctly.
        let e = bin(PExpr::Col(0), BinOp::Eq, PExpr::Lit(Variant::str("zz")));
        assert_matches_serial(&e, &inp);
    }

    #[test]
    fn dict_column_compares_match_serial() {
        let inp = dict_chunk();
        // Same dictionary: code-level Eq/NotEq; ordering materializes.
        // Different dictionaries: everything materializes. All match serial.
        for (l, r) in [(0, 1), (0, 2)] {
            for op in [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::GtEq] {
                let e = bin(PExpr::Col(l), op, PExpr::Col(r));
                assert!(eval_vec(&e, &inp).is_some(), "{e:?}");
                assert_matches_serial(&e, &inp);
            }
        }
    }

    #[test]
    fn dict_in_list_matches_serial_including_null_semantics() {
        let inp = dict_chunk();
        let lits = |vs: &[Variant]| vs.iter().cloned().map(PExpr::Lit).collect::<Vec<_>>();
        for negated in [false, true] {
            for list in [
                lits(&[Variant::str("la"), Variant::str("zz")]),
                // A NULL in the list makes non-matches NULL, not false.
                lits(&[Variant::str("sf"), Variant::Null]),
                lits(&[Variant::Null]),
            ] {
                let e = PExpr::InList {
                    expr: Box::new(PExpr::Col(0)),
                    list: list.clone(),
                    negated,
                };
                assert!(eval_vec(&e, &inp).is_some(), "{e:?}");
                assert_matches_serial(&e, &inp);
            }
        }
        // A non-literal list item declines (the serial path may error).
        let e = PExpr::InList {
            expr: Box::new(PExpr::Col(0)),
            list: vec![PExpr::Col(1)],
            negated: false,
        };
        assert!(eval_vec(&e, &inp).is_none());
    }

    #[test]
    fn dict_concat_materializes_and_matches_serial() {
        let inp = dict_chunk();
        for e in [
            bin(PExpr::Col(0), BinOp::Concat, PExpr::Col(2)),
            bin(PExpr::Col(0), BinOp::Concat, PExpr::Lit(Variant::str("!"))),
        ] {
            assert!(eval_vec(&e, &inp).is_some(), "{e:?}");
            assert_matches_serial(&e, &inp);
        }
    }

    #[test]
    fn runs_columns_decode_at_the_kernel_boundary() {
        let ints = ColumnVec::Runs {
            ends: vec![2, 3, 6],
            values: Box::new(ColumnVec::from_variants(vec![
                Variant::Int(7),
                Variant::Null,
                Variant::Int(9),
            ])),
        };
        let inp = Chunk { cols: vec![ints], rows: 6 };
        for e in [
            bin(PExpr::Col(0), BinOp::Gt, PExpr::Lit(Variant::Int(8))),
            bin(PExpr::Col(0), BinOp::Add, PExpr::Lit(Variant::Int(1))),
        ] {
            assert!(eval_vec(&e, &inp).is_some(), "{e:?}");
            assert_matches_serial(&e, &inp);
        }
    }

    #[test]
    fn eval_vec_counted_reports_rows_on_codes_and_materialized() {
        let inp = dict_chunk();
        let cell = OpMetricsCell::default();
        // Dict-vs-scalar equality runs on codes.
        let e = bin(PExpr::Col(0), BinOp::Eq, PExpr::Lit(Variant::str("la")));
        assert!(eval_vec_counted(&e, &inp, Some(&cell)).is_some());
        let m = cell.snapshot("Filter".into(), 1, Vec::new());
        assert_eq!(m.rows_on_codes, 6);
        assert_eq!(m.rows_materialized, 0);
        // Cross-dictionary ordering materializes both sides.
        let cell = OpMetricsCell::default();
        let e = bin(PExpr::Col(0), BinOp::Lt, PExpr::Col(2));
        assert!(eval_vec_counted(&e, &inp, Some(&cell)).is_some());
        let m = cell.snapshot("Filter".into(), 1, Vec::new());
        assert_eq!(m.rows_on_codes, 0);
        assert_eq!(m.rows_materialized, 12);
    }

    #[test]
    fn mask_keep_semantics() {
        let mut mask = ColumnVec::new();
        for v in [Variant::Bool(true), Variant::Bool(false), Variant::Null, Variant::Bool(true)] {
            mask.push(v);
        }
        assert_eq!(mask_keep(&mask).unwrap(), vec![0, 3]);
        assert_eq!(mask_keep(&ColumnVec::Null(5)).unwrap(), Vec::<usize>::new());
        assert!(mask_keep(&ColumnVec::from_variants(vec![Variant::Int(1)])).is_none());
    }
}
