//! Batch evaluation of an operator's [`ExprDag`] over typed [`ColumnVec`]s.
//!
//! [`ExprDag::eval`] computes every root of the DAG for a whole batch, each
//! node once, or returns `None`: the batch is *declined* and the caller
//! evaluates it with the row evaluator ([`super::expr::eval`]), which is the
//! one definition of what an expression returns and of which error a
//! statement reports.
//!
//! # Coverage
//!
//! Every [`DagOp`] and every [`FuncId`] has a kernel. The hot shapes run as
//! typed loops over `i64`/`f64`/`bool` slices and validity bitmaps (arithmetic,
//! comparisons, the math builtins, `ABS`/`FLOOR`/…, casts between numbers,
//! guards, `SEQ8()`), path steps walk nested values by reference, dictionary
//! columns compare and test `IN` on their codes. Whatever has no typed loop —
//! boxed `Var` operands of mixed type, string functions, array and object
//! constructors — runs column at a time through the *same scalar functions the
//! row evaluator calls* ([`super::expr::binary`], [`super::expr::call`], …), so
//! the two cannot disagree there by construction, and the typed loops are held
//! to them by the differential property test and the `{vectorized, row}` axis
//! of the verification lattice.
//!
//! # Selections
//!
//! A node is evaluated under a *selection*: the rows on which its value is
//! wanted. Roots are evaluated on every row. A guarded operand (see
//! [`super::dag`]) is evaluated only on the rows its guard left undecided —
//! the right side of `AND` where the left is not false, the `IFF` branch its
//! condition picked, the next `COALESCE` argument where all earlier ones were
//! NULL. A value computed under a selection is a full-length column whose
//! unselected rows are unspecified and never read. This keeps a guard
//! guarding (`IFF(x = 0, NULL, y / x)` does not divide by zero) and keeps the
//! row evaluator's short-circuit saving. A value is reused by any reader whose
//! selection is contained in the one it was computed under; nodes the row
//! evaluator reaches on every row are computed on every row.
//!
//! # Declining
//!
//! A kernel that meets, on a selected row, an input on which the row
//! evaluator would fail (a zero divisor, a non-numeric operand of `+`, a
//! non-boolean condition, an unparsable cast) declines the batch. It never
//! reports the error itself: the row evaluator runs the batch again, row by
//! row and expression by expression, and fails at the first error in that
//! order.
//!
//! # `SEQ8()`
//!
//! In a projection the counter restarts at `base + r` for row `r` (see
//! [`super::pipeline`]), so call `k` of the row is `base + r + k`: an integer
//! ramp. That holds when every call is unguarded
//! ([`Seq8Calls::PerRow`]); a DAG with a guarded call declines.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::Arc;

use crate::column::{Bitmap, ColumnVec, RecordLists, Records, NULL_CODE};
use crate::error::Result;
use crate::plan::{CastType, FuncId, PStep};
use crate::sql::BinOp;
use crate::variant::{cmp_f64, cmp_i64_f64, Variant};

use super::dag::{DagOp, ExprDag, NodeId, Seq8Calls};
use super::expr;
use super::metrics::OpMetricsCell;
use super::Chunk;

impl ExprDag<'_> {
    /// Evaluates every root over all rows of `inp`, or declines (`None`).
    /// `seq_base` is the value of a projection's `SEQ8()` counter at the
    /// batch's first row. Rows evaluated on dictionary codes and rows of
    /// encoded columns that had to be materialized are added to `cell`.
    pub fn eval<'a>(
        &self,
        inp: &'a Chunk,
        seq_base: i64,
        cell: Option<&OpMetricsCell>,
    ) -> Option<Vec<Cow<'a, ColumnVec>>> {
        if self.seq8() == Seq8Calls::Guarded {
            return None;
        }
        let mut ev = BatchEval::new(self, inp, seq_base);
        let mut out = Vec::with_capacity(self.root_count());
        for &root in self.roots() {
            let v = ev.value(root, &Sel::FULL)?;
            ev.release(root);
            out.push(ev.column_of(v));
        }
        if let Some(cell) = cell {
            if ev.on_codes > 0 {
                cell.add_on_codes(ev.on_codes);
            }
            if ev.materialized > 0 {
                cell.add_materialized(ev.materialized);
            }
        }
        Some(out)
    }
}

/// Converts a filter mask into the kept row indices; the first row whose
/// value is neither boolean nor NULL raises [`expr::truth`]'s type error.
/// A boolean mask writes every row's index as a candidate and advances past
/// it only when the row is kept: no branch per row.
pub fn mask_keep(mask: &ColumnVec) -> Result<Vec<usize>> {
    match mask {
        ColumnVec::Bool { vals, valid } => {
            let mut keep = vec![0; vals.len()];
            let mut k = 0;
            if valid.all_valid() {
                for (i, &b) in vals.iter().enumerate() {
                    keep[k] = i;
                    k += usize::from(b);
                }
            } else {
                for (i, &b) in vals.iter().enumerate() {
                    keep[k] = i;
                    k += usize::from(b & valid.get(i));
                }
            }
            keep.truncate(k);
            Ok(keep)
        }
        // An all-NULL mask keeps nothing: truth(NULL) is "unknown".
        ColumnVec::Null(_) => Ok(Vec::new()),
        other => {
            let mut keep = Vec::new();
            for i in 0..other.len() {
                if expr::truth(&other.get(i))? == Some(true) {
                    keep.push(i);
                }
            }
            Ok(keep)
        }
    }
}

// ---------------------------------------------------------------------------
// Values and selections
// ---------------------------------------------------------------------------

/// A node's value for the batch: a borrowed input column, a computed column,
/// or one value for every row.
enum Val<'a> {
    Col(&'a ColumnVec),
    Own(ColumnVec),
    Scalar(Variant),
}

type V<'a> = Rc<Val<'a>>;

/// A computed column as a node's value.
fn own<'a>(c: ColumnVec) -> Option<V<'a>> {
    Some(Rc::new(Val::Own(c)))
}

impl Val<'_> {
    fn col(&self) -> Option<&ColumnVec> {
        match self {
            Val::Col(c) => Some(c),
            Val::Own(c) => Some(c),
            Val::Scalar(_) => None,
        }
    }

    /// True when every row is NULL whatever the selection.
    fn all_null(&self) -> bool {
        match self {
            Val::Scalar(v) => v.is_null(),
            _ => matches!(self.col(), Some(ColumnVec::Null(_))),
        }
    }

    fn get(&self, i: usize) -> Variant {
        match self {
            Val::Scalar(v) => v.clone(),
            Val::Col(c) => c.get(i),
            Val::Own(c) => c.get(i),
        }
    }

    fn is_null_at(&self, i: usize) -> bool {
        match self {
            Val::Scalar(v) => v.is_null(),
            Val::Col(c) => c.is_null_at(i),
            Val::Own(c) => c.is_null_at(i),
        }
    }

    /// True when [`cell`] has to box row values of this operand.
    fn boxes(&self) -> bool {
        !matches!(self.col(), None | Some(ColumnVec::Var(_)))
    }
}

/// Row `i` of an operand by reference. Boxed columns and scalars lend the
/// value they hold; a typed column's value must have been put in `tmp`.
fn cell<'v>(v: &'v Val<'_>, i: usize, tmp: &'v Variant) -> &'v Variant {
    match v {
        Val::Scalar(s) => s,
        _ => match v.col() {
            Some(ColumnVec::Var(x)) => &x[i],
            _ => tmp,
        },
    }
}

/// The rows a value is wanted on. `rows: None` is every row of the batch.
/// Selections form a tree by containment: a narrowed selection's parent
/// contains it.
#[derive(Clone)]
struct Sel {
    id: u32,
    rows: Option<Rc<[u32]>>,
}

impl Sel {
    /// Every row of the batch.
    const FULL: Sel = Sel { id: 0, rows: None };

    fn len(&self, n: usize) -> usize {
        self.rows.as_ref().map_or(n, |r| r.len())
    }

    /// True for a narrowed selection that kept no row. (Every row of an
    /// empty batch is not that: its columns still have to be built.)
    fn is_empty(&self) -> bool {
        matches!(&self.rows, Some(rows) if rows.is_empty())
    }
}

/// Runs `$body` with `$i` bound to each selected row, ascending.
macro_rules! for_rows {
    ($sel:expr, $n:expr, $i:ident => $body:block) => {
        match &$sel.rows {
            None => {
                // One body serves dense and sparse rows: it indexes.
                #[allow(clippy::needless_range_loop)]
                for $i in 0..$n $body
            }
            Some(rows) => {
                for &r in rows.iter() {
                    let $i = r as usize;
                    $body
                }
            }
        }
    };
}

/// Runs `$body` with `$at` bound to a row accessor `usize -> f64` of a
/// [`Num`] operand (integers convert as the row evaluator's `NumericPair`
/// does); one monomorphic copy of the loop per representation.
macro_rules! f64_at {
    ($num:expr, |$at:ident| $body:expr) => {
        match $num {
            Num::Ints(s, _) => {
                let $at = |i: usize| s[i] as f64;
                $body
            }
            Num::Floats(s, _) => {
                let $at = |i: usize| s[i];
                $body
            }
            Num::Int(c) => {
                let c = *c as f64;
                let $at = move |_: usize| c;
                $body
            }
            Num::Float(c) => {
                let c = *c;
                let $at = move |_: usize| c;
                $body
            }
        }
    };
}

/// Runs `$body` with `$at` bound to a row accessor `usize -> i64` of an
/// integer [`Num`] operand.
macro_rules! i64_at {
    ($num:expr, |$at:ident| $body:expr) => {
        match $num {
            Num::Ints(s, _) => {
                let $at = |i: usize| s[i];
                $body
            }
            Num::Int(c) => {
                let c = *c;
                let $at = move |_: usize| c;
                $body
            }
            _ => unreachable!("not an integer operand"),
        }
    };
}

struct Reg<'a> {
    /// The selection the value was computed under.
    sel: u32,
    val: V<'a>,
}

struct BatchEval<'d, 'a> {
    dag: &'d ExprDag<'d>,
    inp: &'a Chunk,
    n: usize,
    seq_base: i64,
    regs: Vec<Option<Reg<'a>>>,
    /// Readers that have yet to take each node's value.
    readers: Vec<u32>,
    /// Parent of each selection; selection 0 is every row.
    sel_parents: Vec<u32>,
    on_codes: u64,
    materialized: u64,
}

/// A guard's outcome per selected row, for building the next selection.
type Tri = Option<bool>;

impl<'d, 'a> BatchEval<'d, 'a> {
    fn new(dag: &'d ExprDag<'d>, inp: &'a Chunk, seq_base: i64) -> Self {
        BatchEval {
            dag,
            inp,
            n: inp.rows,
            seq_base,
            regs: (0..dag.dag_nodes()).map(|_| None).collect(),
            readers: (0..dag.dag_nodes() as NodeId)
                .map(|id| dag.uses(id))
                .collect(),
            sel_parents: vec![0],
            on_codes: 0,
            materialized: 0,
        }
    }

    // ---- registers ---------------------------------------------------------

    /// The value of `id` on (at least) the rows of `sel`.
    fn value(&mut self, id: NodeId, sel: &Sel) -> Option<V<'a>> {
        if let Some(reg) = &self.regs[id as usize] {
            if self.contains(reg.sel, sel.id) {
                return Some(reg.val.clone());
            }
        }
        let sel = if self.dag.always(id) { &Sel::FULL } else { sel };
        // Nothing is wanted: evaluate nothing, and in particular decline
        // nothing.
        let val = if sel.is_empty() {
            Rc::new(Val::Scalar(Variant::Null))
        } else {
            self.compute(id, sel)?
        };
        self.regs[id as usize] = Some(Reg {
            sel: sel.id,
            val: val.clone(),
        });
        Some(val)
    }

    /// One reader of `id` is done with it; the last one frees the register.
    fn release(&mut self, id: NodeId) {
        let left = &mut self.readers[id as usize];
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.regs[id as usize] = None;
        }
    }

    /// True when selection `outer` contains selection `inner`.
    fn contains(&self, outer: u32, inner: u32) -> bool {
        let mut s = inner;
        loop {
            if s == outer || outer == 0 {
                return true;
            }
            if s == 0 {
                return false;
            }
            s = self.sel_parents[s as usize];
        }
    }

    /// The sub-selection `rows` of `parent`; `parent` itself when nothing was
    /// removed, so values computed under it stay reusable.
    fn narrow(&mut self, parent: &Sel, rows: Vec<u32>) -> Sel {
        if rows.len() == parent.len(self.n) {
            return parent.clone();
        }
        self.sel_parents.push(parent.id);
        Sel {
            id: (self.sel_parents.len() - 1) as u32,
            rows: Some(rows.into()),
        }
    }

    /// The rows of `sel` on which `keep` holds.
    fn filter_sel(&mut self, sel: &Sel, mut keep: impl FnMut(usize) -> bool) -> Sel {
        let mut rows = Vec::with_capacity(sel.len(self.n));
        for_rows!(sel, self.n, i => {
            if keep(i) {
                rows.push(i as u32);
            }
        });
        self.narrow(sel, rows)
    }

    fn column_of(&self, v: V<'a>) -> Cow<'a, ColumnVec> {
        match Rc::try_unwrap(v) {
            Ok(Val::Col(c)) => Cow::Borrowed(c),
            Ok(Val::Own(c)) => Cow::Owned(c),
            Ok(Val::Scalar(s)) => Cow::Owned(broadcast(&s, self.n)),
            Err(shared) => match &*shared {
                Val::Col(c) => Cow::Borrowed(*c),
                Val::Own(c) => Cow::Owned(c.clone()),
                Val::Scalar(s) => Cow::Owned(broadcast(s, self.n)),
            },
        }
    }

    /// Counts the rows of dictionary and shredded operands a kernel without
    /// a native loop for them is about to box.
    fn note_encoded_operands(&mut self, args: &[V<'a>]) {
        for a in args {
            if let Some(
                c @ (ColumnVec::DictStr { .. } | ColumnVec::Objects(_) | ColumnVec::List(_)),
            ) = a.col()
            {
                self.materialized += c.len() as u64;
            }
        }
    }

    // ---- dispatch ----------------------------------------------------------

    fn compute(&mut self, id: NodeId, sel: &Sel) -> Option<V<'a>> {
        let dag = self.dag;
        let args = dag.args(id);
        match dag.op(id) {
            // Out-of-range column indices decline so the row path raises the
            // "column index out of range" error.
            DagOp::Col(i) => {
                let c = self.inp.cols.get(i)?;
                // Run-length columns decode at the kernel boundary: the dict
                // fast paths are code-indexed, runs are not.
                if let ColumnVec::Runs { .. } = c {
                    self.materialized += c.len() as u64;
                    return own(c.decoded());
                }
                Some(Rc::new(Val::Col(c)))
            }
            DagOp::Lit(v) => Some(Rc::new(Val::Scalar(v.clone()))),
            DagOp::Seq8 { call } => {
                let first = self.seq_base + i64::from(call);
                own(ColumnVec::Int {
                    vals: (0..self.n as i64).map(|r| first + r).collect(),
                    valid: Bitmap::ones(self.n),
                })
            }
            DagOp::Binary(op @ (BinOp::And | BinOp::Or)) => self.logic(op, args, sel),
            DagOp::Func(FuncId::Iff) if args.len() == 3 => self.iff(args, sel),
            DagOp::Func(FuncId::Nvl) if args.len() == 2 => self.coalesce(args, sel),
            DagOp::Func(FuncId::Coalesce) => self.coalesce(args, sel),
            DagOp::Case { operand, else_expr } => self.case(operand, else_expr, args, sel),
            DagOp::InList { negated } => self.in_list(negated, args, sel),
            DagOp::Path(steps) => self.path(steps, args, sel),
            // Everything else is strict: all operands, on all selected rows.
            op => {
                let vals: Vec<V<'a>> = args
                    .iter()
                    .map(|&a| self.value(a, sel))
                    .collect::<Option<_>>()?;
                let out = self.strict(op, &vals, sel);
                for &a in args {
                    self.release(a);
                }
                out
            }
        }
    }

    /// Operators and functions that evaluate all their operands.
    fn strict(&mut self, op: DagOp<'d>, a: &[V<'a>], sel: &Sel) -> Option<V<'a>> {
        let n = self.n;
        // Constant operands fold through the row evaluator's own functions.
        if a.iter().all(|v| matches!(**v, Val::Scalar(_))) {
            let s: Vec<&Variant> = a
                .iter()
                .map(|v| match &**v {
                    Val::Scalar(s) => s,
                    _ => unreachable!("checked above"),
                })
                .collect();
            return scalar_op(op, &s).ok().map(|v| Rc::new(Val::Scalar(v)));
        }
        match op {
            DagOp::Neg => match neg_kernel(&a[0], n, sel) {
                Some(c) => own(c),
                None => own(self.map_rows(a, sel, |v| expr::neg(v[0]))?),
            },
            DagOp::Not => match a[0].col()? {
                ColumnVec::Null(k) => own(ColumnVec::Null(*k)),
                ColumnVec::Bool { vals, valid } => own(ColumnVec::Bool {
                    vals: vals.iter().map(|b| !b).collect(),
                    valid: valid.clone(),
                }),
                _ => own(self.map_rows(a, sel, |v| expr::not(v[0]))?),
            },
            DagOp::IsNull { negated } => {
                let mut vals = vec![false; n];
                for_rows!(sel, n, i => {
                    vals[i] = a[0].is_null_at(i) != negated;
                });
                own(ColumnVec::Bool {
                    vals,
                    valid: Bitmap::ones(n),
                })
            }
            DagOp::Binary(op) => self.binary(op, a, sel),
            DagOp::Cast(ty) => match cast_kernel(&a[0], ty, n, sel) {
                Some(Some(c)) => own(c),
                // The input is its own cast.
                Some(None) => Some(a[0].clone()),
                None => own(self.map_rows(a, sel, |v| expr::cast(v[0].clone(), ty))?),
            },
            DagOp::Like { negated } => {
                own(self.map_rows(a, sel, |v| expr::like(v[0], v[1], negated))?)
            }
            DagOp::Func(f) => self.func(f, a, sel),
            DagOp::Col(_)
            | DagOp::Lit(_)
            | DagOp::Seq8 { .. }
            | DagOp::InList { .. }
            | DagOp::Case { .. }
            | DagOp::Path(_) => unreachable!("dispatched in compute"),
        }
    }

    fn func(&mut self, f: FuncId, a: &[V<'a>], sel: &Sel) -> Option<V<'a>> {
        let n = self.n;
        if let Some(c) = list_kernel(f, a, n) {
            return own(c);
        }
        if let (Some(g), [x]) = (expr::math1_fn(f), a) {
            if x.all_null() {
                return own(ColumnVec::Null(n));
            }
            if let Some(num) = num(x) {
                let mut vals = vec![0.0; n];
                f64_at!(&num, |at| for_rows!(sel, n, i => {
                    vals[i] = g(at(i));
                }));
                return own(ColumnVec::Float {
                    vals,
                    valid: valid_of(num.valid(), n),
                });
            }
        }
        if let (Some(g), [x, y]) = (expr::math2_fn(f), a) {
            if x.all_null() || y.all_null() {
                return own(ColumnVec::Null(n));
            }
            if let (Some(p), Some(q)) = (num(x), num(y)) {
                let vals = float_zip(&p, &q, n, sel, g);
                return own(ColumnVec::Float {
                    vals,
                    valid: both_valid(p.valid(), q.valid(), n),
                });
            }
        }
        if let (FuncId::Abs | FuncId::Floor | FuncId::Ceil | FuncId::Round | FuncId::Sign, [x]) =
            (f, a)
        {
            match unary_num_kernel(f, x, n, sel) {
                Some(Some(c)) => return own(c),
                Some(None) => return Some(x.clone()),
                None => {}
            }
        }
        own(self.map_rows(a, sel, |v| expr::call(f, v))?)
    }

    /// Every binary operator but `AND`/`OR`.
    fn binary(&mut self, op: BinOp, a: &[V<'a>], sel: &Sel) -> Option<V<'a>> {
        let n = self.n;
        let (l, r) = (&a[0], &a[1]);
        // The row evaluator checks NULLs first, so an always-NULL side makes
        // every row NULL: no type error is possible.
        if l.all_null() || r.all_null() {
            return own(ColumnVec::Null(n));
        }
        let typed = match op {
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                self.compare(l, op, r, sel)
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                match (num(l), num(r)) {
                    (Some(p), Some(q)) => match arith_kernel(&p, op, &q, n, sel) {
                        Arith::Done(c) => Some(c),
                        // A zero divisor on a selected row.
                        Arith::Fails => return None,
                        // i64 overflow promotes single rows to Float.
                        Arith::Mixed => None,
                    },
                    _ => None,
                }
            }
            BinOp::Concat => None,
            BinOp::And | BinOp::Or => unreachable!("dispatched in compute"),
        };
        match typed {
            Some(c) => own(c),
            None => own(self.map_rows(a, sel, |v| expr::binary(op, v[0], v[1]))?),
        }
    }

    /// Applies the row evaluator's scalar function `f` to the operands of
    /// every selected row; declines when it fails on one.
    fn map_rows(
        &mut self,
        args: &[V<'a>],
        sel: &Sel,
        mut f: impl FnMut(&[&Variant]) -> Result<Variant>,
    ) -> Option<ColumnVec> {
        const INLINE: usize = 12;
        self.note_encoded_operands(args);
        let n = self.n;
        let mut tmps: Vec<Variant> = vec![Variant::Null; args.len()];
        let mut out = Gaps::new(n);
        for_rows!(sel, n, i => {
            for (tmp, a) in tmps.iter_mut().zip(args) {
                if a.boxes() {
                    *tmp = a.get(i);
                }
            }
            let v = if args.len() <= INLINE {
                let mut refs: [&Variant; INLINE] = [&Variant::Null; INLINE];
                for (k, a) in args.iter().enumerate() {
                    refs[k] = cell(a, i, &tmps[k]);
                }
                f(&refs[..args.len()])
            } else {
                let refs: Vec<&Variant> =
                    args.iter().enumerate().map(|(k, a)| cell(a, i, &tmps[k])).collect();
                f(&refs)
            };
            out.push(i, v.ok()?);
        });
        Some(out.finish())
    }
}

/// Builds a column of `n` rows from values pushed for ascending rows; the
/// rows in between are NULL.
struct Gaps {
    col: ColumnVec,
    n: usize,
}

impl Gaps {
    fn new(n: usize) -> Gaps {
        Gaps {
            col: ColumnVec::new(),
            n,
        }
    }

    fn push(&mut self, row: usize, v: Variant) {
        self.col.push_nulls(row - self.col.len());
        self.col.push(v);
    }

    fn finish(mut self) -> ColumnVec {
        self.col.push_nulls(self.n - self.col.len());
        self.col
    }
}

/// A strict node over constant operands, through the row evaluator.
fn scalar_op(op: DagOp<'_>, v: &[&Variant]) -> Result<Variant> {
    match op {
        DagOp::Neg => expr::neg(v[0]),
        DagOp::Not => expr::not(v[0]),
        DagOp::IsNull { negated } => Ok(Variant::Bool(v[0].is_null() != negated)),
        DagOp::Binary(op) => expr::binary(op, v[0], v[1]),
        DagOp::Cast(ty) => expr::cast(v[0].clone(), ty),
        DagOp::Like { negated } => expr::like(v[0], v[1], negated),
        DagOp::Func(f) => expr::call(f, v),
        _ => unreachable!("not a strict node"),
    }
}

/// One value for `n` rows, typed.
fn broadcast(v: &Variant, n: usize) -> ColumnVec {
    match v {
        Variant::Null => ColumnVec::Null(n),
        Variant::Bool(b) => ColumnVec::Bool {
            vals: vec![*b; n],
            valid: Bitmap::ones(n),
        },
        Variant::Int(i) => ColumnVec::Int {
            vals: vec![*i; n],
            valid: Bitmap::ones(n),
        },
        Variant::Float(f) => ColumnVec::Float {
            vals: vec![*f; n],
            valid: Bitmap::ones(n),
        },
        Variant::Str(s) => ColumnVec::Str(vec![Some(s.clone()); n]),
        Variant::Array(_) | Variant::Object(_) => ColumnVec::Var(vec![v.clone(); n]),
    }
}

// ---------------------------------------------------------------------------
// Typed operand views
// ---------------------------------------------------------------------------

/// A numeric operand whose every non-NULL row has one machine type.
enum Num<'v> {
    Ints(&'v [i64], &'v Bitmap),
    Floats(&'v [f64], &'v Bitmap),
    Int(i64),
    Float(f64),
}

impl Num<'_> {
    /// The validity bitmap; `None` for a (non-NULL) scalar.
    fn valid(&self) -> Option<&Bitmap> {
        match self {
            Num::Ints(_, v) | Num::Floats(_, v) => Some(v),
            Num::Int(_) | Num::Float(_) => None,
        }
    }

    fn is_int(&self) -> bool {
        matches!(self, Num::Ints(..) | Num::Int(_))
    }
}

fn num<'v>(v: &'v Val<'_>) -> Option<Num<'v>> {
    match v {
        Val::Scalar(Variant::Int(i)) => Some(Num::Int(*i)),
        Val::Scalar(Variant::Float(f)) => Some(Num::Float(*f)),
        Val::Scalar(_) => None,
        _ => match v.col()? {
            ColumnVec::Int { vals, valid } => Some(Num::Ints(vals, valid)),
            ColumnVec::Float { vals, valid } => Some(Num::Floats(vals, valid)),
            _ => None,
        },
    }
}

fn valid_of(valid: Option<&Bitmap>, n: usize) -> Bitmap {
    valid.map_or_else(|| Bitmap::ones(n), Bitmap::clone)
}

/// Validity of a binary result: both operands valid.
fn both_valid(a: Option<&Bitmap>, b: Option<&Bitmap>, n: usize) -> Bitmap {
    match (a, b) {
        (Some(x), Some(y)) => x.and(y),
        (x, y) => valid_of(x.or(y), n),
    }
}

fn float_zip(
    a: &Num<'_>,
    b: &Num<'_>,
    n: usize,
    sel: &Sel,
    f: impl Fn(f64, f64) -> f64 + Copy,
) -> Vec<f64> {
    let mut out = vec![0.0; n];
    f64_at!(a, |x| f64_at!(b, |y| for_rows!(sel, n, i => {
        out[i] = f(x(i), y(i));
    })));
    out
}

/// String operand: plain column or scalar.
enum StrSide<'v> {
    Col(&'v [Option<Arc<str>>]),
    Scalar(&'v Arc<str>),
}

impl<'v> StrSide<'v> {
    fn at(&self, i: usize) -> Option<&'v Arc<str>> {
        match self {
            StrSide::Col(v) => v[i].as_ref(),
            StrSide::Scalar(s) => Some(s),
        }
    }
}

fn str_side<'v>(v: &'v Val<'_>) -> Option<StrSide<'v>> {
    match v {
        Val::Scalar(Variant::Str(s)) => Some(StrSide::Scalar(s)),
        Val::Scalar(_) => None,
        _ => match v.col()? {
            ColumnVec::Str(x) => Some(StrSide::Col(x)),
            _ => None,
        },
    }
}

/// Boolean-or-NULL operand.
enum BoolSide<'v> {
    Col(&'v [bool], &'v Bitmap),
    AllNull,
    Scalar(bool),
    /// A boxed column whose selected rows were checked to be boolean or NULL.
    Checked(&'v [Variant]),
}

impl BoolSide<'_> {
    fn at(&self, i: usize) -> Tri {
        match self {
            BoolSide::Col(vals, valid) => valid.get(i).then(|| vals[i]),
            BoolSide::AllNull => None,
            BoolSide::Scalar(b) => Some(*b),
            BoolSide::Checked(v) => v[i].as_bool(),
        }
    }
}

/// The operand as a condition, or `None` when a selected row is neither
/// boolean nor NULL (the row evaluator's `truth` fails there).
fn bool_side<'v>(v: &'v Val<'_>, n: usize, sel: &Sel) -> Option<BoolSide<'v>> {
    match v {
        Val::Scalar(Variant::Bool(b)) => Some(BoolSide::Scalar(*b)),
        Val::Scalar(Variant::Null) => Some(BoolSide::AllNull),
        Val::Scalar(_) => None,
        _ => match v.col()? {
            ColumnVec::Bool { vals, valid } => Some(BoolSide::Col(vals, valid)),
            ColumnVec::Null(_) => Some(BoolSide::AllNull),
            ColumnVec::Var(x) => {
                for_rows!(sel, n, i => {
                    if !matches!(x[i], Variant::Bool(_) | Variant::Null) {
                        return None;
                    }
                });
                Some(BoolSide::Checked(x))
            }
            _ => None,
        },
    }
}

/// Three-valued `AND` (`decisive` false) or `OR` (`decisive` true) of two
/// conditions known on the rows of `sel`: the decisive value where either
/// side has it, the other value where both sides are known, NULL otherwise.
fn combine(decisive: bool, a: &BoolSide<'_>, b: &BoolSide<'_>, n: usize, sel: &Sel) -> ColumnVec {
    if let (BoolSide::Col(x, vx), BoolSide::Col(y, vy)) = (a, b) {
        if vx.all_valid() && vy.all_valid() {
            // Every row is known. Rows outside `sel` hold values too; their
            // results are never read.
            let vals = match decisive {
                true => x.iter().zip(*y).map(|(&p, &q)| p | q).collect(),
                false => x.iter().zip(*y).map(|(&p, &q)| p & q).collect(),
            };
            return ColumnVec::Bool {
                vals,
                valid: Bitmap::ones(n),
            };
        }
    }
    tri_column(n, sel, |i| {
        let (x, y) = (a.at(i), b.at(i));
        if x == Some(decisive) || y == Some(decisive) {
            Some(decisive)
        } else {
            x.and(y).map(|_| !decisive)
        }
    })
}

/// A boolean column from per-row outcomes on the selected rows.
fn tri_column(n: usize, sel: &Sel, mut at: impl FnMut(usize) -> Tri) -> ColumnVec {
    let mut vals = vec![false; n];
    let mut valid = Bitmap::nulls(n);
    for_rows!(sel, n, i => {
        if let Some(b) = at(i) {
            vals[i] = b;
            valid.set(i);
        }
    });
    ColumnVec::Bool { vals, valid }
}

// ---------------------------------------------------------------------------
// Strict typed kernels
// ---------------------------------------------------------------------------

/// `None`: no typed loop applies (boxed operand, or `i64::MIN`).
fn neg_kernel(v: &Val<'_>, n: usize, sel: &Sel) -> Option<ColumnVec> {
    match v.col()? {
        ColumnVec::Null(k) => Some(ColumnVec::Null(*k)),
        ColumnVec::Int { vals, valid } => {
            let mut out = vec![0; n];
            for_rows!(sel, n, i => {
                if valid.get(i) {
                    out[i] = vals[i].checked_neg()?;
                }
            });
            Some(ColumnVec::Int {
                vals: out,
                valid: valid.clone(),
            })
        }
        ColumnVec::Float { vals, valid } => Some(ColumnVec::Float {
            vals: vals.iter().map(|f| -f).collect(),
            valid: valid.clone(),
        }),
        _ => None,
    }
}

/// `ABS`/`FLOOR`/`CEIL`/`ROUND`/`SIGN` over a typed column. `Some(None)`: the
/// operand is its own result (rounding an integer column).
fn unary_num_kernel(f: FuncId, v: &Val<'_>, n: usize, sel: &Sel) -> Option<Option<ColumnVec>> {
    match (f, v.col()?) {
        (_, ColumnVec::Null(k)) => Some(Some(ColumnVec::Null(*k))),
        (FuncId::Floor | FuncId::Ceil | FuncId::Round, ColumnVec::Int { .. }) => Some(None),
        (FuncId::Abs, ColumnVec::Int { vals, valid }) => {
            let mut out = vec![0; n];
            for_rows!(sel, n, i => {
                if valid.get(i) {
                    out[i] = vals[i].checked_abs()?;
                }
            });
            Some(Some(ColumnVec::Int {
                vals: out,
                valid: valid.clone(),
            }))
        }
        (FuncId::Sign, ColumnVec::Int { vals, valid }) => Some(Some(ColumnVec::Int {
            vals: vals.iter().map(|i| i.signum()).collect(),
            valid: valid.clone(),
        })),
        (FuncId::Sign, ColumnVec::Float { vals, valid }) => Some(Some(ColumnVec::Int {
            vals: vals
                .iter()
                .map(|&x| i64::from(x > 0.0) - i64::from(x < 0.0))
                .collect(),
            valid: valid.clone(),
        })),
        (_, ColumnVec::Float { vals, valid }) => {
            let g: fn(f64) -> f64 = match f {
                FuncId::Abs => f64::abs,
                FuncId::Floor => f64::floor,
                FuncId::Ceil => f64::ceil,
                _ => f64::round,
            };
            Some(Some(ColumnVec::Float {
                vals: vals.iter().map(|&x| g(x)).collect(),
                valid: valid.clone(),
            }))
        }
        _ => None,
    }
}

/// Casts between typed columns. `Some(None)`: the operand is its own cast.
/// `None`: a cast that can fail or format — the row evaluator's `cast` runs
/// per row.
fn cast_kernel(v: &Val<'_>, ty: CastType, n: usize, sel: &Sel) -> Option<Option<ColumnVec>> {
    let col = v.col()?;
    match (ty, col) {
        (_, ColumnVec::Null(k)) => Some(Some(ColumnVec::Null(*k))),
        (CastType::Variant, _)
        | (CastType::Int, ColumnVec::Int { .. })
        | (CastType::Float, ColumnVec::Float { .. })
        | (CastType::Bool, ColumnVec::Bool { .. })
        | (CastType::Str, ColumnVec::Str(_) | ColumnVec::DictStr { .. }) => Some(None),
        (CastType::Float, ColumnVec::Int { vals, valid }) => Some(Some(ColumnVec::Float {
            vals: vals.iter().map(|&i| i as f64).collect(),
            valid: valid.clone(),
        })),
        (CastType::Int, ColumnVec::Float { vals, valid }) => {
            let mut out = vec![0; n];
            for_rows!(sel, n, i => {
                if valid.get(i) {
                    // Infinities and NaN have no integer: the row path says so.
                    if !vals[i].is_finite() {
                        return None;
                    }
                    out[i] = vals[i].round() as i64;
                }
            });
            Some(Some(ColumnVec::Int {
                vals: out,
                valid: valid.clone(),
            }))
        }
        (CastType::Int, ColumnVec::Bool { vals, valid }) => Some(Some(ColumnVec::Int {
            vals: vals.iter().map(|&b| i64::from(b)).collect(),
            valid: valid.clone(),
        })),
        (CastType::Bool, ColumnVec::Int { vals, valid }) => Some(Some(ColumnVec::Bool {
            vals: vals.iter().map(|&i| i != 0).collect(),
            valid: valid.clone(),
        })),
        _ => None,
    }
}

enum Arith {
    Done(ColumnVec),
    /// The row evaluator fails on a selected row (zero divisor).
    Fails,
    /// Rows of one column differ in type (`i64` overflow promotes a row to
    /// `Float`): the boxed per-row path builds it.
    Mixed,
}

/// `+ - * / %` over typed numeric operands, element for element what
/// [`expr::binary`] computes: integer pairs stay integer under checked
/// `+ - *` and `%`, every other pair is computed in `f64`, `/` always is.
fn arith_kernel(p: &Num<'_>, op: BinOp, q: &Num<'_>, n: usize, sel: &Sel) -> Arith {
    let valid = both_valid(p.valid(), q.valid(), n);
    let ints = p.is_int() && q.is_int();
    if matches!(op, BinOp::Div | BinOp::Mod) {
        // A zero divisor fails where both sides are non-NULL — except the
        // float remainder, which is NaN.
        let zero = |i: usize| match q {
            Num::Ints(s, _) => s[i] == 0,
            Num::Floats(s, _) => s[i] == 0.0,
            Num::Int(c) => *c == 0,
            Num::Float(c) => *c == 0.0,
        };
        if op == BinOp::Div || ints {
            for_rows!(sel, n, i => {
                if valid.get(i) && zero(i) {
                    return Arith::Fails;
                }
            });
        }
    }
    if ints && op != BinOp::Div {
        let mut out = vec![0i64; n];
        let mut overflow = false;
        i64_at!(p, |x| i64_at!(q, |y| for_rows!(sel, n, i => {
            if valid.get(i) {
                let (a, b) = (x(i), y(i));
                let r = match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    _ => Some(a.wrapping_rem(b)),
                };
                match r {
                    Some(v) => out[i] = v,
                    None => overflow = true,
                }
            }
        })));
        return if overflow {
            Arith::Mixed
        } else {
            Arith::Done(ColumnVec::Int { vals: out, valid })
        };
    }
    let vals = match op {
        BinOp::Add => float_zip(p, q, n, sel, |a, b| a + b),
        BinOp::Sub => float_zip(p, q, n, sel, |a, b| a - b),
        BinOp::Mul => float_zip(p, q, n, sel, |a, b| a * b),
        BinOp::Div => float_zip(p, q, n, sel, |a, b| a / b),
        _ => float_zip(p, q, n, sel, |a, b| a % b),
    };
    Arith::Done(ColumnVec::Float { vals, valid })
}

/// `op` with its operands swapped: `a op b` is `b mirrored(op) a`.
fn mirrored(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// Writes comparison `op` of each selected row's ordering `ord(i)` into
/// `out[i]`. The operator is picked once; each has its own loop.
#[inline]
fn cmp_rows(op: BinOp, sel: &Sel, out: &mut [bool], ord: impl Fn(usize) -> Ordering) {
    let n = out.len();
    match op {
        BinOp::Eq => for_rows!(sel, n, i => { out[i] = ord(i).is_eq(); }),
        BinOp::NotEq => for_rows!(sel, n, i => { out[i] = ord(i).is_ne(); }),
        BinOp::Lt => for_rows!(sel, n, i => { out[i] = ord(i).is_lt(); }),
        BinOp::LtEq => for_rows!(sel, n, i => { out[i] = ord(i).is_le(); }),
        BinOp::Gt => for_rows!(sel, n, i => { out[i] = ord(i).is_gt(); }),
        BinOp::GtEq => for_rows!(sel, n, i => { out[i] = ord(i).is_ge(); }),
        _ => unreachable!("not a comparison"),
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

/// Type class of an operand's non-NULL rows; `None` for boxed columns, whose
/// rows must be looked at.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Num,
    Str,
    Bool,
    Nested,
}

/// What an operand that cannot fail holds on a batch (see
/// [`BatchEval::cannot_fail`]).
#[derive(Clone, Copy, PartialEq)]
enum Holds {
    /// NULL on every row.
    Nulls,
    /// Values of one class, and NULLs.
    Only(Class),
}

impl Holds {
    /// Boolean or NULL on every row: a condition `truth` accepts.
    fn is_condition(self) -> bool {
        matches!(self, Holds::Nulls | Holds::Only(Class::Bool))
    }
}

/// What an unboxed column holds; `None` for a boxed one. A run-length
/// column decodes at the kernel boundary into its values' representation.
fn holds_of(c: &ColumnVec) -> Option<Holds> {
    match c {
        ColumnVec::Null(_) => Some(Holds::Nulls),
        ColumnVec::Int { .. } | ColumnVec::Float { .. } => Some(Holds::Only(Class::Num)),
        ColumnVec::Str(_) | ColumnVec::DictStr { .. } => Some(Holds::Only(Class::Str)),
        ColumnVec::Bool { .. } => Some(Holds::Only(Class::Bool)),
        ColumnVec::Runs { values, .. } => holds_of(values),
        ColumnVec::Objects(_) | ColumnVec::List(_) => Some(Holds::Only(Class::Nested)),
        ColumnVec::Var(_) => None,
    }
}

fn class(v: &Val<'_>) -> Option<Class> {
    match v {
        Val::Scalar(s) => match s {
            Variant::Int(_) | Variant::Float(_) => Some(Class::Num),
            Variant::Str(_) => Some(Class::Str),
            Variant::Bool(_) => Some(Class::Bool),
            Variant::Array(_) | Variant::Object(_) => Some(Class::Nested),
            Variant::Null => None,
        },
        _ => match v.col()? {
            ColumnVec::Int { .. } | ColumnVec::Float { .. } => Some(Class::Num),
            ColumnVec::Str(_) | ColumnVec::DictStr { .. } => Some(Class::Str),
            ColumnVec::Bool { .. } => Some(Class::Bool),
            ColumnVec::Objects(_) | ColumnVec::List(_) => Some(Class::Nested),
            ColumnVec::Runs { .. } | ColumnVec::Null(_) | ColumnVec::Var(_) => None,
        },
    }
}

impl<'d, 'a> BatchEval<'d, 'a> {
    /// Maps a per-dictionary-entry answer over the codes: one decision per
    /// entry instead of one per row, read from two lookup tables whose last
    /// entry answers [`NULL_CODE`].
    fn map_codes(&mut self, codes: &[u32], table: &[Tri]) -> ColumnVec {
        self.on_codes += codes.len() as u64;
        let null = table.len();
        let entry = |c: u32| (c as usize).min(null);
        let vals_of: Vec<bool> = table
            .iter()
            .map(|t| *t == Some(true))
            .chain([false])
            .collect();
        let valid_of: Vec<bool> = table.iter().map(Option::is_some).chain([false]).collect();
        ColumnVec::Bool {
            vals: codes.iter().map(|&c| vals_of[entry(c)]).collect(),
            valid: Bitmap::from_fn(codes.len(), |i| valid_of[entry(codes[i])]),
        }
    }

    /// Comparisons that never materialize dictionary strings: against a
    /// string scalar each entry is compared once, and two columns of one
    /// dictionary compare `=`/`<>` on raw codes.
    fn dict_compare(&mut self, l: &Val<'_>, op: BinOp, r: &Val<'_>) -> Option<ColumnVec> {
        if let (Some(ColumnVec::DictStr { codes, dict }), Val::Scalar(Variant::Str(s))) =
            (l.col(), r)
        {
            let table: Vec<Tri> = dict
                .iter()
                .map(|d| Some(cmp_to_bool(op, (**d).cmp(&**s))))
                .collect();
            return Some(self.map_codes(codes, &table));
        }
        if let (Val::Scalar(Variant::Str(s)), Some(ColumnVec::DictStr { codes, dict })) =
            (l, r.col())
        {
            let table: Vec<Tri> = dict
                .iter()
                .map(|d| Some(cmp_to_bool(op, (**s).cmp(&**d))))
                .collect();
            return Some(self.map_codes(codes, &table));
        }
        if let (
            Some(ColumnVec::DictStr {
                codes: lc,
                dict: ld,
            }),
            Some(ColumnVec::DictStr {
                codes: rc,
                dict: rd,
            }),
        ) = (l.col(), r.col())
        {
            if Arc::ptr_eq(ld, rd) && matches!(op, BinOp::Eq | BinOp::NotEq) {
                self.on_codes += lc.len() as u64;
                let eq = op == BinOp::Eq;
                let ok = |i: usize| lc[i] != NULL_CODE && rc[i] != NULL_CODE;
                return Some(ColumnVec::Bool {
                    vals: (0..lc.len())
                        .map(|i| ok(i) && (lc[i] == rc[i]) == eq)
                        .collect(),
                    valid: Bitmap::from_fn(lc.len(), ok),
                });
            }
        }
        None
    }

    /// Typed comparison, or `None` when the rows must be looked at one by
    /// one (boxed operands; mixed-class ordering, which fails in the row
    /// evaluator).
    fn compare(&mut self, l: &Val<'_>, op: BinOp, r: &Val<'_>, sel: &Sel) -> Option<ColumnVec> {
        if let Some(res) = self.dict_compare(l, op, r) {
            return Some(res);
        }
        let n = self.n;
        match (class(l)?, class(r)?) {
            (Class::Num, Class::Num) => {
                // A scalar goes to the right: `c < x` is `x > c`.
                let (l, op, r) = match l {
                    Val::Scalar(_) => (r, mirrored(op), l),
                    _ => (l, op, r),
                };
                let (p, q) = (num(l)?, num(r)?);
                let valid = both_valid(p.valid(), q.valid(), n);
                let mut vals = vec![false; n];
                // The same exact total order as `cmp_variants`.
                let out = &mut vals[..];
                match (&p, &q) {
                    (Num::Ints(x, _), Num::Ints(y, _)) => {
                        cmp_rows(op, sel, out, |i| x[i].cmp(&y[i]))
                    }
                    (Num::Ints(x, _), Num::Int(c)) => cmp_rows(op, sel, out, |i| x[i].cmp(c)),
                    (Num::Floats(x, _), Num::Floats(y, _)) => {
                        cmp_rows(op, sel, out, |i| cmp_f64(x[i], y[i]))
                    }
                    (Num::Floats(x, _), Num::Float(c)) => {
                        cmp_rows(op, sel, out, |i| cmp_f64(x[i], *c))
                    }
                    (Num::Ints(x, _), Num::Floats(y, _)) => {
                        cmp_rows(op, sel, out, |i| cmp_i64_f64(x[i], y[i]))
                    }
                    (Num::Ints(x, _), Num::Float(c)) => {
                        cmp_rows(op, sel, out, |i| cmp_i64_f64(x[i], *c))
                    }
                    (Num::Floats(x, _), Num::Ints(y, _)) => {
                        cmp_rows(op, sel, out, |i| cmp_i64_f64(y[i], x[i]).reverse())
                    }
                    (Num::Floats(x, _), Num::Int(c)) => {
                        cmp_rows(op, sel, out, |i| cmp_i64_f64(*c, x[i]).reverse())
                    }
                    _ => unreachable!("two scalars fold before they are compared"),
                }
                Some(ColumnVec::Bool { vals, valid })
            }
            (Class::Str, Class::Str) => {
                // Shapes the dictionary paths left (dictionary against plain
                // column, ordering across dictionaries) materialize.
                let (ld, rd) = (self.materialize_dict(l), self.materialize_dict(r));
                let a = match &ld {
                    Some(v) => StrSide::Col(v),
                    None => str_side(l)?,
                };
                let b = match &rd {
                    Some(v) => StrSide::Col(v),
                    None => str_side(r)?,
                };
                Some(tri_column(n, sel, |i| match (a.at(i), b.at(i)) {
                    (Some(x), Some(y)) => Some(cmp_to_bool(op, x.cmp(y))),
                    _ => None,
                }))
            }
            (Class::Bool, Class::Bool) => {
                let (a, b) = (bool_side(l, n, sel)?, bool_side(r, n, sel)?);
                Some(tri_column(n, sel, |i| match (a.at(i), b.at(i)) {
                    (Some(x), Some(y)) => Some(cmp_to_bool(op, x.cmp(&y))),
                    _ => None,
                }))
            }
            (Class::Nested, Class::Nested) => None,
            _ => {
                // Across classes `=` is false and `<>` true where both sides
                // are non-NULL; ordering fails.
                let res = match op {
                    BinOp::Eq => false,
                    BinOp::NotEq => true,
                    _ => return None,
                };
                Some(tri_column(n, sel, |i| {
                    (!l.is_null_at(i) && !r.is_null_at(i)).then_some(res)
                }))
            }
        }
    }

    /// The decoded strings of a dictionary operand, counted as materialized.
    fn materialize_dict(&mut self, v: &Val<'_>) -> Option<Vec<Option<Arc<str>>>> {
        let ColumnVec::DictStr { codes, dict } = v.col()? else {
            return None;
        };
        self.materialized += codes.len() as u64;
        Some(
            codes
                .iter()
                .map(|&c| (c != NULL_CODE).then(|| dict[c as usize].clone()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Guards: operands evaluated under a narrowed selection
// ---------------------------------------------------------------------------

/// The rows one operand of a guard supplies to the guard's result.
struct Part<'a> {
    sel: Sel,
    val: V<'a>,
}

/// The type every non-NULL row of a merged result will have, when the parts
/// agree on one.
#[derive(PartialEq)]
enum Typed {
    Unknown,
    Int,
    Float,
    Bool,
    Boxed,
}

impl<'d, 'a> BatchEval<'d, 'a> {
    /// Three-valued `AND`/`OR`: the right operand is evaluated on the rows
    /// the left one leaves undecided. Either operand must be boolean or NULL
    /// on the rows it is evaluated on, as in the row evaluator. A right
    /// operand that [cannot fail](BatchEval::cannot_fail) on this batch is
    /// evaluated on the left operand's rows instead, and the two are combined
    /// without a row list: where the left one decides, the right one's value
    /// is computed and not read, which nothing can observe.
    fn logic(&mut self, op: BinOp, args: &[NodeId], sel: &Sel) -> Option<V<'a>> {
        let n = self.n;
        // The value that decides the result alone.
        let decisive = op == BinOp::Or;
        let l = self.value(args[0], sel)?;
        let a = bool_side(&l, n, sel)?;
        let out = if self.cannot_fail(args[1]).is_some_and(Holds::is_condition) {
            let r = self.value(args[1], sel)?;
            combine(decisive, &a, &bool_side(&r, n, sel)?, n, sel)
        } else {
            let open = self.filter_sel(sel, |i| a.at(i) != Some(decisive));
            let r = self.value(args[1], &open)?;
            let b = bool_side(&r, n, &open)?;
            tri_column(n, sel, |i| match a.at(i) {
                Some(x) if x == decisive => Some(decisive),
                x => match (x, b.at(i)) {
                    (_, Some(y)) if y == decisive => Some(decisive),
                    (Some(_), Some(y)) => Some(y),
                    _ => None,
                },
            })
        };
        self.release(args[0]);
        self.release(args[1]);
        Some(Rc::new(Val::Own(out)))
    }

    /// What node `id` holds on this batch when evaluating it cannot fail on
    /// any row and has no effect; `None` when it might fail. Such a node is
    /// a tree of `=`, `<>`, `<`, `<=`, `>`, `>=`, `AND`, `OR`, `NOT` and `IS
    /// [NOT] NULL` over scalar literals, unboxed columns — a run-length
    /// column by the class of its values — and one-key field steps into
    /// shredded records (`V:PT`, by its field column), whose ordering
    /// comparisons stay within one class: the kernels decline no row of it,
    /// and the row evaluator fails on none.
    fn cannot_fail(&self, id: NodeId) -> Option<Holds> {
        let args = self.dag.args(id);
        match self.dag.op(id) {
            DagOp::Col(i) => holds_of(self.inp.cols.get(i)?),
            DagOp::Lit(v) => match v {
                Variant::Null => Some(Holds::Nulls),
                Variant::Int(_) | Variant::Float(_) => Some(Holds::Only(Class::Num)),
                Variant::Str(_) => Some(Holds::Only(Class::Str)),
                Variant::Bool(_) => Some(Holds::Only(Class::Bool)),
                Variant::Array(_) | Variant::Object(_) => None,
            },
            DagOp::Binary(
                op @ (BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq),
            ) => {
                let (x, y) = (self.cannot_fail(args[0])?, self.cannot_fail(args[1])?);
                let across = matches!(op, BinOp::Eq | BinOp::NotEq);
                (across || x == y || x == Holds::Nulls || y == Holds::Nulls)
                    .then_some(Holds::Only(Class::Bool))
            }
            DagOp::Binary(BinOp::And | BinOp::Or) => {
                let (x, y) = (self.cannot_fail(args[0])?, self.cannot_fail(args[1])?);
                (x.is_condition() && y.is_condition()).then_some(Holds::Only(Class::Bool))
            }
            DagOp::Not => {
                let x = self.cannot_fail(args[0])?;
                x.is_condition().then_some(Holds::Only(Class::Bool))
            }
            DagOp::IsNull { .. } => self.cannot_fail(args[0]).map(|_| Holds::Only(Class::Bool)),
            // One field of shredded records is a column of the input, or
            // NULL where the records lack the key.
            DagOp::Path([PStep::Field(f)]) if args.len() == 1 => match self.dag.op(args[0]) {
                DagOp::Col(i) => match self.inp.cols.get(i)? {
                    ColumnVec::Objects(r) => r.field(f).map_or(Some(Holds::Nulls), holds_of),
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        }
    }

    /// `IFF(cond, then, otherwise)`: each branch on the rows that take it.
    fn iff(&mut self, args: &[NodeId], sel: &Sel) -> Option<V<'a>> {
        let n = self.n;
        let c = self.value(args[0], sel)?;
        let cond = bool_side(&c, n, sel)?;
        let then_sel = self.filter_sel(sel, |i| cond.at(i) == Some(true));
        let else_sel = self.filter_sel(sel, |i| cond.at(i) != Some(true));
        let parts = vec![
            Part {
                val: self.value(args[1], &then_sel)?,
                sel: then_sel,
            },
            Part {
                val: self.value(args[2], &else_sel)?,
                sel: else_sel,
            },
        ];
        for &a in args {
            self.release(a);
        }
        Some(self.merge(parts, sel))
    }

    /// `COALESCE`/`NVL`: each argument on the rows where all earlier ones
    /// were NULL. Lists or an empty array — `NVL(list, [])`, the flag-column
    /// translation's default for a nested query that kept nothing — stay a
    /// list: its NULL rows become valid and empty.
    fn coalesce(&mut self, args: &[NodeId], sel: &Sel) -> Option<V<'a>> {
        if let [list, empty] = *args {
            let empty_array = matches!(self.dag.op(empty),
                DagOp::Lit(v) if v.as_array().is_some_and(<[Variant]>::is_empty));
            if empty_array {
                let v = self.value(list, sel)?;
                if let Some(ColumnVec::List(l)) = v.col() {
                    let out = match l.valid.all_valid() {
                        true => v.clone(),
                        false => Rc::new(Val::Own(ColumnVec::List(l.filled()))),
                    };
                    self.release(list);
                    self.release(empty);
                    return Some(out);
                }
            }
        }
        let mut open = sel.clone();
        let mut parts = Vec::with_capacity(args.len());
        for &a in args {
            if open.is_empty() {
                break;
            }
            let v = self.value(a, &open)?;
            let rest = self.filter_sel(&open, |i| v.is_null_at(i));
            parts.push(Part { val: v, sel: open });
            open = rest;
        }
        for &a in args {
            self.release(a);
        }
        // A part's NULL rows are overwritten by the later parts that cover
        // them, or stay NULL.
        Some(self.merge(parts, sel))
    }

    /// `CASE`: each `WHEN` on the rows no earlier branch took, each `THEN` on
    /// the rows its `WHEN` took.
    fn case(
        &mut self,
        operand: bool,
        else_expr: bool,
        args: &[NodeId],
        sel: &Sel,
    ) -> Option<V<'a>> {
        let n = self.n;
        let subject = if operand {
            Some(self.value(args[0], sel)?)
        } else {
            None
        };
        let branches = &args[usize::from(operand)..args.len() - usize::from(else_expr)];
        let mut open = sel.clone();
        let mut parts = Vec::new();
        for pair in branches.chunks_exact(2) {
            if open.is_empty() {
                break;
            }
            let when = self.value(pair[0], &open)?;
            let (mut t1, mut t2) = (Variant::Null, Variant::Null);
            let mut hit_rows = Vec::new();
            let mut miss_rows = Vec::new();
            for_rows!(&open, n, i => {
                let hit = match &subject {
                    Some(s) => {
                        if s.boxes() {
                            t1 = s.get(i);
                        }
                        if when.boxes() {
                            t2 = when.get(i);
                        }
                        let (x, y) = (cell(s, i, &t1), cell(&when, i, &t2));
                        !x.is_null() && !y.is_null() && x == y
                    }
                    // Anything but TRUE is a miss, not an error.
                    None => {
                        if when.boxes() {
                            t2 = when.get(i);
                        }
                        matches!(cell(&when, i, &t2), Variant::Bool(true))
                    }
                };
                if hit { hit_rows.push(i as u32) } else { miss_rows.push(i as u32) }
            });
            let hits = self.narrow(&open, hit_rows);
            let rest = self.narrow(&open, miss_rows);
            parts.push(Part {
                val: self.value(pair[1], &hits)?,
                sel: hits,
            });
            open = rest;
        }
        if else_expr {
            let v = self.value(args[args.len() - 1], &open)?;
            parts.push(Part { val: v, sel: open });
        }
        for &a in args {
            self.release(a);
        }
        Some(self.merge(parts, sel))
    }

    /// Assembles a guard's result from its parts: row `i` of the result is
    /// row `i` of the last part whose selection holds `i` and whose value
    /// there is not NULL; rows no part supplies are NULL.
    fn merge(&mut self, parts: Vec<Part<'a>>, sel: &Sel) -> V<'a> {
        let n = self.n;
        let parts: Vec<Part<'a>> = parts.into_iter().filter(|p| !p.sel.is_empty()).collect();
        // One operand supplied every row: it is the result.
        if let [only] = &parts[..] {
            if only.sel.id == sel.id {
                return only.val.clone();
            }
        }
        // One shredded operand among NULLs — `IFF(flag, VALUE, NULL)`, the
        // flag-column translation's shape — is that column where its rows
        // were taken and NULL elsewhere: a gather, not a box per row.
        let mut live = parts.iter().filter(|p| !p.val.all_null());
        if let (Some(p), None) = (live.next(), live.next()) {
            if let Some(col @ (ColumnVec::Objects(_) | ColumnVec::List(_))) = p.val.col() {
                let mut idx = vec![None; n];
                for_rows!(&p.sel, n, i => {
                    idx[i] = Some(i);
                });
                return Rc::new(Val::Own(col.gather_opt(&idx)));
            }
        }
        let mut ty = Typed::Unknown;
        for p in &parts {
            let t = match &*p.val {
                Val::Scalar(Variant::Null) => continue,
                Val::Scalar(Variant::Int(_)) => Typed::Int,
                Val::Scalar(Variant::Float(_)) => Typed::Float,
                Val::Scalar(Variant::Bool(_)) => Typed::Bool,
                Val::Scalar(_) => Typed::Boxed,
                v => match v.col() {
                    Some(ColumnVec::Null(_)) => continue,
                    Some(ColumnVec::Int { .. }) => Typed::Int,
                    Some(ColumnVec::Float { .. }) => Typed::Float,
                    Some(ColumnVec::Bool { .. }) => Typed::Bool,
                    _ => Typed::Boxed,
                },
            };
            if ty == Typed::Unknown {
                ty = t;
            } else if ty != t {
                ty = Typed::Boxed;
            }
        }
        /// Copies the non-NULL selected rows of typed parts into one column.
        macro_rules! typed_merge {
            ($variant:ident, $zero:expr) => {{
                let mut vals = vec![$zero; n];
                let mut valid = Bitmap::nulls(n);
                for p in &parts {
                    match &*p.val {
                        Val::Scalar(Variant::$variant(c)) => for_rows!(&p.sel, n, i => {
                            vals[i] = *c;
                            valid.set(i);
                        }),
                        v => {
                            if let Some(ColumnVec::$variant { vals: src, valid: ok }) = v.col() {
                                for_rows!(&p.sel, n, i => {
                                    if ok.get(i) {
                                        vals[i] = src[i];
                                        valid.set(i);
                                    }
                                });
                            }
                        }
                    }
                }
                ColumnVec::$variant { vals, valid }
            }};
        }
        let col = match ty {
            Typed::Unknown => ColumnVec::Null(n),
            Typed::Int => typed_merge!(Int, 0i64),
            Typed::Float => typed_merge!(Float, 0.0f64),
            Typed::Bool => typed_merge!(Bool, false),
            Typed::Boxed => {
                self.note_encoded_operands(
                    &parts.iter().map(|p| p.val.clone()).collect::<Vec<_>>(),
                );
                let mut vals = vec![Variant::Null; n];
                for p in &parts {
                    for_rows!(&p.sel, n, i => {
                        if !p.val.is_null_at(i) {
                            vals[i] = p.val.get(i);
                        }
                    });
                }
                ColumnVec::from_variants(vals)
            }
        };
        Rc::new(Val::Own(col))
    }

    /// `expr [NOT] IN (items)`. An all-literal list over a dictionary column
    /// is decided once per dictionary entry; otherwise each item is
    /// evaluated on the rows that have a non-NULL `expr` and no match yet.
    fn in_list(&mut self, negated: bool, args: &[NodeId], sel: &Sel) -> Option<V<'a>> {
        let n = self.n;
        let v = self.value(args[0], sel)?;
        let lits: Option<Vec<&Variant>> = args[1..]
            .iter()
            .map(|&a| {
                if let DagOp::Lit(l) = self.dag.op(a) {
                    Some(l)
                } else {
                    None
                }
            })
            .collect();
        if let (Some(lits), Some(ColumnVec::DictStr { codes, dict })) = (&lits, v.col()) {
            let has_null = lits.iter().any(|l| l.is_null());
            let table: Vec<Tri> = dict
                .iter()
                .map(|d| {
                    if lits.iter().any(|l| l.as_str() == Some(&**d)) {
                        Some(!negated)
                    } else if has_null {
                        None
                    } else {
                        Some(negated)
                    }
                })
                .collect();
            let out = self.map_codes(codes, &table);
            self.release(args[0]);
            return Some(Rc::new(Val::Own(out)));
        }
        self.note_encoded_operands(std::slice::from_ref(&v));
        // Per row: None while undecided, then the answer.
        let mut found = vec![false; n];
        let mut saw_null = vec![false; n];
        let mut open = self.filter_sel(sel, |i| !v.is_null_at(i));
        let subject_rows = open.clone();
        for &item in &args[1..] {
            if open.is_empty() {
                break;
            }
            let iv = self.value(item, &open)?;
            let (mut t1, mut t2) = (Variant::Null, Variant::Null);
            let mut rest = Vec::new();
            for_rows!(&open, n, i => {
                if v.boxes() {
                    t1 = v.get(i);
                }
                if iv.boxes() {
                    t2 = iv.get(i);
                }
                let (x, y) = (cell(&v, i, &t1), cell(&iv, i, &t2));
                if y.is_null() {
                    saw_null[i] = true;
                    rest.push(i as u32);
                } else if x == y {
                    found[i] = true;
                } else {
                    rest.push(i as u32);
                }
            });
            open = self.narrow(&open, rest);
        }
        let out = tri_column(n, &subject_rows, |i| {
            if found[i] {
                Some(!negated)
            } else if saw_null[i] {
                None
            } else {
                Some(negated)
            }
        });
        for &a in args {
            self.release(a);
        }
        Some(Rc::new(Val::Own(out)))
    }

    /// A variant path. Field and constant-index steps walk each row's value
    /// by reference and clone only the leaf; an index expression is evaluated
    /// on the rows whose value is not NULL when the step is reached.
    fn path(&mut self, steps: &[PStep], args: &[NodeId], sel: &Sel) -> Option<V<'a>> {
        let n = self.n;
        let base = self.value(args[0], sel)?;
        if args.len() == 1 {
            let picked = match &*base {
                Val::Col(c) => match pick_path(c, steps) {
                    Some(Picked::Ref(p)) => Some(Val::Col(p)),
                    Some(Picked::Own(p)) => Some(Val::Own(p)),
                    None => None,
                },
                Val::Own(c) => pick_path(c, steps).map(|p| match p {
                    Picked::Ref(p) => Val::Own(p.clone()),
                    Picked::Own(p) => Val::Own(p),
                }),
                Val::Scalar(_) => None,
            };
            if let Some(v) = picked {
                self.release(args[0]);
                return Some(Rc::new(v));
            }
        }
        let spread;
        let boxed: &[Variant] = match &*base {
            Val::Scalar(s) if args.len() == 1 => {
                let mut v = s;
                for st in steps {
                    v = match st {
                        PStep::Field(f) => v.field_ref(f),
                        PStep::Index(i) => v.index_ref(*i),
                        PStep::IndexExpr(_) => unreachable!("no index operand"),
                    };
                }
                self.release(args[0]);
                return Some(Rc::new(Val::Scalar(v.clone())));
            }
            Val::Scalar(s) => {
                spread = vec![s.clone(); n];
                &spread
            }
            v => match v.col() {
                Some(ColumnVec::Var(x)) => x,
                // Numbers, booleans and strings have no fields and no
                // elements: every step yields NULL.
                _ if args.len() == 1 => {
                    self.release(args[0]);
                    return Some(Rc::new(Val::Own(ColumnVec::Null(n))));
                }
                // ... but an index expression is still evaluated on their
                // non-NULL rows, and may fail there. Shredded records box.
                Some(typed) => {
                    if typed.is_encoded() {
                        self.materialized += typed.len() as u64;
                    }
                    spread = typed.clone().into_variants();
                    &spread
                }
                None => unreachable!("scalars matched above"),
            },
        };
        let mut out = Gaps::new(n);
        if args.len() == 1 {
            for_rows!(sel, n, i => {
                let mut v = &boxed[i];
                for st in steps {
                    v = match st {
                        PStep::Field(f) => v.field_ref(f),
                        PStep::Index(ix) => v.index_ref(*ix),
                        PStep::IndexExpr(_) => unreachable!("no index operand"),
                    };
                }
                out.push(i, v.clone());
            });
        } else {
            let mut cur: Vec<&Variant> = boxed.iter().collect();
            let mut next_arg = 1;
            for st in steps {
                match st {
                    PStep::Field(f) => for_rows!(sel, n, i => { cur[i] = cur[i].field_ref(f); }),
                    PStep::Index(ix) => for_rows!(sel, n, i => { cur[i] = cur[i].index_ref(*ix); }),
                    PStep::IndexExpr(_) => {
                        let live = self.filter_sel(sel, |i| !cur[i].is_null());
                        let ix = self.value(args[next_arg], &live)?;
                        next_arg += 1;
                        for_rows!(&live, n, i => {
                            cur[i] = match ix.get(i).as_i64() {
                                Some(k) => cur[i].index_ref(k),
                                None => &Variant::Null,
                            };
                        });
                    }
                }
            }
            for_rows!(sel, n, i => { out.push(i, cur[i].clone()); });
        }
        for &a in args {
            self.release(a);
        }
        Some(Rc::new(Val::Own(out.finish())))
    }
}

/// A path's result over a shredded column: a column of the input, or one
/// built for the path.
enum Picked<'c> {
    Ref(&'c ColumnVec),
    Own(ColumnVec),
}

/// Field and constant-index steps over shredded records, without boxing: a
/// field of records is that field's column, element `i` of lists gathers
/// item `i` of every row that has one, and every other step — a field of a
/// list, an element of a record, anything of a scalar — is NULL, as the row
/// evaluator's `field_ref`/`index_ref` say. `None` when the column is not
/// shredded.
fn pick_path<'c>(col: &'c ColumnVec, steps: &[PStep]) -> Option<Picked<'c>> {
    let n = col.len();
    let picked = match (col, steps.first()?) {
        (ColumnVec::Objects(r), PStep::Field(f)) => match r.field(f) {
            Some(field) => Picked::Ref(field),
            None => Picked::Own(ColumnVec::Null(n)),
        },
        (ColumnVec::List(l), PStep::Index(i)) => {
            let idx: Vec<Option<usize>> = (0..n)
                .map(|r| {
                    let range = l.range(r);
                    usize::try_from(*i)
                        .ok()
                        .filter(|&i| i < range.len())
                        .map(|i| range.start + i)
                })
                .collect();
            Picked::Own(ColumnVec::Objects(l.items.gather_opt(&idx)))
        }
        (ColumnVec::Objects(_), PStep::Index(_)) | (ColumnVec::List(_), PStep::Field(_)) => {
            Picked::Own(ColumnVec::Null(n))
        }
        _ => return None,
    };
    let rest = &steps[1..];
    if rest.is_empty() {
        return Some(picked);
    }
    let deeper = match picked {
        Picked::Ref(c) => pick_path(c, rest),
        Picked::Own(c) => pick_path(&c, rest).map(|p| match p {
            Picked::Ref(p) => Picked::Own(p.clone()),
            Picked::Own(p) => Picked::Own(p),
        }),
    };
    // A scalar field has neither fields nor elements.
    Some(deeper.unwrap_or(Picked::Own(ColumnVec::Null(n))))
}

/// `ARRAY_SIZE` of lists is a range length, and `ARRAY_CAT` of two
/// lists whose items have one shape is a list: per row the first list's
/// items, then the second's, one typed gather. `OBJECT_CONSTRUCT` with
/// distinct literal string keys over plain scalar columns or literals is
/// records whose fields are those columns: a NULL value is a `key: null`
/// field, as the row evaluator keeps it. `None` for any other operands.
fn list_kernel(f: FuncId, a: &[V<'_>], n: usize) -> Option<ColumnVec> {
    match (f, a) {
        (FuncId::ObjectConstruct, _) if a.len().is_multiple_of(2) => {
            let mut keys: Vec<Arc<str>> = Vec::with_capacity(a.len() / 2);
            let mut fields = Vec::with_capacity(a.len() / 2);
            for pair in a.chunks_exact(2) {
                let Val::Scalar(Variant::Str(key)) = &*pair[0] else {
                    return None;
                };
                if keys.contains(key) {
                    return None;
                }
                let field = match &*pair[1] {
                    Val::Scalar(Variant::Array(_) | Variant::Object(_)) => return None,
                    Val::Scalar(v) => broadcast(v, n),
                    v => match v.col()? {
                        c @ (ColumnVec::Null(_)
                        | ColumnVec::Int { .. }
                        | ColumnVec::Float { .. }
                        | ColumnVec::Bool { .. }
                        | ColumnVec::Str(_)) => c.clone(),
                        _ => return None,
                    },
                };
                keys.push(key.clone());
                fields.push(field);
            }
            Some(ColumnVec::Objects(Records {
                keys: keys.into(),
                fields,
                valid: Bitmap::ones(n),
            }))
        }
        (FuncId::ArraySize, [x]) => {
            let ColumnVec::List(l) = x.col()? else {
                return None;
            };
            Some(ColumnVec::Int {
                vals: (0..l.len()).map(|r| l.range(r).len() as i64).collect(),
                valid: l.valid.clone(),
            })
        }
        (FuncId::ArrayCat, [x, y]) => {
            let (ColumnVec::List(p), ColumnVec::List(q)) = (x.col()?, y.col()?) else {
                return None;
            };
            if !p.items.same_shape(&q.items) {
                return None;
            }
            // The items both sides hold, first side first, then each row's
            // two runs of them put next to each other.
            let (mut both, p_at) = p.packed();
            let (q_items, q_at) = q.packed();
            both.to_mut().append(q_items.into_owned());
            let base = p_at[p.len()];
            let valid = p.valid.and(&q.valid);
            let mut offsets = Vec::with_capacity(p.len() + 1);
            let mut idx = Vec::with_capacity(both.len());
            offsets.push(0u32);
            for r in 0..p.len() {
                if valid.get(r) {
                    idx.extend(p_at[r] as usize..p_at[r + 1] as usize);
                    idx.extend((base + q_at[r]) as usize..(base + q_at[r + 1]) as usize);
                }
                offsets.push(idx.len() as u32);
            }
            Some(ColumnVec::List(RecordLists::from_offsets(
                &offsets,
                valid,
                both.gather(&idx),
            )))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{eval, ExecCtx, RowView};
    use crate::plan::PExpr;
    use crate::sql::UnaryOp;

    fn eval_vec(e: &PExpr, inp: &Chunk) -> Option<ColumnVec> {
        let dag = ExprDag::compile([e]);
        dag.eval(inp, 0, None)
            .map(|mut cols| cols.pop().expect("one root").into_owned())
    }

    /// The batch result, checked against the row evaluator on every row; a
    /// decline is checked to be one the row evaluator justifies.
    fn checked(e: &PExpr, inp: &Chunk) -> Option<ColumnVec> {
        let mut ctx = ExecCtx::default();
        let serial: Vec<crate::error::Result<Variant>> = (0..inp.rows)
            .map(|r| {
                let parts = [(inp, r)];
                eval(e, RowView::new(&parts), &mut ctx)
            })
            .collect();
        let col = eval_vec(e, inp);
        match &col {
            Some(col) => {
                assert_eq!(col.len(), inp.rows, "column length for {e:?}");
                for (r, want) in serial.iter().enumerate() {
                    let want = want.as_ref().unwrap_or_else(|err| {
                        panic!("the DAG answered where row {r} fails ({err}): {e:?}")
                    });
                    assert_eq!(
                        format!("{:?}", col.get(r)),
                        format!("{want:?}"),
                        "row {r} of {e:?}"
                    );
                }
            }
            None => assert!(
                serial.iter().any(|r| r.is_err()),
                "needless decline of {e:?}"
            ),
        }
        col
    }

    fn chunk(cols: Vec<Vec<Variant>>) -> Chunk {
        let rows = cols.first().map_or(0, Vec::len);
        Chunk {
            cols: cols.into_iter().map(ColumnVec::from_variants).collect(),
            rows,
        }
    }

    fn bin(l: PExpr, op: BinOp, r: PExpr) -> PExpr {
        PExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    fn func(f: FuncId, args: Vec<PExpr>) -> PExpr {
        PExpr::Func { f, args }
    }

    fn lit(v: impl Into<Variant>) -> PExpr {
        PExpr::Lit(v.into())
    }

    #[test]
    fn comparisons_are_exact_beyond_2_pow_53() {
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
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            for e in [
                bin(PExpr::Col(0), op, PExpr::Col(1)),
                bin(PExpr::Col(1), op, PExpr::Col(0)),
                bin(PExpr::Col(0), op, lit(1.0)),
            ] {
                assert!(checked(&e, &inp).is_some(), "{e:?}");
            }
        }
        let e = bin(PExpr::Col(0), BinOp::Eq, PExpr::Col(1));
        assert_eq!(checked(&e, &inp).unwrap().get(1), Variant::Bool(false));
    }

    #[test]
    fn integer_overflow_promotes_single_rows_to_float() {
        let inp = chunk(vec![
            vec![
                Variant::Int(i64::MAX),
                Variant::Int(2),
                Variant::Null,
                Variant::Int(i64::MIN),
            ],
            vec![
                Variant::Int(1),
                Variant::Int(3),
                Variant::Int(4),
                Variant::Int(-1),
            ],
        ]);
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Mod] {
            assert!(
                checked(&bin(PExpr::Col(0), op, PExpr::Col(1)), &inp).is_some(),
                "{op:?}"
            );
        }
        let col = checked(&bin(PExpr::Col(0), BinOp::Add, PExpr::Col(1)), &inp).unwrap();
        assert_eq!(col.get(0), Variant::Float(i64::MAX as f64 + 1.0));
        assert_eq!(col.get(1), Variant::Int(5));
        // i64::MIN has no negation and no absolute value in i64.
        let neg = PExpr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(PExpr::Col(0)),
        };
        assert_eq!(
            checked(&neg, &inp).unwrap().get(3),
            Variant::Float(-(i64::MIN as f64))
        );
        assert!(checked(&func(FuncId::Abs, vec![PExpr::Col(0)]), &inp).is_some());
    }

    #[test]
    fn zero_divisors_decline_and_guards_keep_them_from_being_reached() {
        let inp = chunk(vec![
            vec![
                Variant::Int(4),
                Variant::Int(0),
                Variant::Null,
                Variant::Int(2),
            ],
            vec![
                Variant::Float(1.0),
                Variant::Float(2.0),
                Variant::Float(3.0),
                Variant::Null,
            ],
        ]);
        let div = bin(PExpr::Col(1), BinOp::Div, PExpr::Col(0));
        assert!(checked(&div, &inp).is_none(), "row 1 divides by zero");
        // NULL / 0 and 0 / NULL are NULL, not errors.
        let nulls = chunk(vec![
            vec![Variant::Int(0), Variant::Null],
            vec![Variant::Null, Variant::Float(0.0)],
        ]);
        assert!(checked(&bin(PExpr::Col(1), BinOp::Div, PExpr::Col(0)), &nulls).is_some());
        let zero = bin(PExpr::Col(0), BinOp::Eq, lit(0i64));
        for guarded in [
            func(
                FuncId::Iff,
                vec![zero.clone(), lit(Variant::Null), div.clone()],
            ),
            bin(
                PExpr::Not(Box::new(zero.clone())),
                BinOp::And,
                bin(div.clone(), BinOp::Gt, lit(0.3)),
            ),
            bin(
                zero.clone(),
                BinOp::Or,
                bin(div.clone(), BinOp::Gt, lit(0.3)),
            ),
            PExpr::Case {
                operand: None,
                branches: vec![(zero.clone(), lit(-1.0))],
                else_expr: Some(Box::new(div.clone())),
            },
            func(
                FuncId::Coalesce,
                vec![
                    func(FuncId::NullIf, vec![PExpr::Col(0), lit(4i64)]),
                    div.clone(),
                ],
            ),
        ] {
            let got = checked(&guarded, &inp);
            // COALESCE reaches the division on row 0 only (4 / 4's NULLIF).
            assert!(got.is_some(), "{guarded:?}");
        }
        // The float remainder by zero is NaN; the integer one fails.
        assert!(checked(&bin(PExpr::Col(1), BinOp::Mod, lit(0.0)), &inp).is_some());
        assert!(checked(&bin(PExpr::Col(0), BinOp::Mod, lit(0i64)), &inp).is_none());
    }

    #[test]
    fn a_shared_subexpression_is_computed_for_its_widest_reader() {
        // SQRT(x) is read under a guard and, by the second root, everywhere.
        let inp = chunk(vec![vec![
            Variant::Float(4.0),
            Variant::Float(9.0),
            Variant::Null,
        ]]);
        let root = func(FuncId::Sqrt, vec![PExpr::Col(0)]);
        let guarded = func(
            FuncId::Iff,
            vec![
                bin(PExpr::Col(0), BinOp::Gt, lit(5.0)),
                root.clone(),
                lit(0.0),
            ],
        );
        let exprs = [guarded, root];
        let dag = ExprDag::compile(&exprs);
        let cols = dag.eval(&inp, 0, None).unwrap();
        assert_eq!(cols[0].get(0), Variant::Float(0.0));
        assert_eq!(cols[0].get(1), Variant::Float(3.0));
        assert_eq!(cols[0].get(2), Variant::Float(0.0));
        assert_eq!(cols[1].get(0), Variant::Float(2.0));
        assert!(cols[1].is_null_at(2));
    }

    #[test]
    fn conditions_must_be_boolean_where_they_are_evaluated() {
        let inp = chunk(vec![
            vec![Variant::Bool(false), Variant::Bool(true), Variant::Null],
            vec![Variant::Int(1), Variant::Int(2), Variant::Int(3)],
            vec![Variant::str("x"), Variant::Bool(true), Variant::Null],
        ]);
        // The right operand is an integer, but only where the left decided.
        assert!(checked(&bin(PExpr::Col(0), BinOp::And, PExpr::Col(1)), &inp).is_none());
        let all_false = chunk(vec![
            vec![Variant::Bool(false), Variant::Bool(false)],
            vec![Variant::Int(1), Variant::Int(2)],
        ]);
        assert!(checked(&bin(PExpr::Col(0), BinOp::And, PExpr::Col(1)), &all_false).is_some());
        // A boxed condition is checked row by row, on the selected rows.
        assert!(checked(&bin(PExpr::Col(0), BinOp::Or, PExpr::Col(2)), &inp).is_none());
        assert!(checked(&bin(PExpr::Col(0), BinOp::And, PExpr::Col(2)), &inp).is_some());
        assert!(checked(&PExpr::Not(Box::new(PExpr::Col(1))), &inp).is_none());
        // Mixed-class ordering fails in the row evaluator; equality does not.
        assert!(checked(&bin(PExpr::Col(1), BinOp::Lt, PExpr::Col(0)), &inp).is_none());
        assert!(checked(&bin(PExpr::Col(1), BinOp::Eq, PExpr::Col(0)), &inp).is_some());
    }

    #[test]
    fn paths_functions_and_constructors_over_nested_columns() {
        let mut o1 = crate::variant::Object::new();
        o1.insert("a", Variant::array(vec![Variant::Int(1), Variant::Int(2)]));
        o1.insert("pt", Variant::Float(2.5));
        let mut o2 = crate::variant::Object::new();
        o2.insert("pt", Variant::Int(9));
        let inp = chunk(vec![
            vec![
                Variant::object(o1),
                Variant::object(o2),
                Variant::Null,
                Variant::Int(3),
            ],
            vec![
                Variant::Int(0),
                Variant::Int(1),
                Variant::Int(7),
                Variant::Null,
            ],
        ]);
        let path = |steps: Vec<PStep>| PExpr::Path {
            base: Box::new(PExpr::Col(0)),
            steps,
        };
        let pt = path(vec![PStep::Field("pt".into())]);
        for e in [
            path(vec![PStep::Field("a".into()), PStep::Index(1)]),
            path(vec![
                PStep::Field("a".into()),
                PStep::IndexExpr(Box::new(PExpr::Col(1))),
            ]),
            // Mixed Int/Float leaves: a boxed column under typed math.
            func(FuncId::Sqrt, vec![pt.clone()]),
            bin(pt.clone(), BinOp::Mul, func(FuncId::Cos, vec![pt.clone()])),
            func(
                FuncId::ArraySize,
                vec![path(vec![PStep::Field("a".into())])],
            ),
            func(
                FuncId::Get,
                vec![path(vec![PStep::Field("a".into())]), PExpr::Col(1)],
            ),
            func(
                FuncId::ObjectConstruct,
                vec![
                    lit("k"),
                    pt.clone(),
                    lit("n"),
                    func(FuncId::TypeOf, vec![pt.clone()]),
                ],
            ),
            func(
                FuncId::ArrayConstruct,
                vec![pt.clone(), PExpr::Col(1), lit(Variant::Null)],
            ),
            PExpr::Cast {
                expr: Box::new(pt.clone()),
                ty: CastType::Int,
            },
            PExpr::Cast {
                expr: Box::new(PExpr::Col(1)),
                ty: CastType::Str,
            },
        ] {
            assert!(checked(&e, &inp).is_some(), "{e:?}");
        }
        // A path over a typed column is all NULL; its index expression is
        // still evaluated where the value is not.
        let bad_index = PExpr::Path {
            base: Box::new(PExpr::Col(1)),
            steps: vec![PStep::IndexExpr(Box::new(bin(
                lit(1i64),
                BinOp::Div,
                lit(0i64),
            )))],
        };
        assert!(checked(&bad_index, &inp).is_none());
    }

    /// Field and index picks, `ARRAY_SIZE`, `ARRAY_CAT` and a guard over
    /// shredded columns answer what the row evaluator answers over the
    /// values they rebuild, without boxing a row; a kernel with no shredded
    /// loop boxes them and counts the rows.
    #[test]
    fn shredded_columns_pick_size_and_concatenate_natively() {
        let record = |q: i64, pt: Variant| {
            let mut o = crate::variant::Object::new();
            o.insert("Q", Variant::Int(q));
            o.insert("PT", pt);
            Variant::object(o)
        };
        let lists: Vec<Variant> = (0..6)
            .map(|i| match i % 3 {
                0 => Variant::Null,
                1 => Variant::array(Vec::new()),
                _ => Variant::array(
                    (0..i)
                        .map(|j| record(j, Variant::Float(j as f64)))
                        .collect(),
                ),
            })
            .collect();
        let objects: Vec<Variant> = (0..6)
            .map(|i| {
                if i == 3 {
                    Variant::Null
                } else {
                    record(
                        i,
                        if i == 4 {
                            Variant::Null
                        } else {
                            Variant::Float(0.5)
                        },
                    )
                }
            })
            .collect();
        let shred = |v: Vec<Variant>| crate::storage::encode::encode_column(ColumnVec::Var(v));
        let inp = Chunk {
            cols: vec![
                shred(lists),
                shred(objects),
                ColumnVec::from_variants((0..6).map(|i| Variant::Bool(i % 2 == 0)).collect()),
            ],
            rows: 6,
        };
        assert!(
            matches!(inp.cols[0], ColumnVec::List(_))
                && matches!(inp.cols[1], ColumnVec::Objects(_))
        );
        let path = |c: usize, steps: Vec<PStep>| PExpr::Path {
            base: Box::new(PExpr::Col(c)),
            steps,
        };
        let field = |f: &str| PStep::Field(f.into());
        for e in [
            path(1, vec![field("PT")]),
            path(1, vec![field("Q")]),
            path(1, vec![field("NONE")]),
            path(1, vec![PStep::Index(0)]),
            path(0, vec![field("PT")]),
            path(0, vec![PStep::Index(1), field("Q")]),
            path(0, vec![PStep::Index(-1)]),
            path(1, vec![field("Q"), field("X")]),
            func(FuncId::ArraySize, vec![PExpr::Col(0)]),
            func(FuncId::ArrayCat, vec![PExpr::Col(0), PExpr::Col(0)]),
            func(
                FuncId::Iff,
                vec![PExpr::Col(2), PExpr::Col(1), lit(Variant::Null)],
            ),
        ] {
            assert!(checked(&e, &inp).is_some(), "{e:?}");
            let cell = crate::exec::metrics::OpMetricsCell::default();
            ExprDag::compile([&e])
                .eval(&inp, 0, Some(&cell))
                .expect("evaluated");
            assert_eq!(
                cell.snapshot("t".into(), 1, Vec::new()).rows_materialized,
                0,
                "{e:?} boxed rows"
            );
        }
        // `||` has no shredded loop: it boxes the lists, and says so.
        let concat = bin(PExpr::Col(0), BinOp::Concat, lit("x"));
        let cell = crate::exec::metrics::OpMetricsCell::default();
        ExprDag::compile([&concat]).eval(&inp, 0, Some(&cell));
        assert_eq!(
            cell.snapshot("t".into(), 1, Vec::new()).rows_materialized,
            6
        );
    }

    /// `OBJECT_CONSTRUCT` of literal keys over scalar columns is records,
    /// also under a guard, and `NVL(list, [])` is a list: both answer what
    /// the row evaluator answers. Any other key or value is boxed.
    #[test]
    fn object_construct_and_nvl_of_lists_stay_shredded() {
        let lists: Vec<Variant> = (0..5)
            .map(|i| match i % 2 {
                0 => Variant::Null,
                _ => Variant::array(vec![Variant::object({
                    let mut o = crate::variant::Object::new();
                    o.insert("Q", Variant::Int(i));
                    o
                })]),
            })
            .collect();
        let inp = Chunk {
            cols: vec![
                crate::storage::encode::encode_column(ColumnVec::Var(lists)),
                ColumnVec::from_variants(
                    (0..5)
                        .map(|i| {
                            if i == 2 {
                                Variant::Null
                            } else {
                                Variant::Float(i as f64)
                            }
                        })
                        .collect(),
                ),
                ColumnVec::from_variants((0..5).map(|i| Variant::Bool(i % 2 == 0)).collect()),
                ColumnVec::from_variants((0..5).map(|i| Variant::from(format!("s{i}"))).collect()),
            ],
            rows: 5,
        };
        assert!(matches!(inp.cols[0], ColumnVec::List(_)));
        let object = |args: Vec<PExpr>| func(FuncId::ObjectConstruct, args);
        let record = object(vec![
            lit("D"),
            PExpr::Col(1),
            lit("S"),
            PExpr::Col(3),
            lit("F"),
            lit(1i64),
            lit("N"),
            lit(Variant::Null),
        ]);
        let empty = lit(Variant::array(Vec::new()));
        for (e, shredded) in [
            (record.clone(), "records"),
            (
                func(
                    FuncId::Iff,
                    vec![PExpr::Col(2), record.clone(), lit(Variant::Null)],
                ),
                "records",
            ),
            (
                func(FuncId::Nvl, vec![PExpr::Col(0), empty.clone()]),
                "lists",
            ),
            (
                func(FuncId::Coalesce, vec![PExpr::Col(0), empty.clone()]),
                "lists",
            ),
            (
                object(vec![lit("A"), PExpr::Col(1), lit("A"), PExpr::Col(3)]),
                "boxed",
            ),
            (object(vec![PExpr::Col(3), PExpr::Col(1)]), "boxed"),
            (object(vec![lit("L"), PExpr::Col(0)]), "boxed"),
            (
                object(vec![
                    lit("A"),
                    lit(Variant::array(Vec::new())),
                    lit("B"),
                    PExpr::Col(1),
                ]),
                "boxed",
            ),
            (
                func(
                    FuncId::Nvl,
                    vec![PExpr::Col(0), lit(Variant::array(vec![Variant::Int(1)]))],
                ),
                "boxed",
            ),
        ] {
            let col = checked(&e, &inp).expect("no row fails");
            let got = match col {
                ColumnVec::Objects(_) => "records",
                ColumnVec::List(l) => {
                    assert!(l.valid.all_valid(), "{e:?}");
                    "lists"
                }
                _ => "boxed",
            };
            assert_eq!(got, shredded, "{e:?}");
        }
    }

    #[test]
    fn seq8_is_a_ramp_per_call_site() {
        let inp = chunk(vec![vec![
            Variant::Int(5),
            Variant::Int(6),
            Variant::Int(7),
        ]]);
        let seq = || func(FuncId::Seq8, vec![]);
        let exprs = [seq(), bin(PExpr::Col(0), BinOp::Add, seq())];
        let cols = ExprDag::compile(&exprs).eval(&inp, 100, None).unwrap();
        assert_eq!(cols[0].get(2), Variant::Int(102));
        assert_eq!(cols[1].get(2), Variant::Int(7 + 103));
        let guarded = [func(FuncId::Nvl, vec![PExpr::Col(0), seq()])];
        assert!(ExprDag::compile(&guarded).eval(&inp, 0, None).is_none());
    }

    /// Two dictionary columns sharing one dictionary, plus one with another
    /// dictionary over the same strings.
    fn dict_chunk() -> Chunk {
        let dict: Arc<Vec<Arc<str>>> =
            Arc::new(vec![Arc::from("ny"), Arc::from("la"), Arc::from("sf")]);
        let other: Arc<Vec<Arc<str>>> = Arc::new(vec![Arc::from("la"), Arc::from("ny")]);
        let cols = vec![
            ColumnVec::DictStr {
                codes: vec![0, 1, NULL_CODE, 2, 0, 1],
                dict: dict.clone(),
            },
            ColumnVec::DictStr {
                codes: vec![0, 0, 1, NULL_CODE, 2, 1],
                dict,
            },
            ColumnVec::DictStr {
                codes: vec![1, 0, NULL_CODE, 0, 1, 0],
                dict: other,
            },
        ];
        Chunk { cols, rows: 6 }
    }

    #[test]
    fn dictionary_compares_and_in_lists_match_serial() {
        let inp = dict_chunk();
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            for e in [
                bin(PExpr::Col(0), op, lit("la")),
                bin(lit("ny"), op, PExpr::Col(0)),
                bin(PExpr::Col(0), op, lit("zz")),
                bin(PExpr::Col(0), op, PExpr::Col(1)),
                bin(PExpr::Col(0), op, PExpr::Col(2)),
            ] {
                assert!(checked(&e, &inp).is_some(), "{e:?}");
            }
        }
        for negated in [false, true] {
            for list in [
                vec![lit("la"), lit("zz")],
                // A NULL in the list makes non-matches NULL, not false.
                vec![lit("sf"), lit(Variant::Null)],
                vec![lit(Variant::Null)],
                // A column in the list: item by item, on the open rows.
                vec![PExpr::Col(1), lit("sf")],
                vec![],
            ] {
                let e = PExpr::InList {
                    expr: Box::new(PExpr::Col(0)),
                    list,
                    negated,
                };
                assert!(checked(&e, &inp).is_some(), "{e:?}");
            }
        }
        for e in [
            bin(PExpr::Col(0), BinOp::Concat, PExpr::Col(2)),
            bin(PExpr::Col(0), BinOp::Concat, lit("!")),
            PExpr::Like {
                expr: Box::new(PExpr::Col(0)),
                pattern: Box::new(lit("_a")),
                negated: false,
            },
            func(FuncId::Upper, vec![PExpr::Col(2)]),
        ] {
            assert!(checked(&e, &inp).is_some(), "{e:?}");
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
        let inp = Chunk {
            cols: vec![ints],
            rows: 6,
        };
        for e in [
            bin(PExpr::Col(0), BinOp::Gt, lit(8i64)),
            bin(PExpr::Col(0), BinOp::Add, lit(1i64)),
            PExpr::Col(0),
        ] {
            assert!(checked(&e, &inp).is_some(), "{e:?}");
        }
    }

    #[test]
    fn rows_on_codes_and_materialized_rows_are_counted() {
        let inp = dict_chunk();
        let counts = |e: &PExpr| {
            let cell = OpMetricsCell::default();
            assert!(ExprDag::compile([e]).eval(&inp, 0, Some(&cell)).is_some());
            let m = cell.snapshot("Filter".into(), 1, Vec::new());
            (m.rows_on_codes, m.rows_materialized)
        };
        // Dict-vs-scalar equality and a literal IN list run on codes.
        assert_eq!(counts(&bin(PExpr::Col(0), BinOp::Eq, lit("la"))), (6, 0));
        let in_list = PExpr::InList {
            expr: Box::new(PExpr::Col(0)),
            list: vec![lit("la"), lit("sf")],
            negated: false,
        };
        assert_eq!(counts(&in_list), (6, 0));
        // Cross-dictionary ordering materializes both sides.
        assert_eq!(
            counts(&bin(PExpr::Col(0), BinOp::Lt, PExpr::Col(2))),
            (0, 12)
        );
        // A bare column passes through encoded, uncounted.
        assert_eq!(counts(&PExpr::Col(0)), (0, 0));
    }

    /// Selections `e` narrowed to on `inp`: 0 when every operand ran on the
    /// rows its reader ran on.
    fn narrowed(e: &PExpr, inp: &Chunk) -> usize {
        checked(e, inp).expect("no decline");
        let dag = ExprDag::compile([e]);
        let mut ev = BatchEval::new(&dag, inp, 0);
        ev.value(dag.roots()[0], &Sel::FULL).expect("no decline");
        ev.sel_parents.len() - 1
    }

    /// The right operand of `AND`/`OR` runs on the left one's rows when it
    /// cannot fail on the batch — comparisons within one class over typed
    /// columns, run-length ones classed by their values — and on the rows the
    /// left one leaves open otherwise.
    #[test]
    fn an_operand_that_cannot_fail_runs_on_the_left_operands_rows() {
        let runs = ColumnVec::Runs {
            ends: vec![2, 5, 6],
            values: Box::new(ColumnVec::from_variants(vec![
                Variant::Int(1992),
                Variant::Null,
                Variant::Int(1998),
            ])),
        };
        let mut inp = chunk(vec![
            vec![
                Variant::Int(2),
                Variant::Int(0),
                Variant::Null,
                Variant::Int(5),
                Variant::Int(1),
                Variant::Int(3),
            ],
            vec![
                Variant::Float(30.0),
                Variant::Float(2.5),
                Variant::Float(f64::NAN),
                Variant::Null,
                Variant::Float(-0.0),
                Variant::Float(24.0),
            ],
            vec![
                Variant::str("a"),
                Variant::Int(2),
                Variant::str("a"),
                Variant::Int(7),
                Variant::Null,
                Variant::Float(1.5),
            ],
        ]);
        inp.cols.push(runs);
        let (x, f, v, year) = (PExpr::Col(0), PExpr::Col(1), PExpr::Col(2), PExpr::Col(3));
        let q11 = bin(
            bin(x.clone(), BinOp::GtEq, lit(1i64)),
            BinOp::And,
            bin(
                bin(x.clone(), BinOp::LtEq, lit(3i64)),
                BinOp::And,
                bin(f.clone(), BinOp::Lt, lit(25i64)),
            ),
        );
        let years = bin(
            bin(year.clone(), BinOp::GtEq, lit(1992i64)),
            BinOp::And,
            bin(year.clone(), BinOp::LtEq, lit(1997i64)),
        );
        let either = bin(
            PExpr::IsNull {
                expr: Box::new(x.clone()),
                negated: false,
            },
            BinOp::Or,
            PExpr::Not(Box::new(bin(x.clone(), BinOp::Eq, lit("a")))),
        );
        for e in [&q11, &years, &either] {
            assert_eq!(narrowed(e, &inp), 0, "{e:?}");
        }
        // A division, a boxed column and ordering across classes can fail.
        let guarded = bin(
            bin(x.clone(), BinOp::NotEq, lit(0i64)),
            BinOp::And,
            bin(bin(lit(10i64), BinOp::Div, x.clone()), BinOp::Gt, lit(1i64)),
        );
        let boxed = bin(
            bin(v.clone(), BinOp::Eq, lit("a")),
            BinOp::Or,
            bin(v.clone(), BinOp::Lt, lit(3i64)),
        );
        let across = bin(
            bin(x.clone(), BinOp::Gt, lit(4i64)),
            BinOp::Or,
            bin(year, BinOp::Lt, lit("1995")),
        );
        for e in [&guarded, &boxed] {
            assert_eq!(narrowed(e, &inp), 1, "{e:?}");
        }
        // Row 0 compares an integer with a string: the row loop fails there.
        assert!(checked(&across, &inp).is_none());
    }

    /// A one-key field step into shredded records holds its field column's
    /// class, or NULL for a key the records lack: `K AND V:PT > 30` combines
    /// its two columns without a row selection. A boxed base, an index step
    /// and a path of two steps may fail, and narrow.
    #[test]
    fn a_field_of_shredded_records_cannot_fail() {
        let record = |pt: Variant| {
            let mut o = crate::variant::Object::new();
            o.insert("PT", pt);
            o.insert("ETA", Variant::Int(1));
            Variant::object(o)
        };
        let jets: Vec<Variant> = [Variant::Float(41.5), Variant::Null, Variant::Float(12.0)]
            .into_iter()
            .map(record)
            .chain([Variant::Null, record(Variant::Float(30.0))])
            .collect();
        let boxed = jets.clone();
        let inp = Chunk {
            cols: vec![
                ColumnVec::from_variants(
                    [true, true, false, true, true].map(Variant::Bool).to_vec(),
                ),
                crate::storage::encode::encode_column(ColumnVec::Var(jets)),
                ColumnVec::Var(boxed),
            ],
            rows: 5,
        };
        assert!(matches!(inp.cols[1], ColumnVec::Objects(_)));
        let gated = |base: usize, steps: Vec<PStep>| {
            bin(
                PExpr::Col(0),
                BinOp::And,
                bin(PExpr::Path { base: Box::new(PExpr::Col(base)), steps }, BinOp::Gt, lit(30i64)),
            )
        };
        let field = |f: &str| PStep::Field(f.into());
        for e in [gated(1, vec![field("PT")]), gated(1, vec![field("M")])] {
            assert_eq!(narrowed(&e, &inp), 0, "{e:?}");
        }
        for e in [
            gated(2, vec![field("PT")]),
            gated(1, vec![PStep::Index(0)]),
            gated(1, vec![field("PT"), field("X")]),
        ] {
            assert_eq!(narrowed(&e, &inp), 1, "{e:?}");
        }
    }

    #[test]
    fn mask_keep_semantics() {
        let mask = ColumnVec::from_variants(vec![
            Variant::Bool(true),
            Variant::Bool(false),
            Variant::Null,
            Variant::Bool(true),
        ]);
        assert_eq!(mask_keep(&mask).unwrap(), vec![0, 3]);
        assert_eq!(mask_keep(&ColumnVec::Null(5)).unwrap(), Vec::<usize>::new());
        assert!(mask_keep(&ColumnVec::from_variants(vec![Variant::Int(1)])).is_err());
        let all_valid = ColumnVec::Bool {
            vals: vec![false, true, true, false, true],
            valid: Bitmap::ones(5),
        };
        assert_eq!(mask_keep(&all_valid).unwrap(), vec![1, 2, 4]);
    }
}
