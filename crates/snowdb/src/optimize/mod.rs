//! Plan optimizer: rule-based passes plus a cost-based join reorderer.
//!
//! Passes run on every query, in order:
//! 1. **constant folding** — pure literal sub-expressions are evaluated once;
//! 2. **predicate pushdown** — filters move through projections, flattens,
//!    unions, and join inputs, and comparison / null-presence conjuncts
//!    against base-table columns are copied into scans for partition
//!    pruning from column statistics;
//! 3. **the `KEEP` pass** ([`keep`]) — a flag-column nested query's `KEEP`
//!    flag moves below its row-id aggregate when the filter above rejects
//!    the empty group, else is copied into a run-preserving filter lowered
//!    below the `OUTER` flattens that build the rows it drops; pushdown
//!    itself turns an `OUTER` flatten or a left outer join inner under a
//!    filter that rejects its padded rows, and makes the positional
//!    conjuncts over an inner flatten its item range ([`flatten_bound`]);
//! 4. **join reordering** ([`join_order`]) — Inner/Cross join clusters are
//!    rebuilt in the order the cost model ([`cost`]) ranks cheapest, using
//!    per-column statistics persisted in the catalog (NDV sketches,
//!    histograms, null fractions), so raw SSB star joins and JSONiq
//!    successive-`for` cross joins become selectivity-ordered hash joins;
//! 5. **dead-column elimination** ([`narrow`]) — every operator keeps only
//!    the columns something above it reads: projections and aggregates drop
//!    dead expressions, identity projections disappear, and scans materialize
//!    only the table columns the query consumes, which both speeds execution
//!    and makes the bytes-scanned metric reflect real column usage (paper
//!    §V-E);
//! 6. **subplan sharing** ([`share`]) — structurally identical subtrees with
//!    more than one reader get a share id and are executed once.
//!
//! Because the translation layer emits one SQL query per JSONiq query, these
//! passes see the *whole* program — the end-to-end optimizer visibility the
//! paper contrasts against UDF-based black boxes.

pub mod cost;
pub mod flatten_bound;
pub mod join_order;
pub mod keep;
pub mod narrow;
pub mod share;

use crate::error::Result;
use crate::exec::eval_const;
use crate::plan::{
    col_cmp_lit, conjuncts, into_conjuncts, Field, FuncId, Node, NodeKind, PExpr, ScanPredicate,
};
use crate::sql::{BinOp, JoinKind};
use crate::variant::Variant;

/// Runs all optimizer passes.
pub fn optimize(mut node: Node) -> Result<Node> {
    fold_node(&mut node);
    node = merge_projects(node);
    node = pushdown(node);
    keep::place(&mut node);
    // Reordering runs after pushdown: by then single-table conjuncts sit on
    // their relations and cross-relation conjuncts have been folded into
    // join ON conditions, which is the input shape the reorderer pools.
    node = join_order::reorder_joins(node);
    // Pushing filters can expose further folding opportunities; one more round
    // keeps plans normalized without a full fixpoint loop.
    fold_node(&mut node);
    node = merge_projects(node);
    node = narrow::narrow(node);
    // Sharing goes last so it fingerprints final shapes and never stands
    // between a subtree and a rewrite.
    share::mark_shared(&mut node);
    Ok(node)
}

// ---- projection merging -----------------------------------------------------

/// Collapses `Project(Project(x))` chains into a single projection.
///
/// A chain is merged bottom up: each projection merges into the (merged) one
/// below it while [`Layer::merge_refs`] allows, and stays above it
/// otherwise. A step costs the size of the upper list, not of the merged
/// result: what each expression can do (raise, number rows) travels with it,
/// and an expression read once is moved into place, not copied.
fn merge_projects(node: Node) -> Node {
    // The chain of projections from here down, top first.
    let mut chain = Vec::new();
    let mut node = node;
    while let NodeKind::Project { .. } = node.kind {
        let Node { kind: NodeKind::Project { input, exprs }, fields, share } = node else {
            unreachable!()
        };
        chain.push(Layer::new(exprs, fields, share));
        node = *input;
    }
    let mut merged: Vec<Layer> = Vec::with_capacity(chain.len());
    for mut layer in chain.into_iter().rev() {
        while let Some(refs) = merged.last().and_then(|below| layer.merge_refs(below)) {
            let below = merged.pop().expect("checked above");
            layer = layer.over(below, &refs);
        }
        merged.push(layer);
    }
    merged.into_iter().fold(node.map_inputs(merge_projects), |input, layer| Node {
        kind: NodeKind::Project { input: Box::new(input), exprs: layer.exprs },
        fields: layer.fields,
        share: layer.share,
    })
}

/// One projection of a chain being merged, with what each of its
/// expressions can do.
struct Layer {
    exprs: Vec<PExpr>,
    risks: Vec<Risk>,
    fields: Vec<Field>,
    share: Option<u32>,
}

/// What an expression can do besides computing its value.
#[derive(Clone, Copy, Default)]
struct Risk {
    /// It is not [`error_free`].
    raises: bool,
    /// It numbers rows ([`PExpr::is_volatile`]).
    volatile: bool,
}

impl Risk {
    /// The risk of the node itself, not of its operands.
    fn of_node(e: &PExpr) -> Risk {
        Risk { raises: can_raise(e), volatile: e.is_volatile_call() }
    }

    fn add(&mut self, other: Risk) {
        self.raises |= other.raises;
        self.volatile |= other.volatile;
    }
}

impl Layer {
    fn new(exprs: Vec<PExpr>, fields: Vec<Field>, share: Option<u32>) -> Layer {
        fn risk(e: &PExpr, acc: &mut Risk) {
            acc.add(Risk::of_node(e));
            e.for_each_child(&mut |c| risk(c, acc));
        }
        let risks = exprs
            .iter()
            .map(|e| {
                let mut acc = Risk::default();
                if !matches!(e, PExpr::Col(_)) {
                    risk(e, &mut acc);
                }
                acc
            })
            .collect();
        Layer { exprs, risks, fields, share }
    }

    /// How often this projection reads each column of `inner`, when the two
    /// may be one projection over `inner`'s input; `None` when merging could
    /// grow the plan or change values. Every non-trivial inner expression must
    /// be referenced at most once (column references and literals substitute
    /// freely). One never referenced must be [`error_free`]: merging drops it,
    /// and with it the error the unmerged plan raises. One referenced from a
    /// lazily evaluated position (`CASE WHEN k <> 0 THEN boom END`) must be
    /// too: merged, the guard would keep it from the rows on which the
    /// unmerged plan raises. Volatile expressions (`SEQ8`) merge safely under
    /// the same single-reference rule because projections preserve row count
    /// and `SEQ8` numbers rows per projection — but two of them, one from each
    /// side, would share a per-row counter and change values.
    fn merge_refs(&self, inner: &Layer) -> Option<Vec<usize>> {
        let volatile = |l: &Layer| l.risks.iter().any(|r| r.volatile);
        if volatile(self) && volatile(inner) {
            return None;
        }
        let mut refs = vec![0usize; inner.exprs.len()];
        for e in &self.exprs {
            match e {
                PExpr::Col(c) => refs[*c] += 1,
                _ => e.visit(&mut |x| {
                    if let PExpr::Col(c) = x {
                        refs[*c] += 1;
                    }
                }),
            }
        }
        let mut every_row = None;
        let mergeable = refs.iter().enumerate().all(|(c, &r)| match r {
            0 => !inner.risks[c].raises,
            1 => {
                !inner.risks[c].raises
                    || every_row.get_or_insert_with(|| read_on_every_row(&self.exprs, refs.len()))[c]
            }
            _ => matches!(inner.exprs[c], PExpr::Col(_) | PExpr::Lit(_)),
        });
        mergeable.then_some(refs)
    }

    /// This projection over `inner`'s input: every column reference replaced
    /// by the expression `inner` computes for it — moved when `refs` says it
    /// is read once, copied (a column or a literal) otherwise.
    fn over(self, mut inner: Layer, refs: &[usize]) -> Layer {
        /// `inner`'s expression for column `c`: moved out when read once
        /// (nothing reads the placeholder left behind), copied otherwise.
        fn take(inner: &mut Layer, refs: &[usize], c: usize, risk: &mut Risk) -> PExpr {
            risk.add(inner.risks[c]);
            let slot = &mut inner.exprs[c];
            if refs[c] == 1 {
                std::mem::replace(slot, PExpr::Col(0))
            } else {
                slot.clone()
            }
        }
        fn substitute(e: &mut PExpr, inner: &mut Layer, refs: &[usize], risk: &mut Risk) {
            match *e {
                PExpr::Col(c) => *e = take(inner, refs, c, risk),
                _ => {
                    risk.add(Risk::of_node(e));
                    e.for_each_child_mut(&mut |x| substitute(x, inner, refs, risk));
                }
            }
        }
        let mut exprs = self.exprs;
        let risks = exprs
            .iter_mut()
            .map(|e| {
                let mut risk = Risk::default();
                substitute(e, &mut inner, refs, &mut risk);
                risk
            })
            .collect();
        Layer { exprs, risks, fields: self.fields, share: self.share }
    }
}

/// `Project outer (Project inner (x))` as one projection over `x`, by the
/// rules of [`merge_projects`]; `None` when they refuse.
fn merged_exprs(outer: &[PExpr], inner: &[PExpr]) -> Option<Vec<PExpr>> {
    let outer = Layer::new(outer.to_vec(), Vec::new(), None);
    let inner = Layer::new(inner.to_vec(), Vec::new(), None);
    let refs = outer.merge_refs(&inner)?;
    Some(outer.over(inner, &refs).exprs)
}

/// The input columns a projection reads on every row — from a position no
/// guard ([`PExpr::for_each_child_guarded`]) lets the row evaluator skip —
/// as a set over the `arity` input columns.
fn read_on_every_row(exprs: &[PExpr], arity: usize) -> Vec<bool> {
    fn mark(e: &PExpr, cols: &mut [bool]) {
        match e {
            PExpr::Col(c) => cols[*c] = true,
            _ => e.for_each_child_guarded(&mut |child, guarded| {
                if !guarded {
                    mark(child, cols);
                }
            }),
        }
    }
    let mut cols = vec![false; arity];
    for e in exprs {
        mark(e, &mut cols);
    }
    cols
}

// ---- constant folding ------------------------------------------------------

fn fold_node(node: &mut Node) {
    node.kind.inputs_mut().into_iter().for_each(fold_node);
    node.kind.exprs_mut().into_iter().for_each(fold_expr);
}

/// Replaces literal-only, non-volatile sub-expressions with their value.
fn fold_expr(e: &mut PExpr) {
    if matches!(e, PExpr::Col(_) | PExpr::Lit(_)) {
        return;
    }
    // Children first, so that they are already folded.
    e.for_each_child_mut(&mut fold_expr);
    // `NVL(NVL(x, c), c)` is `NVL(x, c)` for a literal `c`: a second default
    // identical to the first never applies. (Not for any other `c`: it is
    // evaluated only where `x` is NULL, and may raise or number rows; nor
    // for `0` and `0.0`, which SQL equality does not tell apart.)
    if let PExpr::Func { f: FuncId::Nvl, args } = e {
        if let [PExpr::Func { f: FuncId::Nvl, args: inner }, PExpr::Lit(c)] = args.as_mut_slice() {
            if matches!(inner.as_slice(), [_, PExpr::Lit(d)] if d.identical(c)) {
                *e = args.swap_remove(0);
                return;
            }
        }
    }
    if !e.any(&mut |x| matches!(x, PExpr::Col(_))) && !e.is_volatile() {
        // Expressions that error at fold time (e.g. 1/0) are left in place so
        // the error surfaces at execution, matching engine semantics.
        if let Ok(v) = eval_const(e, &mut 0) {
            *e = PExpr::Lit(v);
        }
    }
}

// ---- predicate pushdown ----------------------------------------------------

fn conjoin(mut parts: Vec<PExpr>) -> Option<PExpr> {
    let mut acc = parts.pop()?;
    while let Some(p) = parts.pop() {
        acc = PExpr::Binary { left: Box::new(p), op: BinOp::And, right: Box::new(acc) };
    }
    Some(acc)
}

/// True when evaluating `e` cannot raise a runtime error on data the unpushed
/// plan accepts. Only constructs that error on *valid* values count — division
/// and modulo (by zero) and casts (format failures). Type-mismatch errors are
/// ignored: those fail the query wherever the predicate is evaluated, so they
/// cannot turn a succeeding plan into a failing one by moving.
fn error_free(e: &PExpr) -> bool {
    !e.any(&mut can_raise)
}

/// Which of a filter's conjuncts may leave it — move below the operator under
/// it, into that operator, or act for it by removing rows — without the
/// filter losing an effect on the rows they then drop: the one movement rule
/// (DESIGN.md, "The movement rule"). The filter evaluates its conjuncts left
/// to right up to the first FALSE, and one that raises or numbers rows must
/// still see every row it saw. So a conjunct leaves only from the prefix of
/// [`error_free`], non-volatile ones; and where a conjunct that is neither
/// follows, only if it is an `IS [NOT] NULL` test, which is never NULL: on a
/// row where a conjunct is NULL the filter goes on to the ones after it.
fn may_leave<'a>(parts: impl IntoIterator<Item = &'a PExpr>) -> Vec<bool> {
    let parts: Vec<&PExpr> = parts.into_iter().collect();
    let prefix = parts.iter().take_while(|p| error_free(p) && !p.is_volatile()).count();
    let clean = prefix == parts.len();
    (0..parts.len())
        .map(|k| k < prefix && (clean || matches!(parts[k], PExpr::IsNull { .. })))
        .collect()
}

/// True when an operator that evaluates `exprs` on every row it reads holds
/// every conjunct of a filter above it — the other half of the movement
/// rule: one of them numbers rows or can raise, and a conjunct moved below
/// would renumber the rows or keep the error from the rows it drops.
fn holds<'a>(exprs: impl IntoIterator<Item = &'a PExpr>) -> bool {
    exprs.into_iter().any(|e| e.any(&mut |x| x.is_volatile_call() || can_raise(x)))
}

/// The node itself — not its operands — can raise on valid values: a cast,
/// and `/`, `%` and `MOD` unless the divisor is a numeric literal that is
/// neither zero nor NULL (`/` of integers yields a float and `%` wraps, so
/// no other divisor raises).
fn can_raise(e: &PExpr) -> bool {
    let divisor = match e {
        PExpr::Binary { op: BinOp::Div | BinOp::Mod, right, .. } => &**right,
        PExpr::Func { f: FuncId::Mod, args } if args.len() == 2 => &args[1],
        PExpr::Func { f: FuncId::Mod, .. } | PExpr::Cast { .. } => return true,
        _ => return false,
    };
    !matches!(divisor, PExpr::Lit(Variant::Int(d)) if *d != 0)
        && !matches!(divisor, PExpr::Lit(Variant::Float(d)) if *d != 0.0)
}

/// True when `e` can evaluate to TRUE while one of its column inputs is NULL —
/// i.e. it is not NULL-rejecting. Comparisons, arithmetic, LIKE, and paths all
/// propagate NULL to NULL (which a filter drops), so a predicate built purely
/// from them decides a NULL-extended row the same way as the row's absence;
/// `IS [NOT] NULL`, CASE, and the NULL-handling functions do not.
fn null_sensitive(e: &PExpr) -> bool {
    e.any(&mut |x| match x {
        PExpr::IsNull { .. } | PExpr::Case { .. } => true,
        PExpr::Func { f, .. } => matches!(
            f,
            FuncId::Coalesce | FuncId::Nvl | FuncId::NullIf | FuncId::Iff | FuncId::TypeOf
        ),
        _ => false,
    })
}

fn pushdown(node: Node) -> Node {
    let node = node.map_inputs(pushdown);
    match node.kind {
        NodeKind::Filter { input, pred, per: None } => push_filter(*input, pred, node.fields),
        _ => node,
    }
}

/// Pushes the predicate as deep as is sound, rebuilding the filter above
/// whatever could not move.
fn push_filter(input: Node, pred: PExpr, fields: Vec<Field>) -> Node {
    let parts = into_conjuncts(pred);

    match input.kind {
        NodeKind::Project { input: pin, exprs } => {
            // A projection that [holds](holds) its filter keeps every
            // conjunct above — even ones that never reference the column
            // that raises or numbers rows. A volatile expression (SEQ8 row
            // numbering) depends on the exact row stream that reaches it:
            // filtering first renumbers the surviving rows. (Found by the
            // verification oracle on ADL Q7 under the JOIN-based strategy: a
            // jet-pT filter pushed below the SEQ8 row-id projection renumbered
            // the left join keys while the right side kept the unfiltered
            // numbering, associating lepton matches with the wrong jets.) One
            // that raises (`10 / X`) would not see the rows the filter drops.
            if holds(&exprs) {
                let parts = drop_literal_true(parts, &exprs);
                let proj = Node::new(NodeKind::Project { input: pin, exprs }, fields.clone());
                return wrap_filter(proj, parts, fields);
            }
            // Substitute projection expressions into the predicate and move it
            // below.
            let movable: Vec<PExpr> = parts.into_iter().map(|p| p.substitute(&exprs)).collect();
            let inner_fields = pin.fields.clone();
            let mut below = *pin;
            if let Some(mp) = conjoin(movable) {
                below = push_filter(below, mp, inner_fields);
            }
            Node::new(NodeKind::Project { input: Box::new(below), exprs }, fields)
        }
        NodeKind::Flatten { input: fin, expr, outer, emit, mut from } => {
            let in_arity = fin.arity();
            // A conjunct no pad row passes drops what OUTER adds: the flatten
            // is inner. A pad row's VALUE, INDEX and KEY are NULL; its SEQ
            // and THIS are those of the input row.
            let leave = may_leave(&parts);
            let outer =
                outer && !pads_rejected(&parts, &leave, |c| (in_arity..in_arity + 3).contains(&c));
            let bounded = !outer && !expr.is_volatile();
            let input_held = holds([&expr]);
            let mut movable = Vec::new();
            let mut stuck = Vec::new();
            for (p, leave) in parts.into_iter().zip(leave) {
                // Positional conjuncts of an inner flatten become its item
                // range.
                if leave && bounded && flatten_bound::absorb(&p, &fin, &mut from) {
                    continue;
                }
                // A conjunct may move below the flatten only when all of:
                //  - it references input columns exclusively (flatten outputs
                //    do not exist below, and for an OUTER flatten they are the
                //    NULL-extended columns the filter must observe);
                //  - the flatten's input expression does not [hold](holds)
                //    it: one that numbers rows (SEQ8) would number fewer, one
                //    that raises would not see the rows the conjunct drops;
                //  - it is not volatile: the flatten multiplies/drops rows, so
                //    evaluating the conjunct below changes which numbers each
                //    surviving row sees;
                //  - it cannot raise a runtime error: a non-outer flatten drops
                //    rows whose collection is empty, so a pushed predicate runs
                //    on rows the unpushed plan never evaluates it on (e.g.
                //    `10 / id > 0` with id = 0 on an empty-array row succeeds
                //    unpushed but errors pushed);
                //  - for an OUTER flatten, it is not NULL-sensitive: predicates
                //    that accept NULL inputs (IS NULL, COALESCE, CASE, ...)
                //    must see the post-flatten row, where the outer flatten's
                //    NULL-preservation has already happened, or rows the outer
                //    flatten would have preserved as NULL are dropped early;
                //  - it [may leave](may_leave) the filter, which asks the
                //    two above of the conjunct itself and, besides, that the
                //    conjuncts staying above lose no error or row number on
                //    the rows it drops.
                let input_only = !p.any(&mut |x| matches!(x, PExpr::Col(c) if *c >= in_arity));
                if input_only && leave && !input_held && !(outer && null_sensitive(&p)) {
                    movable.push(p);
                } else {
                    stuck.push(p);
                }
            }
            let inner_fields = fin.fields.clone();
            let mut below = *fin;
            if let Some(mp) = conjoin(movable) {
                below = push_filter(below, mp, inner_fields);
            }
            let fl = Node::new(
                NodeKind::Flatten { input: Box::new(below), expr, outer, emit, from },
                fields.clone(),
            );
            wrap_filter(fl, stuck, fields)
        }
        NodeKind::Join { left, right, kind, on } => {
            let la = left.arity();
            // The ON condition runs before the filter, on every pair: a
            // conjunct that moves below or into the join runs before it.
            let before: Vec<&PExpr> = on.iter().flat_map(conjuncts).collect();
            let leave = may_leave(before.iter().copied().chain(&parts)).split_off(before.len());
            // A conjunct no NULL-extended row passes — every right column
            // NULL — makes a left outer join inner.
            let kind = match kind {
                JoinKind::LeftOuter if pads_rejected(&parts, &leave, |c| c >= la) => {
                    JoinKind::Inner
                }
                kind => kind,
            };
            let mut left_parts = Vec::new();
            let mut right_parts = Vec::new();
            let mut into_on = Vec::new();
            let mut stuck = Vec::new();
            for (p, leave) in parts.into_iter().zip(leave) {
                if !leave {
                    stuck.push(p);
                    continue;
                }
                let mut cols = Vec::new();
                p.collect_cols(&mut cols);
                let all_left = !cols.is_empty() && cols.iter().all(|&c| c < la);
                let all_right = !cols.is_empty() && cols.iter().all(|&c| c >= la);
                match kind {
                    JoinKind::Inner | JoinKind::Cross => {
                        if all_left {
                            left_parts.push(p);
                        } else if all_right {
                            right_parts.push(p.map_cols(&|c| c - la));
                        } else {
                            // For inner joins, filtering after the join equals
                            // filtering in the ON condition — moving the
                            // conjunct there lets the executor extract
                            // hash-join keys (turning a cross join emitted for
                            // JSONiq's successive-for joins into a hash join).
                            into_on.push(p);
                        }
                    }
                    JoinKind::LeftOuter => {
                        // Only left-side predicates commute with a left outer
                        // join; right-side ones would change NULL-extension.
                        if all_left {
                            left_parts.push(p);
                        } else {
                            stuck.push(p);
                        }
                    }
                }
            }
            let lf = left.fields.clone();
            let rf = right.fields.clone();
            let mut l = *left;
            let mut r = *right;
            if let Some(p) = conjoin(left_parts) {
                l = push_filter(l, p, lf);
            }
            if let Some(p) = conjoin(right_parts) {
                r = push_filter(r, p, rf);
            }
            let (kind, on) = if into_on.is_empty() {
                (kind, on)
            } else {
                let mut all = Vec::new();
                if let Some(o) = on {
                    all.push(o);
                }
                all.extend(into_on);
                (JoinKind::Inner, conjoin(all))
            };
            let j = Node::new(
                NodeKind::Join { left: Box::new(l), right: Box::new(r), kind, on },
                fields.clone(),
            );
            wrap_filter(j, stuck, fields)
        }
        NodeKind::UnionAll { left, right } => {
            let lf = left.fields.clone();
            let rf = right.fields.clone();
            let pred = conjoin(parts).expect("at least one conjunct");
            let l = push_filter(*left, pred.clone(), lf);
            let r = push_filter(*right, pred, rf);
            Node::new(NodeKind::UnionAll { left: Box::new(l), right: Box::new(r) }, fields)
        }
        NodeKind::Filter { input: fin, pred: inner, per: None } => {
            // Merge adjacent filters and retry.
            let mut merged = vec![inner];
            merged.extend(parts);
            let p = conjoin(merged).expect("non-empty");
            push_filter(*fin, p, fields)
        }
        NodeKind::Scan { table, mut pushed, materialize } => {
            // Copy comparison conjuncts into the scan for pruning; the filter
            // itself stays above for exactness.
            for p in &parts {
                if let Some(sp) = scan_predicate(p) {
                    pushed.push(sp);
                }
            }
            let scan = Node::new(NodeKind::Scan { table, pushed, materialize }, fields.clone());
            wrap_filter(scan, parts, fields)
        }
        other => {
            // Sort/Limit/Aggregate/Distinct/Values: keep the filter in place.
            let node = Node::new(other, input.fields);
            wrap_filter(node, parts, fields)
        }
    }
}

/// `parts` without the conjuncts that fold to TRUE over the literal columns
/// of a projection computing `exprs` (the flag-column strategy's `TRUE AS
/// "KEEP2"` beside its row id): a filter that stays above it needs none.
fn drop_literal_true(mut parts: Vec<PExpr>, exprs: &[PExpr]) -> Vec<PExpr> {
    let literal = |c: usize| match &exprs[c] {
        PExpr::Lit(v) => Some(v.clone()),
        _ => None,
    };
    parts.retain(|p| !matches!(fold_with(p, literal), Some(Variant::Bool(true))));
    parts
}

/// True when `p` cannot be TRUE on a row where every column that `value`
/// names holds that value — an empty group, a pad row, a NULL extension
/// (DESIGN.md, "Empty-group elimination"): substituted, it folds to FALSE or NULL.
fn rejects(p: &PExpr, value: impl Fn(usize) -> Option<Variant>) -> bool {
    matches!(fold_with(p, value), Some(Variant::Null | Variant::Bool(false)))
}

/// True when a conjunct of `parts` that may leave the filter (`leave`, by
/// [`may_leave`]) rejects every row whose `pad` columns are NULL — an `OUTER`
/// flatten's pad row, a left outer join's NULL extension.
fn pads_rejected(parts: &[PExpr], leave: &[bool], pad: impl Fn(usize) -> bool) -> bool {
    parts.iter().zip(leave).any(|(p, &l)| l && rejects(p, |c| pad(c).then_some(Variant::Null)))
}

/// `p` with every column that `value` names replaced by its value, folded;
/// `None` when a column is left over, `p` is volatile, or it raises.
fn fold_with(p: &PExpr, value: impl Fn(usize) -> Option<Variant>) -> Option<Variant> {
    fn sub(e: &mut PExpr, value: &impl Fn(usize) -> Option<Variant>) {
        match e {
            PExpr::Col(c) => *e = PExpr::Lit(value(*c).expect("every column has a value")),
            _ => e.for_each_child_mut(&mut |c| sub(c, value)),
        }
    }
    if p.is_volatile() || p.any(&mut |x| matches!(x, PExpr::Col(c) if value(*c).is_none())) {
        return None;
    }
    let mut e = p.clone();
    sub(&mut e, &value);
    eval_const(&e, &mut 0).ok()
}

fn wrap_filter(node: Node, parts: Vec<PExpr>, fields: Vec<Field>) -> Node {
    match conjoin(parts) {
        Some(pred) => Node::new(NodeKind::Filter { input: Box::new(node), pred, per: None }, fields),
        None => node,
    }
}

/// A conjunct a partition's column statistics can decide, for pruning:
/// [`col_cmp_lit`]'s forms, a comparison only against a literal that is not
/// NULL.
fn scan_predicate(p: &PExpr) -> Option<ScanPredicate> {
    let (col, cmp, lit) = col_cmp_lit(p)?;
    // Null-presence predicates prune via the null count and the bounds: an
    // all-null partition can't satisfy IS NOT NULL and a null-free one can't
    // satisfy IS NULL.
    (matches!(p, PExpr::IsNull { .. }) || !lit.is_null())
        .then(|| ScanPredicate { col, cmp, lit: lit.clone() })
}
