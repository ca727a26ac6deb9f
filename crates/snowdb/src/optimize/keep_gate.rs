//! The `KEEP` gate: a gated row-id aggregate's `KEEP` conjuncts, copied
//! into a run-preserving filter, narrow the rows below it (DESIGN.md,
//! "Empty-group elimination").
//!
//! The flag-column strategy evaluates a nested query over every row of its
//! `OUTER` flattens and folds `AGG(IFF(keep, x, NULL))` per row id, so the
//! rows where `keep` is not TRUE are built only to be skipped. They cannot
//! simply be filtered out: a row id whose every row fails `keep` still
//! needs its group (`COUNT` 0, `SUM` NULL). [`gate`] copies — it does not
//! move — the conjuncts of `keep` into a `Filter … per=<rid>` placed where
//! the aggregate reads `keep`. It passes the rows whose conjuncts hold and,
//! in each batch, one row of every run of equal `rid` that has none. That
//! row's `keep` is still computed above from all of its conjuncts, one of
//! which is not TRUE on it, so the aggregate skips it as before and only
//! its group survives. A copy may drop any conjunct: it keeps those that
//! [may leave](super::may_leave) their filter, so every conjunct it carries
//! is error-free and not volatile.
//!
//! [`lower`] then takes the copy down as far as it still keeps a row of
//! every run: through projections that do not compute `rid` and do not
//! [hold](super::holds) it, below an `OUTER` flatten for the conjuncts over
//! its input, into an `OUTER` flatten's `from=` for the positional ones
//! ([`flatten_bound`]; its pad row stands in for a row that has no item
//! left), and through an aggregate grouped by an inner row id for the
//! conjuncts over its key and its `ANY_VALUE`s of columns constant per that
//! id ([`through_aggregate`]). It never crosses a filter, a join, an inner
//! flatten or its own stamp. Where it stops, it is kept only if it moved
//! below a flatten or an aggregate on the way, or bounded the flatten under
//! it by a comparison (a pair or triplet loop): anywhere else it would test
//! again, for fewer rows of the projections and the fold above, what `keep`
//! tests there anyway ([`settle`]).

use super::empty_group::{fold_with, gated, per_group_column};
use super::share::same_expr;
use super::{conjoin, flatten_bound, holds, may_leave};
use crate::plan::{conjuncts, into_conjuncts, AggExpr, FuncId, Node, NodeKind, PExpr};
use crate::variant::Variant;

/// Places the `KEEP` gate under every gated row-id aggregate, outermost
/// first: an inner aggregate's copy then stops at the outer one's.
pub(super) fn gate(node: &mut Node) {
    if let NodeKind::Aggregate { input, groups, aggs } = &mut node.kind {
        if let Some(g) = gated(input, groups, aggs) {
            let (parts, rid) = (copied(g.keep.clone()), g.rid);
            let taken = std::mem::replace(&mut **input, Node::new(NodeKind::Values, Vec::new()));
            **input = lower(taken, parts, rid, false);
        }
    }
    node.kind.inputs_mut().into_iter().for_each(gate);
}

/// The conjuncts a run-preserving filter over `pred` holds: those that may
/// leave the filter, of its [`split`] conjuncts.
fn copied(pred: PExpr) -> Vec<PExpr> {
    let parts = split(vec![pred]);
    let leave = may_leave(&parts);
    parts.into_iter().zip(leave).filter_map(|(p, leave)| leave.then_some(p)).collect()
}

/// The conjuncts of `preds` ([`into_conjuncts`] splits `IFF(c, TRUE, FALSE)`
/// too) without the literal TRUE.
fn split(preds: Vec<PExpr>) -> Vec<PExpr> {
    preds
        .into_iter()
        .flat_map(into_conjuncts)
        .filter(|p| !matches!(p, PExpr::Lit(Variant::Bool(true))))
        .collect()
}

/// `node` under a run-preserving copy of `parts` over its row-id column
/// `rid`, lowered as far as it keeps a row of every run of `rid`. `moved`
/// says whether the copy has come below a flatten or an aggregate, the
/// operators whose work on the rows it drops it spares.
fn lower(node: Node, parts: Vec<PExpr>, rid: usize, moved: bool) -> Node {
    if parts.is_empty() {
        return node;
    }
    let fields = node.fields;
    match node.kind {
        NodeKind::Project { input, exprs } => {
            match &exprs[rid] {
                // Over its own stamp, every run of a row id is one row: the
                // copy passes them all.
                PExpr::Func { f: FuncId::Seq8, .. } => {
                    Node::new(NodeKind::Project { input, exprs }, fields)
                }
                PExpr::Col(inner_rid) if !holds(&exprs) => {
                    let inner_rid = *inner_rid;
                    let parts = split(parts.into_iter().map(|p| p.substitute(&exprs)).collect());
                    let below = lower(*input, parts, inner_rid, moved);
                    Node::new(NodeKind::Project { input: Box::new(below), exprs }, fields)
                }
                // A projection that computes the row id otherwise, or holds
                // the copy. A conjunct over its literal columns alone (the
                // flag-column strategy's `TRUE AS "KEEP2"`) is a constant:
                // TRUE goes.
                _ => {
                    let literal = |c: usize| match &exprs[c] {
                        PExpr::Lit(v) => Some(v.clone()),
                        _ => None,
                    };
                    let parts = parts
                        .into_iter()
                        .filter(|p| !matches!(fold_with(p, literal), Some(Variant::Bool(true))))
                        .collect();
                    settle(Node::new(NodeKind::Project { input, exprs }, fields), parts, rid, moved)
                }
            }
        }
        // An inner flatten drops the rows whose collection is empty, and a
        // flatten that makes the row id is its stamp: the copy stays above.
        NodeKind::Flatten { input, expr, outer: true, emit, mut from } if rid < input.arity() => {
            let in_arity = input.arity();
            let bounded = !expr.is_volatile();
            let input_held = holds([&expr]);
            let (mut movable, mut stuck) = (Vec::new(), Vec::new());
            for p in parts {
                // Positional conjuncts become the item range; a row left
                // with no item keeps its pad row.
                if bounded && flatten_bound::absorb(&p, &input, &mut from) {
                    continue;
                }
                // Conjuncts over the input alone go below, unless the
                // flatten's input expression holds them. A pad row is a
                // row of its run: a NULL-sensitive conjunct may go too.
                let input_only = !p.any(&mut |x| matches!(x, PExpr::Col(c) if *c >= in_arity));
                if input_only && !input_held {
                    movable.push(p);
                } else {
                    stuck.push(p);
                }
            }
            let below = lower(*input, movable, rid, true);
            // Above a flatten it bounded by a comparison — a pair or triplet
            // loop — a copy's leftover conjuncts spare the projections and
            // the fold above most of the expansion's rows.
            let compared = matches!(&from, Some(b) if !matches!(b, PExpr::Lit(_)));
            let kind = NodeKind::Flatten { input: Box::new(below), expr, outer: true, emit, from };
            settle(Node::new(kind, fields), stuck, rid, moved || compared)
        }
        NodeKind::Aggregate { input, groups, aggs } => {
            through_aggregate(*input, groups, aggs, parts, rid, moved, fields)
        }
        NodeKind::Filter { input, pred, per } if per == Some(rid) => {
            let mut merged = split(vec![pred]);
            merged.extend(parts);
            lower(*input, merged, rid, moved)
        }
        NodeKind::Filter { input, pred, per } => {
            // A copy needs no conjunct that the filter below already tests.
            let tested = conjuncts(&pred);
            let parts = parts.into_iter().filter(|p| !tested.iter().any(|t| same_expr(p, t)));
            let parts = parts.collect();
            settle(Node::new(NodeKind::Filter { input, pred, per }, fields), parts, rid, moved)
        }
        kind => settle(Node::new(kind, fields), parts, rid, moved),
    }
}

/// A run-preserving copy of `parts` over row id `rid`, on `Aggregate
/// group=groups aggs=aggs` over `input`. When the aggregate groups by an
/// inner row id and evaluates nothing that can raise, the conjuncts that
/// read only its [per-group columns](per_group_column) — each the same on
/// every row of its group — go below it: they drop whole groups, and the one
/// row a run keeps makes a group whose own copy of the conjunct is not TRUE.
/// The row id must be such a column too. The rest [settles](settle) above.
fn through_aggregate(
    input: Node,
    groups: Vec<PExpr>,
    aggs: Vec<AggExpr>,
    parts: Vec<PExpr>,
    rid: usize,
    moved: bool,
    fields: Vec<crate::plan::Field>,
) -> Node {
    let evaluated = groups.iter().chain(aggs.iter().flat_map(|a| a.arg.iter().chain(&a.arg2)));
    let below = |c: usize| per_group_column(&input, &groups, &aggs, c);
    let inner_rid = if holds(evaluated) { None } else { below(rid) };
    let (mut movable, mut stuck) = (Vec::new(), Vec::new());
    for p in parts {
        let mut cols = Vec::new();
        p.collect_cols(&mut cols);
        let to: Option<Vec<(usize, usize)>> = match inner_rid {
            Some(_) => cols.iter().map(|&c| Some((c, below(c)?))).collect(),
            None => None,
        };
        match to {
            Some(to) => movable.push(p.map_cols(&|c| {
                to.iter().find(|&&(out, _)| out == c).expect("every column resolved").1
            })),
            None => stuck.push(p),
        }
    }
    let input = match inner_rid {
        Some(inner_rid) => lower(input, movable, inner_rid, true),
        None => input,
    };
    let agg = Node::new(NodeKind::Aggregate { input: Box::new(input), groups, aggs }, fields);
    settle(agg, stuck, rid, moved)
}

/// `node` under what is left of a copy: a `Filter … per=rid` if the copy
/// has `moved`, else `node` itself — over it, the copy would only test
/// again, for fewer rows of the projections and the fold above, what `keep`
/// tests there anyway.
fn settle(node: Node, parts: Vec<PExpr>, rid: usize, moved: bool) -> Node {
    match conjoin(parts) {
        Some(pred) if moved => {
            let fields = node.fields.clone();
            Node::new(NodeKind::Filter { input: Box::new(node), pred, per: Some(rid) }, fields)
        }
        _ => node,
    }
}
