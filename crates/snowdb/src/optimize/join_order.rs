//! Cost-based join reordering.
//!
//! The rule-based passes leave two plan shapes that explode at execution:
//! JSONiq successive-`for` clauses translate to left-deep cross-join chains,
//! and raw SSB SQL (`FROM` list + `WHERE`) arrives as cross joins whose
//! predicates pushdown folds into `ON` conditions in *syntactic* order —
//! neither reflects table sizes or key selectivities. This pass:
//!
//! 1. flattens every maximal cluster of `Inner`/`Cross` joins into its base
//!    relations plus the pooled `ON` conjuncts (rebased to the cluster's
//!    concatenated column space);
//! 2. greedily rebuilds a left-deep join tree: the cheapest connected pair
//!    first (orienting the larger side as the probe/left input and the
//!    smaller as the hash build/right input), then repeatedly the relation
//!    whose addition yields the cheapest partial plan, preferring relations
//!    connected by an equi-predicate so star schemas chain dimension by
//!    dimension instead of cross-producting;
//! 3. places each pooled conjunct at the first join whose inputs cover its
//!    columns, and restores the original output column order with a final
//!    projection when the chosen order permuted it.
//!
//! Soundness: only `Inner`/`Cross` joins participate (they commute and
//! associate freely); a cluster is left untouched unless every pooled
//! conjunct is non-volatile and error-free, mirroring the pushdown gates —
//! moving a conjunct to an earlier join makes it run on row combinations the
//! original plan never evaluated it on. The costing never changes semantics:
//! the differential oracle runs every corpus query with this pass on and off.

use std::collections::HashMap;

use crate::optimize::cost::estimate;
use crate::optimize::{conjoin, error_free};
use crate::plan::{conjuncts, into_conjuncts, split_join_on, Field, Node, NodeKind, PExpr};
use crate::sql::JoinKind;

/// Minimum relations in a cluster before reordering kicks in. Two-relation
/// joins are left as written: the executor already hash-joins them, and
/// preserving the authored build/probe orientation keeps small plans stable.
const MIN_RELATIONS: usize = 3;

/// Reorders every eligible join cluster in the plan, bottom-up.
pub fn reorder_joins(node: Node) -> Node {
    // Eligibility is decided on a borrow, *before* the tree is consumed: an
    // ineligible cluster keeps its authored shape exactly (only its child
    // relations are visited), so volatile or erroring ON predicates never
    // move.
    if !cluster_eligible(&node) {
        return node.map_inputs(reorder_joins);
    }

    // Flatten the maximal Inner/Cross cluster rooted here.
    let fields = node.fields.clone();
    let mut rels: Vec<Node> = Vec::new();
    let mut preds: Vec<PExpr> = Vec::new();
    flatten_cluster(node, 0, &mut rels, &mut preds);

    let order = greedy_order(&rels, &preds);
    build_ordered(rels, preds, order, fields)
}

/// True when the Inner/Cross join cluster rooted at `node` may be reordered:
/// at least [`MIN_RELATIONS`] base relations (at most 64 — the predicate
/// bitmask width), and every pooled ON conjunct non-volatile and error-free
/// (moving a conjunct to an earlier join evaluates it on row combinations
/// the authored plan never built — the same gates pushdown applies).
fn cluster_eligible(node: &Node) -> bool {
    if !matches!(
        node.kind,
        NodeKind::Join { kind: JoinKind::Inner | JoinKind::Cross, .. }
    ) {
        return false;
    }
    fn walk(node: &Node, rels: &mut usize, ok: &mut bool) {
        match &node.kind {
            NodeKind::Join {
                left,
                right,
                kind: JoinKind::Inner | JoinKind::Cross,
                on,
            } => {
                walk(left, rels, ok);
                walk(right, rels, ok);
                for p in on.iter().flat_map(conjuncts) {
                    if p.is_volatile() || !error_free(p) {
                        *ok = false;
                    }
                }
            }
            _ => *rels += 1,
        }
    }
    let mut rels = 0;
    let mut ok = true;
    walk(node, &mut rels, &mut ok);
    ok && (MIN_RELATIONS..=64).contains(&rels)
}

/// Recursively flattens `Inner`/`Cross` joins into `rels` (each child
/// recursively reordered) and pools `ON` conjuncts into `preds`, rebased by
/// `base` into the cluster's concatenated column space. Left-to-right DFS
/// keeps the concatenated relation columns in the original output order.
fn flatten_cluster(node: Node, base: usize, rels: &mut Vec<Node>, preds: &mut Vec<PExpr>) {
    match node.kind {
        NodeKind::Join {
            left,
            right,
            kind: JoinKind::Inner | JoinKind::Cross,
            on,
        } => {
            let la = left.arity();
            flatten_cluster(*left, base, rels, preds);
            flatten_cluster(*right, base + la, rels, preds);
            let rebased = on.into_iter().flat_map(into_conjuncts).map(|p| p.map_cols(&|c| c + base));
            preds.extend(rebased);
        }
        kind => rels.push(reorder_joins(Node::new(kind, node.fields))),
    }
}

/// Starting cluster-column offset of each relation in original order.
fn rel_offsets(rels: &[Node]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(rels.len());
    let mut base = 0;
    for r in rels {
        offsets.push(base);
        base += r.arity();
    }
    offsets
}

/// The set of relations a predicate's columns touch, as a bitmask.
fn pred_rels(p: &PExpr, offsets: &[usize], total: usize) -> u64 {
    let mut cols = Vec::new();
    p.collect_cols(&mut cols);
    let mut mask = 0u64;
    for c in cols {
        let rel = offsets.iter().rposition(|&o| o <= c).unwrap_or(0);
        debug_assert!(c < offsets.get(rel + 1).copied().unwrap_or(total));
        mask |= 1 << rel;
    }
    mask
}

/// True when the join at the top of `plan` has a hash key the cost model
/// has statistics for: an equi pair whose two sides are bare columns.
fn keyed_on_columns(plan: &Node) -> bool {
    let NodeKind::Join { left, on: Some(on), .. } = &plan.kind else { return false };
    let (equi, _) = split_join_on(on, left.arity());
    equi.iter().any(|pair| matches!(pair, (PExpr::Col(_), PExpr::Col(_))))
}

/// Greedy join-order search: returns the relation indices in join order.
fn greedy_order(rels: &[Node], preds: &[PExpr]) -> Vec<usize> {
    let n = rels.len();
    let offsets = rel_offsets(rels);
    let total: usize = rels.iter().map(Node::arity).sum();
    let masks: Vec<u64> = preds.iter().map(|p| pred_rels(p, &offsets, total)).collect();

    // Score a candidate order prefix by building the partial plan and
    // estimating it: whether its last relation joins on an equi-predicate,
    // then cumulative cost, cheaper being better.
    let score = |order: &[usize]| -> (bool, f64) {
        let (plan, _) = assemble(rels, preds, &masks, &offsets, order);
        (keyed_on_columns(&plan), -estimate(&plan).cost)
    };

    // Seed: the cheapest pair, preferring pairs connected by an equi-pred.
    let mut best: Option<(Vec<usize>, (bool, f64))> = None;
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let order = vec![i, j];
            let scored = score(&order);
            if best.as_ref().is_none_or(|(_, b)| scored > *b) {
                best = Some((order, scored));
            }
        }
    }
    let (mut order, _) = best.expect("cluster has >= 3 relations");

    // Grow: always append the relation with the cheapest resulting plan,
    // preferring connected relations to avoid intermediate cross products.
    while order.len() < n {
        let mut best: Option<(usize, (bool, f64))> = None;
        for j in 0..n {
            if order.contains(&j) {
                continue;
            }
            let mut cand = order.clone();
            cand.push(j);
            let scored = score(&cand);
            if best.as_ref().is_none_or(|(_, b)| scored > *b) {
                best = Some((j, scored));
            }
        }
        order.push(best.expect("unplaced relation exists").0);
    }
    order
}

/// Builds the left-deep join tree for `order`, placing each pooled predicate
/// at the first join covering its relations. Returns the tree plus the
/// cluster-column → output-column mapping.
fn assemble(
    rels: &[Node],
    preds: &[PExpr],
    masks: &[u64],
    offsets: &[usize],
    order: &[usize],
) -> (Node, HashMap<usize, usize>) {
    let mut used = vec![false; preds.len()];
    let mut colmap: HashMap<usize, usize> = HashMap::new();

    let first = order[0];
    for c in 0..rels[first].arity() {
        colmap.insert(offsets[first] + c, c);
    }
    let mut plan = rels[first].clone();
    let mut placed: u64 = 1 << first;

    for &j in &order[1..] {
        let la = plan.arity();
        for c in 0..rels[j].arity() {
            colmap.insert(offsets[j] + c, la + c);
        }
        placed |= 1 << j;

        // Predicates now fully covered join here, remapped to current space.
        let mut on_parts = Vec::new();
        for (pi, p) in preds.iter().enumerate() {
            if !used[pi] && masks[pi] & !placed == 0 {
                used[pi] = true;
                on_parts.push(p.clone().map_cols(&|c| colmap.get(&c).copied().unwrap_or(c)));
            }
        }
        let on = conjoin(on_parts);
        let kind = if on.is_some() { JoinKind::Inner } else { JoinKind::Cross };
        let fields: Vec<Field> = plan
            .fields
            .iter()
            .chain(rels[j].fields.iter())
            .cloned()
            .collect();
        plan = Node::new(
            NodeKind::Join { left: Box::new(plan), right: Box::new(rels[j].clone()), kind, on },
            fields,
        );
    }
    // During greedy search `order` is a prefix, so predicates spanning
    // unplaced relations legitimately stay unused; the final assembly over
    // the full order places every predicate.
    debug_assert!(
        order.len() < rels.len() || used.iter().all(|&u| u),
        "every pooled predicate placed"
    );
    (plan, colmap)
}

/// Materializes the chosen order and restores the original column order with
/// a projection when the permutation is not the identity.
fn build_ordered(
    rels: Vec<Node>,
    preds: Vec<PExpr>,
    order: Vec<usize>,
    fields: Vec<Field>,
) -> Node {
    let offsets = rel_offsets(&rels);
    let total: usize = rels.iter().map(Node::arity).sum();
    let masks: Vec<u64> = preds.iter().map(|p| pred_rels(p, &offsets, total)).collect();
    let (plan, colmap) = assemble(&rels, &preds, &masks, &offsets, &order);

    let identity = (0..total).all(|i| colmap.get(&i) == Some(&i));
    if identity {
        return Node::new(plan.kind, fields);
    }
    let exprs: Vec<PExpr> = (0..total).map(|i| PExpr::Col(colmap[&i])).collect();
    Node::new(NodeKind::Project { input: Box::new(plan), exprs }, fields)
}
