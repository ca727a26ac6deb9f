//! Empty-group elimination: a predicate that no empty group can pass filters
//! below the aggregate that would build that group.
//!
//! The flag-column translation of a nested FLWOR (paper §IV-C1) keeps every
//! row of the enclosing query alive through the nested query: it stamps a
//! row id with `SEQ8()`, flattens `OUTER => TRUE`, carries a `KEEP` flag
//! instead of filtering, aggregates `AGG(IFF(KEEP, x, NULL))` per row id and
//! restores the outer columns with `ANY_VALUE`. A row whose nested query is
//! empty becomes an *empty group*: every gated aggregate sees only NULLs.
//! When the predicate above the aggregate (`count(…) ge 2`, `exists(…)`)
//! cannot be TRUE on that group's row, building the group is waste, and so
//! is every flattened row with `KEEP` false.
//!
//! One question decides the rule wherever it fires: **can this predicate be
//! TRUE on the row that an empty group, a NULL extension or an `OUTER`
//! flatten pad produces?** [`rejects`] answers it by substituting that row's
//! known values and constant-folding with [`eval_const`]; FALSE or NULL is
//! "no", anything else — a column left over, an error, a volatile call — is
//! "maybe", and the rule does not fire. It fires in three places:
//!
//! 1. `Filter(P) → Aggregate group=[rid]` ([`eliminate`]): every gated
//!    aggregate is `AGG(IFF(keep, x, NULL))` with one shared, non-volatile
//!    `keep`; every other aggregate is `ANY_VALUE` of a column constant per
//!    `rid`; and some conjunct of `P` rejects the empty group's row (`COUNT`
//!    0, `ARRAY_AGG` `[]`, every other aggregate NULL). The plan becomes
//!    `Filter(P) → Aggregate(AGG(x)) → Filter(keep)`, and the new filter is
//!    pushed down from where the `keep` column was read with
//!    [`push_filter`], whose guards decide what moves further.
//! 2. An `OUTER` flatten under a filter with a conjunct that rejects the pad
//!    row (`VALUE`, `INDEX` and `KEY` NULL; its `SEQ` and `THIS` are those
//!    of its input row) becomes an inner flatten
//!    ([`push_filter`]'s flatten arm, through [`pads_rejected`]).
//! 3. A `LEFT OUTER` join under a filter with a conjunct that rejects the
//!    NULL-extended row (every right column NULL) becomes an inner join
//!    ([`push_filter`]'s join arm, the same way).
//!
//! "Constant per `rid`" is a functional dependency read off the plan: the
//! columns of the projection that stamps `SEQ8()` are constant per the row id
//! it stamps, and a `FLATTEN` copies its input columns onto every row it
//! emits, so a column that walks down through projections (plain column
//! references), filters and flatten inputs to the stamp is constant per
//! `rid` ([`stamp_of`]).
//!
//! Refusals: an aggregate that is neither gated nor such an `ANY_VALUE`
//! (an ungated `COUNT(*)`, `ANY_VALUE` of a flatten output, a gated
//! `ANY_VALUE`, `MIN_BY`/`MAX_BY`), two different `keep`s, a volatile `keep`,
//! a predicate that some empty group passes (`count(…) ge 0`, `empty(…)`),
//! and a predicate that can raise: it would no longer run on the eliminated
//! groups. In places 2 and 3 every conjunct must be [`error_free`] for the
//! same reason — the pad rows and NULL-extended rows it would have run on are
//! gone — and not volatile, since `SEQ8()` would number fewer rows.
//!
//! Besides, a `NVL` over a `COUNT` output in a filter directly over its
//! aggregate is dropped: a count is never NULL. That is what leaves the
//! JOIN-based strategy's `NVL(count, 0) >= 2` as `count >= 2` once place 3
//! has made its join inner.

use super::share::same_expr;
use super::{error_free, push_filter};
use crate::exec::eval_const;
use crate::plan::{conjuncts, AggExpr, AggKind, FuncId, Node, NodeKind, PExpr};
use crate::variant::Variant;

/// True when `p` cannot be TRUE on a row where every column that `value`
/// names holds that value: the substituted predicate folds to FALSE or NULL.
fn rejects(p: &PExpr, value: impl Fn(usize) -> Option<Variant>) -> bool {
    matches!(fold_with(p, value), Some(Variant::Null | Variant::Bool(false)))
}

/// True when the conjuncts `parts` of a filter reject every row whose
/// `padded` columns are NULL — an `OUTER` flatten's pad, a left outer join's
/// NULL extension — so that the operator below need not make them. Every
/// conjunct must be error-free and not volatile: removing those rows changes
/// where the others run, and how `SEQ8()` numbers them.
pub(super) fn pads_rejected(parts: &[PExpr], padded: impl Fn(usize) -> bool) -> bool {
    parts.iter().all(|p| error_free(p) && !p.is_volatile())
        && parts.iter().any(|p| rejects(p, |c| padded(c).then_some(Variant::Null)))
}

/// `p` with every column that `value` names replaced by its value, folded;
/// `None` when a column is left over, `p` is volatile, or it raises.
pub(super) fn fold_with(p: &PExpr, value: impl Fn(usize) -> Option<Variant>) -> Option<Variant> {
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

/// Runs the rule on every `Filter` directly over an `Aggregate`.
pub(super) fn eliminate(node: Node) -> Node {
    let mut node = node.map_inputs(eliminate);
    if let NodeKind::Filter { input, pred } = &mut node.kind {
        if let NodeKind::Aggregate { input: below, groups, aggs } = &mut input.kind {
            drop_nvl_of_counts(pred, groups.len(), aggs);
            if let Some(keep) = empty_group_rejected(pred, below, groups, aggs) {
                // Every aggregate but `ANY_VALUE` is `AGG(IFF(keep, x, NULL))`.
                for a in aggs.iter_mut().filter(|a| a.kind != AggKind::AnyValue) {
                    if let Some(PExpr::Func { mut args, .. }) = a.arg.take() {
                        a.arg = Some(args.swap_remove(1));
                    }
                }
                let fields = below.fields.clone();
                let taken =
                    std::mem::replace(&mut **below, Node::new(NodeKind::Values, Vec::new()));
                **below = push_filter(taken, keep, fields);
            }
        }
    }
    node
}

/// Replaces `NVL(c, …)` by `c` where `c` is a `COUNT` output of the
/// aggregate the predicate sits on.
fn drop_nvl_of_counts(pred: &mut PExpr, n_groups: usize, aggs: &[AggExpr]) {
    let is_count = |e: &PExpr| match e {
        PExpr::Col(c) => {
            *c >= n_groups
                && matches!(
                    aggs[*c - n_groups].kind,
                    AggKind::Count | AggKind::CountStar | AggKind::CountDistinct
                )
        }
        _ => false,
    };
    if let PExpr::Func { f: FuncId::Nvl, args } = pred {
        if args.len() == 2 && is_count(&args[0]) {
            *pred = args.swap_remove(0);
            return;
        }
    }
    pred.for_each_child_mut(&mut |c| drop_nvl_of_counts(c, n_groups, aggs));
}

/// The shared `keep` of the gated aggregates when the flag-form rewrite is
/// sound (see the module docs); `None` when the rule refuses.
fn empty_group_rejected(
    pred: &PExpr,
    input: &Node,
    groups: &[PExpr],
    aggs: &[AggExpr],
) -> Option<PExpr> {
    let [PExpr::Col(rid)] = groups else { return None };
    let stamp = stamp_of(input, *rid).filter(|(stamp, c)| {
        matches!(&stamp.kind, NodeKind::Project { exprs, .. }
            if matches!(&exprs[*c], PExpr::Func { f: FuncId::Seq8, .. }))
    })?;
    let mut keep: Option<&PExpr> = None;
    let mut empty = vec![None; aggs.len()];
    for (a, slot) in aggs.iter().zip(&mut empty) {
        match (a.kind, &a.arg, &a.arg2) {
            (AggKind::AnyValue, Some(PExpr::Col(c)), None) => {
                stamp_of(input, *c).filter(|(s, _)| std::ptr::eq(*s, stamp.0))?;
            }
            (kind, Some(PExpr::Func { f: FuncId::Iff, args }), None) if gateable(kind) => {
                let [k, _, PExpr::Lit(Variant::Null)] = args.as_slice() else { return None };
                if k.is_volatile() || keep.is_some_and(|prev| !same_expr(prev, k)) {
                    return None;
                }
                keep = Some(k);
                *slot = Some(match kind {
                    AggKind::Count | AggKind::CountDistinct => Variant::Int(0),
                    AggKind::ArrayAgg => Variant::array(Vec::new()),
                    _ => Variant::Null,
                });
            }
            _ => return None,
        }
    }
    let keep = keep?;
    let n = groups.len();
    let rejected = error_free(pred)
        && conjuncts(pred)
            .into_iter()
            .any(|p| rejects(p, |c| c.checked_sub(n).and_then(|a| empty[a].clone())));
    rejected.then(|| keep.clone())
}

/// Aggregates that skip NULL inputs, so that `AGG(IFF(keep, x, NULL))` over
/// all rows is `AGG(x)` over the rows where `keep` holds.
fn gateable(kind: AggKind) -> bool {
    matches!(
        kind,
        AggKind::Count
            | AggKind::CountDistinct
            | AggKind::Sum
            | AggKind::Min
            | AggKind::Max
            | AggKind::Avg
            | AggKind::ArrayAgg
            | AggKind::BoolAnd
            | AggKind::BoolOr
    )
}

/// The projection that stamps a row id below `node`, and the position there
/// of `node`'s column `col`, when the column walks down to it unchanged:
/// through column references of projections, filters and a flatten's input
/// columns. The stamp is the first projection computing a `SEQ8()`.
fn stamp_of(node: &Node, col: usize) -> Option<(&Node, usize)> {
    match &node.kind {
        NodeKind::Project { exprs, .. }
            if exprs.iter().any(|e| matches!(e, PExpr::Func { f: FuncId::Seq8, .. })) =>
        {
            Some((node, col))
        }
        NodeKind::Project { input, exprs } => match exprs[col] {
            PExpr::Col(c) => stamp_of(input, c),
            _ => None,
        },
        NodeKind::Filter { input, .. } => stamp_of(input, col),
        NodeKind::Flatten { input, .. } if col < input.arity() => stamp_of(input, col),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnDef, ColumnType};
    use crate::{Database, QueryOptions};

    /// `ID`, and `XS` = `[0 .. ID % 4)`: a quarter of the rows have an empty
    /// array, and `ID = 0` once.
    fn db() -> Database {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("XS", ColumnType::Variant)],
            (0..24).map(|i| {
                vec![
                    Variant::Int(i),
                    Variant::array((0..i % 4).map(Variant::Int).collect::<Vec<_>>()),
                ]
            }),
            8,
        )
        .unwrap();
        db
    }

    /// The flag-column shape of a nested query over `XS`: `aggs` reads the
    /// flattened row's `KEEP`, `V` (the element), `I` (its index) and `ID`, grouped by the row
    /// id and filtered by `pred` over the aggregate outputs `A`, `B`, ….
    fn flag_sql(keep: &str, aggs: &[&str], pred: &str) -> String {
        let names = ["A", "B", "C"];
        let items: Vec<String> =
            aggs.iter().zip(names).map(|(a, n)| format!("{a} AS {n}")).collect();
        format!(
            "SELECT RID, {names} FROM (SELECT RID, {items} FROM (\
               SELECT *, ({keep}) AS KEEP, F.VALUE AS V, F.INDEX AS I FROM (SELECT *, SEQ8() AS RID FROM t), \
               LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F) GROUP BY RID) \
             WHERE {pred} ORDER BY RID",
            names = names[..aggs.len()].join(", "),
            items = items.join(", "),
        )
    }

    /// Whether the optimized plan's first aggregate reads a filter (the moved
    /// `keep`) and an `OUTER` flatten below it.
    fn below_aggregate(plan: &Node) -> (bool, bool) {
        fn walk(n: &Node, filter: &mut bool, outer: &mut bool) {
            match &n.kind {
                NodeKind::Filter { .. } => *filter = true,
                NodeKind::Flatten { outer: o, .. } => *outer |= *o,
                _ => {}
            }
            n.kind.inputs().into_iter().for_each(|i| walk(i, filter, outer));
        }
        match &plan.kind {
            NodeKind::Aggregate { input, .. } => {
                let (mut filter, mut outer) = (false, false);
                walk(input, &mut filter, &mut outer);
                (filter, outer)
            }
            _ => below_aggregate(plan.kind.inputs()[0]),
        }
    }

    /// Runs `sql` with the optimizer on and off, checks that both give the
    /// same rows or the same error, and returns [`below_aggregate`] of the
    /// optimized plan.
    fn check(sql: &str) -> (bool, bool) {
        let db = db();
        let raw = QueryOptions { optimize: false, ..Default::default() };
        match (db.query(sql), db.query_with(sql, &raw)) {
            (Ok(a), Ok(b)) => assert_eq!(a.rows, b.rows, "{sql}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{sql}"),
            (a, b) => {
                panic!("{sql}: optimized {:?}, raw {:?}", a.map(|r| r.rows), b.map(|r| r.rows))
            }
        }
        below_aggregate(&db.compile(sql).unwrap())
    }

    const KEEP: &str = "F.INDEX IS NOT NULL AND IFF(F.VALUE > 0, TRUE, FALSE)";

    #[test]
    fn count_at_least_k_filters_below_the_aggregate_for_k_above_zero() {
        for k in [1, 2] {
            let sql = flag_sql(
                KEEP,
                &["COUNT(IFF(KEEP, V, NULL))", "ANY_VALUE(ID)"],
                &format!("A >= {k}"),
            );
            assert_eq!(check(&sql), (true, false), "k = {k}");
        }
        // Every group passes `count ge 0`, the empty one included.
        let sql = flag_sql(KEEP, &["COUNT(IFF(KEEP, V, NULL))", "ANY_VALUE(ID)"], "A >= 0");
        assert_eq!(check(&sql), (false, true));
    }

    #[test]
    fn empty_and_exists_differ() {
        let aggs = ["COUNT(IFF(KEEP, 1, NULL))"];
        // `exists(…)`: NVL(count, 0) > 0 rejects the empty group.
        assert_eq!(check(&flag_sql(KEEP, &aggs, "NVL(NVL(A, 0), 0) > 0")), (true, false));
        // `empty(…)` is TRUE exactly on it.
        assert_eq!(check(&flag_sql(KEEP, &aggs, "NVL(A, 0) = 0")), (false, true));
    }

    #[test]
    fn sum_rejects_the_empty_group_only_through_null() {
        let aggs = ["SUM(IFF(KEEP, V, NULL))", "ANY_VALUE(ID)"];
        for c in [-1, 0, 3] {
            // SUM of the empty group is NULL: `SUM > c` drops it for every c.
            assert_eq!(
                check(&flag_sql(KEEP, &aggs, &format!("A > {c}"))),
                (true, false),
                "c = {c}"
            );
            // `NVL(SUM, 0) > c` keeps it when c < 0.
            let nvl = check(&flag_sql(KEEP, &aggs, &format!("NVL(A, 0) > {c}")));
            assert_eq!(nvl, if c < 0 { (false, true) } else { (true, false) }, "c = {c}");
        }
    }

    #[test]
    fn any_value_of_a_flatten_output_refuses() {
        let sql = flag_sql(KEEP, &["COUNT(IFF(KEEP, V, NULL))", "ANY_VALUE(V)"], "A >= 1");
        assert_eq!(check(&sql), (false, true));
        // So does an ungated COUNT(*), and a gated ANY_VALUE (it keeps the
        // first row's NULL).
        for agg in ["COUNT(*)", "ANY_VALUE(IFF(KEEP, V, NULL))"] {
            let sql = flag_sql(KEEP, &["COUNT(IFF(KEEP, V, NULL))", agg], "A >= 1");
            assert_eq!(check(&sql), (false, true), "{agg}");
        }
    }

    #[test]
    fn a_volatile_or_second_keep_refuses() {
        let volatile = ["COUNT(IFF(SEQ8() % 2 = 0, V, NULL))"];
        assert_eq!(check(&flag_sql(KEEP, &volatile, "A >= 1")), (false, true));
        let two = ["COUNT(IFF(KEEP, V, NULL))", "COUNT(IFF(I IS NOT NULL, V, NULL))"];
        assert_eq!(check(&flag_sql(KEEP, &two, "A >= 1")), (false, true));
    }

    #[test]
    fn a_raising_predicate_refuses_and_a_raising_keep_keeps_the_flatten_outer() {
        let aggs = ["COUNT(IFF(KEEP, V, NULL))", "ANY_VALUE(ID)"];
        // `10 / B` raises on the empty group of ID = 0: it must still run there.
        assert_eq!(check(&flag_sql(KEEP, &aggs, "A >= 1 AND 10 / B > 0")), (false, true));
        // An element predicate that can raise moves below the aggregate with
        // `keep` but not below the flatten, and the flatten stays OUTER: it
        // runs on the same flattened rows. `V - 5` is never 0 here; `V` is.
        for div in ["F.VALUE - 5", "F.VALUE"] {
            let raising = format!("F.INDEX IS NOT NULL AND IFF(10 / ({div}) > 1, TRUE, FALSE)");
            assert_eq!(check(&flag_sql(&raising, &aggs, "A >= 1")), (true, true), "{div}");
        }
    }

    #[test]
    fn nvl_of_a_count_over_its_aggregate_goes() {
        let mut pred =
            PExpr::Func { f: FuncId::Nvl, args: vec![PExpr::Col(1), PExpr::Lit(Variant::Int(0))] };
        let count = AggExpr { kind: AggKind::Count, arg: Some(PExpr::Col(0)), arg2: None };
        let sum = AggExpr { kind: AggKind::Sum, ..count.clone() };
        drop_nvl_of_counts(&mut pred, 1, &[sum]);
        assert!(matches!(pred, PExpr::Func { f: FuncId::Nvl, .. }), "SUM can be NULL");
        drop_nvl_of_counts(&mut pred, 1, &[count]);
        assert_eq!(pred, PExpr::Col(1));
    }
}
