//! The `KEEP` pass: what a nested query's `keep` does below its row-id
//! aggregate, decided once per aggregate (DESIGN.md, "Empty-group
//! elimination").
//!
//! The flag-column strategy folds a nested query as `AGG(IFF(keep, x, NULL))`
//! per `SEQ8()` row id. When that aggregate is gated ([`gated`]), `keep`
//! - **moves** if a conjunct of a `Filter(P)` directly over it [may
//!   leave](super::may_leave) `P` and [rejects](super::rejects) the empty
//!   group: the aggregates become `AGG(x)` over `Filter(keep)`, pushed down
//!   from where `keep` was read ([`push_filter`]);
//! - is **copied** otherwise, as every row id keeps its group: the conjuncts
//!   of `keep` that may leave go into a `Filter … per=<rid>`, which passes
//!   the rows they hold on and, in each batch, one row of every run of `rid`
//!   that has none, whose `keep` above is not TRUE ([`lower`]).
//!
//! Row ids are read off the lineage in one bottom-up walk ([`scan`]).

use super::share::same_expr;
use super::{conjoin, drop_literal_true, flatten_bound, holds, may_leave, push_filter, rejects};
use crate::plan::{conjuncts, into_conjuncts, AggExpr, AggKind, FuncId, Node, NodeKind, PExpr};
use crate::variant::Variant;

/// Moves or copies the `keep` of every gated row-id aggregate.
pub(super) fn place(node: &mut Node) {
    let mut aggs = Vec::new();
    scan(node, &mut aggs, &mut 0);
    apply(node, &aggs, &mut 0);
}

/// What [`scan`] knows of a column, one bit per row-id stamp: the stamp
/// whose `SEQ8()` it is (`rid`, 0 if none), and each stamp it passes (`per`).
#[derive(Clone, Copy, Default)]
struct Col {
    rid: u64,
    per: u64,
}

/// Column `c` of a [`scan`] result; the columns past its end pass no stamp.
fn at(cols: &[Col], c: usize) -> Col {
    cols.get(c).copied().unwrap_or_default()
}

/// One aggregate of the plan, in preorder, and its decision.
#[derive(Default)]
struct Agg {
    /// The input column each output column equals on every row of its group.
    per_group: Vec<Option<usize>>,
    /// The shared `keep`, if the aggregate is gated.
    keep: Option<PExpr>,
    /// The filter directly over it rejects its empty group: move, not copy.
    moved: bool,
}

fn is_seq8(e: &PExpr) -> bool {
    matches!(e, PExpr::Func { f: FuncId::Seq8, .. })
}

/// The [`Col`] of each output column of `node` ([`NodeKind::copies`]): a
/// row id's lineage ends at a projection's `SEQ8()`, its stamp, and a column
/// whose lineage passes that stamp is constant per the row id. It goes on
/// through an aggregate's [per-group](gated) columns: q7's outer row id is
/// `ANY_VALUE(RID1)` of the per-jet aggregate. Records an [`Agg`] per
/// aggregate in `aggs`, and drops a `NVL` of a `COUNT` output (never NULL)
/// from a filter directly over its aggregate. A 65th stamp gets no bit.
fn scan(node: &mut Node, aggs: &mut Vec<Agg>, stamps: &mut u32) -> Vec<Col> {
    let k = aggs.len();
    match &mut node.kind {
        NodeKind::Project { input, exprs } => {
            let cols = scan(input, aggs, stamps);
            let stamp = match exprs.iter().any(is_seq8) {
                true => 1u64.checked_shl(std::mem::replace(stamps, *stamps + 1)).unwrap_or(0),
                false if cols.is_empty() => return cols,
                false => 0,
            };
            let col = |e: &PExpr| match *e {
                PExpr::Col(c) => Col { per: at(&cols, c).per | stamp, ..at(&cols, c) },
                _ => Col { rid: if is_seq8(e) { stamp } else { 0 }, per: stamp },
            };
            exprs.iter().map(col).collect()
        }
        NodeKind::Aggregate { input, groups, aggs: list } => {
            aggs.push(Agg::default());
            let cols = scan(input, aggs, stamps);
            aggs[k] = gated(groups, list, &cols);
            aggs[k].per_group.iter().map(|g| g.map_or(Col::default(), |y| at(&cols, y))).collect()
        }
        NodeKind::Filter { input, pred, per } => {
            let cols = scan(input, aggs, stamps);
            if let (None, NodeKind::Aggregate { groups, aggs: list, .. }) = (per, &input.kind) {
                drop_nvl_of_counts(pred, groups.len(), list);
                let empty = |c: usize| empty_value(list[c.checked_sub(groups.len())?].kind);
                let parts = conjuncts(pred);
                let leave = || may_leave(parts.iter().copied());
                aggs[k].moved = aggs[k].keep.is_some()
                    && parts.iter().zip(leave()).any(|(p, l)| l && rejects(p, empty));
            }
            cols
        }
        // A flatten's own columns are past its input's.
        NodeKind::Flatten { input, .. }
        | NodeKind::Sort { input, .. }
        | NodeKind::Limit { input, .. }
        | NodeKind::Distinct { input } => scan(input, aggs, stamps),
        NodeKind::Join { left, right, .. } => {
            let (mut cols, right) = (scan(left, aggs, stamps), scan(right, aggs, stamps));
            if !right.is_empty() {
                cols.resize(left.arity(), Col::default());
                cols.extend(right);
            }
            cols
        }
        kind => {
            kind.inputs_mut().into_iter().for_each(|n| drop(scan(n, aggs, stamps)));
            Vec::new()
        }
    }
}

/// The [`Agg`] of `Aggregate group=groups aggs=aggs` over columns `cols`.
/// Its per-group columns are its key, if a row id, and each `ANY_VALUE` of
/// a column constant per that key. It is gated when every aggregate is
/// either such an `ANY_VALUE` or `AGG(IFF(keep, x, NULL))` for one shared,
/// non-volatile `keep` and an aggregate that skips NULLs.
fn gated(groups: &[PExpr], aggs: &[AggExpr], cols: &[Col]) -> Agg {
    let per_group = vec![None; groups.len() + aggs.len()];
    let mut agg = Agg { per_group, keep: None, moved: false };
    let (key, stamp) = match *groups {
        [PExpr::Col(key)] if at(cols, key).rid != 0 => (key, at(cols, key).rid),
        _ => return agg,
    };
    agg.per_group[0] = Some(key);
    for (a, slot) in aggs.iter().zip(&mut agg.per_group[1..]) {
        if let (AggKind::AnyValue, Some(PExpr::Col(y)), None) = (a.kind, &a.arg, &a.arg2) {
            *slot = (at(cols, *y).per & stamp != 0).then_some(*y);
        }
    }
    let mut keep: Option<&PExpr> = None;
    for (a, per_group) in aggs.iter().zip(&agg.per_group[1..]) {
        match (&a.arg, &a.arg2, empty_value(a.kind)) {
            _ if per_group.is_some() => {}
            (Some(PExpr::Func { f: FuncId::Iff, args }), None, Some(_)) => match args.as_slice() {
                [k, _, PExpr::Lit(Variant::Null)]
                    if !k.is_volatile() && keep.is_none_or(|prev| same_expr(prev, k)) =>
                {
                    keep = Some(k)
                }
                _ => return agg,
            },
            _ => return agg,
        }
    }
    agg.keep = keep.cloned();
    agg
}

/// The value on the empty group of an aggregate that skips NULL inputs, for
/// which `AGG(IFF(keep, x, NULL))` is `AGG(x)` over the rows `keep` passes.
fn empty_value(kind: AggKind) -> Option<Variant> {
    Some(match kind {
        AggKind::Count | AggKind::CountDistinct => Variant::Int(0),
        AggKind::ArrayAgg => Variant::array(Vec::new()),
        AggKind::Sum | AggKind::Min | AggKind::Max | AggKind::Avg => Variant::Null,
        AggKind::BoolAnd | AggKind::BoolOr => Variant::Null,
        _ => return None,
    })
}

/// Replaces `NVL(c, …)` by `c` where `c` is a `COUNT` output of the
/// aggregate the predicate sits on.
fn drop_nvl_of_counts(pred: &mut PExpr, n_groups: usize, aggs: &[AggExpr]) {
    if let PExpr::Func { f: FuncId::Nvl, args } = pred {
        if let [PExpr::Col(c), _] = args[..] {
            let counts = [AggKind::Count, AggKind::CountStar, AggKind::CountDistinct];
            if c >= n_groups && counts.contains(&aggs[c - n_groups].kind) {
                *pred = args.swap_remove(0);
                return;
            }
        }
    }
    pred.for_each_child_mut(&mut |c| drop_nvl_of_counts(c, n_groups, aggs));
}

/// Applies each aggregate's decision, in preorder (`next` counts the
/// aggregates passed): a copy before the walk goes below its aggregate, so an
/// inner aggregate's copy stops at the outer one's; a move after.
fn apply(node: &mut Node, aggs: &[Agg], next: &mut usize) {
    if *next == aggs.len() {
        return;
    }
    let NodeKind::Aggregate { input, groups, aggs: list } = &mut node.kind else {
        return node.kind.inputs_mut().into_iter().for_each(|n| apply(n, aggs, next));
    };
    let Agg { keep, moved, .. } = &aggs[*next];
    *next += 1;
    if let (Some(keep), false, [PExpr::Col(rid)]) = (keep, moved, &groups[..]) {
        **input = lower(take(input), copied(keep.clone()), *rid, false, &aggs[*next..]);
    }
    apply(input, aggs, next);
    if let (Some(keep), true) = (keep, moved) {
        // Every aggregate but `ANY_VALUE` is `AGG(IFF(keep, x, NULL))`.
        for a in list.iter_mut().filter(|a| a.kind != AggKind::AnyValue) {
            if let Some(PExpr::Func { mut args, .. }) = a.arg.take() {
                a.arg = Some(args.swap_remove(1));
            }
        }
        let fields = input.fields.clone();
        **input = push_filter(take(input), keep.clone(), fields);
    }
}

fn take(node: &mut Node) -> Node {
    std::mem::replace(node, Node::new(NodeKind::Values, Vec::new()))
}

/// The conjuncts of `pred` a run-preserving filter holds: those that may leave.
fn copied(pred: PExpr) -> Vec<PExpr> {
    let parts = split([pred]);
    let leave = may_leave(&parts);
    parts.into_iter().zip(leave).filter_map(|(p, leave)| leave.then_some(p)).collect()
}

/// The conjuncts of `preds` ([`into_conjuncts`]) without the literal TRUE.
fn split(preds: impl IntoIterator<Item = PExpr>) -> Vec<PExpr> {
    let parts = preds.into_iter().flat_map(into_conjuncts);
    parts.filter(|p| !matches!(p, PExpr::Lit(Variant::Bool(true)))).collect()
}

/// `node` under a run-preserving copy of `parts` over its row-id column
/// `rid`, lowered as far as it keeps a row of every run of `rid`; it never
/// crosses a filter, a join, an inner flatten or its own stamp. `moved` says
/// whether it came below a flatten or an aggregate, whose work on the rows it
/// drops it spares; `below` are the aggregates under `node` in preorder.
fn lower(node: Node, mut parts: Vec<PExpr>, rid: usize, moved: bool, below: &[Agg]) -> Node {
    if parts.is_empty() {
        return node;
    }
    let fields = node.fields;
    match node.kind {
        NodeKind::Project { input, exprs } => match exprs[rid] {
            // Over its own stamp, every run of a row id is one row: the copy
            // passes them all.
            PExpr::Func { f: FuncId::Seq8, .. } => {
                Node::new(NodeKind::Project { input, exprs }, fields)
            }
            PExpr::Col(inner_rid) if !holds(&exprs) => {
                let parts = split(parts.into_iter().map(|p| p.substitute(&exprs)));
                let input = Box::new(lower(*input, parts, inner_rid, moved, below));
                Node::new(NodeKind::Project { input, exprs }, fields)
            }
            // A projection that computes the row id otherwise, or holds the
            // copy.
            _ => {
                let parts = drop_literal_true(parts, &exprs);
                settle(Node::new(NodeKind::Project { input, exprs }, fields), parts, rid, moved)
            }
        },
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
            let input = Box::new(lower(*input, movable, rid, true, below));
            // Above a flatten it bounded by a comparison — a pair or triplet
            // loop — a copy's leftover conjuncts spare the projections and
            // the fold above most of the expansion's rows.
            let compared = matches!(&from, Some(b) if !matches!(b, PExpr::Lit(_)));
            let kind = NodeKind::Flatten { input, expr, outer: true, emit, from };
            settle(Node::new(kind, fields), stuck, rid, moved || compared)
        }
        // When the aggregate groups by an inner row id and evaluates nothing
        // that can raise, the conjuncts that read only its per-group columns
        // — each the same on every row of its group — go below it: they drop
        // whole groups, and the one row a run keeps makes a group whose own
        // copy of the conjunct is not TRUE. The row id must be such a column.
        NodeKind::Aggregate { input, groups, aggs } => {
            let (this, below) = below.split_first().expect("every aggregate is in the list");
            let evaluated =
                groups.iter().chain(aggs.iter().flat_map(|a| a.arg.iter().chain(&a.arg2)));
            let inner_rid = if holds(evaluated) { None } else { this.per_group[rid] };
            let (mut movable, mut stuck) = (Vec::new(), Vec::new());
            for p in parts {
                let mut cols = Vec::new();
                p.collect_cols(&mut cols);
                if inner_rid.is_some() && cols.iter().all(|&c| this.per_group[c].is_some()) {
                    movable.push(p.map_cols(&|c| this.per_group[c].expect("checked above")));
                } else {
                    stuck.push(p);
                }
            }
            let input = match inner_rid {
                Some(inner_rid) => Box::new(lower(*input, movable, inner_rid, true, below)),
                None => input,
            };
            let agg = Node::new(NodeKind::Aggregate { input, groups, aggs }, fields);
            settle(agg, stuck, rid, moved)
        }
        NodeKind::Filter { input, pred, per } if per == Some(rid) => {
            let mut merged = split([pred]);
            merged.extend(parts);
            lower(*input, merged, rid, moved, below)
        }
        NodeKind::Filter { input, pred, per } => {
            // A copy needs no conjunct that the filter below already tests.
            let tested = conjuncts(&pred);
            parts.retain(|p| !tested.iter().any(|t| same_expr(p, t)));
            settle(Node::new(NodeKind::Filter { input, pred, per }, fields), parts, rid, moved)
        }
        kind => settle(Node::new(kind, fields), parts, rid, moved),
    }
}

/// `node` under what is left of a copy: a `Filter … per=rid` if the copy
/// has `moved`, else `node` itself — over it, the copy would only test again,
/// for fewer rows of the projections and the fold above, what `keep` does.
fn settle(node: Node, parts: Vec<PExpr>, rid: usize, moved: bool) -> Node {
    match conjoin(parts) {
        Some(pred) if moved => {
            let fields = node.fields.clone();
            Node::new(NodeKind::Filter { input: Box::new(node), pred, per: Some(rid) }, fields)
        }
        _ => node,
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
    /// `keep`; the `KEEP` gate's run-preserving copy is no such filter) and
    /// an `OUTER` flatten below it.
    fn below_aggregate(plan: &Node) -> (bool, bool) {
        fn walk(n: &Node, filter: &mut bool, outer: &mut bool) {
            match &n.kind {
                NodeKind::Filter { per: None, .. } => *filter = true,
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
    fn a_raising_predicate_refuses_and_a_raising_keep_stays_above_its_projection() {
        let aggs = ["COUNT(IFF(KEEP, V, NULL))", "ANY_VALUE(ID)"];
        // `10 / B` raises on the empty group of ID = 0: it must still run there.
        assert_eq!(check(&flag_sql(KEEP, &aggs, "A >= 1 AND 10 / B > 0")), (false, true));
        // An element predicate that can raise moves below the aggregate with
        // `keep`, but the projection that computes `keep` can raise and
        // holds it (the movement rule): it runs on the same flattened rows,
        // before or after `F.INDEX IS NOT NULL`, and the flatten stays
        // OUTER. `V - 5` is never 0 here; `V` is.
        for div in ["F.VALUE - 5", "F.VALUE"] {
            let raising = format!("IFF(10 / ({div}) > 1, TRUE, FALSE)");
            let index = "F.INDEX IS NOT NULL";
            for keep in [format!("{index} AND {raising}"), format!("{raising} AND {index}")] {
                assert_eq!(check(&flag_sql(&keep, &aggs, "A >= 1")), (true, true), "{keep}");
            }
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
