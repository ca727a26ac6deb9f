//! Index-bounded flatten: a filter's positional conjuncts become the item
//! range of the inner flatten below it.
//!
//! Pair and triplet loops (`for $a at $i in …[] for $b at $j in …[] where
//! $i lt $j`, SQL `A.INDEX < B.INDEX`) flatten every ordered combination and
//! then drop most of them. A flatten that knows the first index each row
//! wants never builds those rows. [`absorb`] moves, from the conjuncts of a
//! filter directly over an inner flatten, into the flatten's `from`:
//!
//! - `INDEX IS NOT NULL` — array items, not object members — as `from=0`;
//! - `X < INDEX` and `X + c < INDEX + c` as `from=X + 1`, `X <= INDEX` and
//!   `X + c <= INDEX + c` as `from=X`, and the mirrored `>` and `>=` forms
//!   the same way.
//!
//! `X` must be the `INDEX` of a flatten further down, traced through
//! column-copying projections, filters, flatten inputs and both sides of
//! joins ([`index_below`]): it is an integer or NULL, and `X + 1` cannot
//! overflow. `c` is one integer literal, the same on both sides, small
//! enough that neither sum overflows (the translator writes JSONiq's
//! 1-based positions as `INDEX + 1`). A NULL `X` rejects the row in the
//! filter, and a NULL bound emits nothing: the same rows go.
//!
//! What the filter did to the rows the bound drops must stay unobservable,
//! so a conjunct is absorbed only if it [may leave](super::may_leave) the
//! filter, as one moved below the flatten must: the filter evaluates its
//! conjuncts left to right up to the first FALSE.
//!
//! - Only from the filter's prefix of [`error_free`](super::error_free),
//!   non-volatile conjuncts: on a dropped row the filter evaluated each of
//!   them, and one that raises or numbers rows would lose its error or
//!   shift its counter.
//! - `INDEX IS NOT NULL` is FALSE, never NULL, on the rows it drops, so the
//!   conjuncts after it never ran there. A comparison is NULL where `X` or
//!   `INDEX` is (an object member), and the filter then goes on to the
//!   conjuncts after it; so a comparison is absorbed only when every
//!   conjunct of the filter is error-free and not volatile.
//! - A flatten takes one comparison bound; any other comparison stays in
//!   the filter. `from=0` gives way to a comparison, which implies it.
//!
//! The caller refuses an `OUTER` flatten (its pad rows have a NULL `INDEX`
//! and are kept) and a volatile flatten input, whose `SEQ8()` numbers the
//! rows the flatten reads.

use crate::plan::{Node, NodeKind, PExpr};
use crate::sql::BinOp;
use crate::variant::Variant;

/// Makes `p`, a conjunct that [may leave](super::may_leave) the filter
/// directly over an inner flatten of `input`, part of the flatten's bound
/// `from` when it is one of the module's forms; true when it did.
pub(super) fn absorb(p: &PExpr, input: &Node, from: &mut Option<PExpr>) -> bool {
    let index = input.arity() + 1;
    if matches!(p, PExpr::IsNull { expr, negated: true } if **expr == PExpr::Col(index)) {
        from.get_or_insert(PExpr::Lit(Variant::Int(0)));
        return true;
    }
    // One comparison per flatten; `from=0` gives way to it.
    if matches!(from, Some(b) if !matches!(b, PExpr::Lit(_))) {
        return false;
    }
    let bound = comparison_bound(p, index, input);
    let absorbed = bound.is_some();
    if absorbed {
        *from = bound;
    }
    absorbed
}

/// The bound that `p` puts on column `index` of a flatten over `input`, when
/// `p` is `X < INDEX`, `X <= INDEX`, a mirrored form, or one of them with the
/// same small integer added to both sides.
fn comparison_bound(p: &PExpr, index: usize, input: &Node) -> Option<PExpr> {
    let PExpr::Binary { left, op, right } = p else { return None };
    // `X op INDEX` with `op` one of `<` and `<=`.
    let (x, strict, idx) = match op {
        BinOp::Lt => (left, true, right),
        BinOp::LtEq => (left, false, right),
        BinOp::Gt => (right, true, left),
        BinOp::GtEq => (right, false, left),
        _ => return None,
    };
    let is_index = |e: &PExpr| *e == PExpr::Col(index);
    let x: &PExpr = match (&**x, &**idx) {
        (x, i) if is_index(i) => x,
        (
            PExpr::Binary { left: x, op: BinOp::Add, right: a },
            PExpr::Binary { left: i, op: BinOp::Add, right: b },
        ) if is_index(i) && small_int(a).is_some() && small_int(a) == small_int(b) => x,
        _ => return None,
    };
    let PExpr::Col(c) = *x else { return None };
    if c >= input.arity() || !index_below(input, c) {
        return None;
    }
    Some(match strict {
        true => PExpr::Binary {
            left: Box::new(PExpr::Col(c)),
            op: BinOp::Add,
            right: Box::new(PExpr::Lit(Variant::Int(1))),
        },
        false => PExpr::Col(c),
    })
}

/// An integer literal no larger than `i32::MAX` either way: added to an
/// index, it cannot overflow.
fn small_int(e: &PExpr) -> Option<i64> {
    match e {
        PExpr::Lit(Variant::Int(v)) if v.unsigned_abs() <= i32::MAX as u64 => Some(*v),
        _ => None,
    }
}

/// True when column `col` of `node` is the `INDEX` of a flatten below it,
/// copied up unchanged through projections, filters, flatten inputs and
/// joins.
pub(super) fn index_below(node: &Node, col: usize) -> bool {
    match &node.kind {
        NodeKind::Project { input, exprs } => {
            matches!(exprs[col], PExpr::Col(c) if index_below(input, c))
        }
        NodeKind::Filter { input, .. } => index_below(input, col),
        NodeKind::Flatten { input, .. } => match col.checked_sub(input.arity()) {
            Some(appended) => appended == 1,
            None => index_below(input, col),
        },
        NodeKind::Join { left, right, .. } => match col.checked_sub(left.arity()) {
            Some(c) => index_below(right, c),
            None => index_below(left, col),
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::may_leave;
    use crate::plan::{Field, FuncId};
    use crate::sql::JoinKind;

    fn leaf(arity: usize) -> Node {
        Node::new(NodeKind::Values, (0..arity).map(|i| Field::bare(format!("C{i}"))).collect())
    }

    fn flatten(input: Node) -> Node {
        let mut fields = input.fields.clone();
        fields.extend((0..5).map(|i| Field::bare(format!("F{i}"))));
        let kind = NodeKind::Flatten {
            input: Box::new(input),
            expr: PExpr::Col(0),
            outer: false,
            emit: [true; 5],
            from: None,
        };
        Node::new(kind, fields)
    }

    fn col(c: usize) -> PExpr {
        PExpr::Col(c)
    }

    fn bin(left: PExpr, op: BinOp, right: PExpr) -> PExpr {
        PExpr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    fn int(v: i64) -> PExpr {
        PExpr::Lit(Variant::Int(v))
    }

    fn not_null(e: PExpr) -> PExpr {
        PExpr::IsNull { expr: Box::new(e), negated: true }
    }

    #[test]
    fn an_index_is_traced_through_copies_filters_flattens_and_joins() {
        // Columns 0 and 1, then VALUE 2, INDEX 3, KEY 4, SEQ 5, THIS 6.
        let f = flatten(leaf(2));
        assert!(index_below(&f, 3));
        assert!(![0, 2, 4, 5, 6].iter().any(|&c| index_below(&f, c)));
        let project = |exprs: Vec<PExpr>| {
            let fields = (0..exprs.len()).map(|i| Field::bare(format!("P{i}"))).collect();
            Node::new(NodeKind::Project { input: Box::new(f.clone()), exprs }, fields)
        };
        let p = project(vec![col(3), bin(col(3), BinOp::Add, int(0)), col(2)]);
        assert_eq!((0..3).map(|c| index_below(&p, c)).collect::<Vec<_>>(), [true, false, false]);
        let kind = NodeKind::Filter { input: Box::new(p.clone()), pred: int(1) };
        let filter = Node::new(kind, p.fields.clone());
        assert!(index_below(&filter, 0));
        // Through the input columns of a flatten above.
        assert!(index_below(&flatten(filter), 0));
        let join = |left: Node, right: Node| {
            let mut fields = left.fields.clone();
            fields.extend(right.fields.iter().cloned());
            let (left, right) = (Box::new(left), Box::new(right));
            let kind = NodeKind::Join { left, right, kind: JoinKind::LeftOuter, on: None };
            Node::new(kind, fields)
        };
        assert!(index_below(&join(f.clone(), leaf(1)), 3));
        assert!(index_below(&join(leaf(1), f.clone()), 4));
        assert!(!index_below(&join(leaf(1), f.clone()), 3));
        let input = Box::new(f.clone());
        let agg = NodeKind::Aggregate { input, groups: vec![col(3)], aggs: Vec::new() };
        assert!(!index_below(&Node::new(agg, vec![Field::bare("G")]), 0));
    }

    #[test]
    fn each_form_gives_its_bound_and_the_rest_none() {
        // The bounded flatten's input: X = 3 is an index, 2 a value; the
        // bounded flatten's own INDEX is 8.
        let input = flatten(leaf(2));
        let x_plus_1 = bin(col(3), BinOp::Add, int(1));
        let bound = |p: PExpr, from: Option<PExpr>| {
            let mut from = from;
            absorb(&p, &input, &mut from).then_some(from).flatten()
        };
        for (p, want) in [
            (bin(col(3), BinOp::Lt, col(8)), x_plus_1.clone()),
            (bin(col(8), BinOp::Gt, col(3)), x_plus_1.clone()),
            (bin(col(3), BinOp::LtEq, col(8)), col(3)),
            (bin(col(8), BinOp::GtEq, col(3)), col(3)),
            (bin(x_plus_1.clone(), BinOp::Lt, bin(col(8), BinOp::Add, int(1))), x_plus_1.clone()),
            (
                bin(bin(col(3), BinOp::Add, int(-7)), BinOp::LtEq, bin(col(8), BinOp::Add, int(-7))),
                col(3),
            ),
            (not_null(col(8)), int(0)),
        ] {
            assert_eq!(bound(p.clone(), None), Some(want.clone()), "{p:?}");
            // A literal bound gives way to a comparison; a comparison keeps
            // its place against `IS NOT NULL` and any other comparison.
            assert_eq!(bound(p.clone(), Some(int(0))), Some(want), "{p:?}");
            let kept = bound(p.clone(), Some(col(3)));
            assert_eq!(kept, matches!(p, PExpr::IsNull { .. }).then(|| col(3)), "{p:?}");
        }
        let big = i64::from(i32::MAX) + 1;
        for p in [
            bin(col(2), BinOp::Lt, col(8)),
            bin(col(3), BinOp::Lt, col(3)),
            bin(col(3), BinOp::Eq, col(8)),
            bin(col(3), BinOp::NotEq, col(8)),
            bin(col(8), BinOp::Lt, col(3)),
            bin(x_plus_1.clone(), BinOp::Lt, bin(col(8), BinOp::Add, int(2))),
            bin(bin(col(3), BinOp::Add, int(big)), BinOp::Lt, bin(col(8), BinOp::Add, int(big))),
            bin(bin(col(3), BinOp::Sub, int(1)), BinOp::Lt, bin(col(8), BinOp::Sub, int(1))),
            bin(x_plus_1.clone(), BinOp::Lt, col(8)),
            not_null(col(7)),
            PExpr::IsNull { expr: Box::new(col(8)), negated: false },
        ] {
            assert_eq!(bound(p.clone(), None), None, "{p:?}");
        }
    }

    #[test]
    fn only_a_clean_prefix_leaves_and_only_null_tests_before_a_raising_conjunct() {
        let cmp = bin(col(3), BinOp::Lt, col(8));
        let raising = bin(bin(int(10), BinOp::Div, col(0)), BinOp::Gt, int(0));
        let seq = bin(PExpr::Func { f: FuncId::Seq8, args: Vec::new() }, BinOp::Gt, int(0));
        let t = |parts: Vec<PExpr>| may_leave(&parts);
        assert_eq!(t(vec![cmp.clone(), not_null(col(8))]), [true, true]);
        assert_eq!(t(vec![not_null(col(8)), cmp.clone(), raising.clone()]), [true, false, false]);
        assert_eq!(t(vec![raising.clone(), not_null(col(8)), cmp.clone()]), [false, false, false]);
        assert_eq!(t(vec![cmp.clone(), seq]), [false, false]);
    }
}
