//! Dead-column elimination: every operator produces only what is read.
//!
//! The dataframe layer emits `SELECT *, expr AS c` once per step, so a
//! translated plan drags every column it ever computed through every later
//! stage, and each projection copies all of them. This pass rewrites the plan
//! so each node keeps only the output columns some ancestor reads:
//!
//! - `Project` keeps the required expressions, `Aggregate` the required
//!   aggregates (group keys always stay — they decide the rows);
//! - `Filter`, `Sort`, `Join`, `Flatten`, `Limit` pass the narrowed input
//!   through with their expressions renumbered; `Flatten` records which of its
//!   five appended columns are read and produces the rest as all-NULL;
//! - a projection that has become the identity over its input disappears,
//!   and one that has become adjacent to another merges with it;
//! - `Scan` keeps its positional schema but materializes only required
//!   columns (the others are never read and cost zero scanned bytes);
//! - `Distinct` compares whole rows, so nothing is dropped below it, and both
//!   sides of a `UNION ALL` are cut to exactly the same columns.
//!
//! Nothing that decides the row count or the order is touched, and a dead
//! expression is dropped only when it is [`error_free`] — a dead aggregate
//! only when, besides, its fold accepts every value (`SUM`, `AVG` and the
//! boolean aggregates stay): an optimized plan never swallows an error the
//! raw plan raises. A dead `SEQ8()` column may go
//! (projections preserve row count) unless another `SEQ8()` of the same
//! projection stays, whose per-row counter it would shift.
//!
//! Required columns are computed per *class* of identical subtrees
//! ([`Dag`]), as the union over every site of the class: repeated subqueries
//! are narrowed the same way everywhere and stay identical, so the sharing
//! pass that follows can still unify them — one copy computing the union is
//! cheaper than two copies each computing a part.
//!
//! This is the only dead-code pass over *plans*. `jsoniq_core::expr` drops
//! unused `let` bindings before translation, while the program is still a
//! JSONiq expression tree; whatever survives that — columns the SQL text
//! selects and nothing reads — is dropped here and nowhere else.

use std::ops::Range;

use super::share::Dag;
use super::{error_free, merged_exprs};
use crate::plan::{AggExpr, AggKind, Field, Node, NodeKind, PExpr, SortKey};

/// A rebuilt subtree.
#[derive(Clone)]
struct Narrowed {
    node: Node,
    /// Old output column → its position in `node`, `None` when dropped.
    /// Kept columns keep their relative order.
    map: Vec<Option<usize>>,
    /// False when another reader of the class holds a copy of `node`'s root.
    exclusive: bool,
}

/// Runs the pass.
pub fn narrow(root: Node) -> Node {
    let (class_of, required, readers) = {
        let dag = Dag::of(&root);
        let n = dag.classes.len();
        // Parents precede inputs when walking classes backwards, so a class's
        // requirement is complete — the union over all its readers — before
        // it is handed down.
        let mut required: Vec<Vec<bool>> =
            dag.classes.iter().map(|c| vec![false; c.node.arity()]).collect();
        required[n - 1].fill(true);
        for c in (0..n).rev() {
            let (below, at) = required.split_at_mut(c);
            let class = &dag.classes[c];
            input_needs(class.node, &at[0], &mut |slot, col| {
                below[class.inputs[slot] as usize][col] = true;
            });
        }
        let readers: Vec<u32> = dag.classes.iter().map(|c| c.readers).collect();
        (dag.class_of, required, readers)
    };
    let root_fields = root.fields.clone();
    let mut walk = Walk {
        class_of,
        required,
        unread: readers.clone(),
        readers,
        done: Vec::new(),
        at: 0,
    };
    let root_class = walk.visit(root);
    let built = walk.done[root_class].take().expect("the root's class is rebuilt last");
    exactly(built, &vec![true; root_fields.len()], root_fields)
}

/// The rebuilding walk: consumes the plan in post-order — the order
/// `class_of` is in — and rebuilds each class from its first subtree, so
/// expressions that stay are moved, not copied. Later subtrees of a class are
/// dropped; their readers get a clone of the rebuilt one.
struct Walk {
    class_of: Vec<u32>,
    required: Vec<Vec<bool>>,
    readers: Vec<u32>,
    /// Readers of each class that have not fetched its rebuilt subtree yet.
    unread: Vec<u32>,
    /// Rebuilt subtrees by class; classes complete in id order.
    done: Vec<Option<Narrowed>>,
    at: usize,
}

impl Walk {
    /// Consumes a subtree and returns its class, which is rebuilt by then.
    fn visit(&mut self, mut node: Node) -> usize {
        let inputs: Vec<usize> = node
            .kind
            .inputs_mut()
            .into_iter()
            .map(|input| {
                let input = std::mem::replace(input, Node::new(NodeKind::Values, Vec::new()));
                self.visit(input)
            })
            .collect();
        let class = self.class_of[self.at] as usize;
        self.at += 1;
        if class == self.done.len() {
            let inputs = inputs.into_iter().map(|i| self.fetch(i)).collect();
            let built = rebuild(node, &self.required[class], inputs);
            self.done.push(Some(built));
        }
        class
    }

    /// One reader's copy of a rebuilt class: the original for the last reader.
    fn fetch(&mut self, class: usize) -> Narrowed {
        self.unread[class] -= 1;
        let built =
            if self.unread[class] == 0 { self.done[class].take() } else { self.done[class].clone() };
        let mut built = built.expect("a class is rebuilt before it is read");
        built.exclusive &= self.readers[class] == 1;
        built
    }
}

// ---- what stays -------------------------------------------------------------

/// Which projection expressions survive: the required ones, and dead ones
/// that could raise or that share a `SEQ8()` counter with a sibling.
fn live_exprs(exprs: &[PExpr], required: &[bool]) -> Vec<bool> {
    if required.iter().all(|&r| r) {
        return required.to_vec();
    }
    let volatile = exprs.iter().filter(|e| e.is_volatile()).count();
    exprs
        .iter()
        .zip(required)
        .map(|(e, &r)| r || !error_free(e) || (volatile > 1 && e.is_volatile()))
        .collect()
}

/// True when folding this aggregate can raise on some input value: `SUM` and
/// `AVG` reject non-numbers, `BOOLAND_AGG`/`BOOLOR_AGG` non-booleans. The rest
/// accept any value (see `exec::agg::Accumulator::update2`).
fn fold_can_fail(kind: AggKind) -> bool {
    match kind {
        AggKind::Sum | AggKind::Avg | AggKind::BoolAnd | AggKind::BoolOr => true,
        AggKind::CountStar
        | AggKind::Count
        | AggKind::CountDistinct
        | AggKind::Min
        | AggKind::Max
        | AggKind::ArrayAgg
        | AggKind::AnyValue
        | AggKind::MinBy
        | AggKind::MaxBy => false,
    }
}

/// Which aggregates survive: the required ones, and dead ones that could
/// raise — in an argument or in the fold itself. `required` covers the
/// aggregate outputs only.
fn live_aggs(aggs: &[AggExpr], required: &[bool]) -> Vec<bool> {
    aggs.iter()
        .zip(required)
        .map(|(a, &r)| {
            r || fold_can_fail(a.kind)
                || a.arg.iter().chain(&a.arg2).any(|e| !error_free(e) || e.is_volatile())
        })
        .collect()
}

/// Reports the columns `node` reads from its inputs when `required` of its own
/// outputs are read, as `need(input slot, column)`.
fn input_needs(node: &Node, required: &[bool], need: &mut impl FnMut(usize, usize)) {
    fn cols(e: &PExpr, slot: usize, need: &mut impl FnMut(usize, usize)) {
        e.visit(&mut |x| {
            if let PExpr::Col(i) = x {
                need(slot, *i);
            }
        });
    }
    // The node's outputs `range` are input `slot`'s columns, passed through.
    let through = |range: Range<usize>, slot: usize, need: &mut dyn FnMut(usize, usize)| {
        let first = range.start;
        for i in range.filter(|&i| required[i]) {
            need(slot, i - first);
        }
    };
    let all = 0..required.len();
    match &node.kind {
        NodeKind::Scan { .. } | NodeKind::Values => {}
        NodeKind::Project { exprs, .. } => {
            for (e, live) in exprs.iter().zip(live_exprs(exprs, required)) {
                if live {
                    cols(e, 0, need);
                }
            }
        }
        NodeKind::Filter { pred, per, .. } => {
            through(all, 0, need);
            cols(pred, 0, need);
            if let Some(rid) = per {
                need(0, *rid);
            }
        }
        NodeKind::Flatten { input, expr, from, .. } => {
            through(0..input.arity(), 0, need);
            cols(expr, 0, need);
            if let Some(from) = from {
                cols(from, 0, need);
            }
        }
        NodeKind::Aggregate { groups, aggs, .. } => {
            for g in groups {
                cols(g, 0, need);
            }
            for (a, live) in aggs.iter().zip(live_aggs(aggs, &required[groups.len()..])) {
                for e in a.arg.iter().chain(&a.arg2).filter(|_| live) {
                    cols(e, 0, need);
                }
            }
        }
        NodeKind::Join { left, on, .. } => {
            let la = left.arity();
            through(0..la, 0, need);
            through(la..required.len(), 1, need);
            if let Some(on) = on {
                on.visit(&mut |x| {
                    if let PExpr::Col(i) = x {
                        if *i < la {
                            need(0, *i);
                        } else {
                            need(1, *i - la);
                        }
                    }
                });
            }
        }
        NodeKind::Sort { keys, .. } => {
            through(all, 0, need);
            for k in keys {
                cols(&k.expr, 0, need);
            }
        }
        NodeKind::Limit { .. } => through(all, 0, need),
        // DISTINCT compares whole rows, so everything is required.
        NodeKind::Distinct { .. } => all.for_each(|i| need(0, i)),
        NodeKind::UnionAll { .. } => {
            through(all.clone(), 0, need);
            through(all, 1, need);
        }
    }
}

// ---- rebuilding ---------------------------------------------------------------

/// Renumbers an expression over a narrowed input. A dropped column maps to
/// an index no chunk has, so reading one fails loudly instead of reading a
/// neighbour.
fn renumber(e: PExpr, map: &[Option<usize>]) -> PExpr {
    e.map_cols(&|c| map[c].unwrap_or(usize::MAX))
}

/// The map that keeps exactly the `keep` columns, in order.
fn keep_map(keep: &[bool]) -> Vec<Option<usize>> {
    let mut next = 0;
    keep.iter()
        .map(|&k| {
            k.then(|| {
                next += 1;
                next - 1
            })
        })
        .collect()
}

fn kept<T>(items: Vec<T>, keep: impl IntoIterator<Item = bool>) -> Vec<T> {
    items.into_iter().zip(keep).filter(|(_, k)| *k).map(|(item, _)| item).collect()
}

/// Cuts a rebuilt subtree to exactly the `required` columns, in order, named
/// by `fields` (one per required column).
fn exactly(built: Narrowed, required: &[bool], fields: Vec<Field>) -> Node {
    let cols: Vec<usize> = required
        .iter()
        .zip(&built.map)
        .filter(|(&r, _)| r)
        .map(|(_, m)| m.expect("a required column is kept"))
        .collect();
    if cols.iter().copied().eq(0..built.node.arity()) {
        return Node { fields, ..built.node };
    }
    let exprs = cols.into_iter().map(PExpr::Col).collect();
    Node::new(NodeKind::Project { input: Box::new(built.node), exprs }, fields)
}

/// Rebuilds `old` over its narrowed `inputs`, keeping the `required` outputs
/// (and whatever else its inputs had to keep). `old`'s own inputs have been
/// taken out already.
fn rebuild(old: Node, required: &[bool], mut inputs: Vec<Narrowed>) -> Narrowed {
    let second = if inputs.len() == 2 { inputs.pop() } else { None };
    let first = inputs.pop();
    let (kind, map) = match (old.kind, first, second) {
        (NodeKind::Values, ..) => (NodeKind::Values, Vec::new()),
        (NodeKind::Scan { table, pushed, .. }, ..) => {
            let mut materialize = required.to_vec();
            // Pruning predicates read column statistics, not column data,
            // but keep the column materialized for the exact filter above.
            for p in &pushed {
                materialize[p.col] = true;
            }
            let map = (0..required.len()).map(Some).collect();
            (NodeKind::Scan { table, pushed, materialize }, map)
        }
        (NodeKind::Project { exprs, .. }, Some(input), _) => {
            return rebuild_project(exprs, old.fields, required, input);
        }
        (NodeKind::Filter { pred, per, .. }, Some(input), _) => {
            let pred = renumber(pred, &input.map);
            let per = per.map(|rid| input.map[rid].expect("a filter keeps its row id"));
            (NodeKind::Filter { input: Box::new(input.node), pred, per }, input.map)
        }
        (NodeKind::Flatten { expr, outer, mut emit, from, .. }, Some(input), _) => {
            let (old_arity, arity) = (input.map.len(), input.node.arity());
            for (e, &r) in emit.iter_mut().zip(&required[old_arity..]) {
                *e &= r;
            }
            let expr = renumber(expr, &input.map);
            let from = from.map(|e| renumber(e, &input.map));
            let mut map = input.map;
            map.extend((arity..arity + 5).map(Some));
            (NodeKind::Flatten { input: Box::new(input.node), expr, outer, emit, from }, map)
        }
        (NodeKind::Aggregate { groups, aggs, .. }, Some(input), _) => {
            let live = live_aggs(&aggs, &required[groups.len()..]);
            let mut keep = vec![true; groups.len()];
            keep.extend(&live);
            let aggs = kept(aggs, live)
                .into_iter()
                .map(|a| AggExpr {
                    kind: a.kind,
                    arg: a.arg.map(|e| renumber(e, &input.map)),
                    arg2: a.arg2.map(|e| renumber(e, &input.map)),
                })
                .collect();
            let groups = groups.into_iter().map(|g| renumber(g, &input.map)).collect();
            (NodeKind::Aggregate { input: Box::new(input.node), groups, aggs }, keep_map(&keep))
        }
        (NodeKind::Join { kind, on, .. }, Some(left), Some(right)) => {
            let la = left.node.arity();
            let mut map = left.map;
            map.extend(right.map.iter().map(|m| m.map(|c| c + la)));
            let on = on.map(|e| renumber(e, &map));
            let (left, right) = (Box::new(left.node), Box::new(right.node));
            (NodeKind::Join { left, right, kind, on }, map)
        }
        (NodeKind::Sort { keys, .. }, Some(input), _) => {
            let keys = keys
                .into_iter()
                .map(|k| SortKey { expr: renumber(k.expr, &input.map), ..k })
                .collect();
            (NodeKind::Sort { input: Box::new(input.node), keys }, input.map)
        }
        (NodeKind::Limit { n, .. }, Some(input), _) => {
            (NodeKind::Limit { input: Box::new(input.node), n }, input.map)
        }
        (NodeKind::Distinct { .. }, Some(input), _) => {
            (NodeKind::Distinct { input: Box::new(input.node) }, input.map)
        }
        (NodeKind::UnionAll { .. }, Some(left), Some(right)) => {
            // Each side may have kept more than the union needs (a filter's
            // own columns, say); both must end up with the same ones.
            let fields = kept(old.fields, required.iter().copied());
            let left = Box::new(exactly(left, required, fields.clone()));
            let right = Box::new(exactly(right, required, fields.clone()));
            let node = Node::new(NodeKind::UnionAll { left, right }, fields);
            return Narrowed { node, map: keep_map(required), exclusive: true };
        }
        _ => unreachable!("every operator is rebuilt over all of its inputs"),
    };
    let fields = kept(old.fields, map.iter().map(Option::is_some));
    Narrowed { node: Node::new(kind, fields), map, exclusive: true }
}

fn rebuild_project(
    exprs: Vec<PExpr>,
    fields: Vec<Field>,
    required: &[bool],
    input: Narrowed,
) -> Narrowed {
    let live = live_exprs(&exprs, required);
    let mut exprs: Vec<PExpr> =
        kept(exprs, live.iter().copied()).into_iter().map(|e| renumber(e, &input.map)).collect();
    let fields = kept(fields, live.iter().copied());
    let map = keep_map(&live);
    let mut below = input.node;

    // Dropping pass-through columns leaves projections adjacent that were not
    // before; they merge as in `merge_projects` — but only into an input
    // nobody else reads, or the other readers' copy would no longer match.
    let mut merged = false;
    if input.exclusive {
        if let NodeKind::Project { exprs: inner, .. } = &below.kind {
            if let Some(m) = merged_exprs(&exprs, inner) {
                exprs = m;
                let NodeKind::Project { input: inner_input, .. } = below.kind else {
                    unreachable!()
                };
                below = *inner_input;
                merged = true;
            }
        }
    }

    // `Project [#0..#n-1]` over an n-ary input copies it; the input takes
    // over the projection's names instead.
    let identity = exprs.iter().enumerate().all(|(i, e)| matches!(e, PExpr::Col(c) if *c == i))
        && exprs.len() == below.arity();
    if identity && !merged {
        return Narrowed { node: Node { fields, ..below }, map, exclusive: input.exclusive };
    }
    let node = Node::new(NodeKind::Project { input: Box::new(below), exprs }, fields);
    Narrowed { node, map, exclusive: true }
}
