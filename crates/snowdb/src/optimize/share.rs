//! Subplan sharing: the optimized plan is a DAG, not a tree.
//!
//! One-`SELECT`-per-dataframe-step emission repeats whole subqueries: the
//! JOIN-based nested-query strategy (paper §IV-C2) joins an upstream query
//! with an aggregate over *the same upstream query*, so generated ADL Q6
//! contains its three-jet combination subquery four times and scans the
//! source eight times. This module finds such repeats structurally:
//!
//! - [`Dag::of`] hash-conses the plan bottom-up. Two nodes fall in the same
//!   class when their operators are the same — same [`NodeKind`] variant,
//!   expressions equal node for node with literals of identical type and
//!   bits, and for scans the *same* `Arc<Table>` (so `t` and
//!   `t AT(VERSION => n)`, or a clone and its source, never unify) with the
//!   same pruning predicates and column set — and their inputs are in the
//!   same classes. Field names are display-only and ignored. A node is
//!   hashed and compared on its own operator only — its inputs are already
//!   class ids — and never by rendering text, so the pass is linear in the
//!   plan.
//! - [`mark_shared`], the optimizer's last pass, gives every class that more
//!   than one parent reads a share id ([`Node::share`]). Lowering turns an id
//!   into one result slot: the first site in plan order executes the subtree,
//!   every other site reads the slot
//!   (see [`execute_physical`](crate::exec::pipeline::execute_physical)).
//!
//! # Why sharing is sound
//!
//! The executor's determinism contract (see [`crate::exec::pipeline`]) makes
//! a subtree's output a function of the subtree alone: byte-identical batches
//! for identical input, including `SEQ8()` numbering, which restarts at zero
//! in every projection and never depends on what ran before. Equal subtrees
//! over the same table snapshot therefore produce equal results, and reading
//! one result twice is indistinguishable from computing it twice. `SEQ8` is
//! the only volatile function today; a future one whose value depends on
//! anything outside its own subtree (wall clock, randomness, a session
//! counter) must make every subtree containing it unshareable here.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;
use std::sync::Arc;

use crate::plan::{AggExpr, Node, NodeKind, PExpr};
use crate::storage::Table;

/// The plan's equivalence classes of structurally identical subtrees.
pub(super) struct Dag<'a> {
    /// Class of every tree node, in post-order (inputs before the node).
    pub class_of: Vec<u32>,
    /// Classes in order of first completion: a class's inputs precede it and
    /// the root's class is last.
    pub classes: Vec<Class<'a>>,
}

pub(super) struct Class<'a> {
    /// The first subtree of the class in plan order.
    pub node: &'a Node,
    /// Classes of the node's inputs.
    pub inputs: Vec<u32>,
    /// Distinct `(parent class, input slot)` pairs reading this class.
    pub readers: u32,
}

impl<'a> Dag<'a> {
    pub fn of(root: &'a Node) -> Dag<'a> {
        let mut dag = Dag { class_of: Vec::new(), classes: Vec::new() };
        // Most plans repeat nothing; then every node is a class of its own
        // and nothing needs hashing.
        let mut by_hash = reads_a_table_twice(root).then(HashMap::new);
        dag.intern(root, &mut by_hash);
        dag
    }

    fn intern(&mut self, node: &'a Node, by_hash: &mut Option<HashMap<u64, Vec<u32>>>) -> u32 {
        let inputs: Vec<u32> =
            node.kind.inputs().into_iter().map(|input| self.intern(input, by_hash)).collect();
        let mut bucket = by_hash.as_mut().map(|by_hash| {
            let mut h = DefaultHasher::new();
            hash_op(&node.kind, &mut h);
            inputs.hash(&mut h);
            by_hash.entry(h.finish()).or_default()
        });
        let found = bucket.iter().flat_map(|b| b.iter().copied()).find(|&c| {
            let class = &self.classes[c as usize];
            class.inputs == inputs && same_op(&class.node.kind, &node.kind)
        });
        let id = found.unwrap_or_else(|| {
            for &input in &inputs {
                self.classes[input as usize].readers += 1;
            }
            let id = self.classes.len() as u32;
            self.classes.push(Class { node, inputs, readers: 0 });
            if let Some(bucket) = &mut bucket {
                bucket.push(id);
            }
            id
        });
        self.class_of.push(id);
        id
    }
}

/// Identical subtrees end in identical scans, so a plan that reads no table
/// twice repeats nothing (a repeated `Values` row aside, which is never
/// shared).
fn reads_a_table_twice(root: &Node) -> bool {
    fn walk<'a>(node: &'a Node, seen: &mut Vec<&'a Arc<Table>>) -> bool {
        match &node.kind {
            NodeKind::Scan { table, .. } => {
                let twice = seen.iter().any(|t| Arc::ptr_eq(t, table));
                seen.push(table);
                twice
            }
            kind => kind.inputs().into_iter().any(|input| walk(input, seen)),
        }
    }
    walk(root, &mut Vec::new())
}

/// Gives every subtree that more than one parent reads a share id. A class
/// nested inside a shared subtree and read only from there stays unmarked:
/// it is lowered once with its parent and needs no slot of its own.
pub fn mark_shared(root: &mut Node) {
    if !reads_a_table_twice(root) {
        return;
    }
    let dag = Dag::of(root);
    let mut next = 0u32;
    let ids: Vec<Option<u32>> = dag
        .classes
        .iter()
        .map(|class| {
            // A `Values` row is cheaper to produce than to share.
            let shared = class.readers > 1 && !matches!(class.node.kind, NodeKind::Values);
            shared.then(|| {
                next += 1;
                next
            })
        })
        .collect();
    let class_of = dag.class_of;
    if next > 0 {
        assign(root, &class_of, &ids, &mut 0);
    }
}

fn assign(node: &mut Node, class_of: &[u32], ids: &[Option<u32>], at: &mut usize) {
    for input in node.kind.inputs_mut() {
        assign(input, class_of, ids, at);
    }
    node.share = ids[class_of[*at] as usize];
    *at += 1;
}

// ---- structural hash ---------------------------------------------------------

/// Hashes what tells operators apart cheaply. Together with the input classes
/// (hashed by the caller) that leaves only true repeats and the different
/// readers of one shared input in a bucket, so expressions — the bulk of a
/// plan — are walked by `same_op` only where a match is likely.
fn hash_op(kind: &NodeKind, h: &mut DefaultHasher) {
    discriminant(kind).hash(h);
    match kind {
        NodeKind::Scan { table, materialize, .. } => {
            Arc::as_ptr(table).hash(h);
            materialize.hash(h);
        }
        NodeKind::Project { exprs, .. } => exprs.len().hash(h),
        NodeKind::Aggregate { groups, aggs, .. } => (groups.len(), aggs.len()).hash(h),
        NodeKind::Flatten { outer, emit, from, .. } => (outer, emit, from.is_some()).hash(h),
        NodeKind::Limit { n, .. } => n.hash(h),
        _ => {}
    }
}

// ---- structural equality -----------------------------------------------------

/// True when two operators — inputs aside — compute the same thing.
fn same_op(a: &NodeKind, b: &NodeKind) -> bool {
    match (a, b) {
        (NodeKind::Values, NodeKind::Values)
        | (NodeKind::UnionAll { .. }, NodeKind::UnionAll { .. })
        | (NodeKind::Distinct { .. }, NodeKind::Distinct { .. }) => true,
        (
            NodeKind::Scan { table: ta, pushed: pa, materialize: ma },
            NodeKind::Scan { table: tb, pushed: pb, materialize: mb },
        ) => {
            Arc::ptr_eq(ta, tb)
                && ma == mb
                && pa.len() == pb.len()
                && pa.iter().zip(pb).all(|(x, y)| {
                    x.col == y.col && x.cmp == y.cmp && x.lit.identical(&y.lit)
                })
        }
        (NodeKind::Project { exprs: x, .. }, NodeKind::Project { exprs: y, .. }) => {
            same_exprs(x, y)
        }
        (NodeKind::Filter { pred: x, per: a, .. }, NodeKind::Filter { pred: y, per: b, .. }) => {
            a == b && same_expr(x, y)
        }
        (
            NodeKind::Flatten { expr: x, outer: oa, emit: ea, from: fa, .. },
            NodeKind::Flatten { expr: y, outer: ob, emit: eb, from: fb, .. },
        ) => oa == ob && ea == eb && same_expr(x, y) && same_opt(fa.as_ref(), fb.as_ref()),
        (
            NodeKind::Aggregate { groups: ga, aggs: aa, .. },
            NodeKind::Aggregate { groups: gb, aggs: ab, .. },
        ) => same_exprs(ga, gb) && aa.len() == ab.len() && aa.iter().zip(ab).all(same_agg),
        (NodeKind::Join { kind: ka, on: x, .. }, NodeKind::Join { kind: kb, on: y, .. }) => {
            ka == kb && same_opt(x.as_ref(), y.as_ref())
        }
        (NodeKind::Sort { keys: x, .. }, NodeKind::Sort { keys: y, .. }) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(a, b)| {
                    a.desc == b.desc
                        && a.nulls_first == b.nulls_first
                        && same_expr(&a.expr, &b.expr)
                })
        }
        (NodeKind::Limit { n: x, .. }, NodeKind::Limit { n: y, .. }) => x == y,
        _ => false,
    }
}

fn same_agg((a, b): (&AggExpr, &AggExpr)) -> bool {
    a.kind == b.kind
        && same_opt(a.arg.as_ref(), b.arg.as_ref())
        && same_opt(a.arg2.as_ref(), b.arg2.as_ref())
}

fn same_opt(a: Option<&PExpr>, b: Option<&PExpr>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same_expr(a, b),
        (None, None) => true,
        _ => false,
    }
}

fn same_exprs(a: &[PExpr], b: &[PExpr]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_expr(x, y))
}

/// `PExpr`'s derived equality settles the shape, but compares literals with
/// [`Variant`]'s SQL equality, under which `1 = 1.0`; two plans that differ
/// only there return differently typed values, so the literals — which stand
/// at the same places in both — must also be [`Variant::identical`].
pub(super) fn same_expr(a: &PExpr, b: &PExpr) -> bool {
    a == b && {
        let mut theirs = Vec::new();
        b.visit(&mut |x| {
            if let PExpr::Lit(v) = x {
                theirs.push(v);
            }
        });
        let mut theirs = theirs.into_iter();
        !a.any(&mut |x| match x {
            PExpr::Lit(v) => !theirs.next().is_some_and(|w| v.identical(w)),
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
    use crate::{Database, Variant};

    fn db() -> Database {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Int), ColumnDef::new("B", ColumnType::Int)],
            (0..8).map(|i| vec![Variant::Int(i), Variant::Int(i * 2)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        db
    }

    /// The bound plan of `sql`, not optimized.
    fn raw(db: &Database, sql: &str) -> Node {
        db.compile_on(&db.snapshot(), &crate::sql::parse_query(sql).unwrap(), false).unwrap()
    }

    fn shares(node: &Node, out: &mut Vec<Option<u32>>) {
        out.push(node.share);
        for input in node.kind.inputs() {
            shares(input, out);
        }
    }

    #[test]
    fn duplicate_subquery_forms_one_class() {
        let db = db();
        let sub = "(SELECT a, SEQ8() AS rid FROM t WHERE b > 2)";
        let plan = raw(&db, &format!("SELECT x.a FROM {sub} x JOIN {sub} y ON x.rid = y.rid"));
        let dag = Dag::of(&plan);
        // Project, Join, and one copy of Project -> Filter -> Scan.
        assert_eq!(dag.classes.len(), 5);
        assert_eq!(dag.class_of.len(), plan.node_count());
        let join = &dag.classes[dag.classes.len() - 2];
        assert_eq!(join.inputs[0], join.inputs[1]);
        assert_eq!(dag.classes[join.inputs[0] as usize].readers, 2);
    }

    #[test]
    fn literal_types_keep_plans_apart() {
        let db = db();
        let plan =
            raw(&db, "SELECT a + 1 FROM t UNION ALL SELECT a + 1.0 FROM t");
        let dag = Dag::of(&plan);
        let union = dag.classes.last().unwrap();
        assert_ne!(union.inputs[0], union.inputs[1], "1 and 1.0 project different values");
    }

    #[test]
    fn only_multiply_read_subtrees_are_marked() {
        let db = db();
        let sub = "(SELECT a, SEQ8() AS rid FROM t WHERE b > 2)";
        let plan =
            db.compile(&format!("SELECT x.a FROM {sub} x JOIN {sub} y ON x.rid = y.rid")).unwrap();
        let mut marks = Vec::new();
        shares(&plan, &mut marks);
        let shared: Vec<u32> = marks.iter().flatten().copied().collect();
        assert_eq!(shared, vec![1, 1], "both join inputs, nothing below them: {plan:?}");
        let unshared = db.compile("SELECT a FROM t WHERE b > 2").unwrap();
        let mut marks = Vec::new();
        shares(&unshared, &mut marks);
        assert!(marks.iter().all(Option::is_none));
    }
}
