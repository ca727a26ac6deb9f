//! Expression DAGs: an operator's expressions compiled once, when the plan is
//! lowered, into the form [`super::kernel`] evaluates per batch.
//!
//! All expressions of one operator (a projection list, a predicate, group
//! keys and aggregate arguments, ...) go into one [`ExprDag`]. Nodes are
//! hash-consed: two structurally equal pure subtrees — whether they repeat
//! inside one expression or across the operator's expressions — are one node,
//! evaluated once per batch. Equality is structural and strict (`1` and `1.0`
//! are different literals, `0.0` and `-0.0` too). A subtree that contains a
//! volatile function (`SEQ8()`) is never shared: every call site keeps its own
//! node, numbered in the order the row evaluator would reach it.
//!
//! The DAG also records which operand edges are *guarded*
//! ([`PExpr::for_each_child_guarded`] names them). The row evaluator
//! skips the right operand of a decided `AND`/`OR`, the untaken branch of
//! `IFF`/`CASE`, the later arguments of `COALESCE`/`NVL`, the list items after
//! an `IN` match and the index expression of a path step on NULL; the batch
//! evaluator evaluates those operands under the matching row selection. A node
//! reachable from a root without crossing a guarded edge is evaluated on every
//! row by the row evaluator too, so it is marked `always` and computed once
//! over the whole batch, whatever selection first asks for it.
//!
//! The DAG borrows literals and path steps from the plan it was compiled
//! from; building it allocates five vectors and a hash table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::plan::{CastType, FuncId, PExpr, PStep};
use crate::sql::{BinOp, UnaryOp};
use crate::variant::Variant;

/// Index of a node in its [`ExprDag`].
pub type NodeId = u32;

/// What a node computes from its arguments.
#[derive(Clone, Copy, Debug)]
pub enum DagOp<'a> {
    /// Input column; `usize::MAX` when the plan's index lies below the DAG's
    /// column offset (the batch evaluator declines, the row evaluator
    /// reports).
    Col(usize),
    Lit(&'a Variant),
    Neg,
    Not,
    IsNull {
        negated: bool,
    },
    /// Arguments `[left, right]`; the right operand of `AND`/`OR` is guarded.
    Binary(BinOp),
    /// Arguments `[expr, item...]`; every item is guarded.
    InList {
        negated: bool,
    },
    /// Arguments `[operand?, (when, then)..., else?]`; everything after the
    /// first `when` is guarded.
    Case {
        operand: bool,
        else_expr: bool,
    },
    /// `IFF` guards its branches, `COALESCE`/`NVL` their later arguments.
    Func(FuncId),
    /// The `call`-th `SEQ8()` call of a row, in row-evaluation order.
    Seq8 {
        call: u32,
    },
    Cast(CastType),
    /// Arguments `[base, index expression...]` in step order; the index
    /// expressions are guarded.
    Path(&'a [PStep]),
    Like {
        negated: bool,
    },
}

#[derive(Debug)]
struct DagNode<'a> {
    op: DagOp<'a>,
    /// Range of this node's arguments in [`ExprDag::args`].
    args: (u32, u32),
    /// Readers of the node's value: parent edges plus root slots. The batch
    /// evaluator frees the value when the last reader has taken it.
    uses: u32,
    always: bool,
    volatile: bool,
}

/// How the operator's `SEQ8()` calls can be evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seq8Calls {
    /// No call: the expressions are pure.
    None,
    /// This many calls on every row, none of them guarded: call `k` of row
    /// `r` is `base + r + k`.
    PerRow(u32),
    /// A call sits behind a guard, so the calls a row makes depend on its
    /// data: only the row evaluator numbers them.
    Guarded,
}

/// The compiled expressions of one operator.
#[derive(Debug)]
pub struct ExprDag<'a> {
    /// The expressions the roots were compiled from, in root order: what the
    /// row producer evaluates.
    exprs: Vec<&'a PExpr>,
    /// Leading columns of the schema the expressions are bound against that
    /// are not part of the batch (see [`ExprDag::compile_shifted`]).
    offset: usize,
    nodes: Vec<DagNode<'a>>,
    args: Vec<NodeId>,
    roots: Vec<NodeId>,
    tree_nodes: usize,
    seq8: Seq8Calls,
}

impl<'a> ExprDag<'a> {
    /// Compiles `exprs`, one root each, in order.
    pub fn compile(exprs: impl IntoIterator<Item = &'a PExpr>) -> ExprDag<'a> {
        ExprDag::compile_shifted(exprs, 0)
    }

    /// As [`ExprDag::compile`], for expressions bound against a wider schema
    /// whose first `offset` columns are not part of the batch: column `i` of
    /// the plan reads batch column `i - offset`. Join keys of the right input
    /// are bound against the concatenated schema.
    pub fn compile_shifted(
        exprs: impl IntoIterator<Item = &'a PExpr>,
        offset: usize,
    ) -> ExprDag<'a> {
        let mut b = Builder {
            dag: ExprDag {
                exprs: Vec::new(),
                offset,
                nodes: Vec::new(),
                args: Vec::new(),
                roots: Vec::new(),
                tree_nodes: 0,
                seq8: Seq8Calls::None,
            },
            interned: HashMap::default(),
            operands: Vec::new(),
            seq8_calls: 0,
            seq8_guarded: false,
        };
        for e in exprs {
            let root = b.intern(e, false);
            b.dag.nodes[root as usize].uses += 1;
            b.dag.roots.push(root);
            b.dag.exprs.push(e);
        }
        b.dag.seq8 = match (b.seq8_calls, b.seq8_guarded) {
            (0, _) => Seq8Calls::None,
            (n, false) => Seq8Calls::PerRow(n),
            (_, true) => Seq8Calls::Guarded,
        };
        b.dag
    }

    /// Number of distinct nodes: what one batch evaluates.
    pub fn dag_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes of the expression trees the DAG was compiled from:
    /// what the row evaluator visits per row, guards aside.
    pub fn tree_nodes(&self) -> usize {
        self.tree_nodes
    }

    /// Number of roots (compiled expressions).
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    pub fn seq8(&self) -> Seq8Calls {
        self.seq8
    }

    /// True when an expression calls `SEQ8()`: its value depends on the order
    /// rows are evaluated in.
    pub fn is_volatile(&self) -> bool {
        self.seq8 != Seq8Calls::None
    }

    /// The expressions the roots were compiled from, in root order.
    pub fn exprs(&self) -> &[&'a PExpr] {
        &self.exprs
    }

    /// The column offset the DAG was compiled with.
    pub fn offset(&self) -> usize {
        self.offset
    }

    pub(crate) fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    pub(crate) fn op(&self, id: NodeId) -> DagOp<'a> {
        self.nodes[id as usize].op
    }

    pub(crate) fn args(&self, id: NodeId) -> &[NodeId] {
        let (start, len) = self.nodes[id as usize].args;
        &self.args[start as usize..(start + len) as usize]
    }

    pub(crate) fn uses(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].uses
    }

    pub(crate) fn always(&self, id: NodeId) -> bool {
        self.nodes[id as usize].always
    }
}

struct Builder<'a> {
    dag: ExprDag<'a>,
    /// Structural hash → the first pure node that has it. A second, different
    /// node with the same 64-bit hash is simply never found again: it stays
    /// unshared, which is correct.
    interned: HashMap<u64, NodeId, BuildHasherDefault<FxHasher>>,
    /// Operand ids of the nodes being built, innermost last.
    operands: Vec<NodeId>,
    seq8_calls: u32,
    seq8_guarded: bool,
}

impl<'a> Builder<'a> {
    /// Returns the node of `e`. `guarded` says whether this occurrence sits
    /// behind a guarded edge. Operands are visited in the order the row
    /// evaluator evaluates them, which is what numbers the `SEQ8()` calls.
    fn intern(&mut self, e: &'a PExpr, guarded: bool) -> NodeId {
        self.dag.tree_nodes += 1;
        // This node's operand ids are `self.operands[base..]`.
        let base = self.operands.len();
        let op = match e {
            PExpr::Col(i) => DagOp::Col(i.checked_sub(self.dag.offset).unwrap_or(usize::MAX)),
            PExpr::Lit(v) => DagOp::Lit(v),
            PExpr::Unary {
                op: UnaryOp::Plus,
                expr,
            } => {
                // `+x` is `x`.
                self.dag.tree_nodes -= 1;
                return self.intern(expr, guarded);
            }
            PExpr::Unary {
                op: UnaryOp::Neg, ..
            } => DagOp::Neg,
            PExpr::Not(_) => DagOp::Not,
            PExpr::IsNull { negated, .. } => DagOp::IsNull { negated: *negated },
            PExpr::Binary { op, .. } => DagOp::Binary(*op),
            PExpr::InList { negated, .. } => DagOp::InList { negated: *negated },
            PExpr::Case {
                operand,
                else_expr,
                ..
            } => DagOp::Case {
                operand: operand.is_some(),
                else_expr: else_expr.is_some(),
            },
            PExpr::Func {
                f: FuncId::Seq8,
                args,
            } if args.is_empty() => {
                self.seq8_guarded |= guarded;
                self.seq8_calls += 1;
                DagOp::Seq8 {
                    call: self.seq8_calls - 1,
                }
            }
            PExpr::Func { f, .. } => DagOp::Func(*f),
            PExpr::Cast { ty, .. } => DagOp::Cast(*ty),
            PExpr::Path { steps, .. } => DagOp::Path(steps),
            PExpr::Like { negated, .. } => DagOp::Like { negated: *negated },
        };
        e.for_each_child_guarded(&mut |child, guard| self.operand(child, guarded || guard));
        let id = self.node(op, base, guarded);
        self.operands.truncate(base);
        id
    }

    fn operand(&mut self, e: &'a PExpr, guarded: bool) {
        let id = self.intern(e, guarded);
        self.operands.push(id);
    }

    /// The node `op(self.operands[base..])`: an equal pure node if there is
    /// one, a new node otherwise.
    fn node(&mut self, op: DagOp<'a>, base: usize, guarded: bool) -> NodeId {
        let kids = &self.operands[base..];
        let volatile = matches!(op, DagOp::Seq8 { .. })
            || kids.iter().any(|&k| self.dag.nodes[k as usize].volatile);
        let hash = node_hash(&op, kids);
        if !volatile {
            if let Some(&same) = self.interned.get(&hash) {
                if same_op(&self.dag.nodes[same as usize].op, &op) && self.dag.args(same) == kids {
                    self.dag.nodes[same as usize].always |= !guarded;
                    return same;
                }
            }
        }
        let id = self.dag.nodes.len() as NodeId;
        let start = self.dag.args.len() as u32;
        self.dag.args.extend_from_slice(kids);
        for &k in kids {
            self.dag.nodes[k as usize].uses += 1;
        }
        self.dag.nodes.push(DagNode {
            op,
            args: (start, kids.len() as u32),
            uses: 0,
            always: !guarded,
            volatile,
        });
        if !volatile {
            self.interned.entry(hash).or_insert(id);
        }
        id
    }
}

/// A multiply-rotate hasher (the "Fx" scheme). Lowering runs per query; with
/// SipHash, hashing a few hundred small nodes was a third of it
/// (`snowdb.plan.lower_us` on `compile_small`: 390 µs over 21 statements,
/// 270 µs with this). The keys are plan nodes, not outside input.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn node_hash(op: &DagOp<'_>, kids: &[NodeId]) -> u64 {
    let mut h = FxHasher::default();
    std::mem::discriminant(op).hash(&mut h);
    match op {
        DagOp::Col(i) => i.hash(&mut h),
        DagOp::Lit(v) => v.hash_identical(&mut h),
        DagOp::Neg | DagOp::Not => {}
        DagOp::IsNull { negated } | DagOp::InList { negated } | DagOp::Like { negated } => {
            negated.hash(&mut h)
        }
        DagOp::Binary(b) => (*b as u8).hash(&mut h),
        DagOp::Case { operand, else_expr } => (operand, else_expr).hash(&mut h),
        DagOp::Func(f) => (*f as u8).hash(&mut h),
        DagOp::Seq8 { call } => call.hash(&mut h),
        DagOp::Cast(t) => (*t as u8).hash(&mut h),
        DagOp::Path(steps) => {
            for s in *steps {
                match s {
                    PStep::Field(f) => f.hash(&mut h),
                    PStep::Index(i) => i.hash(&mut h),
                    PStep::IndexExpr(_) => 0u8.hash(&mut h),
                }
            }
        }
    }
    kids.hash(&mut h);
    h.finish()
}

/// Equality of two nodes' operations; their arguments are compared by id.
fn same_op(a: &DagOp<'_>, b: &DagOp<'_>) -> bool {
    match (a, b) {
        (DagOp::Col(x), DagOp::Col(y)) => x == y,
        (DagOp::Lit(x), DagOp::Lit(y)) => x.identical(y),
        (DagOp::Neg, DagOp::Neg) | (DagOp::Not, DagOp::Not) => true,
        (DagOp::IsNull { negated: x }, DagOp::IsNull { negated: y })
        | (DagOp::InList { negated: x }, DagOp::InList { negated: y })
        | (DagOp::Like { negated: x }, DagOp::Like { negated: y }) => x == y,
        (DagOp::Binary(x), DagOp::Binary(y)) => x == y,
        (
            DagOp::Case {
                operand: o1,
                else_expr: e1,
            },
            DagOp::Case {
                operand: o2,
                else_expr: e2,
            },
        ) => o1 == o2 && e1 == e2,
        (DagOp::Func(x), DagOp::Func(y)) => x == y,
        (DagOp::Cast(x), DagOp::Cast(y)) => x == y,
        (DagOp::Path(x), DagOp::Path(y)) => {
            x.len() == y.len()
                && x.iter().zip(y.iter()).all(|(s, t)| match (s, t) {
                    (PStep::Field(f), PStep::Field(g)) => f == g,
                    (PStep::Index(i), PStep::Index(j)) => i == j,
                    (PStep::IndexExpr(_), PStep::IndexExpr(_)) => true,
                    _ => false,
                })
        }
        // Volatile nodes are never looked up.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> PExpr {
        PExpr::Col(i)
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

    #[test]
    fn equal_pure_subtrees_become_one_node_across_roots() {
        let px = bin(col(0), BinOp::Mul, func(FuncId::Cos, vec![col(1)]));
        let a = bin(px.clone(), BinOp::Mul, px.clone());
        let b = bin(px.clone(), BinOp::Add, PExpr::Lit(Variant::Int(1)));
        let exprs = [a, b];
        let dag = ExprDag::compile(&exprs);
        // #0, #1, COS(#1), #0*COS(#1), px*px, 1, px+1
        assert_eq!(dag.dag_nodes(), 7);
        // px has 4 nodes: (px * px) has 9, (px + 1) has 6.
        assert_eq!(dag.tree_nodes(), 9 + 6);
        assert_eq!(dag.root_count(), 2);
        // px is read by both operands of the product and by the sum.
        let px_id = dag.args(dag.roots()[1])[0];
        assert_eq!(dag.uses(px_id), 3);
        assert_eq!(dag.seq8(), Seq8Calls::None);
    }

    #[test]
    fn literals_share_by_strict_identity() {
        let exprs = [
            PExpr::Lit(Variant::Int(1)),
            PExpr::Lit(Variant::Float(1.0)),
            PExpr::Lit(Variant::Int(1)),
            PExpr::Lit(Variant::Float(0.0)),
            PExpr::Lit(Variant::Float(-0.0)),
        ];
        let dag = ExprDag::compile(&exprs);
        assert_eq!(dag.dag_nodes(), 4);
        assert_eq!(dag.roots()[0], dag.roots()[2]);
    }

    #[test]
    fn volatile_subtrees_are_never_shared_and_calls_are_numbered_in_row_order() {
        let seq = || func(FuncId::Seq8, vec![]);
        let exprs = [bin(seq(), BinOp::Add, seq()), bin(seq(), BinOp::Add, seq())];
        let dag = ExprDag::compile(&exprs);
        assert_eq!(dag.seq8(), Seq8Calls::PerRow(4));
        assert_ne!(dag.roots()[0], dag.roots()[1]);
        let calls: Vec<u32> = dag
            .roots()
            .iter()
            .flat_map(|&r| dag.args(r).to_vec())
            .map(|id| match dag.op(id) {
                DagOp::Seq8 { call } => call,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(calls, [0, 1, 2, 3]);
    }

    #[test]
    fn guarded_operands_are_marked_and_a_guarded_seq8_has_no_kernel() {
        let div = bin(col(1), BinOp::Div, col(0));
        let guard = bin(col(0), BinOp::Eq, PExpr::Lit(Variant::Int(0)));
        let iff = func(
            FuncId::Iff,
            vec![guard, PExpr::Lit(Variant::Null), div.clone()],
        );
        let exprs = [iff];
        let dag = ExprDag::compile(&exprs);
        let args = dag.args(dag.roots()[0]).to_vec();
        assert!(dag.always(args[0]), "the condition runs on every row");
        assert!(!dag.always(args[2]), "the division runs under the guard");
        // The same division, also projected unguarded, runs on every row.
        let exprs = [
            func(
                FuncId::Iff,
                vec![col(2), PExpr::Lit(Variant::Null), div.clone()],
            ),
            div,
        ];
        let dag = ExprDag::compile(&exprs);
        assert!(dag.always(dag.roots()[1]));
        assert_eq!(dag.args(dag.roots()[0])[2], dag.roots()[1]);
        let exprs = [func(
            FuncId::Coalesce,
            vec![col(0), func(FuncId::Seq8, vec![])],
        )];
        assert_eq!(ExprDag::compile(&exprs).seq8(), Seq8Calls::Guarded);
    }

    #[test]
    fn shifted_columns_read_the_right_input() {
        let exprs = [bin(col(5), BinOp::Add, col(1))];
        let dag = ExprDag::compile_shifted(&exprs, 3);
        let args = dag.args(dag.roots()[0]).to_vec();
        assert!(matches!(dag.op(args[0]), DagOp::Col(2)));
        assert!(matches!(dag.op(args[1]), DagOp::Col(usize::MAX)));
    }
}
