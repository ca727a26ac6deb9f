//! Physical plans: the logical plan annotated for morsel-parallel execution.
//!
//! Lowering walks the bound (and optimized) logical [`Node`] tree and produces
//! a mirror tree of [`PhysNode`]s, each carrying
//! - the degree of parallelism the executor will use for it;
//! - an [`OpMetricsCell`] that workers update concurrently during execution;
//! - the operator's expressions compiled into an [`ExprDag`] ([`OpExprs`]):
//!   shared subexpressions are found once here, not once per batch.
//!
//! The physical tree borrows the logical plan rather than copying it: operator
//! semantics stay defined in one place and lowering stays cheap enough to run
//! per query.
//!
//! Subtrees the optimizer marked shared ([`Node::share`]) are lowered once:
//! the first site of a class in *execution* order gets the operator subtree
//! and produces the class's [`SharedSlot`]; every other site is a childless
//! reader of that slot. Lowering visits the sites in the order the executor
//! runs them — a join's right (build) input before its left (probe) input,
//! every other operator's inputs in order — and the executor runs them one
//! after the other on the statement's thread, so the producing site has
//! always finished before a reader asks: a reader never waits, and one that
//! found the slot empty would fail with a typed internal error. The physical
//! plan is therefore the DAG itself — [`PhysNode::op_count`] and the metrics
//! tree see each shared operator once.

use std::collections::HashMap;
use std::sync::Arc;

use crate::exec::dag::ExprDag;
use crate::exec::metrics::{OpMetrics, OpMetricsCell};
use crate::exec::pipeline::SharedSlot;
use crate::plan::{split_join_on, Node, NodeKind, PExpr};

/// One operator of the physical plan.
#[derive(Debug)]
pub struct PhysNode<'a> {
    /// The logical operator this node executes.
    pub logical: &'a Node,
    /// Children in the same order as the logical node's inputs (none for a
    /// reader of a shared result).
    pub children: Vec<PhysNode<'a>>,
    /// Worker count the executor will use for this operator's parallel phase
    /// (1 = inherently serial).
    pub parallelism: usize,
    /// Concurrent metric counters, snapshotted after execution.
    pub metrics: OpMetricsCell,
    /// The result slot of a shared subtree, and this site's part in it.
    pub shared: Option<SharedSite>,
    /// The operator's expressions, compiled for batch evaluation.
    pub exprs: OpExprs<'a>,
}

/// The expressions an operator evaluates, compiled when the plan is lowered.
#[derive(Debug)]
pub enum OpExprs<'a> {
    /// The operator evaluates no expression (scan, limit, union, distinct,
    /// values), or is a reader of a shared result.
    None,
    /// One root per expression, in plan order: the projection list, the
    /// filter predicate, the flatten input, the sort keys; for an aggregate
    /// the group keys, then each aggregate's arguments (`arg`, then `arg2`).
    Dag(ExprDag<'a>),
    Join(JoinExprs<'a>),
}

/// A join's ON predicate, split once: hash keys and residual conjuncts.
#[derive(Debug)]
pub struct JoinExprs<'a> {
    /// The left key of each equi-conjunct, over the left input. No root: the
    /// join is a nested loop over the residual.
    pub left: ExprDag<'a>,
    /// The matching right keys over the right input; they are bound against
    /// the concatenated schema, so the DAG's offset is the left arity.
    pub right: ExprDag<'a>,
    /// Conjuncts evaluated per candidate pair, over the concatenated row.
    pub residual: Vec<&'a PExpr>,
}

fn compile_exprs(plan: &Node) -> OpExprs<'_> {
    match &plan.kind {
        NodeKind::Join { left, on, .. } => {
            let left_arity = left.arity();
            let (equi, residual) =
                on.as_ref().map(|e| split_join_on(e, left_arity)).unwrap_or_default();
            OpExprs::Join(JoinExprs {
                left: ExprDag::compile(equi.iter().map(|(l, _)| *l)),
                right: ExprDag::compile_shifted(equi.iter().map(|(_, r)| *r), left_arity),
                residual,
            })
        }
        // A literal flatten bound is read from the plan, once per batch.
        NodeKind::Flatten { expr, from, .. } => OpExprs::Dag(ExprDag::compile(
            std::iter::once(expr).chain(from.iter().filter(|b| !matches!(b, PExpr::Lit(_)))),
        )),
        NodeKind::Project { .. }
        | NodeKind::Filter { .. }
        | NodeKind::Sort { .. }
        | NodeKind::Aggregate { .. } => OpExprs::Dag(ExprDag::compile(plan.kind.exprs())),
        _ => OpExprs::None,
    }
}

/// One site of a shared subtree in the physical plan.
#[derive(Debug)]
pub struct SharedSite {
    pub slot: Arc<SharedSlot>,
    /// True at the one site that owns the operator subtree and executes it:
    /// the first in execution order.
    pub producer: bool,
}

/// Lowers a logical plan for execution with `threads` workers.
pub fn lower(plan: &Node, threads: usize) -> PhysNode<'_> {
    lower_node(plan, threads.max(1), &mut HashMap::new())
}

fn lower_node<'a>(
    plan: &'a Node,
    threads: usize,
    slots: &mut HashMap<u32, Arc<SharedSlot>>,
) -> PhysNode<'a> {
    let shared = plan.share.map(|id| {
        let producer = !slots.contains_key(&id);
        let slot = slots.entry(id).or_default().clone();
        slot.add_site();
        SharedSite { slot, producer }
    });
    let reader = shared.as_ref().is_some_and(|site| !site.producer);
    let children = match &plan.kind {
        _ if reader => Vec::new(),
        // A join executes its build (right) side before its probe side, so
        // the right subtree is lowered first: the producing site of a class
        // is the first one executed.
        NodeKind::Join { left, right, .. } => {
            let right = lower_node(right, threads, slots);
            vec![lower_node(left, threads, slots), right]
        }
        kind => kind.inputs().into_iter().map(|c| lower_node(c, threads, slots)).collect(),
    };
    let parallelism = match &plan.kind {
        // Reading a slot is one hand-over of finished batches.
        _ if reader => 1,
        // Scans parallelize across micro-partitions (the morsel unit), so a
        // table with fewer partitions than workers caps the useful degree.
        NodeKind::Scan { table, .. } => threads.min(table.partitions().len().max(1)),
        NodeKind::Values => 1,
        // Filters, projections, flattens and join probes are stages of a
        // pipeline. Volatile projections (SEQ8) still parallelize: the
        // executor assigns each morsel its deterministic counter base from a
        // prefix sum over the materialized input. A join's build is serial.
        NodeKind::Project { .. }
        | NodeKind::Filter { .. }
        | NodeKind::Flatten { .. }
        | NodeKind::Join { .. } => threads,
        // Pipeline breakers: one partial state per worker of the pipeline
        // below, merged in order (aggregate), parallel key evaluation then a
        // global merge (sort).
        NodeKind::Aggregate { .. } | NodeKind::Sort { .. } => threads,
        // Distinct keeps one hash set in input order; limit and union only
        // splice batch lists.
        NodeKind::Distinct { .. } | NodeKind::Limit { .. } | NodeKind::UnionAll { .. } => 1,
    };
    PhysNode {
        logical: plan,
        children,
        parallelism,
        metrics: OpMetricsCell::default(),
        shared,
        exprs: if reader { OpExprs::None } else { compile_exprs(plan) },
    }
}

impl PhysNode<'_> {
    /// Short operator label used in metrics and `EXPLAIN ANALYZE`.
    pub fn op_name(&self) -> String {
        if let Some(SharedSite { producer: false, .. }) = &self.shared {
            return format!("Shared #{}", self.logical.share.unwrap_or_default());
        }
        match &self.logical.kind {
            NodeKind::Scan { table, .. } => format!("Scan {}", table.name()),
            NodeKind::Values => "Values".into(),
            NodeKind::Project { .. } => "Project".into(),
            NodeKind::Filter { .. } => "Filter".into(),
            NodeKind::Flatten { .. } => "Flatten".into(),
            NodeKind::Aggregate { .. } => "Aggregate".into(),
            NodeKind::Join { kind, .. } => format!("{kind:?}Join"),
            NodeKind::Sort { .. } => "Sort".into(),
            NodeKind::Limit { .. } => "Limit".into(),
            NodeKind::UnionAll { .. } => "UnionAll".into(),
            NodeKind::Distinct { .. } => "Distinct".into(),
        }
    }

    /// The operator's compiled expressions; an operator that has none in
    /// [`OpExprs::Dag`] form is a lowering bug the executor reports.
    pub(crate) fn dag(&self) -> crate::error::Result<&ExprDag<'_>> {
        match &self.exprs {
            OpExprs::Dag(dag) => Ok(dag),
            _ => Err(crate::error::SnowError::internal(
                self.op_name(),
                "the operator was lowered without compiled expressions",
            )),
        }
    }

    /// Snapshots the metrics tree (call after execution completes).
    pub fn snapshot(&self) -> OpMetrics {
        let children = self.children.iter().map(PhysNode::snapshot).collect();
        let mut m = self.metrics.snapshot(self.op_name(), self.parallelism, children);
        let size = |d: &ExprDag<'_>| (d.dag_nodes() as u64, d.tree_nodes() as u64);
        (m.expr_dag_nodes, m.expr_tree_nodes) = match &self.exprs {
            OpExprs::None => (0, 0),
            OpExprs::Dag(d) => size(d),
            OpExprs::Join(j) => {
                let ((ld, lt), (rd, rt)) = (size(&j.left), size(&j.right));
                (ld + rd, lt + rt)
            }
        };
        m
    }

    /// Number of operators in this subtree.
    pub fn op_count(&self) -> usize {
        1 + self.children.iter().map(PhysNode::op_count).sum::<usize>()
    }
}
