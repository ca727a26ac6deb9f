//! Morsel-driven pipelines: the executor every query runs on.
//!
//! A physical plan is cut into *pipelines*. A pipeline is
//!
//! - a **source** of morsels: the micro-partitions of a scan, or the batches
//!   of a materialized list — a breaker's output, a shared subtree's result,
//!   the input of a stage that numbers rows;
//! - the maximal run of **stages** — filters, projections, flattens, the
//!   probes of hash joins — above it;
//! - a **sink**: a batch list (for a join's build side, a sort, a limit, a
//!   union, a shared slot, the query result), or the aggregate or distinct
//!   above the last stage, which folds what arrives.
//!
//! One driver runs them all ([`Pipeline::run`]). A worker claims a morsel
//! from the work-stealing [`crate::storage::morsel`] dispatcher and takes it
//! through every stage into the sink before it claims the next; nothing is
//! materialized between the stages. A stage never hands on more than
//! [`BATCH_ROWS`] rows at once: a flatten or a join probe cuts the output for
//! one input batch into *pieces*, and each piece goes all the way down —
//! depth first — and is dropped by the worker that made it before the next is
//! cut, so a chain of flattens or probes holds one piece per stage, not the
//! blown-up intermediate. A worker owns the batch it is working on: a
//! projection moves the columns it only passes on, a filter that keeps every
//! row returns its input, a probe in which every row found one match hands
//! its columns on.
//!
//! A hash join is a stage on its left (probe) side and a breaker on its right
//! (build) side: before the pipeline runs, the join's right input is executed
//! and built into its table ([`super::join`]), which every worker probes.
//! So scan → filter → probe × k → project → aggregate is one pipeline, and a
//! star join runs its fact table through all its dimensions morsel by
//! morsel. Aggregate, sort, distinct, limit and union are *breakers*: they
//! need a whole input. An aggregate is the sink of the pipeline below it and
//! keeps one partial state per worker (see below); so is a distinct, which is
//! a `GROUP BY` of every column with no aggregates. Both group rows in the
//! executor's one key table ([`super::hash`]), the join's table type: a
//! batch's key columns are hashed a column at a time, each row is one
//! `find_or_insert`, and the table's key columns are the output's group
//! columns — unless their one key is an `Int` that arrives in ascending runs,
//! as a row id stamped before a flatten does: then a group closes when the
//! key changes, and nothing is hashed ([`AggState`]). The other breakers
//! take batch lists, and a sort's key evaluation
//! and gather are per-batch maps ([`map_batches`], which the driver is built
//! on too). A breaker's output is the source of the pipeline above it; an
//! aggregate and a distinct emit their groups in batches of `MORSEL_ROWS`, so
//! that a few thousand groups spread over every worker. [`execute_physical`]
//! runs an operator's input pipelines one after the other on the calling
//! thread — a pipeline's build sides first, top down, then its source;
//! parallelism is inside a pipeline, over morsels.
//!
//! Every operator updates the [`OpMetricsCell`] of its
//! [`PhysNode`](crate::plan::physical::PhysNode), producing the per-operator
//! metrics tree reported in [`QueryProfile`](crate::engine::QueryProfile).
//! The operators of a pipeline have no barrier of their own, so each is
//! tagged with the pipeline it ran in and the operator the pipeline ends at
//! carries its wall time, morsel count and workers ([`PipelineRun`]): busy
//! times are summed across workers and read against that wall clock, which
//! includes building the pipeline's join tables. Each row an operator takes
//! in and each nanosecond it works is counted once: a join takes in its
//! probe rows and its build rows.
//!
//! # Determinism contract
//!
//! Execution with any worker count must be *byte-identical* to execution with
//! one (rows in order), and so must the error it reports. Where morsels and
//! pieces end depends on the plan and the data alone, never on the worker
//! count.
//!
//! - All merges happen in morsel order (the dispatcher hands out indices,
//!   results are reassembled sorted by index; within a morsel the pieces
//!   arrive in order).
//! - A stage that numbers rows from the global index of its input rows — a
//!   projection calling `SEQ8()`, a flatten that emits `SEQ` — *starts a
//!   pipeline*: its input is materialized, and each morsel gets its base from
//!   a prefix sum over the batch row counts, so row ids match the serial row
//!   order exactly. In a projection `SEQ8()` is an integer ramp from that
//!   base.
//! - Volatile expressions outside projections (a `SEQ8()` in a filter or join
//!   condition, a flatten input, sort keys, aggregate arguments) read one
//!   counter. Such a filter, flatten or join starts a pipeline too, and the
//!   whole pipeline runs at degree 1 on the caller's context, morsel after
//!   morsel, its expressions through the row producer; a sort or aggregate
//!   does the same with its batches. A volatile join condition is numbered in
//!   this order: the right keys of all right rows, then per left batch its
//!   left keys, then the residual conjuncts of its candidate pairs.
//! - An aggregate whose kinds merge exactly, and a distinct, keep one partial
//!   state per worker over a *contiguous* range of morsels; the partials merge
//!   in range order — a later partial's groups are looked up by their stored
//!   keys and hashes, and [`Accumulator::merge`] folds the ones found; run-mode
//!   partials whose keys follow each other concatenate instead — which
//!   preserves first-seen group order and cells, first-among-ties and
//!   `ARRAY_AGG` order. `SUM`/`AVG` do not merge exactly (float addition is
//!   not associative): the pipeline below runs in parallel into a batch list,
//!   and one state folds the list serially, in order. So does an aggregate
//!   with a volatile argument.
//!
//! # Error contract
//!
//! When several rows fail, the statement reports the error one thread would
//! meet first, under either producer of expression columns:
//!
//! - a join's build side runs before its probe side, so when both raise,
//!   the build side's error is reported;
//! - within a pipeline, the lowest source morsel wins, across every stage,
//!   the probes included;
//! - within a morsel, a stage evaluates its expressions over a whole batch
//!   before it hands anything on, so of two stages failing on one batch the
//!   upstream one wins; pieces go depth first, so what an earlier piece
//!   raises anywhere downstream comes before what a later piece raises;
//! - within a stage and batch, the first row in row-major order; a probe
//!   finds every pair of its batch, every residual evaluated in (left row,
//!   right row) order, before it hands anything on;
//! - an aggregate that is the pipeline's sink is its last stage: it folds a
//!   batch's rows before the first one on which an expression of its own
//!   fails, so the error at the lowest (batch, row) is reported whether it
//!   comes from an expression or an accumulator;
//! - a breaker that takes a batch list reports what its input pipelines
//!   raise before anything of its own: a `SUM` over a failing projection
//!   reports the projection's error, whichever morsel it is in.
//!
//! A governor trip — cancellation, a deadline, a budget, an injected fault —
//! is checked before every claim and once per stage and piece, so it arrives
//! within one piece; trips are timing-dependent and have no order.
//!
//! # Shared subplans
//!
//! An optimized plan is a DAG ([`crate::optimize::share`]): a subtree several
//! parents read is lowered once and owns a [`SharedSlot`]. Its first site in
//! execution order executes it and publishes the batches; every other site
//! takes a copy from the slot. The last reader takes the stored batches
//! themselves, which frees the slot. A failure is published like a result:
//! every reader gets the same typed error. Scan statistics, governor budgets
//! and operator metrics are charged where the work happens, at the producing
//! site, once. A shared operator ends the pipeline below it — its batches
//! must reach the slot, not only one reader — and a reader is the source of
//! the pipeline above it. This rests on the contract above: the output of a
//! subtree is a function of the subtree alone (`SEQ8()` restarts in every
//! projection), so reading one result twice equals computing it twice.
//!
//! Pipelines run one after the other on the statement's thread, and the
//! producing site is the first in execution order — lowering visits a join's
//! build side before its probe side, as execution does
//! ([`crate::plan::physical`]) —: a reader always finds the result
//! published, and nothing waits. A reader that finds the slot empty is a
//! typed internal error, not a wait. A producing site that unwinds unwinds
//! the statement, so no reader runs after it; `Database::run_plan` catches
//! the panic.
//!
//! # One body per operator, two producers of its columns
//!
//! Batches are columnar ([`ColumnVec`]). Every operator's expressions were
//! compiled into one [`ExprDag`] when the plan was lowered, and an operator
//! has one body, which consumes the *columns* of those expressions for a
//! batch ([`eval_exprs`]): a filter turns one into a mask, a projection
//! emits them, an aggregate folds them, a join hashes them. Two producers
//! make these columns. When `ctx.vectorize` is on (default;
//! `SNOWDB_VECTORIZE=0` disables) the DAG evaluates the batch
//! ([`super::kernel`]): each distinct subexpression once, guarded operands on
//! the rows their guard lets through. The DAG *declines* a batch in which
//! the row evaluator would fail (and is not asked when vectorization is off,
//! or when the operator threads one `SEQ8()` counter through its rows); the
//! row producer ([`eval_rows`]) then runs [`super::expr::eval`] over the
//! batch row by row, expression by expression, and returns the columns for
//! the rows before the first failing row together with that row's error.
//! Serial execution meets everything those earlier rows can raise first, so
//! the operator consumes the prefix and then reports the error: a filter
//! first raises the type error of an earlier value that is no boolean, an
//! aggregate first folds the prefix, so an accumulator error on an earlier
//! row wins; the other operators have nothing that can fail on a prefix and
//! report the error at once. Which producer ran is counted per operator
//! (`rows_vectorized` / `rows_fallback`, rendered as `vec=` by `EXPLAIN
//! ANALYZE`).
//!
//! When `ctx.encode` is on, scans hand encoded (dictionary / run-length)
//! blocks into the pipeline unchanged and the kernels evaluate
//! equality/`IN` filters and group keys directly on dictionary codes,
//! materializing strings only at operator boundaries that need them. Rows
//! evaluated on codes vs. materialized are counted per operator
//! (`rows_on_codes` / `rows_materialized`, rendered as `enc=` by
//! `EXPLAIN ANALYZE`).

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::column::{Bitmap, ColumnVec, RecordLists};
use crate::error::{Result, SnowError};
use crate::plan::physical::{PhysNode, SharedSite};
use crate::plan::{AggExpr, AggKind, NodeKind, PExpr, SortKey};
use crate::storage::morsel::{try_parallel_indexed_governed, Dispatched};
use crate::variant::Variant;

use super::agg::{boxes_cells, fresh_rows, Accumulator, Fold, GroupStates};
use super::dag::ExprDag;
use super::hash::{KeyHasher, KeyTable};
use super::join::JoinTable;
use super::kernel::mask_keep;
use super::metrics::{Grouping, OpMetricsCell, PipelineRun};
use super::{cmp_sort_values, eval, Chunk, ExecCtx, RowView};

/// Most rows a batch holds inside a pipeline: a scan cuts its partitions to
/// this, and a stage whose output for one input batch is larger hands it on
/// in pieces of this size. Matches the default micro-partition size, so a
/// partition usually maps to one batch.
pub const BATCH_ROWS: usize = 4096;

/// Rows per batch of an aggregate's output, the morsels of the pipeline above
/// it: small enough that a few thousand groups spread over every worker. A
/// constant, because where an error is reported depends on where morsels
/// end, and that must not depend on the worker count.
const MORSEL_ROWS: usize = 1024;

/// Executes a physical plan to completion, returning the ordered batch list.
///
/// Scan statistics accumulate into `ctx.stats`: per-worker stats are summed,
/// so `bytes_scanned` and partition counts are identical for any thread
/// count. At a site of a shared subtree this returns the site's copy of the
/// subtree's one result (see the module docs).
pub fn execute_physical(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    match &p.shared {
        None => execute_op(p, ctx),
        Some(SharedSite { slot, producer }) => slot.get(*producer, || execute_op(p, ctx)),
    }
}

fn execute_op(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    match &p.logical.kind {
        NodeKind::Values => {
            p.metrics.add_output(1, 1);
            Ok(vec![Chunk { cols: Vec::new(), rows: 1 }])
        }
        NodeKind::Scan { .. }
        | NodeKind::Filter { .. }
        | NodeKind::Project { .. }
        | NodeKind::Flatten { .. }
        | NodeKind::Join { .. } => Pipeline::ending_at(p, true, ctx)?.collect(p, ctx),
        NodeKind::Aggregate { groups, aggs, .. } => exec_aggregate(p, Some(groups.len()), aggs, ctx),
        NodeKind::Sort { keys, .. } => exec_sort(p, keys, ctx),
        NodeKind::Limit { n, .. } => exec_limit(p, *n, ctx),
        NodeKind::UnionAll { .. } => exec_union(p, ctx),
        NodeKind::Distinct { .. } => exec_aggregate(p, None, &[], ctx),
    }
}

/// The one result of a shared subtree (see the module docs): produced at the
/// first of its sites in execution order, read at every other. Workers share
/// the physical plan, so the slot is `Sync`: a `Mutex`, never contended.
#[derive(Debug, Default)]
pub struct SharedSlot {
    state: Mutex<Option<Published>>,
    /// Sites lowered for the subtree, the producing one included.
    sites: AtomicUsize,
}

/// A published result; `unread` sites, the producing one included, have yet
/// to take their copy.
#[derive(Debug)]
struct Published {
    result: Result<Vec<Chunk>>,
    unread: usize,
}

impl SharedSlot {
    /// Registers one more site of the subtree (called while lowering).
    pub(crate) fn add_site(&self) {
        self.sites.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns this site's copy of the result: runs `produce` and publishes
    /// its result at the producing site, takes a copy at the others — the
    /// last one takes the batches themselves, which frees the slot. A reader
    /// that finds nothing published ran before its producer, which lowering
    /// rules out: that is a typed internal error.
    fn get(
        &self,
        producer: bool,
        produce: impl FnOnce() -> Result<Vec<Chunk>>,
    ) -> Result<Vec<Chunk>> {
        if producer {
            let result = produce();
            let unread = self.sites.load(Ordering::Relaxed);
            *self.lock() = Some(Published { result, unread });
        }
        let mut state = self.lock();
        match state.take() {
            None => Err(SnowError::internal(SLOT_OP, "a reader ran before its producing site")),
            Some(Published { result, unread: ..=1 }) => result,
            Some(Published { result, unread }) => {
                let copy = result.clone();
                *state = Some(Published { result, unread: unread - 1 });
                copy
            }
        }
    }

    /// The state is only ever replaced whole, so it is valid even if a
    /// holder of the lock panicked.
    fn lock(&self) -> MutexGuard<'_, Option<Published>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Operator name a slot reports in errors.
const SLOT_OP: &str = "Shared";

/// Total rows across a batch list.
pub fn total_rows(batches: &[Chunk]) -> usize {
    batches.iter().map(|c| c.rows).sum()
}

/// Concatenates a batch list into one chunk (moves, no cell clones).
pub fn concat_batches(batches: Vec<Chunk>, arity: usize) -> Chunk {
    let mut iter = batches.into_iter();
    let Some(mut first) = iter.next() else {
        return Chunk::empty(arity);
    };
    for c in iter {
        for (dst, src) in first.cols.iter_mut().zip(c.cols) {
            dst.append(src);
        }
        first.rows += c.rows;
    }
    first
}

/// Splits an aggregate's output into batches of at most [`MORSEL_ROWS`] rows
/// (moves, no cell clones). Zero-row chunks produce an empty list. Batches
/// are cut off the end, so that every row moves once.
fn split_into_morsels(mut chunk: Chunk) -> Vec<Chunk> {
    let mut out = Vec::with_capacity(chunk.rows.div_ceil(MORSEL_ROWS));
    while chunk.rows > MORSEL_ROWS {
        let at = (chunk.rows - 1) / MORSEL_ROWS * MORSEL_ROWS;
        let cols = chunk.cols.iter_mut().map(|col| col.split_off(at)).collect();
        out.push(Chunk { cols, rows: chunk.rows - at });
        chunk.rows = at;
    }
    if chunk.rows > 0 {
        out.push(chunk);
    }
    out.reverse();
    out
}

/// Output arity of a batch list, falling back to the plan's schema when the
/// list is empty.
fn batches_arity(batches: &[Chunk], p: &PhysNode<'_>) -> usize {
    batches.first().map_or(p.logical.arity(), |c| c.cols.len())
}

/// Static operator tag for governance checkpoints. The checkpoint hot path
/// must not allocate; the full display name (with table suffix) is built by
/// [`PhysNode::op_name`] only where a per-call allocation is already paid.
fn op_tag(p: &PhysNode<'_>) -> &'static str {
    match &p.logical.kind {
        NodeKind::Scan { .. } => "Scan",
        NodeKind::Values => "Values",
        NodeKind::Project { .. } => "Project",
        NodeKind::Filter { .. } => "Filter",
        NodeKind::Flatten { .. } => "Flatten",
        NodeKind::Aggregate { .. } => "Aggregate",
        NodeKind::Join { .. } => "Join",
        NodeKind::Sort { .. } => "Sort",
        NodeKind::Limit { .. } => "Limit",
        NodeKind::UnionAll { .. } => "UnionAll",
        NodeKind::Distinct { .. } => "Distinct",
    }
}

/// Accounts one produced batch: raises the operator's peak-memory watermark
/// and charges the governor's cumulative memory budget.
pub(super) fn charge_batch(
    p: &PhysNode<'_>,
    ctx: &ExecCtx,
    op: &str,
    chunk: &Chunk,
) -> Result<()> {
    let bytes = chunk.approx_bytes();
    p.metrics.add_mem(bytes);
    ctx.gov.charge_memory(bytes, op)
}

/// The typed error a panicking worker is converted into (the morsel layer
/// catches the unwind and reports the lowest-index failure).
fn worker_panic_error(op: &str, index: usize, msg: String) -> SnowError {
    SnowError::internal(op, format!("worker panic at index {index}: {msg}"))
}

/// Exclusive prefix sum of batch row counts: the global index of each batch's
/// first row, which seeds the deterministic `SEQ8()` / `FLATTEN` bases.
fn row_bases(batches: &[Chunk]) -> Vec<usize> {
    let mut bases = Vec::with_capacity(batches.len());
    let mut acc = 0usize;
    for c in batches {
        bases.push(acc);
        acc += c.rows;
    }
    bases
}

/// Starts the clock of the query's next pipeline and numbers it. A breaker
/// calls this once its inputs are there: its own phase is a pipeline too.
fn begin_pipeline(ctx: &mut ExecCtx) -> (u32, Instant) {
    ctx.pipelines += 1;
    (ctx.pipelines, Instant::now())
}

/// Records on `top`, the operator the pipeline ends at, how it ran:
/// `joined` pool helpers took part besides the caller.
fn end_pipeline(
    top: &PhysNode<'_>,
    (id, start): (u32, Instant),
    joined: usize,
    morsels: usize,
    workers: usize,
) {
    let run = PipelineRun { wall: start.elapsed(), joined, morsels: morsels as u64, workers };
    top.metrics.record_pipeline(id, run);
}

// ---------------------------------------------------------------------------
// Expression columns
// ---------------------------------------------------------------------------

/// An operator's expression columns for one batch, one per root of its
/// [`ExprDag`]: all `rows` of the batch, or — `err` is set — the rows before
/// the first one on which an expression fails, with that row's error.
pub struct ExprCols<'c> {
    pub cols: Vec<Cow<'c, ColumnVec>>,
    pub rows: usize,
    pub err: Option<SnowError>,
}

impl<'c> ExprCols<'c> {
    /// The columns, for an operator that has nothing to do with a prefix.
    pub fn complete(self) -> Result<Vec<Cow<'c, ColumnVec>>> {
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.cols),
        }
    }
}

/// Evaluates an operator's expressions over one batch: through its compiled
/// DAG, or — vectorization is off, the DAG declined, or the operator threads
/// one `SEQ8()` counter through all its rows, which only the row evaluator
/// numbers — through [`eval_rows`]. `seq_base` is `Some` in a projection: the
/// global index of the batch's first row, from which its `SEQ8()` calls
/// count. The batch is counted on `cell` as vectorized or fallback.
pub fn eval_exprs<'c>(
    dag: &ExprDag<'_>,
    inp: &'c Chunk,
    ctx: &mut ExecCtx,
    seq_base: Option<i64>,
    cell: Option<&OpMetricsCell>,
) -> ExprCols<'c> {
    let by_dag = if ctx.vectorize && (seq_base.is_some() || !dag.is_volatile()) {
        dag.eval(inp, seq_base.unwrap_or(0), cell)
    } else {
        None
    };
    if let Some(cell) = cell {
        match by_dag {
            Some(_) => cell.add_vectorized(inp.rows as u64),
            None => cell.add_fallback(inp.rows as u64),
        }
    }
    match by_dag {
        Some(cols) => ExprCols { cols, rows: inp.rows, err: None },
        None => eval_rows(dag, inp, ctx, seq_base),
    }
}

/// The row producer: [`eval`] over the DAG's source expressions, row-major
/// (row by row, expression by expression), so the first error in that order —
/// the one serial execution reports — ends the columns. With a `seq_base` the
/// counter restarts at `base + r` for every row `r`, which numbers a
/// projection's rows from zero whatever the batching, and the caller's
/// counter is left untouched; without, the caller's counter runs on.
pub fn eval_rows<'c>(
    dag: &ExprDag<'_>,
    inp: &Chunk,
    ctx: &mut ExecCtx,
    seq_base: Option<i64>,
) -> ExprCols<'c> {
    let mut cols: Vec<ColumnVec> = dag.exprs().iter().map(|_| ColumnVec::new()).collect();
    let saved_seq = ctx.seq_counter;
    let (mut rows, mut err) = (inp.rows, None);
    'rows: for r in 0..inp.rows {
        if let Some(base) = seq_base {
            ctx.seq_counter = base + r as i64;
        }
        let parts = [(inp, r)];
        let view = RowView::shifted(&parts, dag.offset());
        for (e, out) in dag.exprs().iter().zip(cols.iter_mut()) {
            match eval(e, view, ctx) {
                Ok(v) => out.push(v),
                Err(e) => {
                    (rows, err) = (r, Some(e));
                    break 'rows;
                }
            }
        }
    }
    if seq_base.is_some() {
        ctx.seq_counter = saved_seq;
    }
    // The failing row's earlier expressions have already been pushed.
    for c in &mut cols {
        c.truncate(rows);
    }
    ExprCols { cols: cols.into_iter().map(Cow::Owned).collect(), rows, err }
}

/// Maps `work` over `0..n` — a pipeline's tasks, a breaker's batches — and
/// returns the results in index order; the error of the lowest index wins.
/// Every index gets a fresh worker context, `p.parallelism` of them at a
/// time — or, `threaded`, all run one after the other on the caller's
/// context, so that one `SEQ8()` counter runs through them in row order.
fn map_batches<R: Send>(
    p: &PhysNode<'_>,
    n: usize,
    threaded: bool,
    ctx: &mut ExecCtx,
    work: impl Fn(usize, &mut ExecCtx) -> Result<R> + Sync,
) -> Dispatched<R, SnowError> {
    let op = op_tag(p);
    let gov = ctx.gov.clone();
    let (vectorize, encode) = (ctx.vectorize, ctx.encode);
    // Degree 1 runs inline on this thread: the lock is never contended.
    let caller = Mutex::new(ctx);
    try_parallel_indexed_governed(
        n,
        if threaded { 1 } else { p.parallelism },
        || gov.claim_checkpoint(op),
        |i, msg| worker_panic_error(op, i, msg),
        |i| {
            if threaded {
                work(i, &mut caller.lock().unwrap_or_else(PoisonError::into_inner))
            } else {
                work(i, &mut ExecCtx::worker(gov.clone(), vectorize, encode))
            }
        },
    )
}

// ---------------------------------------------------------------------------
// The pipeline driver
// ---------------------------------------------------------------------------

/// What receives the batches a stage hands on: the next stage, or the sink.
type Emit<'e> = &'e mut dyn FnMut(Chunk, &mut ExecCtx) -> Result<()>;

/// Where a pipeline's morsels come from.
enum Source<'b, 'a> {
    /// The partitions of a table: a morsel is one partition, cut into batches.
    Scan(&'b PhysNode<'a>),
    /// A materialized batch list — a breaker's output, a shared result, the
    /// input of a stage that numbers rows. A morsel is one batch; the worker
    /// that claims it takes it out of its cell and owns it. `bases[i]` is
    /// the index of batch `i`'s first row in the whole list.
    Batches { cells: Vec<Mutex<Chunk>>, bases: Vec<usize> },
}

impl Source<'_, '_> {
    fn batches(list: Vec<Chunk>) -> Self {
        let bases = row_bases(&list);
        Source::Batches { cells: list.into_iter().map(Mutex::new).collect(), bases }
    }

    fn morsels(&self) -> usize {
        match self {
            Source::Scan(scan) => match &scan.logical.kind {
                NodeKind::Scan { table, .. } => table.partitions().len(),
                _ => unreachable!("a scan source is a scan node"),
            },
            Source::Batches { cells, .. } => cells.len(),
        }
    }
}

/// How a stage numbers the rows of its input, if it does (see the
/// determinism contract).
#[derive(PartialEq)]
enum Numbering {
    None,
    /// From the index of each input batch's first row: a projection's
    /// `SEQ8()` ramp, a flatten's `SEQ` column.
    Bases,
    /// Through one `SEQ8()` counter that runs on from row to row: a volatile
    /// predicate, flatten input or join condition.
    Counter,
}

impl Numbering {
    fn of(stage: &PhysNode<'_>) -> Result<Numbering> {
        let volatile = match &stage.logical.kind {
            NodeKind::Join { on, .. } => on.as_ref().is_some_and(PExpr::is_volatile),
            _ => stage.dag()?.is_volatile(),
        };
        Ok(match &stage.logical.kind {
            NodeKind::Project { .. } if volatile => Numbering::Bases,
            _ if volatile => Numbering::Counter,
            NodeKind::Flatten { emit: [.., seq, _], .. } if *seq => Numbering::Bases,
            _ => Numbering::None,
        })
    }
}

/// One stage of a pipeline: a filter, a projection, a flatten, or the probe
/// of a join, which carries the table its right input was built into.
struct Stage<'b, 'a> {
    node: &'b PhysNode<'a>,
    table: Option<JoinTable>,
}

/// A source and the maximal run of filters, projections, flattens and join
/// probes above it, bottom-up. One worker task takes one morsel through
/// every stage into the sink the pipeline is [run](Pipeline::run) with.
struct Pipeline<'b, 'a> {
    source: Source<'b, 'a>,
    stages: Vec<Stage<'b, 'a>>,
    /// The bottom stage reads one `SEQ8()` counter through all its rows: the
    /// morsels run one after the other on the caller's context.
    serial: bool,
    /// Wall time spent building the stages' join tables, which is part of
    /// the pipeline's.
    built_in: Duration,
}

impl<'b, 'a> Pipeline<'b, 'a> {
    /// The pipeline whose last operator is `top`, its inputs executed: every
    /// join's right input, top-down, and then the source. The run of stages
    /// ends below a stage that numbers rows, which needs its whole input for
    /// the prefix sum, and above a shared operator, whose batches must reach
    /// its slot, not only this reader. `own_top` says the caller is
    /// executing `top` itself — inside its slot, if it is shared.
    fn ending_at(top: &'b PhysNode<'a>, own_top: bool, ctx: &mut ExecCtx) -> Result<Self> {
        let mut stages = Vec::new();
        let (mut serial, mut built_in) = (false, Duration::ZERO);
        let mut cur = top;
        let source = loop {
            let unshared = cur.shared.is_none() || (own_top && std::ptr::eq(cur, top));
            match &cur.logical.kind {
                NodeKind::Filter { .. }
                | NodeKind::Project { .. }
                | NodeKind::Flatten { .. }
                | NodeKind::Join { .. }
                    if unshared =>
                {
                    // The build side runs first: its errors, its pipelines and
                    // the shared results it produces come before the probe's.
                    let table = match &cur.logical.kind {
                        NodeKind::Join { .. } => Some(JoinTable::build(cur, ctx)?),
                        _ => None,
                    };
                    built_in += table.as_ref().map_or(Duration::ZERO, |t| t.built_in);
                    stages.push(Stage { node: cur, table });
                    let numbering = Numbering::of(cur)?;
                    cur = &cur.children[0];
                    if numbering != Numbering::None {
                        serial = numbering == Numbering::Counter;
                        break Source::batches(execute_physical(cur, ctx)?);
                    }
                }
                NodeKind::Scan { .. } if unshared => break Source::Scan(cur),
                _ => break Source::batches(execute_physical(cur, ctx)?),
            }
        };
        stages.reverse();
        Ok(Pipeline { source, stages, serial, built_in })
    }

    /// Runs the pipeline as `top`'s: morsels are claimed `top.parallelism` at
    /// a time, and every batch that leaves the last stage goes to
    /// `sink(local, batch, ..)`, where `local` belongs to the task that made
    /// it. A task is one morsel, or — `per_worker` — one of as many
    /// contiguous morsel ranges as there are workers, so that a sink that
    /// folds keeps one state per worker. Returns the locals in morsel order.
    fn run<L: Default + Send>(
        &self,
        top: &PhysNode<'_>,
        ctx: &mut ExecCtx,
        per_worker: bool,
        sink: impl Fn(&mut L, Chunk, &mut ExecCtx) -> Result<()> + Sync,
    ) -> Result<Vec<L>> {
        let morsels = self.source.morsels();
        let workers = if self.serial { 1 } else { top.parallelism.min(morsels).max(1) };
        let tasks = if per_worker { workers.min(morsels) } else { morsels };
        let clock @ (id, _) = begin_pipeline(ctx);
        let dispatched = map_batches(top, tasks, self.serial, ctx, |task, wctx| {
            let mut local = L::default();
            for mi in task * morsels / tasks..(task + 1) * morsels / tasks {
                self.morsel(mi, wctx, &mut |batch, wctx| sink(&mut local, batch, wctx))?;
            }
            Ok((local, std::mem::take(&mut wctx.stats)))
        });
        for stage in &self.stages {
            stage.node.metrics.set_pipeline(id);
        }
        if let Source::Scan(scan) = &self.source {
            scan.metrics.set_pipeline(id);
        }
        end_pipeline(top, clock, dispatched.joined, morsels, workers);
        top.metrics.add_pipeline_wall(self.built_in);
        let mut out = Vec::with_capacity(tasks);
        for (local, stats) in dispatched.results? {
            // Summed in morsel order: exact, whatever the worker count.
            ctx.stats.merge(&stats);
            out.push(local);
        }
        Ok(out)
    }

    /// Runs the pipeline into a batch list.
    fn collect(&self, top: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
        let lists = self.run(top, ctx, false, |list: &mut Vec<Chunk>, batch, _| {
            list.push(batch);
            Ok(())
        })?;
        Ok(lists.into_iter().flatten().collect())
    }

    /// Takes source morsel `mi` through the stages.
    fn morsel(&self, mi: usize, wctx: &mut ExecCtx, sink: Emit<'_>) -> Result<()> {
        match &self.source {
            Source::Scan(scan) => {
                scan_partition(scan, mi, wctx, &mut |batch, wctx| {
                    self.push(0, batch, 0, wctx, &mut *sink)
                })
            }
            Source::Batches { cells, bases } => {
                let batch =
                    std::mem::take(&mut *cells[mi].lock().unwrap_or_else(PoisonError::into_inner));
                self.push(0, batch, bases[mi] as i64, wctx, sink)
            }
        }
    }

    /// Takes `batch` through the stages from `si` up and into `sink`, depth
    /// first: what a stage makes of it goes all the way down before the stage
    /// makes more. `base` is the global index of the batch's first row in
    /// the stage's input, for a stage that numbers rows; it is the bottom
    /// one, and everything above passes 0.
    fn push(
        &self,
        si: usize,
        batch: Chunk,
        base: i64,
        wctx: &mut ExecCtx,
        sink: Emit<'_>,
    ) -> Result<()> {
        if batch.rows == 0 {
            return Ok(());
        }
        let Some(Stage { node, table }) = self.stages.get(si) else { return sink(batch, wctx) };
        let mut next = |piece, wctx: &mut ExecCtx| self.push(si + 1, piece, 0, wctx, &mut *sink);
        match (&node.logical.kind, table) {
            (NodeKind::Flatten { .. }, _) => flatten_stage(node, batch, wctx, base, &mut next),
            (_, Some(table)) => probe_stage(node, table, batch, wctx, &mut next),
            _ => {
                let out = stage_batch(node, batch, wctx, base)?;
                next(out, wctx)
            }
        }
    }
}

/// Reads partition `pi` of a scan and hands it to `emit` in batches of at
/// most [`BATCH_ROWS`] rows. The worker's [`ScanStats`](crate::storage::ScanStats)
/// take the accounting; pruned partitions contribute zero bytes.
fn scan_partition(
    scan: &PhysNode<'_>,
    pi: usize,
    wctx: &mut ExecCtx,
    emit: Emit<'_>,
) -> Result<()> {
    let NodeKind::Scan { table, pushed, materialize } = &scan.logical.kind else {
        unreachable!("a scan source is a scan node")
    };
    let part = &table.partitions()[pi];
    let op = scan.op_name();
    wctx.stats.partitions_total += 1;
    // Pruning: skip the partition when any pushed predicate proves, from
    // its column's bounds and null count, that no row can match.
    let columns = part.columns();
    let prunable = pushed.iter().any(|p| !columns[p.col].may_match(p.cmp, &p.lit));
    if prunable {
        wctx.stats.partitions_pruned += 1;
        for (c, m) in columns.iter().zip(materialize) {
            if *m {
                wctx.stats.bytes_skipped += c.bytes;
            }
        }
        return Ok(());
    }
    wctx.stats.partitions_scanned += 1;
    wctx.stats.rows_scanned += part.row_count() as u64;
    // Materialize the surviving columns through the scan source:
    // in-memory partitions hand back shared column vectors, disk
    // partitions lazily read exactly the projected blocks (through
    // the buffer cache), so skipped columns cost zero file bytes. A miss's
    // read, checksum and decode are the scan's busy time.
    let before = wctx.stats.bytes_scanned;
    let read_start = Instant::now();
    let mut data: Vec<Option<Arc<ColumnVec>>> = vec![None; table.schema().len()];
    for (i, m) in materialize.iter().enumerate() {
        if *m {
            let read = part.read_column_governed(i, &wctx.gov, &op)?;
            wctx.stats.record_read(&read);
            data[i] = Some(read.data);
        } else {
            wctx.stats.columns_skipped += 1;
            wctx.stats.bytes_skipped += part.column_bytes(i);
        }
    }
    scan.metrics.add_busy(read_start.elapsed());
    wctx.gov.charge_scanned(wctx.stats.bytes_scanned - before, &op)?;
    let n = part.row_count();
    let mut lo = 0usize;
    while lo < n {
        wctx.gov.checkpoint(&op)?;
        let start = Instant::now();
        let hi = (lo + BATCH_ROWS).min(n);
        // A batch is a slice of the stored columns: encoded blocks
        // stay encoded for the kernels unless the query runs decoded
        // — the reference the encoded path must match bit for bit.
        // Unreferenced columns are never read; a NULL run keeps
        // positional addressing intact.
        let cols: Vec<ColumnVec> = data
            .iter()
            .map(|src| {
                let Some(col) = src else { return ColumnVec::Null(hi - lo) };
                let mut col = col.slice(lo, hi);
                if !wctx.encode {
                    col.decode_in_place();
                }
                col
            })
            .collect();
        let batch = Chunk { cols, rows: hi - lo };
        scan.metrics.record_batch(0, batch.rows as u64, start.elapsed());
        charge_batch(scan, wctx, &op, &batch)?;
        emit(batch, wctx)?;
        lo = hi;
    }
    Ok(())
}

/// One batch through a filter or a projection. `base` is the global index of
/// the batch's first row in the operator's input: a projection's `SEQ8()`
/// base. The stage owns its input, so what it only passes on is moved, not
/// copied.
fn stage_batch(p: &PhysNode<'_>, mut inp: Chunk, ctx: &mut ExecCtx, base: i64) -> Result<Chunk> {
    let op = op_tag(p);
    ctx.gov.checkpoint(op)?;
    let start = Instant::now();
    let (dag, cell) = (p.dag()?, Some(&p.metrics));
    let rows_in = inp.rows as u64;
    let out = match &p.logical.kind {
        NodeKind::Filter { per, .. } => {
            let keep = {
                let mask = eval_exprs(dag, &inp, ctx, None, cell);
                // A value that is no boolean raises at its row, which comes
                // before the row the mask ends at.
                let keep = mask_keep(&mask.cols[0])?;
                if let Some(e) = mask.err {
                    return Err(e);
                }
                match per {
                    Some(rid) => keep_per_run(&keep, &inp.cols[*rid]),
                    None => keep,
                }
            };
            if keep.len() == inp.rows {
                inp
            } else {
                Chunk { cols: inp.cols.iter().map(|c| c.gather(&keep)).collect(), rows: keep.len() }
            }
        }
        NodeKind::Project { .. } => {
            let cols = eval_exprs(dag, &inp, ctx, Some(base), cell).complete()?;
            // A root the evaluator answered with an input column itself (a
            // bare `#i`) is that column's index; the last root to read a
            // column takes it.
            let picks: Vec<std::result::Result<ColumnVec, usize>> = cols
                .into_iter()
                .map(|c| match c {
                    Cow::Owned(col) => Ok(col),
                    Cow::Borrowed(col) => inp
                        .cols
                        .iter()
                        .position(|held| std::ptr::eq(held, col))
                        .map_or_else(|| Ok(col.clone()), Err),
                })
                .collect();
            let mut readers = vec![0u32; inp.cols.len()];
            for &i in picks.iter().filter_map(|pick| pick.as_ref().err()) {
                readers[i] += 1;
            }
            let cols = picks
                .into_iter()
                .map(|pick| {
                    pick.unwrap_or_else(|i| {
                        readers[i] -= 1;
                        match readers[i] {
                            0 => std::mem::take(&mut inp.cols[i]),
                            _ => inp.cols[i].clone(),
                        }
                    })
                })
                .collect();
            Chunk { cols, rows: inp.rows }
        }
        _ => unreachable!("a flatten has its own step; other operators are no stages"),
    };
    p.metrics.record_batch(rows_in, out.rows as u64, start.elapsed());
    charge_batch(p, ctx, op, &out)?;
    Ok(out)
}

/// `keep`, the ascending rows of a batch that a filter's predicate passes,
/// and besides the first row of every run of equal `rid` values that has
/// none of them: what a run-preserving filter passes.
fn keep_per_run(keep: &[usize], rid: &ColumnVec) -> Vec<usize> {
    let rows = rid.len();
    if keep.len() == rows {
        return keep.to_vec();
    }
    let ints = match rid {
        ColumnVec::Int { vals, valid } if valid.all_valid() => Some(vals),
        _ => None,
    };
    let same = |a: usize, b: usize| match ints {
        Some(vals) => vals[a] == vals[b],
        None => rid.get(a) == rid.get(b),
    };
    let mut out = Vec::with_capacity(keep.len());
    let mut kept = keep.iter().copied().peekable();
    let mut start = 0;
    while start < rows {
        let end = (start + 1..rows).find(|&r| !same(start, r)).unwrap_or(rows);
        let before = out.len();
        while let Some(r) = kept.next_if(|&r| r < end) {
            out.push(r);
        }
        if out.len() == before {
            out.push(start);
        }
        start = end;
    }
    out
}

/// One batch through a flatten: its output goes to `emit` in pieces of at
/// most [`BATCH_ROWS`] rows, each as soon as it is made, so the blown-up
/// batch never exists whole. `base` is the global index of the batch's first
/// row in the flatten's input, the base of the `SEQ` column.
fn flatten_stage(
    p: &PhysNode<'_>,
    inp: Chunk,
    ctx: &mut ExecCtx,
    base: i64,
    emit: Emit<'_>,
) -> Result<()> {
    let NodeKind::Flatten { outer, emit: emit_cols, from, .. } = &p.logical.kind else {
        unreachable!("a flatten stage is a flatten")
    };
    ctx.gov.checkpoint(op_tag(p))?;
    let start = Instant::now();
    let src = eval_exprs(p.dag()?, &inp, ctx, None, Some(&p.metrics)).complete()?;
    // Shredded lists expand natively; any other encoded input boxes first.
    if src[0].is_encoded() && !matches!(*src[0], ColumnVec::List(_)) {
        p.metrics.add_materialized(src[0].len() as u64);
    }
    // A literal bound was not compiled: it is the same on every row.
    let from = match from {
        None => Bound::Unbounded,
        Some(PExpr::Lit(v)) => Bound::Const(v.as_i64()),
        Some(_) => Bound::of(&src[1]),
    };
    let pieces = FlattenPieces::new(&src[0], *outer, from, *emit_cols, &inp, base);
    emit_pieces(p, inp.rows, start, pieces, ctx, emit)
}

/// One batch through a join's probe: every pair of the batch is found —
/// every residual evaluated — before the first piece of its output is
/// gathered, and the pieces go to `emit` as [`flatten_stage`]'s do.
fn probe_stage(
    p: &PhysNode<'_>,
    table: &JoinTable,
    inp: Chunk,
    ctx: &mut ExecCtx,
    emit: Emit<'_>,
) -> Result<()> {
    ctx.gov.checkpoint(op_tag(p))?;
    let start = Instant::now();
    let pairs = table.probe(p, &inp, ctx)?;
    let rows_in = inp.rows;
    emit_pieces(p, rows_in, start, pairs.pieces(inp, table), ctx, emit)
}

/// Hands a stage's output for one input batch of `rows_in` rows to `emit`
/// piece by piece, each as soon as it is made, so the whole output never
/// exists at once. The stage's busy time, which began at `start`, is the
/// time spent making the pieces, not what happens to them downstream.
fn emit_pieces(
    p: &PhysNode<'_>,
    rows_in: usize,
    mut start: Instant,
    pieces: impl Iterator<Item = Chunk>,
    ctx: &mut ExecCtx,
    emit: Emit<'_>,
) -> Result<()> {
    let op = op_tag(p);
    let mut rows_in = rows_in as u64;
    for piece in pieces {
        p.metrics.record_batch(rows_in, piece.rows as u64, start.elapsed());
        rows_in = 0;
        charge_batch(p, ctx, op, &piece)?;
        emit(piece, ctx)?;
        ctx.gov.checkpoint(op)?;
        start = Instant::now();
    }
    if rows_in > 0 {
        p.metrics.record_batch(rows_in, 0, start.elapsed());
    }
    Ok(())
}

/// A flatten's item lower bound over one batch, read typed.
enum Bound<'c> {
    Unbounded,
    /// The same bound on every row; `None` is NULL.
    Const(Option<i64>),
    /// One bound per row, NULL where the bitmap is clear.
    Ints(&'c [i64], &'c Bitmap),
    /// Any other column, read a row at a time. A planned bound is an
    /// `INDEX` column plus a literal, which is `Ints` or all-NULL.
    Column(&'c ColumnVec),
}

impl<'c> Bound<'c> {
    fn of(col: &'c ColumnVec) -> Bound<'c> {
        match col {
            ColumnVec::Int { vals, valid } => Bound::Ints(vals, valid),
            ColumnVec::Null(_) => Bound::Const(None),
            other => Bound::Column(other),
        }
    }

    /// The first item that row `r` emits of its array of `len` items: `len`
    /// when it emits none.
    fn first(&self, r: usize, len: usize) -> usize {
        let bound = match self {
            Bound::Unbounded => return 0,
            Bound::Const(b) => *b,
            Bound::Ints(vals, valid) => valid.get(r).then(|| vals[r]),
            Bound::Column(col) => col.get(r).as_i64(),
        };
        bound.map_or(len, |b| b.clamp(0, len as i64) as usize)
    }
}

/// The output of flattening one batch, cut into pieces.
struct FlattenPieces<'c> {
    /// The flatten input, one value per input row.
    src: FlattenSource<'c>,
    /// Output rows each input row expands to.
    fan_out: Vec<usize>,
    /// The first item each input row emits, for a bounded flatten; empty
    /// (every row from its first item) otherwise.
    skip: Vec<usize>,
    inp: &'c Chunk,
    /// Which of the five appended columns (VALUE, INDEX, KEY, SEQ, THIS) are
    /// read; the rest come out as all-NULL columns.
    emit: [bool; 5],
    row_base: i64,
    /// Output rows not yet handed out.
    remaining: usize,
    /// The next output row: item `item` of input row `row`.
    row: usize,
    item: usize,
}

/// What a flatten expands: boxed values, or shredded arrays of records,
/// whose items are gathered typed and never boxed.
enum FlattenSource<'c> {
    Boxed(Cow<'c, [Variant]>),
    Lists(&'c RecordLists),
}

impl<'c> FlattenPieces<'c> {
    /// A first pass over the source sizes the output: an array or object
    /// expands to its items, anything else to one NULL row if `outer`. A
    /// list's sizes are its ranges' lengths. A bounded flatten expands an
    /// array to its items from the row's bound on, and an object to
    /// nothing; where that is nothing, `outer` makes it one NULL row.
    fn new(
        src: &'c ColumnVec,
        outer: bool,
        from: Bound<'_>,
        emit: [bool; 5],
        inp: &'c Chunk,
        row_base: i64,
    ) -> Self {
        let bounded = !matches!(from, Bound::Unbounded);
        let mut skip = Vec::with_capacity(if bounded { inp.rows } else { 0 });
        // The items row `r` emits of its `len`.
        let mut items_from = |r: usize, len: usize| {
            let first = from.first(r, len);
            if bounded {
                skip.push(first);
            }
            len - first
        };
        let (src, fan_out): (FlattenSource<'c>, Vec<usize>) = match src {
            ColumnVec::List(lists) => {
                let fan_out = (0..lists.len())
                    .map(|r| match items_from(r, lists.range(r).len()) {
                        0 => usize::from(outer),
                        k => k,
                    })
                    .collect();
                (FlattenSource::Lists(lists), fan_out)
            }
            other => {
                let vals: Cow<'c, [Variant]> = match other {
                    ColumnVec::Var(vals) => Cow::Borrowed(vals),
                    typed => Cow::Owned((0..typed.len()).map(|r| typed.get(r)).collect()),
                };
                let fan_out = vals
                    .iter()
                    .enumerate()
                    .map(|(r, v)| match v {
                        Variant::Array(items) if !items.is_empty() => {
                            match items_from(r, items.len()) {
                                0 => usize::from(outer),
                                k => k,
                            }
                        }
                        Variant::Object(obj) if !obj.is_empty() && !bounded => obj.len(),
                        // No items; the row still takes its slot in `skip`.
                        _ => items_from(r, 0) + usize::from(outer),
                    })
                    .collect();
                (FlattenSource::Boxed(vals), fan_out)
            }
        };
        let remaining = fan_out.iter().sum();
        FlattenPieces { src, fan_out, skip, inp, emit, row_base, remaining, row: 0, item: 0 }
    }
}

impl Iterator for FlattenPieces<'_> {
    type Item = Chunk;

    /// The next at most [`BATCH_ROWS`] output rows. `repeat[j]` is the input
    /// row behind output row `j` of the piece: every input column is one
    /// typed gather, `SEQ` the same indices from `row_base`, `INDEX` a ramp
    /// per array, and `VALUE` the items — cloned into a vector sized up front,
    /// or, for shredded lists, one typed gather of the item rows.
    fn next(&mut self) -> Option<Chunk> {
        let n = self.remaining.min(BATCH_ROWS);
        if n == 0 {
            return None;
        }
        self.remaining -= n;
        let [want_value, want_index, want_key, want_seq, want_this] = self.emit;
        let bounded = !self.skip.is_empty();
        let mut repeat: Vec<usize> = Vec::with_capacity(n);
        let room = |wanted: bool| if wanted { n } else { 0 };
        // (ramp, whether the row has an index at all: array items do)
        let mut index: (Vec<i64>, Vec<bool>) =
            (Vec::with_capacity(room(want_index)), Vec::with_capacity(room(want_index)));
        let (value, key, this) = match &self.src {
            FlattenSource::Lists(lists) => {
                let lists: &RecordLists = lists;
                // The item behind each output row; `None` is OUTER's NULL row.
                let mut items: Vec<Option<usize>> = Vec::with_capacity(room(want_value));
                while repeat.len() < n {
                    let take = (self.fan_out[self.row] - self.item).min(n - repeat.len());
                    let skip = self.skip.get(self.row).copied().unwrap_or(0);
                    let (lo, hi) = (skip + self.item, skip + self.item + take);
                    repeat.extend(std::iter::repeat_n(self.row, take));
                    let range = lists.range(self.row);
                    // Items, or OUTER's one NULL row.
                    let real = skip < range.len();
                    if want_value {
                        match real {
                            true => items.extend((range.start + lo..range.start + hi).map(Some)),
                            false => items.extend(std::iter::repeat_n(None, take)),
                        }
                    }
                    if want_index {
                        match real {
                            true => index.0.extend(lo as i64..hi as i64),
                            false => index.0.extend(std::iter::repeat_n(0, take)),
                        }
                        index.1.extend(std::iter::repeat_n(real, take));
                    }
                    self.item += take;
                    if self.item == self.fan_out[self.row] {
                        (self.row, self.item) = (self.row + 1, 0);
                    }
                }
                // Items that follow each other in the item column — a
                // stored list's, when OUTER adds no NULL row — are a slice.
                let value = match items.iter().copied().collect::<Option<Vec<usize>>>() {
                    _ if !want_value => ColumnVec::Null(n),
                    Some(idx) if idx.windows(2).all(|w| w[1] == w[0] + 1) => {
                        ColumnVec::Objects(lists.items.slice(idx[0], idx[0] + n))
                    }
                    Some(idx) => ColumnVec::Objects(lists.items.gather(&idx)),
                    None => ColumnVec::Objects(lists.items.gather_opt(&items)),
                };
                let this = match want_this {
                    true => ColumnVec::List(lists.gather(&repeat)),
                    false => ColumnVec::Null(n),
                };
                // Array items have no key.
                (value, ColumnVec::Null(n), this)
            }
            FlattenSource::Boxed(vals) => {
                let vals: &[Variant] = vals;
                let mut value: Vec<Variant> = Vec::with_capacity(room(want_value));
                let mut key = ColumnVec::new();
                let mut this = ColumnVec::new();
                while repeat.len() < n {
                    let v = &vals[self.row];
                    let take = (self.fan_out[self.row] - self.item).min(n - repeat.len());
                    let skip = self.skip.get(self.row).copied().unwrap_or(0);
                    let (lo, hi) = (skip + self.item, skip + self.item + take);
                    repeat.extend(std::iter::repeat_n(self.row, take));
                    match v {
                        _ if take == 0 => {}
                        Variant::Array(items) if skip < items.len() => {
                            if want_value {
                                value.extend_from_slice(&items[lo..hi]);
                            }
                            if want_index {
                                index.0.extend(lo as i64..hi as i64);
                                index.1.extend(std::iter::repeat_n(true, take));
                            }
                            key.push_nulls(take);
                        }
                        Variant::Object(obj) if !obj.is_empty() && !bounded => {
                            for (k, val) in obj.iter().skip(lo).take(take) {
                                if want_value {
                                    value.push(val.clone());
                                }
                                if want_key {
                                    key.push(Variant::from(k));
                                }
                            }
                            if want_index {
                                index.0.extend(std::iter::repeat_n(0, take));
                                index.1.extend(std::iter::repeat_n(false, take));
                            }
                        }
                        // The one NULL row of OUTER.
                        _ => {
                            if want_value {
                                value.push(Variant::Null);
                            }
                            if want_index {
                                index.0.push(0);
                                index.1.push(false);
                            }
                            key.push_null();
                        }
                    }
                    if want_this {
                        for _ in 0..take {
                            this.push(v.clone());
                        }
                    }
                    self.item += take;
                    if self.item == self.fan_out[self.row] {
                        (self.row, self.item) = (self.row + 1, 0);
                    }
                }
                // Nested items stay boxed; scalar items get their typed column.
                let nested = |v: &Variant| matches!(v, Variant::Array(_) | Variant::Object(_));
                let value = match value.iter().find(|v| !v.is_null()) {
                    Some(v) if !nested(v) => ColumnVec::from_variants(value),
                    _ => ColumnVec::Var(value),
                };
                (value, key, this)
            }
        };
        let mut cols: Vec<ColumnVec> = self.inp.cols.iter().map(|c| c.gather(&repeat)).collect();
        let index = match index {
            (_, has) if !has.contains(&true) => ColumnVec::Null(n),
            (vals, has) if !has.contains(&false) => ColumnVec::Int { vals, valid: Bitmap::ones(n) },
            (vals, has) => ColumnVec::Int { vals, valid: Bitmap::from_fn(n, |j| has[j]) },
        };
        let seq = match want_seq {
            true => ColumnVec::Int {
                vals: repeat.iter().map(|&r| self.row_base + r as i64).collect(),
                valid: Bitmap::ones(n),
            },
            false => ColumnVec::Null(n),
        };
        for (col, wanted) in [value, index, key, seq, this].into_iter().zip(self.emit) {
            cols.push(if wanted { col } else { ColumnVec::Null(n) });
        }
        Some(Chunk { cols, rows: n })
    }
}

// ---------------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------------

/// How an aggregate finds the group of a row.
enum Groups {
    /// Run mode: the one key is an `Int` whose rows arrived in ascending
    /// runs, so a group closes when the key changes. Entry `g` is the key of
    /// group `g`; the keys ascend strictly.
    Runs(Vec<i64>),
    /// The groups' keys in a [`KeyTable`] grown in first-seen order.
    Table(KeyTable),
}

/// One aggregate's outputs, a cell per group.
enum AggOut {
    /// Typed states folded a column at a time.
    Typed(GroupStates),
    /// Accumulators updated row by row: the fallback for arguments no
    /// typed state takes, and every aggregate when vectorization is off.
    Accs(Vec<Accumulator>),
}

impl AggOut {
    /// The output of an aggregate of `kind`; `typed` false keeps every
    /// aggregate on accumulators, the row-by-row reference.
    fn new(kind: AggKind, typed: bool) -> AggOut {
        match typed.then(|| GroupStates::new(kind)).flatten() {
            Some(states) => AggOut::Typed(states),
            None => AggOut::Accs(Vec::new()),
        }
    }

    /// The outputs as the accumulators a row-by-row fold would hold, adding
    /// the cells boxed from an encoded column to `boxed`.
    fn into_accs(self, boxed: &mut u64) -> Vec<Accumulator> {
        match self {
            AggOut::Accs(accs) => accs,
            AggOut::Typed(states) => states.into_accs(boxed),
        }
    }

    /// Boxes the outputs into accumulators in place (see
    /// [`AggOut::into_accs`]) and returns them.
    fn boxed_accs(&mut self, boxed: &mut u64) -> &mut Vec<Accumulator> {
        if let AggOut::Typed(_) = self {
            let out = std::mem::replace(self, AggOut::Accs(Vec::new()));
            *self = AggOut::Accs(out.into_accs(boxed));
        }
        match self {
            AggOut::Accs(accs) => accs,
            AggOut::Typed(_) => unreachable!("boxed above"),
        }
    }

    /// Merges the outputs of a later partial whose group `j` is this one's
    /// group `slots[j]`; `fresh` lists the `j` of the groups new here, in
    /// order, and `groups` is the number of groups after the merge.
    fn merge(
        &mut self,
        more: AggOut,
        groups: usize,
        slots: &[u32],
        fresh: &[usize],
        boxed: &mut u64,
    ) -> Result<()> {
        match (self, more) {
            (AggOut::Typed(states), AggOut::Typed(more)) if states.merges(&more) => {
                *boxed += states.merge(more, groups, slots, fresh);
            }
            (out, more) => {
                let accs = out.boxed_accs(boxed);
                for (j, acc) in more.into_accs(boxed).into_iter().enumerate() {
                    match slots[j] as usize {
                        g if g < accs.len() => accs[g].merge(acc)?,
                        _ => accs.push(acc),
                    }
                }
            }
        }
        Ok(())
    }

    /// The output column.
    fn into_column(self) -> ColumnVec {
        match self {
            AggOut::Typed(states) => states.into_column(),
            AggOut::Accs(accs) => {
                let mut col = ColumnVec::new();
                accs.into_iter().for_each(|acc| col.push(acc.finish()));
                col
            }
        }
    }
}

/// The rows of an encoded argument an accumulator of `kind` boxes over
/// `rows` rows: all of them, but for a count, which only asks whether a cell
/// is NULL.
fn boxed_rows(kind: AggKind, v: Option<&ColumnVec>, k: Option<&ColumnVec>, rows: usize) -> u64 {
    let reads = !matches!(kind, AggKind::CountStar | AggKind::Count);
    match reads && [v, k].into_iter().flatten().any(boxes_cells) {
        true => rows as u64,
        false => 0,
    }
}

/// The keys of a batch's first `rows` rows when they continue a run-mode
/// state whose last key is `last`: one `Int` column with no NULL, not
/// descending, whose first key is not below `last`.
fn run_keys(col: &ColumnVec, rows: usize, last: Option<i64>) -> Option<&[i64]> {
    let ColumnVec::Int { vals, valid } = col else {
        return None;
    };
    let vals = &vals[..rows];
    let ascending = valid.all_valid() && vals.windows(2).all(|w| w[0] <= w[1]);
    (ascending && last.is_none_or(|l| vals[0] >= l)).then_some(vals)
}

/// The grouping state of an aggregate or a distinct: how rows find their
/// groups, and one output per aggregate (DESIGN.md, "Grouped aggregation").
///
/// A batch is folded in two steps. First every row finds its group, as one
/// slot per row: in *run mode* from the key's run boundaries, else from
/// [`KeyTable::grow`], and a global aggregation needs no slots (every row
/// is group 0). A state over one key starts in run mode. While every
/// batch's key is an `Int` column with no NULL that does not descend, and
/// starts at or above the last key seen, each key's rows are contiguous: a
/// group closes when the key changes, and nothing is hashed. Any other
/// batch replays the keys into a [`KeyTable`] — in order, which is
/// first-seen order — and continues on the table path. Groups, their order
/// and each group's rows are the table path's either way.
///
/// Then each aggregate folds its argument column by the slots into typed
/// states ([`GroupStates`]) when they take the column; any other output
/// boxes into accumulators, which update row by row, aggregate by
/// aggregate. The states are the same in every mode.
struct AggState {
    hasher: KeyHasher,
    groups: Groups,
    outs: Vec<AggOut>,
    /// Cells of encoded columns the accumulators boxed.
    boxed: u64,
    /// Rows folded, summed over the aggregates, into typed states and
    /// into accumulators.
    folded: (u64, u64),
}

impl AggState {
    /// A state over `n_groups` keys; `typed` false keeps every aggregate on
    /// accumulators.
    fn new(hasher: KeyHasher, n_groups: usize, aggs: &[AggExpr], typed: bool) -> AggState {
        let runs = n_groups == 1;
        AggState {
            hasher,
            groups: match runs {
                true => Groups::Runs(Vec::new()),
                false => Groups::Table(KeyTable::new(hasher, n_groups)),
            },
            outs: aggs.iter().map(|a| AggOut::new(a.kind, typed)).collect(),
            boxed: 0,
            folded: (0, 0),
        }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        match &self.groups {
            Groups::Runs(keys) => keys.len(),
            Groups::Table(table) => table.len(),
        }
    }

    fn grouping(&self) -> Grouping {
        match self.groups {
            Groups::Runs(_) => Grouping::Runs,
            Groups::Table(_) => Grouping::Hashed,
        }
    }

    /// Leaves run mode: the keys go into a table in group order. The
    /// outputs stay: a group's index is the same in the table.
    fn leave_runs(&mut self) {
        let Groups::Runs(keys) = &mut self.groups else {
            return;
        };
        let n = keys.len();
        let cols = [ColumnVec::Int {
            vals: std::mem::take(keys),
            valid: Bitmap::ones(n),
        }];
        let mut table = KeyTable::new(self.hasher, 1);
        table.grow(&cols, n);
        self.groups = Groups::Table(table);
    }

    /// Folds one batch into the state: its expression columns (without a
    /// `dag`, the batch's own columns are the keys), then the aggregates.
    /// When an expression fails at row `r`, the rows before `r` are folded
    /// first, so an accumulator error on an earlier row is the one
    /// reported, as in serial row order. (Within row `r` itself an
    /// expression error precedes any accumulator error.)
    fn fold_batch(
        &mut self,
        dag: Option<&ExprDag<'_>>,
        n_groups: usize,
        aggs: &[AggExpr],
        inp: &Chunk,
        ctx: &mut ExecCtx,
        cell: &OpMetricsCell,
    ) -> Result<()> {
        let Some(dag) = dag else {
            let cols: Vec<Cow<'_, ColumnVec>> = inp.cols.iter().map(Cow::Borrowed).collect();
            return self.fold_columns(n_groups, aggs, &cols, inp.rows);
        };
        let evaluated = eval_exprs(dag, inp, ctx, None, Some(cell));
        self.fold_columns(n_groups, aggs, &evaluated.cols, evaluated.rows)?;
        evaluated.err.map_or(Ok(()), Err)
    }

    /// The slot of each of `rows` rows of the group keys `gcols` (`None` for
    /// a global aggregation, whose one group opens on its first row) and
    /// the first row of each group the rows opened.
    fn find_groups(&mut self, gcols: &[Cow<'_, ColumnVec>], rows: usize) -> (Option<Vec<u32>>, Vec<usize>) {
        let old = self.len();
        if let Groups::Runs(runs) = &mut self.groups {
            // A run-length key from a scan is its runs, row by row.
            let key = match &*gcols[0] {
                key @ ColumnVec::Runs { .. } => Cow::Owned(key.decoded()),
                key => Cow::Borrowed(key),
            };
            match run_keys(&key, rows, runs.last().copied()) {
                Some(keys) => {
                    let slots: Vec<u32> = keys
                        .iter()
                        .map(|&k| {
                            if runs.last() != Some(&k) {
                                runs.push(k);
                            }
                            (runs.len() - 1) as u32
                        })
                        .collect();
                    let fresh = fresh_rows(&slots, old);
                    return (Some(slots), fresh);
                }
                None => self.leave_runs(),
            }
        }
        let Groups::Table(table) = &mut self.groups else {
            unreachable!("run mode was left above");
        };
        if gcols.is_empty() {
            let fresh = match table.is_empty() {
                true => {
                    table.grow::<ColumnVec>(&[], 1);
                    vec![0]
                }
                false => Vec::new(),
            };
            return (None, fresh);
        }
        let slots = table.grow(gcols, rows);
        let fresh = fresh_rows(&slots, old);
        (Some(slots), fresh)
    }

    /// Folds `rows` evaluated rows: `cols` holds the group keys, then each
    /// aggregate's arguments. The expressions cannot fail any more, so what
    /// remains of the serial error order is the order of accumulator
    /// updates. Typed states take only columns on which the serial fold
    /// cannot fail, and fold first, a column at a time; the
    /// accumulators then update row by row, aggregate by aggregate, which is
    /// the serial order among the only folds that can fail.
    fn fold_columns(
        &mut self,
        n_groups: usize,
        aggs: &[AggExpr],
        cols: &[Cow<'_, ColumnVec>],
        rows: usize,
    ) -> Result<()> {
        let (gcols, mut rest) = cols.split_at(n_groups);
        // (value column, key column of MIN_BY/MAX_BY) per aggregate.
        let acols: Vec<(Option<&ColumnVec>, Option<&ColumnVec>)> = aggs
            .iter()
            .map(|a| {
                let mut take = |present: bool| {
                    let (head, tail) = rest.split_at(usize::from(present));
                    rest = tail;
                    head.first().map(|c| &**c)
                };
                (take(a.arg.is_some()), take(a.arg2.is_some()))
            })
            .collect();
        if rows == 0 {
            return Ok(());
        }
        let (slots, fresh) = self.find_groups(gcols, rows);
        let groups = self.len();
        let b = Fold {
            rows,
            slots: slots.as_deref(),
            fresh: &fresh,
        };
        let mut row_major = false;
        for ((out, a), &(v, k)) in self.outs.iter_mut().zip(aggs).zip(&acols) {
            match out {
                AggOut::Typed(states) if states.takes(v) => {
                    self.boxed += states.fold(groups, &b, v);
                    self.folded.0 += rows as u64;
                }
                out => {
                    let accs = out.boxed_accs(&mut self.boxed);
                    accs.resize_with(groups, || Accumulator::new(a.kind));
                    self.boxed += boxed_rows(a.kind, v, k, rows);
                    self.folded.1 += rows as u64;
                    row_major = true;
                }
            }
        }
        if !row_major {
            return Ok(());
        }
        for r in 0..rows {
            let g = b.slots.map_or(0, |s| s[r] as usize);
            for (out, &(v, k)) in self.outs.iter_mut().zip(&acols) {
                if let AggOut::Accs(accs) = out {
                    accs[g].update_at(v, k, r)?;
                }
            }
        }
        Ok(())
    }

    /// Merges a later partial into this one, in input order. The later
    /// partial's groups map to groups here: when both are in run mode and
    /// its keys follow this one's, its groups append — but for the
    /// boundary key both hold, which is this one's last; otherwise both
    /// leave run mode and its keys grow this one's table. New groups append
    /// (preserving global first-seen order), existing groups merge.
    fn merge(&mut self, mut other: AggState) -> Result<()> {
        self.boxed += std::mem::take(&mut other.boxed);
        self.folded.0 += other.folded.0;
        self.folded.1 += other.folded.1;
        let follows = match (&self.groups, &other.groups) {
            (Groups::Runs(ours), Groups::Runs(theirs)) => match (ours.last(), theirs.first()) {
                (_, None) => return Ok(()),
                (None, _) => {
                    (other.boxed, other.folded) = (self.boxed, self.folded);
                    *self = other;
                    return Ok(());
                }
                (Some(last), Some(first)) => first >= last,
            },
            _ => false,
        };
        let (old, theirs_len) = (self.len(), other.len());
        let slots: Vec<u32> = match (&mut self.groups, other.groups) {
            (Groups::Runs(ours), Groups::Runs(theirs)) if follows => {
                let joined = usize::from(ours.last() == theirs.first());
                ours.extend_from_slice(&theirs[joined..]);
                (old - joined..ours.len()).map(|g| g as u32).collect()
            }
            (_, theirs) => {
                self.leave_runs();
                let keys = match theirs {
                    Groups::Runs(keys) => {
                        let n = keys.len();
                        vec![ColumnVec::Int { vals: keys, valid: Bitmap::ones(n) }]
                    }
                    Groups::Table(table) => table.into_keys(),
                };
                let Groups::Table(table) = &mut self.groups else {
                    unreachable!("left run mode above");
                };
                table.grow(&keys, theirs_len)
            }
        };
        let fresh = fresh_rows(&slots, old);
        let groups = self.len();
        for (out, more) in self.outs.iter_mut().zip(other.outs) {
            out.merge(more, groups, &slots, &fresh, &mut self.boxed)?;
        }
        Ok(())
    }

    /// Opens one group with nothing folded: the one row of a global
    /// aggregation over no rows.
    fn push_empty_group(&mut self, aggs: &[AggExpr]) {
        let Groups::Table(table) = &mut self.groups else {
            unreachable!("a global aggregation has no key to run on");
        };
        table.grow::<ColumnVec>(&[], 1);
        for (out, a) in self.outs.iter_mut().zip(aggs) {
            match out {
                AggOut::Typed(states) => states.resize(1),
                out => out.boxed_accs(&mut self.boxed).push(Accumulator::new(a.kind)),
            }
        }
    }

    /// The output: the key column(s), then one column per aggregate.
    fn into_chunk(self) -> Chunk {
        let rows = self.len();
        let mut cols = match self.groups {
            Groups::Runs(vals) => vec![ColumnVec::Int {
                vals,
                valid: Bitmap::ones(rows),
            }],
            Groups::Table(table) => table.into_keys(),
        };
        cols.extend(self.outs.into_iter().map(AggOut::into_column));
        Chunk { cols, rows }
    }
}

/// True when partial states of this kind merge to the exact serial result.
/// `SUM`/`AVG` are excluded: float addition is not associative, so only a
/// serial fold in row order is bit-reproducible.
fn exactly_mergeable(kind: AggKind) -> bool {
    !matches!(kind, AggKind::Sum | AggKind::Avg)
}

/// A hash aggregate over `groups` keys, or — `groups` is `None` — a distinct:
/// a `GROUP BY` of every column of its input with no aggregates.
fn exec_aggregate(
    p: &PhysNode<'_>,
    groups: Option<usize>,
    aggs: &[AggExpr],
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let dag = groups.map(|_| p.dag()).transpose()?;
    let hasher = KeyHasher::new();
    let fold = |state: &mut Option<AggState>, batch: Chunk, wctx: &mut ExecCtx| {
        wctx.gov.checkpoint(op_tag(p))?;
        let start = Instant::now();
        let n_groups = groups.unwrap_or(batch.cols.len());
        let typed = wctx.vectorize;
        let state = state.get_or_insert_with(|| AggState::new(hasher, n_groups, aggs, typed));
        let folded = state.fold_batch(dag, n_groups, aggs, &batch, wctx, &p.metrics);
        p.metrics.add_rows_in(batch.rows as u64);
        p.metrics.add_busy(start.elapsed());
        folded
    };
    // What follows the last fold — merging the partials, emitting the
    // groups — runs on this thread and extends the pipeline's wall time.
    let volatile = dag.is_some_and(|dag| dag.is_volatile());
    let (state, start) = if !volatile && aggs.iter().all(|a| exactly_mergeable(a.kind)) {
        // The sink of the pipeline below: one partial state per worker over
        // a contiguous range of morsels, merged in range order so group
        // order, first-seen cells and tie-breaks match serial.
        let partials = Pipeline::ending_at(&p.children[0], false, ctx)?.run(p, ctx, true, fold)?;
        let start = Instant::now();
        let mut merged: Option<AggState> = None;
        for partial in partials.into_iter().flatten() {
            match &mut merged {
                None => merged = Some(partial),
                Some(state) => state.merge(partial)?,
            }
        }
        (merged, start)
    } else {
        // One state, batch after batch on this thread: in row order for
        // `SUM`/`AVG`, through the caller's counter for a volatile argument.
        let input = execute_physical(&p.children[0], ctx)?;
        let clock = begin_pipeline(ctx);
        let mut state = None;
        let morsels = input.len();
        for batch in input {
            fold(&mut state, batch, ctx)?;
        }
        end_pipeline(p, clock, 0, morsels, 1);
        (state, Instant::now())
    };
    let mut state = state
        .unwrap_or_else(|| AggState::new(hasher, groups.unwrap_or(0), aggs, ctx.vectorize));
    // Global aggregation over zero rows still yields one row.
    if groups == Some(0) && state.len() == 0 {
        state.push_empty_group(aggs);
    }
    if groups != Some(0) {
        p.metrics.set_grouping(state.grouping());
    }
    p.metrics.add_materialized(state.boxed);
    p.metrics.add_folded(state.folded.0, state.folded.1);
    let out = state.into_chunk();
    let n_out = out.rows;
    charge_batch(p, ctx, op_tag(p), &out)?;
    let batches = split_into_morsels(out);
    p.metrics.add_output(n_out as u64, batches.len() as u64);
    let emitting = start.elapsed();
    p.metrics.add_busy(emitting);
    p.metrics.add_pipeline_wall(emitting);
    Ok(batches)
}

fn exec_sort(p: &PhysNode<'_>, keys: &[SortKey], ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let dag = p.dag()?;
    let clock = begin_pipeline(ctx);
    let in_rows = total_rows(&input);
    p.metrics.add_rows_in(in_rows as u64);
    p.metrics.peak(in_rows as u64);

    // Key evaluation parallelizes per batch (volatile keys read one counter,
    // batch after batch); each result is key-major. Busy time is counted
    // once per phase and worker: each batch here, the serial sort, each
    // gathered batch.
    let keyed = map_batches(p, input.len(), dag.is_volatile(), ctx, |bi, wctx| {
        let t0 = Instant::now();
        let cols = eval_exprs(dag, &input[bi], wctx, None, Some(&p.metrics)).complete()?;
        let keys: Vec<Vec<Variant>> =
            cols.into_iter().map(|c| c.into_owned().into_variants()).collect();
        p.metrics.add_busy(t0.elapsed());
        Ok(keys)
    });
    let key_cols = keyed.results?;

    // Global merge: one stable sort over (batch, row) in input order, so the
    // permutation — and therefore tie order — does not depend on batching.
    let start = Instant::now();
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(in_rows);
    for (bi, c) in input.iter().enumerate() {
        for r in 0..c.rows {
            order.push((bi as u32, r as u32));
        }
    }
    order.sort_by(|&(ab, ar), &(bb, br)| {
        for (ki, k) in keys.iter().enumerate() {
            let va = &key_cols[ab as usize][ki][ar as usize];
            let vb = &key_cols[bb as usize][ki][br as usize];
            let c = cmp_sort_values(k, va, vb);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
    p.metrics.add_busy(start.elapsed());

    // Parallel gather into output batches.
    let arity = batches_arity(&input, &p.children[0]);
    let n_batches = in_rows.div_ceil(BATCH_ROWS);
    let gathered = map_batches(p, n_batches, false, ctx, |ob, wctx| {
        let t0 = Instant::now();
        let lo = ob * BATCH_ROWS;
        let hi = (lo + BATCH_ROWS).min(in_rows);
        let mut cols: Vec<ColumnVec> = vec![ColumnVec::new(); arity];
        for &(bi, r) in &order[lo..hi] {
            for (i, col) in cols.iter_mut().enumerate() {
                col.push_from(&input[bi as usize].cols[i], r as usize);
            }
        }
        let out = Chunk { cols, rows: hi - lo };
        p.metrics.record_batch(0, out.rows as u64, t0.elapsed());
        charge_batch(p, wctx, "Sort", &out)?;
        Ok(out)
    });
    let batches = gathered.results?;
    // As in `Pipeline::run`: the workers the batches can keep busy, one for
    // a single batch, which `map_batches` runs inline.
    let workers = p.parallelism.min(input.len()).max(1);
    end_pipeline(p, clock, keyed.joined.max(gathered.joined), input.len(), workers);
    Ok(batches)
}

// ---------------------------------------------------------------------------
// Serial batch-list operators
// ---------------------------------------------------------------------------

fn exec_limit(p: &PhysNode<'_>, n: u64, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let clock = begin_pipeline(ctx);
    let morsels = input.len();
    let mut remaining = n as usize;
    let mut out = Vec::new();
    for mut c in input {
        if remaining == 0 {
            break;
        }
        ctx.gov.checkpoint("Limit")?;
        p.metrics.add_rows_in(c.rows as u64);
        if c.rows > remaining {
            for col in c.cols.iter_mut() {
                col.truncate(remaining);
            }
            c.rows = remaining;
        }
        remaining -= c.rows;
        p.metrics.add_output(c.rows as u64, 1);
        out.push(c);
    }
    p.metrics.add_busy(clock.1.elapsed());
    end_pipeline(p, clock, 0, morsels, 1);
    Ok(out)
}

fn exec_union(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let mut l = execute_physical(&p.children[0], ctx)?;
    let r = execute_physical(&p.children[1], ctx)?;
    let clock = begin_pipeline(ctx);
    ctx.gov.checkpoint("UnionAll")?;
    if batches_arity(&l, &p.children[0]) != batches_arity(&r, &p.children[1]) {
        return Err(SnowError::Exec("UNION ALL arity mismatch".into()));
    }
    let rows = (total_rows(&l) + total_rows(&r)) as u64;
    l.extend(r);
    p.metrics.add_rows_in(rows);
    p.metrics.add_output(rows, l.len() as u64);
    p.metrics.add_busy(clock.1.elapsed());
    end_pipeline(p, clock, 0, l.len(), 1);
    Ok(l)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::column::Records;
    use crate::plan::physical::lower;
    use crate::storage::{ColumnDef, ColumnType};
    use crate::Database;

    /// A self-join over a duplicated subquery whose rows divide by
    /// `a - fail_at` (so the subquery fails at that row, or never).
    fn self_join_db(fail_at: i64) -> (Database, String) {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Int)],
            (0..64).map(|i| vec![Variant::Int(i)]),
            8,
        )
        .unwrap();
        let sub = format!("(SELECT a, 100 / (a - {fail_at}) AS q, SEQ8() AS rid FROM t)");
        (db, format!("SELECT x.q, y.q FROM {sub} x JOIN {sub} y ON x.rid = y.rid"))
    }

    /// The producing and a reading site of the plan's one shared subtree.
    fn sites<'b, 'a>(p: &'b PhysNode<'a>) -> (&'b PhysNode<'a>, &'b PhysNode<'a>) {
        fn find<'b, 'a>(p: &'b PhysNode<'a>, producer: bool) -> Option<&'b PhysNode<'a>> {
            if p.shared.as_ref().is_some_and(|s| s.producer == producer) {
                return Some(p);
            }
            p.children.iter().find_map(|c| find(c, producer))
        }
        (find(p, true).expect("a producing site"), find(p, false).expect("a reading site"))
    }

    #[test]
    fn an_output_splits_into_morsels_in_order() {
        let rows = 2 * MORSEL_ROWS + 452;
        let ids = ColumnVec::from_variants((0..rows as i64).map(Variant::Int).collect());
        let batches = split_into_morsels(Chunk { cols: vec![ids], rows });
        let sizes: Vec<usize> = batches.iter().map(|c| c.rows).collect();
        assert_eq!(sizes, [MORSEL_ROWS, MORSEL_ROWS, 452]);
        let ids: Vec<Variant> = batches.into_iter().flat_map(|c| c.cols[0].clone().into_variants()).collect();
        assert_eq!(ids, (0..rows as i64).map(Variant::Int).collect::<Vec<_>>());
        assert!(split_into_morsels(Chunk::empty(1)).is_empty());
    }

    /// Records `{Q, PT}` of `n` rows, NULL where `q` is; `pt` is the `PT`
    /// field's column, NULL on a NULL record.
    fn records(q: &[Option<i64>], pt: ColumnVec) -> ColumnVec {
        let n = q.len();
        let valid = Bitmap::from_fn(n, |i| q[i].is_some());
        let keys: Arc<[Arc<str>]> = Arc::from(vec![Arc::<str>::from("Q"), Arc::from("PT")]);
        let q = ColumnVec::Int {
            vals: q.iter().map(|q| q.unwrap_or(0)).collect(),
            valid: valid.clone(),
        };
        ColumnVec::Objects(Records {
            keys,
            fields: vec![q, pt],
            valid,
        })
    }

    /// `PT` as doubles, NULL on the NULL records of `q`.
    fn floats(q: &[Option<i64>]) -> ColumnVec {
        ColumnVec::Float {
            vals: q.iter().map(|q| q.unwrap_or(0) as f64 / 2.0).collect(),
            valid: Bitmap::from_fn(q.len(), |i| q[i].is_some()),
        }
    }

    /// `ANY_VALUE`, `ARRAY_AGG` and `COUNT` of the argument, and a
    /// row-major `MAX` of the key.
    fn run_aggs() -> Vec<AggExpr> {
        let agg = |kind, c| AggExpr {
            kind,
            arg: Some(PExpr::Col(c)),
            arg2: None,
        };
        vec![
            agg(AggKind::AnyValue, 1),
            agg(AggKind::ArrayAgg, 1),
            agg(AggKind::Count, 1),
            agg(AggKind::Max, 0),
        ]
    }

    /// How a test state starts: in run mode, on the table path, or on the
    /// table path with every aggregate on accumulators.
    #[derive(Clone, Copy, PartialEq)]
    enum Start {
        Runs,
        Table,
        Boxed,
    }

    /// Folds each partial's batches of (keys, argument) into its own state
    /// started as `start`, merges the partials in order and returns the
    /// output with how the merged state grouped and the cells it boxed.
    fn fold_partials(
        partials: &[Vec<(Vec<i64>, ColumnVec)>],
        start: Start,
    ) -> (Chunk, Grouping, u64) {
        let aggs = run_aggs();
        let hasher = KeyHasher::new();
        let mut merged: Option<AggState> = None;
        for batches in partials {
            let mut state = AggState::new(hasher, 1, &aggs, start != Start::Boxed);
            if start != Start::Runs {
                state.leave_runs();
            }
            for (keys, arg) in batches {
                let rows = keys.len();
                let key = ColumnVec::Int {
                    vals: keys.clone(),
                    valid: Bitmap::ones(rows),
                };
                let cols = [&key, arg, arg, arg, &key].map(Cow::Borrowed);
                state.fold_columns(1, &aggs, &cols, rows).unwrap();
            }
            match &mut merged {
                None => merged = Some(state),
                Some(m) => m.merge(state).unwrap(),
            }
        }
        let state = merged.expect("a partial");
        let (grouping, boxed) = (state.grouping(), state.boxed);
        (state.into_chunk(), grouping, boxed)
    }

    fn rows_of(chunk: &Chunk) -> Vec<Vec<Variant>> {
        (0..chunk.rows)
            .map(|r| chunk.cols.iter().map(|c| c.get(r)).collect())
            .collect()
    }

    /// Run mode and the key table fold the same batches into the same
    /// groups, in the same order, with the same cells: runs straddling
    /// batches and partials, a boundary key two partials share, keys that
    /// leave run mode (a lower first key, a repeat after another key, a
    /// descent within a batch, a partial that starts below the last), and
    /// records whose `PT` field is all NULL in one batch and doubles or
    /// integers in another.
    #[test]
    fn runs_and_the_key_table_fold_batches_alike() {
        let q = |v: &[i64]| {
            v.iter()
                .map(|&x| (x % 3 != 0).then_some(x))
                .collect::<Vec<_>>()
        };
        let recs = |v: &[i64]| records(&q(v), floats(&q(v)));
        let null_pt = |v: &[i64]| records(&q(v), ColumnVec::Null(v.len()));
        let int_pt = |v: &[i64]| {
            let q = q(v);
            let pt = ColumnVec::Int {
                vals: v.to_vec(),
                valid: Bitmap::from_fn(v.len(), |i| q[i].is_some()),
            };
            records(&q, pt)
        };
        let boxed = |v: &[i64]| ColumnVec::Var(recs(v).into_variants());
        type Case = (&'static str, Vec<Vec<(Vec<i64>, ColumnVec)>>, Grouping);
        let cases: Vec<Case> = vec![
            (
                "one partial, runs straddling batches",
                vec![vec![
                    (vec![0, 0, 1, 2], recs(&[1, 2, 3, 4])),
                    (vec![2, 2, 3], null_pt(&[5, 6, 7])),
                    (vec![3, 5], recs(&[8, 9])),
                    (vec![5, 6], ColumnVec::Null(2)),
                ]],
                Grouping::Runs,
            ),
            (
                "two partials sharing key 1",
                vec![
                    vec![(vec![0, 1, 1], recs(&[1, 2, 4]))],
                    vec![(vec![1, 2, 3], null_pt(&[5, 7, 8])), (vec![3], recs(&[10]))],
                    vec![],
                    vec![(vec![3, 9], ColumnVec::Null(2))],
                ],
                Grouping::Runs,
            ),
            (
                "a field of another representation and a boxed batch",
                vec![
                    vec![
                        (vec![0, 1], null_pt(&[1, 2])),
                        (vec![1, 2], int_pt(&[4, 5])),
                    ],
                    vec![
                        (vec![2, 3], recs(&[7, 8])),
                        (vec![3], boxed(&[10])),
                        (vec![4], recs(&[11])),
                    ],
                ],
                Grouping::Runs,
            ),
            (
                "a lower first key",
                vec![vec![
                    (vec![0, 1, 2], recs(&[1, 2, 4])),
                    (vec![1, 7], recs(&[5, 7])),
                ]],
                Grouping::Hashed,
            ),
            (
                "1, 2, 1 within a batch",
                vec![vec![
                    (vec![0, 0], recs(&[1, 2])),
                    (vec![1, 2, 1], null_pt(&[4, 5, 7])),
                ]],
                Grouping::Hashed,
            ),
            (
                "a partial below the last",
                vec![
                    vec![(vec![5, 6], recs(&[1, 2]))],
                    vec![(vec![1, 5], recs(&[4, 5])), (vec![6], recs(&[7]))],
                ],
                Grouping::Hashed,
            ),
        ];
        for (what, partials, grouping) in cases {
            let (runs, how, boxed_cells) = fold_partials(&partials, Start::Runs);
            let (table, hashed, _) = fold_partials(&partials, Start::Table);
            let (boxed, ..) = fold_partials(&partials, Start::Boxed);
            assert_eq!(rows_of(&runs), rows_of(&table), "{what}");
            assert_eq!(rows_of(&boxed), rows_of(&table), "{what}");
            assert_eq!((how, hashed), (grouping, Grouping::Hashed), "{what}");
            if what.starts_with("one partial") || what.starts_with("two partials") {
                assert!(
                    matches!(runs.cols[1], ColumnVec::Objects(_)),
                    "{what}: {:?}",
                    runs.cols[1]
                );
                assert!(
                    matches!(runs.cols[2], ColumnVec::List(_)),
                    "{what}: {:?}",
                    runs.cols[2]
                );
                assert_eq!(boxed_cells, 0, "{what}");
            }
        }
    }

    /// An all-NULL argument in every batch makes empty arrays, and no rows
    /// make no groups, as on the table path.
    #[test]
    fn runs_without_records_or_rows_fold_like_the_table() {
        for partials in [
            vec![
                vec![(vec![1, 1, 4], ColumnVec::Null(3))],
                vec![(vec![4, 8], ColumnVec::Null(2))],
            ],
            vec![vec![(vec![], ColumnVec::Null(0))]],
        ] {
            let (runs, ..) = fold_partials(&partials, Start::Runs);
            let (table, ..) = fold_partials(&partials, Start::Table);
            let (boxed, ..) = fold_partials(&partials, Start::Boxed);
            assert_eq!(rows_of(&runs), rows_of(&table));
            assert_eq!(rows_of(&boxed), rows_of(&table));
            assert_eq!(runs.cols.len(), table.cols.len());
        }
    }

    #[test]
    fn readers_get_the_producers_batches() {
        let (db, sql) = self_join_db(-1);
        let plan = db.compile(&sql).unwrap();
        let phys = lower(&plan, 2);
        let (producer, reader) = sites(&phys);
        assert!(reader.children.is_empty(), "a reading site owns no operators");
        let mut ctx = ExecCtx::default();
        let produced = execute_physical(producer, &mut ctx).unwrap();
        let scanned = ctx.stats.bytes_scanned;
        let read = execute_physical(reader, &mut ctx).unwrap();
        assert_eq!(ctx.stats.bytes_scanned, scanned, "reading a slot scans nothing");
        assert_eq!(total_rows(&produced), 64);
        let rows = |batches: Vec<Chunk>| -> Vec<Vec<Variant>> {
            batches.into_iter().flat_map(Chunk::into_rows).collect()
        };
        assert_eq!(rows(produced), rows(read));
        assert_eq!(reader.metrics.snapshot(reader.op_name(), 1, Vec::new()).rows_out, 0);
    }

    #[test]
    fn a_failure_reaches_every_site_as_the_same_typed_error() {
        // Rows 19 and 43 both divide by zero in different batches; the error
        // every site reports is the one of the lowest batch, as without
        // sharing.
        let (db, sql) = self_join_db(19);
        let sql = sql.replace("(a - 19)", "((a - 19) * (a - 43))");
        let unshared = db.query_with(&sql, &crate::QueryOptions { optimize: false, ..Default::default() });
        let plan = db.compile(&sql).unwrap();
        for threads in [1, 2, 8] {
            let phys = lower(&plan, threads);
            let (producer, reader) = sites(&phys);
            let mut ctx = ExecCtx::default();
            let first = execute_physical(producer, &mut ctx).unwrap_err();
            let second = execute_physical(reader, &mut ctx).unwrap_err();
            assert_eq!(first.to_string(), second.to_string());
            assert_eq!(first.to_string(), unshared.as_ref().unwrap_err().to_string());
        }
    }

    #[test]
    fn a_reader_before_its_producer_is_a_typed_internal_error() {
        let (db, sql) = self_join_db(-1);
        let plan = db.compile(&sql).unwrap();
        let phys = lower(&plan, 2);
        let (producer, reader) = sites(&phys);
        let mut ctx = ExecCtx::default();
        let err = execute_physical(reader, &mut ctx).unwrap_err();
        assert!(matches!(&err, SnowError::Internal(_)), "{err:?}");
        assert!(err.to_string().contains(SLOT_OP), "{err}");
        assert_eq!(ctx.stats.bytes_scanned, 0, "a reader never produces");
        // The producing site still runs, and the slot still serves its reader.
        assert_eq!(total_rows(&execute_physical(producer, &mut ctx).unwrap()), 64);
        assert_eq!(total_rows(&execute_physical(reader, &mut ctx).unwrap()), 64);
    }

    #[test]
    fn a_run_preserving_filter_keeps_the_first_row_of_each_run_it_would_empty() {
        let ids = [0i64, 0, 1, 1, 2, 2, 2, 3];
        let ints = ColumnVec::Int { vals: ids.to_vec(), valid: Bitmap::ones(ids.len()) };
        let boxed = ColumnVec::Var(ids.iter().map(|&i| Variant::Int(i)).collect());
        for rid in [&ints, &boxed] {
            assert_eq!(keep_per_run(&[1, 5], rid), [1, 2, 5, 7]);
            assert_eq!(keep_per_run(&[], rid), [0, 2, 4, 7]);
            assert_eq!(keep_per_run(&[0, 1, 2, 3, 4, 5, 6, 7], rid), [0, 1, 2, 3, 4, 5, 6, 7]);
        }
    }

    /// Flattens `src` (one value per input row) under each of `bounds`, one
    /// bound per row, and checks the output against the unbounded flatten
    /// with the rows whose `INDEX` is below the row's bound — or whose
    /// bound or `INDEX` is NULL — taken out: the same input rows, `VALUE`,
    /// `INDEX`, `KEY`, `SEQ` and `THIS`, in the same order, cut into pieces
    /// of one to [`BATCH_ROWS`] rows. Every bound is read typed, as any other
    /// column, and — when all rows share it — as a literal. `THIS` (the
    /// whole array on every row) is compared when `this`. Bounded `OUTER`,
    /// an input row left with no row emits its one NULL row instead.
    fn bounded_flatten_is_the_filtered_flatten(
        src: &ColumnVec,
        bounds: &[Option<i64>],
        this: bool,
    ) {
        for outer in [false, true] {
            bounded_flatten_is_the_filtered_flatten_at(src, bounds, this, outer);
        }
    }

    fn bounded_flatten_is_the_filtered_flatten_at(
        src: &ColumnVec,
        bounds: &[Option<i64>],
        this: bool,
        outer: bool,
    ) {
        let rows = src.len();
        let ids = ColumnVec::Int { vals: (0..rows as i64).collect(), valid: Bitmap::ones(rows) };
        let inp = Chunk { cols: vec![ids], rows };
        let (base, emit) = (1000, [true, true, true, true, this]);
        let flatten = |bound: Bound<'_>, outer: bool| -> Vec<Vec<Variant>> {
            let pieces: Vec<Chunk> =
                FlattenPieces::new(src, outer, bound, emit, &inp, base).collect();
            assert!(pieces.iter().all(|p| (1..=BATCH_ROWS).contains(&p.rows)));
            pieces.iter().flat_map(rows_of).collect()
        };
        let kept: Vec<Vec<Variant>> = flatten(Bound::Unbounded, false)
            .into_iter()
            .filter(|row| match (bounds[row[0].as_i64().unwrap() as usize], &row[2]) {
                (Some(b), Variant::Int(index)) => *index >= b,
                _ => false,
            })
            .collect();
        let mut want = Vec::new();
        for r in 0..rows {
            let of_r: Vec<_> = kept.iter().filter(|row| row[0] == Variant::Int(r as i64)).collect();
            want.extend(of_r.iter().map(|row| (*row).clone()));
            if outer && of_r.is_empty() {
                let this = if this { src.get(r) } else { Variant::Null };
                let seq = Variant::Int(base + r as i64);
                let null = Variant::Null;
                let id = Variant::Int(r as i64);
                want.push(vec![id, null.clone(), null.clone(), null, seq, this]);
            }
        }
        let typed = ColumnVec::Int {
            vals: bounds.iter().map(|b| b.unwrap_or(0)).collect(),
            valid: Bitmap::from_fn(rows, |r| bounds[r].is_some()),
        };
        let boxed =
            ColumnVec::Var(bounds.iter().map(|b| b.map_or(Variant::Null, Variant::Int)).collect());
        assert!(matches!(Bound::of(&typed), Bound::Ints(..)));
        for bound in [Bound::of(&typed), Bound::of(&boxed)] {
            assert_eq!(format!("{:?}", flatten(bound, outer)), format!("{want:?}"), "{outer}");
        }
        if let Some(&same) = bounds.first().filter(|&&b| bounds.iter().all(|&x| x == b)) {
            let got = flatten(Bound::Const(same), outer);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{outer}");
        }
    }

    /// Bounds NULL, negative, zero, inside, at and past the array's length,
    /// over arrays mixing scalars, records and NULL items, and over objects,
    /// scalars, NULL and empty arrays, which a bounded flatten never expands
    /// (bounded `OUTER` pads them); and outputs of several pieces.
    #[test]
    fn a_bounded_flatten_emits_the_filtered_rows_of_boxed_values() {
        use crate::variant::parse_json;
        let mixed = parse_json(r#"[1, {"k": 2}, "three", null, 4.5, [6]]"#).unwrap();
        let obj = parse_json(r#"{"a": 1, "b": 2}"#).unwrap();
        let vals: Vec<Variant> = (0..12)
            .map(|r| match r % 6 {
                0 | 3 => mixed.clone(),
                1 => obj.clone(),
                2 => Variant::Int(7),
                4 => Variant::Null,
                _ => Variant::array(Vec::new()),
            })
            .collect();
        let src = ColumnVec::Var(vals);
        for bounds in [
            vec![None, Some(-3), Some(0), Some(2), Some(6), Some(9)],
            vec![Some(0); 6],
            vec![Some(-1); 6],
            vec![Some(5); 6],
            vec![None; 6],
        ] {
            let bounds: Vec<Option<i64>> = bounds.iter().cycle().take(12).copied().collect();
            bounded_flatten_is_the_filtered_flatten(&src, &bounds, true);
        }
        // 24 rows of 1,000 items: six pieces unbounded, fewer bounded.
        let big = Variant::array((0..1000).map(Variant::Int).collect::<Vec<_>>());
        let src = ColumnVec::Var(vec![big; 24]);
        let bounds: Vec<Option<i64>> = (0..24).map(|r| (r % 5 != 4).then_some(r * 37)).collect();
        bounded_flatten_is_the_filtered_flatten(&src, &bounds, false);
        bounded_flatten_is_the_filtered_flatten(&src, &[Some(1); 24], false);
    }

    /// The same over shredded lists of records, NULL and empty lists among
    /// them: items are gathered typed, never boxed.
    #[test]
    fn a_bounded_flatten_emits_the_filtered_rows_of_shredded_lists() {
        use crate::variant::parse_json;
        let item = |i: i64| parse_json(&format!(r#"{{"PT": {i}.5, "Q": {i}}}"#)).unwrap();
        let list = |n: i64| Variant::array((0..n).map(item).collect::<Vec<_>>());
        let shredded = |n: i64, items: i64| {
            let vals: Vec<Variant> = (0..n)
                .map(|r| if r % 7 == 3 { Variant::Null } else { list(r % 5 * items) })
                .collect();
            let src = crate::storage::encode::encode_column(ColumnVec::Var(vals));
            assert!(matches!(src, ColumnVec::List(_)));
            src
        };
        let bounds = |n: i64, items: i64| -> Vec<Option<i64>> {
            (0..n).map(|r| (r % 6 != 5).then_some(r * 53 % (4 * items + 1) - items / 3)).collect()
        };
        let small = shredded(14, 3);
        bounded_flatten_is_the_filtered_flatten(&small, &bounds(14, 3), true);
        bounded_flatten_is_the_filtered_flatten(&small, &[Some(2); 14], true);
        // Several pieces.
        let big = shredded(40, 300);
        bounded_flatten_is_the_filtered_flatten(&big, &bounds(40, 300), false);
        bounded_flatten_is_the_filtered_flatten(&big, &[Some(0); 40], false);
        bounded_flatten_is_the_filtered_flatten(&big, &[Some(1200); 40], false);
    }
}
