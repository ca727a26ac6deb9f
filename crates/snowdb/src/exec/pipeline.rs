//! Morsel-parallel batched execution: the partition-parallel physical
//! pipeline every query runs on.
//!
//! - every operator produces an ordered list of batches (≤ [`BATCH_ROWS`]
//!   rows each) instead of one whole-table chunk;
//! - `Scan → Filter → Project` chains are *fused*: each worker claims a
//!   micro-partition from the work-stealing [`crate::storage::morsel`]
//!   dispatcher, materializes it in batches, and pushes each batch through
//!   the fused stages before claiming more work;
//! - filter/project/flatten are one per-batch step ([`stage_batch`]) that
//!   fused scans call and that one driver ([`exec_stream`]) maps over the
//!   batches of any other input; aggregate, join and sort are pipeline
//!   breakers that build thread-local partial state merged at the barrier;
//! - every operator updates the [`OpMetricsCell`] of its
//!   [`PhysNode`](crate::plan::physical::PhysNode), producing the
//!   per-operator metrics tree reported in
//!   [`QueryProfile`](crate::engine::QueryProfile).
//!
//! # Determinism contract
//!
//! Execution with any worker count must be *byte-identical* to execution with
//! one (rows in order, batch by batch):
//!
//! - all merges happen in partition/batch index order (the dispatcher hands
//!   out indices, results are reassembled sorted by index);
//! - `SEQ8()` gets its counter base per batch from a prefix sum over the
//!   input batch row counts, so row ids match the serial row order exactly;
//!   the same prefix-sum scheme gives `FLATTEN`'s `SEQ` column its parent row
//!   index;
//! - aggregate partials merge in batch order ([`Accumulator::merge`]), which
//!   preserves first-seen group order and first-among-ties semantics;
//!   `SUM`/`AVG` fold serially over the ordered batches because float
//!   addition is not associative;
//! - when several batches fail, the error with the lowest batch index wins —
//!   the one serial execution would have reported;
//! - volatile expressions outside projections (a `SEQ8()` in a filter or join
//!   condition, a flatten input, sort keys, aggregate arguments) read one
//!   counter: the operator runs at degree 1 on the caller's context, batch
//!   after batch ([`map_batches`]), its expressions through the row producer;
//!   in a projection `SEQ8()` is an integer ramp from the batch's row base.
//!   A volatile join condition is numbered in this order: the right keys of
//!   all right rows, then per left batch its left keys, then the residual
//!   conjuncts of its candidate pairs.
//!
//! # Shared subplans
//!
//! An optimized plan is a DAG ([`crate::optimize::share`]): a subtree several
//! parents read is lowered once and owns a [`SharedSlot`]. Its first site in
//! plan order executes it and publishes the batches; every other site takes a
//! copy from the slot, waiting — with governor checkpoints, so cancellation
//! and deadlines stay prompt — if the result is not there yet. The last
//! reader takes the stored batches themselves, which frees the slot. A
//! failure is published like a result: every reader gets the same typed
//! error. Scan statistics, governor budgets and operator metrics are charged
//! where the work happens, at the producing site, once. This rests on the
//! contract above: the output of a subtree is a function of the subtree
//! alone (`SEQ8()` restarts in every projection), so reading one result twice
//! equals computing it twice.
//!
//! Today [`execute_physical`] walks an operator's children one after the
//! other on the calling thread (parallelism is inside operators, over
//! batches), and the producing site is the first in that order: a reader
//! always finds the result published and never waits. The waiting path is
//! kept, and driven by this module's unit tests from hand-spawned threads,
//! because the slot's contract must not depend on that schedule — a join
//! that runs its two sides concurrently would put a reader ahead of its
//! producer — and because a reader that could hang or miss a cancellation
//! there would only be found when that lands.
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
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::column::ColumnVec;
use crate::error::{Result, SnowError};
use crate::govern::QueryGovernor;
use crate::plan::physical::{JoinExprs, OpExprs, PhysNode, SharedSite};
use crate::plan::{AggExpr, AggKind, NodeKind, PExpr, SortKey};
use crate::sql::JoinKind;
use crate::storage::morsel::try_parallel_indexed_governed;
use crate::variant::{Key, Variant};

use super::agg::{column_eligible, Accumulator};
use super::dag::ExprDag;
use super::kernel::mask_keep;
use super::metrics::OpMetricsCell;
use super::{cmp_sort_values, eval, truth, Chunk, ExecCtx, RowView};

/// Target rows per batch. Matches the default micro-partition size so a
/// partition usually maps to one batch.
pub const BATCH_ROWS: usize = 4096;

/// Executes a physical plan to completion, returning the ordered batch list.
///
/// Scan statistics accumulate into `ctx.stats`: per-worker stats are summed,
/// so `bytes_scanned` and partition counts are identical for any thread
/// count. At a site of a shared subtree this returns the site's copy of the
/// subtree's one result (see the module docs).
pub fn execute_physical(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    match &p.shared {
        None => execute_op(p, ctx),
        Some(SharedSite { slot, producer }) => {
            let gov = ctx.gov.clone();
            slot.get(*producer, &gov, || execute_op(p, ctx))
        }
    }
}

fn execute_op(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    match &p.logical.kind {
        NodeKind::Values => {
            p.metrics.add_output(1, 1);
            Ok(vec![Chunk { cols: Vec::new(), rows: 1 }])
        }
        NodeKind::Scan { .. } => exec_scan(p, &[], ctx),
        NodeKind::Filter { .. } | NodeKind::Project { .. } | NodeKind::Flatten { .. } => {
            match fused_chain(p) {
                Some((scan, stages)) => exec_scan(scan, &stages, ctx),
                None => exec_stream(p, ctx),
            }
        }
        NodeKind::Aggregate { groups, aggs, .. } => exec_aggregate(p, groups, aggs, ctx),
        NodeKind::Join { kind, on, .. } => exec_join(p, *kind, on, ctx),
        NodeKind::Sort { keys, .. } => exec_sort(p, keys, ctx),
        NodeKind::Limit { n, .. } => exec_limit(p, *n, ctx),
        NodeKind::UnionAll { .. } => exec_union(p, ctx),
        NodeKind::Distinct { .. } => exec_distinct(p, ctx),
    }
}

/// The one result of a shared subtree (see the module docs).
#[derive(Debug, Default)]
pub struct SharedSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
    /// Sites lowered for the subtree, the producing one included.
    sites: AtomicUsize,
}

#[derive(Debug, Default)]
enum SlotState {
    #[default]
    Empty,
    Running,
    /// `unread` sites, the producing one included, have yet to take their
    /// copy.
    Done { result: Result<Vec<Chunk>>, unread: usize },
}

/// Operator name a slot reports to the governor and in errors.
const SLOT_OP: &str = "Shared";

/// How long a waiting reader sleeps between governor checkpoints.
const SLOT_POLL: Duration = Duration::from_millis(10);

impl SharedSlot {
    /// Registers one more site of the subtree (called while lowering).
    pub(crate) fn add_site(&self) {
        self.sites.fetch_add(1, Ordering::Relaxed);
    }

    /// The state is only ever replaced whole, so it is valid even if a
    /// holder of the lock panicked.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, result: Result<Vec<Chunk>>) {
        let unread = self.sites.load(Ordering::Relaxed);
        *self.lock() = SlotState::Done { result, unread };
        self.ready.notify_all();
    }

    /// Returns this site's copy of the result: runs `produce` at the producing
    /// site, waits for it at the others.
    fn get(
        &self,
        producer: bool,
        gov: &QueryGovernor,
        produce: impl FnOnce() -> Result<Vec<Chunk>>,
    ) -> Result<Vec<Chunk>> {
        /// Publishes a failure if the producing site unwinds, so that no
        /// reader waits for a result that will never come.
        struct Abandon<'a>(&'a SharedSlot);
        impl Drop for Abandon<'_> {
            fn drop(&mut self) {
                self.0.publish(Err(SnowError::internal(SLOT_OP, "the producing site panicked")));
            }
        }

        gov.slot_checkpoint(SLOT_OP)?;
        let mut state = self.lock();
        if producer && matches!(*state, SlotState::Empty) {
            *state = SlotState::Running;
            drop(state);
            let abandon = Abandon(self);
            let result = produce();
            std::mem::forget(abandon);
            self.publish(result);
            state = self.lock();
        }
        loop {
            if let SlotState::Done { result, unread } = &mut *state {
                *unread = unread.saturating_sub(1);
                if *unread > 0 {
                    return result.clone();
                }
                let SlotState::Done { result, .. } = std::mem::take(&mut *state) else {
                    unreachable!("matched just above")
                };
                return result;
            }
            gov.slot_checkpoint(SLOT_OP)?;
            state = self
                .ready
                .wait_timeout(state, SLOT_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

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

/// Splits a chunk into batches of at most [`BATCH_ROWS`] rows (moves, no cell
/// clones). Zero-row chunks produce an empty list.
fn split_into_batches(mut chunk: Chunk) -> Vec<Chunk> {
    if chunk.rows == 0 {
        return Vec::new();
    }
    if chunk.rows <= BATCH_ROWS {
        return vec![chunk];
    }
    let mut out = Vec::with_capacity(chunk.rows.div_ceil(BATCH_ROWS));
    while chunk.rows > BATCH_ROWS {
        let mut head = Vec::with_capacity(chunk.cols.len());
        for col in chunk.cols.iter_mut() {
            let tail = col.split_off(BATCH_ROWS);
            head.push(std::mem::replace(col, tail));
        }
        chunk.rows -= BATCH_ROWS;
        out.push(Chunk { cols: head, rows: BATCH_ROWS });
    }
    out.push(chunk);
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
fn charge_batch(
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

// ---------------------------------------------------------------------------
// Fused scan pipeline
// ---------------------------------------------------------------------------

/// Walks a `Filter`/`Project` chain down to a `Scan`, returning the scan node
/// and the stages bottom-up, or `None` when the chain is broken. Volatile
/// projections are excluded: they need the global row index for `SEQ8()`,
/// which a streaming fused stage does not know. A shared node below `p` ends
/// the chain too: its batches must reach its slot, not only this reader.
fn fused_chain<'b, 'a>(
    p: &'b PhysNode<'a>,
) -> Option<(&'b PhysNode<'a>, Vec<&'b PhysNode<'a>>)> {
    let mut stages = Vec::new();
    let mut cur = p;
    loop {
        if cur.shared.is_some() && !std::ptr::eq(cur, p) {
            return None;
        }
        match &cur.logical.kind {
            NodeKind::Filter { .. } | NodeKind::Project { .. }
                if cur.dag().is_ok_and(|d| !d.is_volatile()) =>
            {
                stages.push(cur);
                cur = &cur.children[0];
            }
            NodeKind::Scan { .. } => {
                stages.reverse();
                return Some((cur, stages));
            }
            _ => return None,
        }
    }
}

/// Scans a table partition-parallel, pushing each materialized batch through
/// the fused `stages` before the morsel barrier. Workers keep private
/// [`ScanStats`](crate::storage::ScanStats) that are summed in partition
/// order, so the accounting is exact and thread-count independent.
fn exec_scan(
    scan: &PhysNode<'_>,
    stages: &[&PhysNode<'_>],
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let NodeKind::Scan { table, pushed, materialize } = &scan.logical.kind else {
        unreachable!("exec_scan on a non-scan node")
    };
    let parts = table.partitions();
    let arity = table.schema().len();
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let op = scan.op_name();
    let results = try_parallel_indexed_governed(
        parts.len(),
        scan.parallelism,
        || gov.claim_checkpoint(&op),
        |pi, msg| worker_panic_error(&op, pi, msg),
        |pi| {
            let part = &parts[pi];
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            wctx.stats.partitions_total = 1;
            // Zone-map pruning: skip the partition when any pushed predicate
            // proves no row can match. Pruned partitions contribute zero bytes.
            let prunable = pushed.iter().any(|p| {
                part.zone_map(p.col).is_some_and(|zm| !zm.may_match(p.cmp, &p.lit))
            });
            if prunable {
                wctx.stats.partitions_pruned = 1;
                for (i, m) in materialize.iter().enumerate() {
                    if *m {
                        wctx.stats.bytes_skipped += part.column_bytes(i);
                    }
                }
                return Ok((Vec::new(), wctx.stats));
            }
            wctx.stats.partitions_scanned = 1;
            wctx.stats.rows_scanned = part.row_count() as u64;
            // Materialize the surviving columns through the scan source:
            // in-memory partitions hand back shared column vectors, disk
            // partitions lazily read exactly the projected blocks (through
            // the buffer cache), so skipped columns cost zero file bytes.
            let mut data: Vec<Option<Arc<ColumnVec>>> = vec![None; arity];
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
            wctx.gov.charge_scanned(wctx.stats.bytes_scanned, &op)?;
            let mut out = Vec::new();
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
                        if !encode {
                            col.decode_in_place();
                        }
                        col
                    })
                    .collect();
                let mut chunk = Chunk { cols, rows: hi - lo };
                scan.metrics.record_batch(0, chunk.rows as u64, start.elapsed());
                charge_batch(scan, &wctx, &op, &chunk)?;
                for stage in stages {
                    chunk = stage_batch(stage, &chunk, &mut wctx, 0)?;
                }
                if chunk.rows > 0 {
                    out.push(chunk);
                }
                lo = hi;
            }
            Ok((out, wctx.stats))
        },
    )?;
    let mut batches = Vec::new();
    for (mut chunks, stats) in results {
        ctx.stats.merge(&stats);
        batches.append(&mut chunks);
    }
    Ok(batches)
}

// ---------------------------------------------------------------------------
// Streaming operators over batch lists
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

/// Maps `work` over `0..n` (an operator's batches) and returns the results
/// in index order; the error of the lowest index wins. Every index gets a
/// fresh worker context, `p.parallelism` of them at a time — or, `threaded`,
/// all run one after the other on the caller's context, so that one `SEQ8()`
/// counter runs through them in row order.
fn map_batches<R: Send>(
    p: &PhysNode<'_>,
    n: usize,
    threaded: bool,
    ctx: &mut ExecCtx,
    work: impl Fn(usize, &mut ExecCtx) -> Result<R> + Sync,
) -> Result<Vec<R>> {
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

/// One batch through a streaming operator — filter, projection, flatten: the
/// step fused scans and [`exec_stream`] share. `base` is the global index of
/// the batch's first row in the operator's input: a projection's `SEQ8()`
/// base and a flatten's `SEQ` base (fused stages are pure and pass 0).
fn stage_batch(p: &PhysNode<'_>, inp: &Chunk, ctx: &mut ExecCtx, base: i64) -> Result<Chunk> {
    let op = op_tag(p);
    ctx.gov.checkpoint(op)?;
    let start = Instant::now();
    let (dag, cell) = (p.dag()?, Some(&p.metrics));
    let out = match &p.logical.kind {
        NodeKind::Filter { .. } => {
            let mask = eval_exprs(dag, inp, ctx, None, cell);
            // A value that is no boolean raises at its row, which comes
            // before the row the mask ends at.
            let keep = mask_keep(&mask.cols[0])?;
            if let Some(e) = mask.err {
                return Err(e);
            }
            Chunk { cols: inp.cols.iter().map(|c| c.gather(&keep)).collect(), rows: keep.len() }
        }
        NodeKind::Project { .. } => {
            let cols = eval_exprs(dag, inp, ctx, Some(base), cell).complete()?;
            Chunk { cols: cols.into_iter().map(Cow::into_owned).collect(), rows: inp.rows }
        }
        NodeKind::Flatten { outer, emit, .. } => {
            let src = eval_exprs(dag, inp, ctx, None, cell).complete()?;
            flatten_batch(&src[0], *outer, emit, inp, base)
        }
        _ => unreachable!("streaming operators are filters, projections and flattens"),
    };
    p.metrics.record_batch(inp.rows as u64, out.rows as u64, start.elapsed());
    charge_batch(p, ctx, op, &out)?;
    Ok(out)
}

/// Runs a streaming operator over the batch list of its input. Batches map
/// in parallel — a projection numbers `SEQ8()` from each batch's row base, so
/// its ids are those of serial row order — unless a filter predicate or a
/// flatten input is volatile: those read one counter, batch after batch.
fn exec_stream(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let bases = row_bases(&input);
    let threaded =
        p.dag()?.is_volatile() && !matches!(p.logical.kind, NodeKind::Project { .. });
    let batches = map_batches(p, input.len(), threaded, ctx, |bi, wctx| {
        stage_batch(p, &input[bi], wctx, bases[bi] as i64)
    })?;
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

/// Flattens one batch whose flatten input evaluated to `src`. `row_base` is
/// the global index of the batch's first row; the emitted `SEQ` column
/// carries `row_base + r`, the parent row's index in the whole flatten input.
/// `emit` says which of the five appended columns (VALUE, INDEX, KEY, SEQ,
/// THIS) are read; the rest come out as all-NULL columns.
fn flatten_batch(
    src: &ColumnVec,
    outer: bool,
    emit: &[bool; 5],
    inp: &Chunk,
    row_base: i64,
) -> Chunk {
    // One pass over the source fixes the output cardinality: `repeat[j]` is
    // the input row behind output row `j`. The appended columns fill in the
    // same pass; every input column is then one typed gather.
    let [want_value, want_index, want_key, want_seq, want_this] = *emit;
    let mut repeat: Vec<usize> = Vec::new();
    let mut value = ColumnVec::new();
    let mut index = ColumnVec::new();
    let mut key = ColumnVec::new();
    let mut this = ColumnVec::new();
    for r in 0..inp.rows {
        // Boxed source rows are read in place; only their items are cloned.
        let held;
        let v = match src {
            ColumnVec::Var(vals) => &vals[r],
            col => {
                held = col.get(r);
                &held
            }
        };
        let before = repeat.len();
        match v {
            Variant::Array(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    repeat.push(r);
                    if want_value {
                        value.push(item.clone());
                    }
                    if want_index {
                        index.push(Variant::Int(i as i64));
                    }
                }
                key.push_nulls(items.len());
            }
            Variant::Object(obj) if !obj.is_empty() => {
                for (k, val) in obj.iter() {
                    repeat.push(r);
                    if want_value {
                        value.push(val.clone());
                    }
                    if want_key {
                        key.push(Variant::from(k));
                    }
                }
                index.push_nulls(obj.len());
            }
            _ if outer => {
                repeat.push(r);
                value.push_null();
                index.push_null();
                key.push_null();
            }
            _ => {}
        }
        if want_this {
            for _ in before..repeat.len() {
                this.push(v.clone());
            }
        }
    }
    let n = repeat.len();
    let mut cols: Vec<ColumnVec> = inp.cols.iter().map(|c| c.gather(&repeat)).collect();
    let mut seq = ColumnVec::new();
    if want_seq {
        for &r in &repeat {
            seq.push(Variant::Int(row_base + r as i64));
        }
    }
    for (col, wanted) in [value, index, key, seq, this].into_iter().zip(emit) {
        cols.push(if *wanted { col } else { ColumnVec::Null(n) });
    }
    Chunk { cols, rows: n }
}

// ---------------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------------

/// Hash-aggregate state: groups in first-seen order plus accumulator rows.
#[derive(Default)]
struct AggState {
    index: HashMap<Vec<Key>, usize>,
    index1: HashMap<Key, usize>,
    group_vals: Vec<Vec<Variant>>,
    states: Vec<Vec<Accumulator>>,
}

impl AggState {
    /// Folds one batch into the state: its expression columns, then the
    /// accumulators row by row. When an expression fails at row `r`, the rows
    /// before `r` are folded first, so an accumulator error on an earlier row
    /// is the one reported, as in serial row order. (Within row `r` itself an
    /// expression error precedes any accumulator error.)
    fn fold_batch(
        &mut self,
        dag: &ExprDag<'_>,
        n_groups: usize,
        aggs: &[AggExpr],
        inp: &Chunk,
        ctx: &mut ExecCtx,
        cell: &OpMetricsCell,
    ) -> Result<()> {
        let evaluated = eval_exprs(dag, inp, ctx, None, Some(cell));
        self.fold_columns(n_groups, aggs, &evaluated.cols, evaluated.rows)?;
        evaluated.err.map_or(Ok(()), Err)
    }

    /// The slot of the group whose key is row `r` of `gcols`, created on
    /// first sight (groups keep first-seen order).
    fn slot_at(&mut self, gcols: &[Cow<'_, ColumnVec>], r: usize, aggs: &[AggExpr]) -> usize {
        let fresh = |this: &mut AggState| {
            this.group_vals.push(gcols.iter().map(|c| c.get(r)).collect());
            this.states.push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
            this.states.len() - 1
        };
        if let [only] = gcols {
            let key = only.key_at(r);
            match self.index1.get(&key) {
                Some(&s) => s,
                None => {
                    let s = fresh(self);
                    self.index1.insert(key, s);
                    s
                }
            }
        } else {
            let key: Vec<Key> = gcols.iter().map(|c| c.key_at(r)).collect();
            match self.index.get(&key) {
                Some(&s) => s,
                None => {
                    let s = fresh(self);
                    self.index.insert(key, s);
                    s
                }
            }
        }
    }

    /// Folds `rows` evaluated rows: `cols` holds the group keys, then each
    /// aggregate's arguments. The expressions cannot fail any more, so what
    /// remains of the serial error order is the order of accumulator
    /// updates, and every path below keeps it: a global
    /// aggregation folds whole columns only when no accumulator can fail on
    /// its column ([`column_eligible`], plus a numeric `SUM` state);
    /// everything else updates row by row, aggregate by aggregate.
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
        let update_row = |states: &mut [Accumulator], r: usize| -> Result<()> {
            for (st, (v, k)) in states.iter_mut().zip(&acols) {
                let v = v.map_or(Variant::Null, |c| c.get(r));
                match k {
                    Some(k) => st.update2(&v, &k.get(r))?,
                    None => st.update(&v)?,
                }
            }
            Ok(())
        };
        if rows == 0 {
            return Ok(());
        }
        if gcols.is_empty() {
            let slot = self.slot_at(gcols, 0, aggs);
            // A SUM accumulator holding a non-numeric value (stored unchecked
            // by an earlier row-by-row batch) fails on the next number.
            let by_column = aggs.iter().zip(&acols).zip(&self.states[slot]).all(|((a, c), st)| {
                c.1.is_none()
                    && c.0.is_none_or(|col| column_eligible(a.kind, col))
                    && !matches!(st, Accumulator::Sum { acc: Some(v) }
                        if !matches!(v, Variant::Int(_) | Variant::Float(_)))
            });
            if by_column {
                let nulls = ColumnVec::Null(rows);
                for (st, (col, _)) in self.states[slot].iter_mut().zip(&acols) {
                    st.update_column(col.unwrap_or(&nulls))?;
                }
            } else {
                for r in 0..rows {
                    update_row(&mut self.states[slot], r)?;
                }
            }
            return Ok(());
        }
        // Dictionary-coded single group key: resolve each distinct code to its
        // group slot at most once per batch, so the per-row work is an array
        // lookup instead of boxing the string into a `Key`. First-appearance
        // order is preserved — rows still insert into `index1` in row order.
        let dict_key = match gcols {
            [only] => match &**only {
                ColumnVec::DictStr { codes, dict } => Some((codes, dict)),
                _ => None,
            },
            _ => None,
        };
        if let Some((codes, dict)) = dict_key {
            let mut memo: Vec<Option<usize>> = vec![None; dict.len() + 1];
            for (r, &code) in codes.iter().enumerate().take(rows) {
                let mi =
                    if code == crate::column::NULL_CODE { dict.len() } else { code as usize };
                let slot = match memo[mi] {
                    Some(s) => s,
                    None => {
                        let s = self.slot_at(gcols, r, aggs);
                        memo[mi] = Some(s);
                        s
                    }
                };
                update_row(&mut self.states[slot], r)?;
            }
            return Ok(());
        }
        for r in 0..rows {
            let slot = self.slot_at(gcols, r, aggs);
            update_row(&mut self.states[slot], r)?;
        }
        Ok(())
    }

    /// Merges a later partial into this one, in input order: new groups
    /// append (preserving global first-seen order), existing groups merge
    /// accumulators.
    fn merge(&mut self, other: AggState, single: bool) -> Result<()> {
        for (gv, accs) in other.group_vals.into_iter().zip(other.states) {
            let slot = if single {
                let key = Key::of(&gv[0]);
                match self.index1.get(&key) {
                    Some(&s) => Some(s),
                    None => {
                        self.index1.insert(key, self.states.len());
                        None
                    }
                }
            } else {
                let key: Vec<Key> = gv.iter().map(Key::of).collect();
                match self.index.get(&key) {
                    Some(&s) => Some(s),
                    None => {
                        self.index.insert(key, self.states.len());
                        None
                    }
                }
            };
            match slot {
                Some(s) => {
                    for (st, acc) in self.states[s].iter_mut().zip(accs) {
                        st.merge(acc)?;
                    }
                }
                None => {
                    self.group_vals.push(gv);
                    self.states.push(accs);
                }
            }
        }
        Ok(())
    }
}

/// True when per-batch partial states of this kind merge to the exact serial
/// result. `SUM`/`AVG` are excluded: float addition is not associative, so
/// only a serial fold in row order is bit-reproducible.
fn exactly_mergeable(kind: AggKind) -> bool {
    !matches!(kind, AggKind::Sum | AggKind::Avg)
}

fn exec_aggregate(
    p: &PhysNode<'_>,
    groups: &[PExpr],
    aggs: &[AggExpr],
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let dag = p.dag()?;
    let in_rows = total_rows(&input) as u64;
    p.metrics.add_rows_in(in_rows);
    p.metrics.peak(in_rows);
    let start = Instant::now();

    let single = groups.len() == 1;
    let parallel = !dag.is_volatile()
        && aggs.iter().all(|a| exactly_mergeable(a.kind))
        && p.parallelism > 1
        && input.len() > 1;

    let mut state = if parallel {
        // Thread-local partial aggregation per batch, merged at the barrier
        // in batch order so group order and tie-breaks match serial.
        let partials = map_batches(p, input.len(), false, ctx, |bi, wctx| {
            let mut st = AggState::default();
            st.fold_batch(dag, groups.len(), aggs, &input[bi], wctx, &p.metrics)?;
            Ok(st)
        })?;
        let mut merged = AggState::default();
        for partial in partials {
            merged.merge(partial, single)?;
        }
        merged
    } else {
        let mut st = AggState::default();
        for c in &input {
            ctx.gov.checkpoint("Aggregate")?;
            st.fold_batch(dag, groups.len(), aggs, c, ctx, &p.metrics)?;
        }
        st
    };

    // Global aggregation over zero rows still yields one row.
    if groups.is_empty() && state.states.is_empty() {
        state.group_vals.push(Vec::new());
        state.states.push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
    }

    let n_out = state.group_vals.len();
    let mut cols: Vec<ColumnVec> = vec![ColumnVec::new(); groups.len() + aggs.len()];
    for (gv, st) in state.group_vals.into_iter().zip(state.states) {
        for (i, v) in gv.into_iter().enumerate() {
            cols[i].push(v);
        }
        for (j, acc) in st.into_iter().enumerate() {
            cols[groups.len() + j].push(acc.finish());
        }
    }
    p.metrics.add_busy(start.elapsed());
    let out = Chunk { cols, rows: n_out };
    charge_batch(p, ctx, "Aggregate", &out)?;
    let batches = split_into_batches(out);
    p.metrics.add_output(n_out as u64, batches.len() as u64);
    Ok(batches)
}

fn exec_join(
    p: &PhysNode<'_>,
    kind: JoinKind,
    on: &Option<PExpr>,
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let l_batches = execute_physical(&p.children[0], ctx)?;
    let r_batches = execute_physical(&p.children[1], ctx)?;
    let OpExprs::Join(JoinExprs { left: left_keys, right: right_keys, residual }) = &p.exprs
    else {
        return Err(SnowError::internal(p.op_name(), "the join was lowered without its keys"));
    };
    let ra = batches_arity(&r_batches, &p.children[1]);
    let l_rows = total_rows(&l_batches) as u64;
    let r_rows = total_rows(&r_batches) as u64;
    p.metrics.add_rows_in(l_rows + r_rows);
    p.metrics.peak(l_rows + r_rows);
    let start = Instant::now();

    // The build side is materialized whole for O(1) row addressing.
    let r = concat_batches(r_batches, ra);
    charge_batch(p, ctx, "Join", &r)?;

    // Hash join: build on the right side (serial — the build is a hash
    // insert in row order; probe is the parallel phase). `key_at` yields
    // exactly the group key `Key::of` would for the boxed value.
    let hash: Option<HashMap<Vec<Key>, Vec<usize>>> = if left_keys.root_count() == 0 {
        None
    } else {
        let kcols = eval_exprs(right_keys, &r, ctx, None, None).complete()?;
        let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::new();
        let mut key = Vec::new();
        for rr in 0..r.rows {
            if rr % BATCH_ROWS == 0 {
                ctx.gov.checkpoint("Join")?;
            }
            if join_key(&kcols, rr, &mut key) {
                table.entry(std::mem::take(&mut key)).or_default().push(rr);
            }
        }
        Some(table)
    };

    // Without hash keys (a cross join, a non-equi condition) every right row
    // is a candidate of every left row: a nested loop.
    let all_right: Vec<usize> = if hash.is_none() { (0..r.rows).collect() } else { Vec::new() };

    let probe = |lb: &Chunk, wctx: &mut ExecCtx| -> Result<Chunk> {
        let kcols = match &hash {
            Some(_) => eval_exprs(left_keys, lb, wctx, None, Some(&p.metrics)).complete()?,
            None => Vec::new(),
        };
        // Matches accumulate as (left, right) row indices; the output chunk
        // is a typed gather at the end, so column representations survive the
        // join untouched (`None` right rows become NULLs on the outer side).
        let mut lidx: Vec<usize> = Vec::new();
        let mut ridx: Vec<Option<usize>> = Vec::new();
        let mut key = Vec::new();
        for lr in 0..lb.rows {
            let candidates: &[usize] = match &hash {
                Some(table) if join_key(&kcols, lr, &mut key) => {
                    table.get(key.as_slice()).map_or(&[], Vec::as_slice)
                }
                Some(_) => &[],
                None => &all_right,
            };
            let mut matched = false;
            'pairs: for &rr in candidates {
                for e in residual {
                    let parts = [(lb, lr), (&r, rr)];
                    let v = eval(e, RowView::new(&parts), wctx)?;
                    if truth(&v)? != Some(true) {
                        continue 'pairs;
                    }
                }
                lidx.push(lr);
                ridx.push(Some(rr));
                matched = true;
            }
            if kind == JoinKind::LeftOuter && !matched {
                lidx.push(lr);
                ridx.push(None);
            }
        }
        let mut cols: Vec<ColumnVec> = Vec::with_capacity(lb.cols.len() + r.cols.len());
        for c in &lb.cols {
            cols.push(c.gather(&lidx));
        }
        for c in &r.cols {
            cols.push(c.gather_opt(&ridx));
        }
        Ok(Chunk { cols, rows: lidx.len() })
    };

    // A volatile ON reads one `SEQ8()` counter: after the right keys above,
    // each left batch in order — its keys, then the residuals of its
    // candidate pairs.
    let volatile = on.as_ref().is_some_and(PExpr::is_volatile);
    let batches = map_batches(p, l_batches.len(), volatile, ctx, |bi, wctx| {
        let t0 = Instant::now();
        let out = probe(&l_batches[bi], wctx)?;
        p.metrics.record_batch(l_batches[bi].rows as u64, out.rows as u64, t0.elapsed());
        charge_batch(p, wctx, "Join", &out)?;
        Ok(out)
    })?;
    p.metrics.add_busy(start.elapsed());
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

/// Writes the hash key of row `r` of a join's key columns into `key`; false
/// when a key is NULL, which never matches in SQL equality.
fn join_key(kcols: &[Cow<'_, ColumnVec>], r: usize, key: &mut Vec<Key>) -> bool {
    key.clear();
    if kcols.iter().any(|c| c.is_null_at(r)) {
        return false;
    }
    key.extend(kcols.iter().map(|c| c.key_at(r)));
    true
}

fn exec_sort(p: &PhysNode<'_>, keys: &[SortKey], ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let dag = p.dag()?;
    let in_rows = total_rows(&input);
    p.metrics.add_rows_in(in_rows as u64);
    p.metrics.peak(in_rows as u64);
    let start = Instant::now();

    // Key evaluation parallelizes per batch (volatile keys read one counter,
    // batch after batch); each result is key-major.
    let key_cols: Vec<Vec<Vec<Variant>>> =
        map_batches(p, input.len(), dag.is_volatile(), ctx, |bi, wctx| {
            let cols = eval_exprs(dag, &input[bi], wctx, None, Some(&p.metrics)).complete()?;
            Ok(cols.into_iter().map(|c| c.into_owned().into_variants()).collect())
        })?;

    // Global merge: one stable sort over (batch, row) in input order, so the
    // permutation — and therefore tie order — does not depend on batching.
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

    // Parallel gather into output batches.
    let arity = batches_arity(&input, &p.children[0]);
    let n_batches = in_rows.div_ceil(BATCH_ROWS);
    let batches = map_batches(p, n_batches, false, ctx, |ob, wctx| {
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
    })?;
    p.metrics.add_busy(start.elapsed());
    Ok(batches)
}

// ---------------------------------------------------------------------------
// Serial batch-list operators
// ---------------------------------------------------------------------------

fn exec_limit(p: &PhysNode<'_>, n: u64, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let start = Instant::now();
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
    p.metrics.add_busy(start.elapsed());
    Ok(out)
}

fn exec_union(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let mut l = execute_physical(&p.children[0], ctx)?;
    let r = execute_physical(&p.children[1], ctx)?;
    let start = Instant::now();
    ctx.gov.checkpoint("UnionAll")?;
    if batches_arity(&l, &p.children[0]) != batches_arity(&r, &p.children[1]) {
        return Err(SnowError::Exec("UNION ALL arity mismatch".into()));
    }
    let rows = (total_rows(&l) + total_rows(&r)) as u64;
    l.extend(r);
    p.metrics.add_rows_in(rows);
    p.metrics.add_output(rows, l.len() as u64);
    p.metrics.add_busy(start.elapsed());
    Ok(l)
}

fn exec_distinct(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let start = Instant::now();
    let in_rows = total_rows(&input) as u64;
    p.metrics.add_rows_in(in_rows);
    p.metrics.peak(in_rows);
    // One hash set over the batches in input order: first occurrence wins.
    let arity = batches_arity(&input, &p.children[0]);
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<Chunk> = Vec::new();
    let mut cur = Chunk::empty(arity);
    for c in &input {
        ctx.gov.checkpoint("Distinct")?;
        for r in 0..c.rows {
            let key: Vec<Key> = c.cols.iter().map(|col| col.key_at(r)).collect();
            if seen.insert(key) {
                cur.push_row_from(c, r);
                if cur.rows == BATCH_ROWS {
                    charge_batch(p, ctx, "Distinct", &cur)?;
                    out.push(std::mem::replace(&mut cur, Chunk::empty(arity)));
                }
            }
        }
    }
    if cur.rows > 0 {
        charge_batch(p, ctx, "Distinct", &cur)?;
        out.push(cur);
    }
    let out_rows: u64 = out.iter().map(|c| c.rows as u64).sum();
    p.metrics.add_output(out_rows, out.len() as u64);
    p.metrics.add_busy(start.elapsed());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::plan::physical::lower;
    use crate::storage::{ColumnDef, ColumnType};
    use crate::Database;

    /// A self-join over a duplicated subquery whose rows divide by
    /// `a - fail_at` (so the subquery fails at that row, or never).
    fn self_join_db(fail_at: i64) -> (Database, String) {
        let db = Database::new();
        db.load_table_with_partition_rows(
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
    fn cancelling_a_waiting_reader_is_prompt_and_typed() {
        let (db, sql) = self_join_db(-1);
        let plan = db.compile(&sql).unwrap();
        let phys = lower(&plan, 2);
        let (_, reader) = sites(&phys);
        let gov = Arc::new(QueryGovernor::unbounded());
        // Nobody produces: the reader waits until the governor trips.
        let err = std::thread::scope(|s| {
            let waiting = s.spawn(|| {
                let mut ctx = ExecCtx::with_governor(gov.clone());
                execute_physical(reader, &mut ctx)
            });
            gov.cancel();
            waiting.join().expect("the reader must not panic").unwrap_err()
        });
        assert!(matches!(&err, SnowError::Cancelled { op } if op == SLOT_OP), "{err:?}");
    }

    #[test]
    fn a_budget_trip_at_the_producer_wakes_a_waiting_reader() {
        let (db, sql) = self_join_db(-1);
        let plan = db.compile(&sql).unwrap();
        let phys = lower(&plan, 2);
        let (producer, reader) = sites(&phys);
        let gov = Arc::new(QueryGovernor::unbounded().with_memory_limit(64));
        let (read, produced) = std::thread::scope(|s| {
            let waiting = s.spawn(|| {
                let mut ctx = ExecCtx::with_governor(gov.clone());
                execute_physical(reader, &mut ctx)
            });
            let mut ctx = ExecCtx::with_governor(gov.clone());
            let produced = execute_physical(producer, &mut ctx);
            (waiting.join().expect("the reader must not panic"), produced)
        });
        let (read, produced) = (read.unwrap_err(), produced.unwrap_err());
        assert!(matches!(produced, SnowError::ResourceExhausted(_)), "{produced:?}");
        assert_eq!(read.to_string(), produced.to_string());
    }

    #[test]
    fn a_panicking_producer_fails_its_readers() {
        let slot = SharedSlot::default();
        slot.add_site();
        slot.add_site();
        let gov = QueryGovernor::unbounded();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.get(true, &gov, || panic!("{}: producer", crate::govern::chaos::CHAOS_PANIC_MARKER))
        }));
        assert!(unwound.is_err());
        let err = slot.get(false, &gov, || unreachable!("readers never produce")).unwrap_err();
        assert!(matches!(err, SnowError::Internal(_)), "{err:?}");
    }
}
