//! Morsel-parallel batched execution: the partition-parallel physical
//! pipeline every query runs on.
//!
//! - every operator produces an ordered list of batches (≤ [`BATCH_ROWS`]
//!   rows each) instead of one whole-table chunk;
//! - `Scan → Filter → Project` chains are *fused*: each worker claims a
//!   micro-partition from the work-stealing [`crate::storage::morsel`]
//!   dispatcher, materializes it in batches, and pushes each batch through
//!   the fused stages before claiming more work;
//! - filter/project/flatten over non-scan inputs map over batches in
//!   parallel; aggregate, join and sort are pipeline breakers that build
//!   thread-local partial state merged at the barrier;
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
//!   condition) evaluate serially, batch after batch, in the row loop; in a
//!   projection `SEQ8()` is an integer ramp from the batch's row base.
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
//! # Vectorized execution
//!
//! Batches are columnar ([`ColumnVec`]). Every operator's expressions were
//! compiled into one [`ExprDag`] when the plan was lowered, and when
//! `ctx.vectorize` is on (default; `SNOWDB_VECTORIZE=0` disables) the operator
//! evaluates a batch through it ([`super::kernel`]): each distinct
//! subexpression once, guarded operands on the rows their guard lets through.
//! The DAG *declines* a batch in which the row evaluator would fail; the
//! operator then runs its row loop over that batch, which is what reports the
//! error. Both outcomes are counted per operator (`rows_vectorized` /
//! `rows_fallback`, rendered as `vec=` by `EXPLAIN ANALYZE`).
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
use super::dag::{ExprDag, Seq8Calls};
use super::kernel::mask_keep;
use super::metrics::OpMetricsCell;
use super::{cmp_sort_values, eval, join_chunks, truth, Chunk, ExecCtx, RowView};

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
        NodeKind::Filter { .. } | NodeKind::Project { .. } => {
            if let Some((scan, stages)) = fused_chain(p) {
                exec_scan(scan, &stages, ctx)
            } else {
                match &p.logical.kind {
                    NodeKind::Filter { pred, .. } => exec_filter(p, pred, ctx),
                    NodeKind::Project { exprs, .. } => exec_project(p, exprs, ctx),
                    _ => unreachable!(),
                }
            }
        }
        NodeKind::Flatten { expr, .. } => exec_flatten(p, expr, ctx),
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
            NodeKind::Filter { pred, .. } if !pred.is_volatile() => {
                stages.push(cur);
                cur = &cur.children[0];
            }
            NodeKind::Project { exprs, .. }
                if !exprs.iter().any(PExpr::is_volatile) =>
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

/// Applies one fused stage to a batch, updating the stage's metrics.
fn apply_stage(stage: &PhysNode<'_>, chunk: Chunk, ctx: &mut ExecCtx) -> Result<Chunk> {
    let op = op_tag(stage);
    ctx.gov.checkpoint(op)?;
    let start = Instant::now();
    let rows_in = chunk.rows as u64;
    let out = match &stage.logical.kind {
        NodeKind::Filter { pred, .. } => {
            filter_batch(pred, stage.dag()?, &chunk, ctx, Some(&stage.metrics))?
        }
        NodeKind::Project { exprs, .. } => {
            project_batch(exprs, stage.dag()?, &chunk, ctx, 0, Some(&stage.metrics))?
        }
        _ => unreachable!("fused stages are filters and projections"),
    };
    stage.metrics.record_batch(rows_in, out.rows as u64, start.elapsed());
    charge_batch(stage, ctx, op, &out)?;
    Ok(out)
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
                    chunk = apply_stage(stage, chunk, &mut wctx)?;
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

/// Evaluates an operator's expressions for one batch through its compiled
/// DAG. `None` — vectorization is off, the expressions number `SEQ8()` calls
/// in a way only the row evaluator knows (`pure_only` operators thread one
/// counter through all their rows), or the DAG declined — sends the batch to
/// the operator's row loop.
fn eval_dag<'c>(
    dag: &ExprDag<'_>,
    pure_only: bool,
    inp: &'c Chunk,
    ctx: &ExecCtx,
    seq_base: i64,
    cell: Option<&OpMetricsCell>,
) -> Option<Vec<Cow<'c, ColumnVec>>> {
    if ctx.vectorize && !(pure_only && dag.seq8() != Seq8Calls::None) {
        dag.eval(inp, seq_base, cell)
    } else {
        None
    }
}

/// Counts a batch as evaluated by the DAG or by the row loop.
fn count_batch(cell: Option<&OpMetricsCell>, rows: usize, vectorized: bool) {
    if let Some(cell) = cell {
        if vectorized {
            cell.add_vectorized(rows as u64);
        } else {
            cell.add_fallback(rows as u64);
        }
    }
}

fn filter_batch(
    pred: &PExpr,
    dag: &ExprDag<'_>,
    inp: &Chunk,
    ctx: &mut ExecCtx,
    cell: Option<&OpMetricsCell>,
) -> Result<Chunk> {
    // A mask with a non-boolean value goes to the row loop too, which raises
    // the type error at the offending row.
    let mask = eval_dag(dag, true, inp, ctx, 0, cell).and_then(|m| mask_keep(&m[0]));
    count_batch(cell, inp.rows, mask.is_some());
    let keep = match mask {
        Some(keep) => keep,
        None => {
            let mut keep = Vec::with_capacity(inp.rows);
            for r in 0..inp.rows {
                let parts = [(inp, r)];
                let v = eval(pred, RowView::new(&parts), ctx)?;
                if truth(&v)? == Some(true) {
                    keep.push(r);
                }
            }
            keep
        }
    };
    let cols = inp.cols.iter().map(|c| c.gather(&keep)).collect();
    Ok(Chunk { cols, rows: keep.len() })
}

/// Projects one batch. `seq_base` is the global index of the batch's first
/// row: setting the counter to `base + r` before each row numbers rows per
/// projection site from zero in row order — the first `SEQ8()` call of row
/// `r` yields `r` — whatever the batching.
fn project_batch(
    exprs: &[PExpr],
    dag: &ExprDag<'_>,
    inp: &Chunk,
    ctx: &mut ExecCtx,
    seq_base: i64,
    cell: Option<&OpMetricsCell>,
) -> Result<Chunk> {
    let vec_cols = eval_dag(dag, false, inp, ctx, seq_base, cell);
    count_batch(cell, inp.rows, vec_cols.is_some());
    if let Some(cols) = vec_cols {
        let cols = cols.into_iter().map(Cow::into_owned).collect();
        return Ok(Chunk { cols, rows: inp.rows });
    }
    let mut cols: Vec<ColumnVec> = exprs.iter().map(|_| ColumnVec::new()).collect();
    let saved_seq = ctx.seq_counter;
    for r in 0..inp.rows {
        ctx.seq_counter = seq_base + r as i64;
        let parts = [(inp, r)];
        let view = RowView::new(&parts);
        for (e, out) in exprs.iter().zip(cols.iter_mut()) {
            out.push(eval(e, view, ctx)?);
        }
    }
    ctx.seq_counter = saved_seq;
    Ok(Chunk { cols, rows: inp.rows })
}

fn exec_filter(p: &PhysNode<'_>, pred: &PExpr, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let dag = p.dag()?;
    if pred.is_volatile() {
        // Serial fallback keeps the SEQ8 stream identical to the reference
        // executor (a volatile filter predicate does not occur in bound
        // plans today, but must not silently change meaning if it does).
        let mut out = Vec::new();
        for c in &input {
            ctx.gov.checkpoint("Filter")?;
            let start = Instant::now();
            let f = filter_batch(pred, dag, c, ctx, Some(&p.metrics))?;
            p.metrics.record_batch(c.rows as u64, f.rows as u64, start.elapsed());
            charge_batch(p, ctx, "Filter", &f)?;
            if f.rows > 0 {
                out.push(f);
            }
        }
        return Ok(out);
    }
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let batches = try_parallel_indexed_governed(
        input.len(),
        p.parallelism,
        || gov.claim_checkpoint("Filter"),
        |bi, msg| worker_panic_error("Filter", bi, msg),
        |bi| {
            let start = Instant::now();
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            let out = filter_batch(pred, dag, &input[bi], &mut wctx, Some(&p.metrics))?;
            p.metrics.record_batch(input[bi].rows as u64, out.rows as u64, start.elapsed());
            charge_batch(p, &wctx, "Filter", &out)?;
            Ok(out)
        },
    )?;
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

fn exec_project(
    p: &PhysNode<'_>,
    exprs: &[PExpr],
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let dag = p.dag()?;
    let bases = row_bases(&input);
    // Volatile projections parallelize too: each batch knows its global row
    // base, so SEQ8 ids are assigned exactly as in serial row order. The
    // per-worker context leaves the caller's counter untouched.
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let batches = try_parallel_indexed_governed(
        input.len(),
        p.parallelism,
        || gov.claim_checkpoint("Project"),
        |bi, msg| worker_panic_error("Project", bi, msg),
        |bi| {
            let start = Instant::now();
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            let out = project_batch(
                exprs,
                dag,
                &input[bi],
                &mut wctx,
                bases[bi] as i64,
                Some(&p.metrics),
            )?;
            p.metrics.record_batch(input[bi].rows as u64, out.rows as u64, start.elapsed());
            charge_batch(p, &wctx, "Project", &out)?;
            Ok(out)
        },
    )?;
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

/// Flattens one batch. `row_base` is the global index of the batch's first
/// row; the emitted `SEQ` column carries `row_base + r`, the parent row's
/// index in the whole flatten input. `emit` says which of the five appended
/// columns (VALUE, INDEX, KEY, SEQ, THIS) are read; the rest come out as
/// all-NULL columns.
fn flatten_batch(
    p: &PhysNode<'_>,
    inp: &Chunk,
    ctx: &mut ExecCtx,
    row_base: i64,
) -> Result<Chunk> {
    let NodeKind::Flatten { expr, outer, emit, .. } = &p.logical.kind else {
        unreachable!("flatten_batch on a non-flatten node")
    };
    let (dag, outer, cell) = (p.dag()?, *outer, Some(&p.metrics));
    // The flatten source evaluates through the DAG when it can.
    let vec_src = eval_dag(dag, true, inp, ctx, 0, cell).and_then(|mut cols| cols.pop());
    count_batch(cell, inp.rows, vec_src.is_some());
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
        let v = match vec_src.as_deref() {
            Some(ColumnVec::Var(vals)) => &vals[r],
            Some(col) => {
                held = col.get(r);
                &held
            }
            None => {
                let parts = [(inp, r)];
                held = eval(expr, RowView::new(&parts), ctx)?;
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
    Ok(Chunk { cols, rows: n })
}

fn exec_flatten(p: &PhysNode<'_>, expr: &PExpr, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let bases = row_bases(&input);
    if expr.is_volatile() {
        let mut out = Vec::new();
        for (bi, c) in input.iter().enumerate() {
            ctx.gov.checkpoint("Flatten")?;
            let start = Instant::now();
            let f = flatten_batch(p, c, ctx, bases[bi] as i64)?;
            p.metrics.record_batch(c.rows as u64, f.rows as u64, start.elapsed());
            charge_batch(p, ctx, "Flatten", &f)?;
            if f.rows > 0 {
                out.push(f);
            }
        }
        return Ok(out);
    }
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let batches = try_parallel_indexed_governed(
        input.len(),
        p.parallelism,
        || gov.claim_checkpoint("Flatten"),
        |bi, msg| worker_panic_error("Flatten", bi, msg),
        |bi| {
            let start = Instant::now();
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            let out = flatten_batch(p, &input[bi], &mut wctx, bases[bi] as i64)?;
            p.metrics.record_batch(input[bi].rows as u64, out.rows as u64, start.elapsed());
            charge_batch(p, &wctx, "Flatten", &out)?;
            Ok(out)
        },
    )?;
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
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
    /// Folds one batch into the state (serial reference semantics: rows in
    /// order, group entries keep insertion order, single-key fast path).
    fn fold(
        &mut self,
        groups: &[PExpr],
        aggs: &[AggExpr],
        inp: &Chunk,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        let single = groups.len() == 1;
        for r in 0..inp.rows {
            let parts = [(inp, r)];
            let view = RowView::new(&parts);
            let mut gv = Vec::with_capacity(groups.len());
            for g in groups {
                gv.push(eval(g, view, ctx)?);
            }
            let slot = if single {
                let key = Key::of(&gv[0]);
                match self.index1.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = self.states.len();
                        self.index1.insert(key, s);
                        self.group_vals.push(std::mem::take(&mut gv));
                        self.states
                            .push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                        s
                    }
                }
            } else {
                let key: Vec<Key> = gv.iter().map(Key::of).collect();
                match self.index.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = self.states.len();
                        self.index.insert(key, s);
                        self.group_vals.push(std::mem::take(&mut gv));
                        self.states
                            .push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                        s
                    }
                }
            };
            for (a, st) in aggs.iter().zip(self.states[slot].iter_mut()) {
                let v = match &a.arg {
                    Some(e) => eval(e, view, ctx)?,
                    None => Variant::Null,
                };
                match &a.arg2 {
                    Some(k) => {
                        let kv = eval(k, view, ctx)?;
                        st.update2(&v, &kv)?;
                    }
                    None => st.update(&v)?,
                }
            }
        }
        Ok(())
    }

    /// Folds one batch, preferring the column-major path: the row-at-a-time
    /// [`AggState::fold`] runs when [`AggState::try_fold_vec`] declines.
    fn fold_batch(
        &mut self,
        dag: &ExprDag<'_>,
        groups: &[PExpr],
        aggs: &[AggExpr],
        inp: &Chunk,
        ctx: &mut ExecCtx,
        cell: &OpMetricsCell,
    ) -> Result<()> {
        let folded = match eval_dag(dag, true, inp, ctx, 0, Some(cell)) {
            Some(cols) => {
                self.fold_columns(groups.len(), aggs, &cols, inp.rows)?;
                true
            }
            None => false,
        };
        count_batch(Some(cell), inp.rows, folded);
        if folded {
            return Ok(());
        }
        self.fold(groups, aggs, inp, ctx)
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

    /// Folds one batch whose expressions the DAG evaluated: `cols` holds the
    /// group keys, then each aggregate's arguments. The expressions cannot
    /// fail any more, so what remains of the serial error order is the order
    /// of accumulator updates, and every path below keeps it: a global
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
            // by an earlier row-major batch) fails on the next number.
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

    let volatile = groups.iter().any(PExpr::is_volatile)
        || aggs.iter().any(|a| {
            a.arg.as_ref().is_some_and(PExpr::is_volatile)
                || a.arg2.as_ref().is_some_and(PExpr::is_volatile)
        });
    let single = groups.len() == 1;
    let parallel = !volatile
        && aggs.iter().all(|a| exactly_mergeable(a.kind))
        && p.parallelism > 1
        && input.len() > 1;

    let mut state = if parallel {
        // Thread-local partial aggregation per batch, merged at the barrier
        // in batch order so group order and tie-breaks match serial.
        let gov = ctx.gov.clone();
        let vectorize = ctx.vectorize;
        let encode = ctx.encode;
        let partials = try_parallel_indexed_governed(
            input.len(),
            p.parallelism,
            || gov.claim_checkpoint("Aggregate"),
            |bi, msg| worker_panic_error("Aggregate", bi, msg),
            |bi| {
                let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
                let mut st = AggState::default();
                st.fold_batch(dag, groups, aggs, &input[bi], &mut wctx, &p.metrics)?;
                Ok(st)
            },
        )?;
        let mut merged = AggState::default();
        for partial in partials {
            merged.merge(partial, single)?;
        }
        merged
    } else {
        let mut st = AggState::default();
        for c in &input {
            ctx.gov.checkpoint("Aggregate")?;
            st.fold_batch(dag, groups, aggs, c, ctx, &p.metrics)?;
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
    let la = batches_arity(&l_batches, &p.children[0]);
    let ra = batches_arity(&r_batches, &p.children[1]);
    let l_rows = total_rows(&l_batches) as u64;
    let r_rows = total_rows(&r_batches) as u64;
    p.metrics.add_rows_in(l_rows + r_rows);
    p.metrics.peak(l_rows + r_rows);
    let start = Instant::now();

    // The build side is materialized whole for O(1) row addressing.
    let r = concat_batches(r_batches, ra);
    charge_batch(p, ctx, "Join", &r)?;

    let OpExprs::Join(JoinExprs { equi, residual, left: left_keys, right: right_keys, left_arity }) =
        &p.exprs
    else {
        // Serial reference fallback for volatile join conditions.
        let l = concat_batches(l_batches, la);
        charge_batch(p, ctx, "Join", &l)?;
        let out = join_chunks(&l, &r, kind, on, ctx)?;
        charge_batch(p, ctx, "Join", &out)?;
        p.metrics.add_busy(start.elapsed());
        let batches = split_into_batches(out);
        p.metrics
            .add_output(batches.iter().map(|c| c.rows as u64).sum(), batches.len() as u64);
        return Ok(batches);
    };

    // Hash join: build on the right side (serial — the build is a hash
    // insert in row order; probe is the parallel phase). Key expressions go
    // through the DAG when possible; `key_at` then yields exactly the group
    // key `Key::of` would for the boxed value.
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let hash: Option<HashMap<Vec<Key>, Vec<usize>>> = if equi.is_empty() {
        None
    } else {
        let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::new();
        match eval_dag(right_keys, true, &r, ctx, 0, None) {
            Some(kcols) => {
                for rr in 0..r.rows {
                    if rr % BATCH_ROWS == 0 {
                        ctx.gov.checkpoint("Join")?;
                    }
                    // NULL keys never match in SQL equality.
                    if kcols.iter().any(|c| c.is_null_at(rr)) {
                        continue;
                    }
                    let key: Vec<Key> = kcols.iter().map(|c| c.key_at(rr)).collect();
                    table.entry(key).or_default().push(rr);
                }
            }
            None => {
                let mut bctx = ExecCtx::worker(ctx.gov.clone(), vectorize, ctx.encode);
                for rr in 0..r.rows {
                    if rr % BATCH_ROWS == 0 {
                        bctx.gov.checkpoint("Join")?;
                    }
                    let parts = [(&r, rr)];
                    let view = RowView::shifted(&parts, *left_arity);
                    let mut key = Vec::with_capacity(equi.len());
                    let mut has_null = false;
                    for (_, rk) in equi {
                        let v = eval(rk, view, &mut bctx)?;
                        if v.is_null() {
                            has_null = true;
                            break;
                        }
                        key.push(Key::of(&v));
                    }
                    // NULL keys never match in SQL equality.
                    if !has_null {
                        table.entry(key).or_default().push(rr);
                    }
                }
            }
        }
        Some(table)
    };

    let gov = ctx.gov.clone();
    let probe = |lb: &Chunk| -> Result<Chunk> {
        let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
        // Matches accumulate as (left, right) row indices; the output chunk
        // is a typed gather at the end, so column representations survive the
        // join untouched (`None` right rows become NULLs on the outer side).
        let mut lidx: Vec<usize> = Vec::new();
        let mut ridx: Vec<Option<usize>> = Vec::new();
        let residual_ok = |wctx: &mut ExecCtx, lr: usize, rr: usize| -> Result<bool> {
            for e in residual {
                let parts = [(lb, lr), (&r, rr)];
                let v = eval(e, RowView::new(&parts), wctx)?;
                if truth(&v)? != Some(true) {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match &hash {
            None => {
                // Nested-loop join for cross joins and non-equi conditions.
                for lr in 0..lb.rows {
                    let mut matched = false;
                    for rr in 0..r.rows {
                        if residual_ok(&mut wctx, lr, rr)? {
                            lidx.push(lr);
                            ridx.push(Some(rr));
                            matched = true;
                        }
                    }
                    if kind == JoinKind::LeftOuter && !matched {
                        lidx.push(lr);
                        ridx.push(None);
                    }
                }
            }
            Some(table) => {
                let probe_cols = eval_dag(left_keys, true, lb, &wctx, 0, None);
                count_batch(Some(&p.metrics), lb.rows, probe_cols.is_some());
                for lr in 0..lb.rows {
                    let mut key = Vec::with_capacity(equi.len());
                    let mut has_null = false;
                    match &probe_cols {
                        Some(kcols) => {
                            if kcols.iter().any(|c| c.is_null_at(lr)) {
                                has_null = true;
                            } else {
                                key.extend(kcols.iter().map(|c| c.key_at(lr)));
                            }
                        }
                        None => {
                            let parts = [(lb, lr)];
                            let view = RowView::new(&parts);
                            for (lk, _) in equi {
                                let v = eval(lk, view, &mut wctx)?;
                                if v.is_null() {
                                    has_null = true;
                                    break;
                                }
                                key.push(Key::of(&v));
                            }
                        }
                    }
                    let mut matched = false;
                    if !has_null {
                        if let Some(rows) = table.get(&key) {
                            for &rr in rows {
                                if residual_ok(&mut wctx, lr, rr)? {
                                    lidx.push(lr);
                                    ridx.push(Some(rr));
                                    matched = true;
                                }
                            }
                        }
                    }
                    if kind == JoinKind::LeftOuter && !matched {
                        lidx.push(lr);
                        ridx.push(None);
                    }
                }
            }
        }
        let mut cols: Vec<ColumnVec> = Vec::with_capacity(la + ra);
        for c in &lb.cols {
            cols.push(c.gather(&lidx));
        }
        for c in &r.cols {
            cols.push(c.gather_opt(&ridx));
        }
        Ok(Chunk { cols, rows: lidx.len() })
    };

    let batches = try_parallel_indexed_governed(
        l_batches.len(),
        p.parallelism,
        || gov.claim_checkpoint("Join"),
        |bi, msg| worker_panic_error("Join", bi, msg),
        |bi| {
            let t0 = Instant::now();
            let out = probe(&l_batches[bi])?;
            p.metrics
                .record_batch(l_batches[bi].rows as u64, out.rows as u64, t0.elapsed());
            let bytes = out.approx_bytes();
            p.metrics.add_mem(bytes);
            gov.charge_memory(bytes, "Join")?;
            Ok(out)
        },
    )?;
    p.metrics.add_busy(start.elapsed());
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

fn exec_sort(p: &PhysNode<'_>, keys: &[SortKey], ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let dag = p.dag()?;
    let in_rows = total_rows(&input);
    p.metrics.add_rows_in(in_rows as u64);
    p.metrics.peak(in_rows as u64);
    let start = Instant::now();

    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let volatile = keys.iter().any(|k| k.expr.is_volatile());
    // Key evaluation parallelizes per batch; each result is key-major.
    let key_cols: Vec<Vec<Vec<Variant>>> = if volatile {
        let mut all = Vec::with_capacity(input.len());
        for c in &input {
            ctx.gov.checkpoint("Sort")?;
            all.push(eval_sort_keys(keys, dag, c, ctx, Some(&p.metrics))?);
        }
        all
    } else {
        try_parallel_indexed_governed(
            input.len(),
            p.parallelism,
            || gov.claim_checkpoint("Sort"),
            |bi, msg| worker_panic_error("Sort", bi, msg),
            |bi| {
                let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
                eval_sort_keys(keys, dag, &input[bi], &mut wctx, Some(&p.metrics))
            },
        )?
    };

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
    let batches = try_parallel_indexed_governed(
        n_batches,
        p.parallelism,
        || gov.claim_checkpoint("Sort"),
        |ob, msg| worker_panic_error("Sort", ob, msg),
        |ob| {
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
            let bytes = out.approx_bytes();
            p.metrics.add_mem(bytes);
            gov.charge_memory(bytes, "Sort")?;
            Ok(out)
        },
    )?;
    p.metrics.add_busy(start.elapsed());
    Ok(batches)
}

fn eval_sort_keys(
    keys: &[SortKey],
    dag: &ExprDag<'_>,
    inp: &Chunk,
    ctx: &mut ExecCtx,
    cell: Option<&OpMetricsCell>,
) -> Result<Vec<Vec<Variant>>> {
    let vec_cols = eval_dag(dag, true, inp, ctx, 0, cell);
    count_batch(cell, inp.rows, vec_cols.is_some());
    if let Some(cols) = vec_cols {
        return Ok(cols.into_iter().map(|c| c.into_owned().into_variants()).collect());
    }
    // Row-major, like every other row loop: the first error in (row, key)
    // order is the one reported.
    let mut out: Vec<Vec<Variant>> = keys.iter().map(|_| Vec::with_capacity(inp.rows)).collect();
    for r in 0..inp.rows {
        let parts = [(inp, r)];
        for (k, col) in keys.iter().zip(out.iter_mut()) {
            col.push(eval(&k.expr, RowView::new(&parts), ctx)?);
        }
    }
    Ok(out)
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
