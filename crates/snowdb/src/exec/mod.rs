//! Plan execution: columnar chunks, expression evaluation, and the batched
//! [`pipeline`] that runs physical plans.

pub mod agg;
pub mod dag;
pub mod expr;
mod hash;
mod join;
pub mod kernel;
pub mod metrics;
pub mod pipeline;

pub use crate::column::{Bitmap, ColumnVec};
pub use expr::{eval, truth, RowView};

use std::sync::Arc;

use crate::govern::QueryGovernor;
use crate::plan::{PExpr, SortKey};
use crate::storage::ScanStats;
use crate::variant::{cmp_variants, Variant};

/// A fully materialized intermediate result: typed columns with validity
/// bitmaps ([`ColumnVec`]); genuinely mixed data falls back to boxed variants
/// per column.
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    pub cols: Vec<ColumnVec>,
    pub rows: usize,
}

impl Chunk {
    /// An empty chunk with the given arity.
    pub fn empty(arity: usize) -> Chunk {
        Chunk { cols: vec![ColumnVec::new(); arity], rows: 0 }
    }

    /// Reads one row as a vector (used at the result boundary).
    pub fn row(&self, i: usize) -> Vec<Variant> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Cheap memory estimate for governance accounting: typed columns are
    /// measured exactly; string/variant columns extrapolate a first-row
    /// sample over all rows. O(arity) per batch — not per-row — so the
    /// estimate costs nothing on the hot path while still catching the
    /// `ARRAY_AGG`/join blow-ups where every row carries a large nested
    /// value.
    pub fn approx_bytes(&self) -> u64 {
        self.cols.iter().map(ColumnVec::approx_bytes).sum()
    }

    /// Consumes the chunk into row vectors; boxed values are moved, typed
    /// values materialize exactly once. This is the result-boundary path;
    /// [`Chunk::row`] stays for callers that only borrow the chunk.
    pub fn into_rows(self) -> Vec<Vec<Variant>> {
        let arity = self.cols.len();
        let mut out: Vec<Vec<Variant>> =
            (0..self.rows).map(|_| Vec::with_capacity(arity)).collect();
        for col in self.cols {
            debug_assert_eq!(col.len(), out.len());
            for (row, v) in out.iter_mut().zip(col.into_variants()) {
                row.push(v);
            }
        }
        out
    }
}

/// The process default for vectorized kernels (`SNOWDB_VECTORIZE`, on
/// unless it says off).
pub fn vectorize_from_env() -> bool {
    crate::QueryOptions::default().vectorize
}

/// Mutable per-query execution state.
#[derive(Debug)]
pub struct ExecCtx {
    pub stats: ScanStats,
    /// Counter backing `SEQ8()`.
    pub seq_counter: i64,
    /// Lifecycle governor for the running query: cancellation, deadline,
    /// budgets, chaos. Defaults to an unbounded governor, so ungoverned
    /// callers pay only a relaxed atomic load per batch boundary.
    pub gov: Arc<QueryGovernor>,
    /// Whether the executor may use vectorized kernels; off forces the
    /// row-at-a-time path the oracle compares them against.
    pub vectorize: bool,
    /// Whether scans keep dictionary/run-length encoded blocks encoded
    /// (kernels then execute on codes where they can); off decodes every
    /// block at the scan, the baseline the encoded path must match bit for
    /// bit.
    pub encode: bool,
    /// Pipelines the query has started: the next one's number, less one.
    pub pipelines: u32,
}

impl Default for ExecCtx {
    fn default() -> ExecCtx {
        ExecCtx::with_governor(Arc::default())
    }
}

impl ExecCtx {
    /// A context governed by `gov` at the process defaults for vectorization
    /// and encoding ([`crate::QueryOptions::default`]).
    pub fn with_governor(gov: Arc<QueryGovernor>) -> ExecCtx {
        let defaults = crate::QueryOptions::default();
        ExecCtx::worker(gov, defaults.vectorize, defaults.encode)
    }

    /// A worker-thread context sharing `gov` and inheriting the statement's
    /// vectorization/encoding choices.
    pub fn worker(gov: Arc<QueryGovernor>, vectorize: bool, encode: bool) -> ExecCtx {
        ExecCtx { stats: ScanStats::default(), seq_counter: 0, gov, vectorize, encode, pipelines: 0 }
    }
}

/// Evaluates an expression that reads no column — a constant the optimizer
/// folds, a value of an `INSERT … VALUES` tuple. `SEQ8()` counts on from
/// `*seq`.
pub fn eval_const(e: &PExpr, seq: &mut i64) -> crate::error::Result<Variant> {
    let mut ctx = ExecCtx { seq_counter: *seq, ..ExecCtx::worker(Arc::default(), false, false) };
    let v = eval(e, RowView::new(&[(&Chunk { cols: Vec::new(), rows: 1 }, 0)]), &mut ctx);
    *seq = ctx.seq_counter;
    v
}

/// Compares two values under one sort key.
fn cmp_sort_values(k: &SortKey, va: &Variant, vb: &Variant) -> std::cmp::Ordering {
    // Explicit NULL placement overrides the natural order.
    let nulls_first = k.nulls_first.unwrap_or(k.desc);
    match (va.is_null(), vb.is_null()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => {
            if nulls_first {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        }
        (false, true) => {
            if nulls_first {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        }
        (false, false) => {
            let base = cmp_variants(va, vb);
            if k.desc {
                base.reverse()
            } else {
                base
            }
        }
    }
}
