//! The hash join's built right side over the executor's one key table, and
//! what a probe finds in it.
//!
//! A join is a stage of the pipeline its left input runs in (see
//! [`super::pipeline`]): before that pipeline starts, the join's right input
//! is executed and [built](JoinTable::build) into a [`JoinTable`], and every
//! batch that reaches the stage is [probed](JoinTable::probe) against it, by
//! whichever worker holds the batch. The table is read-only once built.
//!
//! The table is the right input concatenated into one [`Chunk`], so that a
//! build row is an index, and its key columns [built](KeyTable::build) into
//! the executor's one key table ([`super::hash`]), whose entry `r` is build
//! row `r` and whose chains are in ascending row order: a probe row's matches
//! come out in right-row order, the order of a nested loop. NULL never
//! matches: a NULL-keyed build row is in no chain and a NULL-keyed probe row
//! is not looked up. A join without an equi-key has no key table; every
//! build row is a candidate of every probe row.
//!
//! A join on one key column without residual conjuncts — every SSB star join
//! and every row-id join of the generated ADL plans — probes a batch in one
//! loop over its key column ([`KeyTable::probe_column`]); residuals and
//! multi-column keys take the general loop, which evaluates each candidate's
//! residuals in (left row, right row) order. The table's rows and its index
//! are charged to the statement's memory budget when it is built.

use std::time::{Duration, Instant};

use crate::column::ColumnVec;
use crate::error::{Result, SnowError};
use crate::plan::physical::{JoinExprs, OpExprs, PhysNode};
use crate::plan::{NodeKind, PExpr};
use crate::sql::JoinKind;

use super::hash::KeyTable;
use super::metrics::{JoinBuild, TableIndex};
use super::pipeline::{charge_batch, concat_batches, eval_exprs, execute_physical, BATCH_ROWS};
use super::{eval, truth, Chunk, ExecCtx, RowView};

/// The right row of a left-outer row that matched nothing.
const UNMATCHED: usize = usize::MAX;

/// A join's ON predicate as lowered: keys and residual conjuncts.
fn join_exprs<'p, 'a>(p: &'p PhysNode<'a>) -> Result<&'p JoinExprs<'a>> {
    match &p.exprs {
        OpExprs::Join(j) => Ok(j),
        _ => Err(SnowError::internal(
            p.op_name(),
            "the join was lowered without its keys",
        )),
    }
}

/// A join's built right side (see the module docs).
pub(super) struct JoinTable {
    rows: Chunk,
    /// `None` for a join without an equi-key.
    keys: Option<KeyTable>,
    /// Wall time the build took once the right input was there.
    pub(super) built_in: Duration,
}

impl JoinTable {
    /// Executes join `p`'s right input and builds its table on the calling
    /// thread. The right keys are evaluated in row order over the whole
    /// input, so a volatile key numbers the right rows first. The rows and
    /// then the key table's index are charged to the memory budget.
    pub(super) fn build(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<JoinTable> {
        let JoinExprs { right, .. } = join_exprs(p)?;
        let batches = execute_physical(&p.children[1], ctx)?;
        let start = Instant::now();
        let arity = batches
            .first()
            .map_or(p.children[1].logical.arity(), |c| c.cols.len());
        let rows = concat_batches(batches, arity);
        let n = rows.rows;
        p.metrics.add_rows_in(n as u64);
        p.metrics.peak(n as u64);
        charge_batch(p, ctx, "Join", &rows)?;
        let keys = match right.root_count() {
            0 => None,
            _ => {
                let cols: Vec<ColumnVec> = eval_exprs(right, &rows, ctx, None, None)
                    .complete()?
                    .into_iter()
                    .map(|c| c.into_owned())
                    .collect();
                let table = KeyTable::build(cols, n, || ctx.gov.checkpoint("Join"))?;
                let index = table.index_bytes();
                p.metrics.add_mem(rows.approx_bytes() + index);
                ctx.gov.charge_memory(index, "Join")?;
                Some(table)
            }
        };
        p.metrics.set_join_build(JoinBuild {
            rows: n as u64,
            index: keys.as_ref().map(KeyTable::index),
        });
        let built_in = start.elapsed();
        p.metrics.add_busy(built_in);
        Ok(JoinTable { rows, keys, built_in })
    }

    /// The pairs of probe batch `lb`: per left row in order, its matches in
    /// right-row order — candidates with an equal key for which every
    /// residual conjunct is true — and for a left-outer join an unmatched
    /// row once, paired with nothing. A volatile condition numbers the left
    /// keys of the batch, then the residuals of its candidates in (left row,
    /// right row) order; the first error in that order is returned.
    pub(super) fn probe(&self, p: &PhysNode<'_>, lb: &Chunk, wctx: &mut ExecCtx) -> Result<Pairs> {
        let JoinExprs { left, residual, .. } = join_exprs(p)?;
        let NodeKind::Join { kind, .. } = &p.logical.kind else {
            unreachable!("a join stage is a join node")
        };
        let unmatched = (*kind == JoinKind::LeftOuter).then_some(UNMATCHED);
        let mut pairs = Pairs {
            left: Vec::with_capacity(lb.rows),
            right: Vec::with_capacity(lb.rows),
            one_each: true,
        };
        let keyed = match &self.keys {
            None => None,
            Some(table) => {
                let lkeys = eval_exprs(left, lb, wctx, None, Some(&p.metrics)).complete()?;
                if let ([col], []) = (&lkeys[..], &residual[..]) {
                    let (left, right) = (&mut pairs.left, &mut pairs.right);
                    pairs.one_each = table.probe_column(col, lb.rows, unmatched, left, right);
                    return Ok(pairs);
                }
                // A dense table finds a row's slot from its key, not a hash.
                let hashed = (table.index() == TableIndex::Hashed)
                    .then(|| table.hash(&lkeys, lb.rows));
                Some((table, lkeys, hashed))
            }
        };
        for lr in 0..lb.rows {
            let before = pairs.left.len();
            let mut pair = |rr: usize, wctx: &mut ExecCtx| -> Result<()> {
                if holds(residual, [(lb, lr), (&self.rows, rr)], wctx)? {
                    pairs.left.push(lr);
                    pairs.right.push(rr);
                }
                Ok(())
            };
            match &keyed {
                Some((table, lkeys, hashed)) => {
                    let hash = match hashed {
                        Some(h) => (!h.is_null(lr)).then(|| h.hashes[lr]),
                        None => Some(0),
                    };
                    if let Some(hash) = hash {
                        for rr in table.matches(lkeys, lr, hash) {
                            pair(rr, wctx)?;
                        }
                    }
                }
                None => {
                    for rr in 0..self.rows.rows {
                        pair(rr, wctx)?;
                    }
                }
            }
            if let (Some(u), true) = (unmatched, pairs.left.len() == before) {
                pairs.left.push(lr);
                pairs.right.push(u);
            }
            pairs.one_each &= pairs.left.len() == before + 1;
        }
        Ok(pairs)
    }
}

/// True when every residual conjunct is true for the pair of rows `parts`.
fn holds(residual: &[&PExpr], parts: [(&Chunk, usize); 2], wctx: &mut ExecCtx) -> Result<bool> {
    for e in residual {
        if truth(&eval(e, RowView::new(&parts), wctx)?)? != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The (left row, right row) pairs one probe batch produced.
pub(super) struct Pairs {
    left: Vec<usize>,
    right: Vec<usize>,
    /// Every left row produced exactly one pair.
    one_each: bool,
}

impl Pairs {
    /// The join's output for the batch, cut into pieces of at most
    /// [`BATCH_ROWS`] rows, each gathered when it is asked for. A batch
    /// whose every row made one pair and which fits one piece hands its own
    /// columns on.
    pub(super) fn pieces(
        self,
        mut lb: Chunk,
        table: &JoinTable,
    ) -> impl Iterator<Item = Chunk> + '_ {
        let n = self.left.len();
        let moves = self.one_each && n <= BATCH_ROWS;
        (0..n.div_ceil(BATCH_ROWS)).map(move |i| {
            let range = i * BATCH_ROWS..((i + 1) * BATCH_ROWS).min(n);
            let (l, r) = (&self.left[range.clone()], &self.right[range]);
            let mut cols: Vec<ColumnVec> = match moves {
                true => std::mem::take(&mut lb.cols),
                false => lb.cols.iter().map(|c| c.gather(l)).collect(),
            };
            if r.contains(&UNMATCHED) {
                let r: Vec<Option<usize>> = r
                    .iter()
                    .map(|&rr| (rr != UNMATCHED).then_some(rr))
                    .collect();
                cols.extend(table.rows.cols.iter().map(|c| c.gather_opt(&r)));
            } else {
                cols.extend(table.rows.cols.iter().map(|c| c.gather(r)));
            }
            Chunk {
                cols,
                rows: l.len(),
            }
        })
    }
}
