//! DML planning: `INSERT`/`UPDATE`/`DELETE` as prepared copy-on-write
//! partition writes. Each planner is pure with respect to the catalog — it
//! returns the table name, the prepared [`TableWrite`] (`None` when no
//! partition was touched) and the result message; committing that write or
//! stacking it onto a transaction is the dispatcher's business.
//!
//! `WHERE` and `SET` run where a query's expressions run: compiled into an
//! [`ExprDag`] and evaluated a partition at a time by
//! [`pipeline::eval_exprs`](crate::exec::pipeline::eval_exprs), under the
//! statement's governor and the process defaults for vectorization and
//! encoding. A rewritten partition is built from columns
//! ([`TableBuilder::push_rows_from`](crate::storage::TableBuilder::push_rows_from));
//! rows are the input format of `INSERT … VALUES` only.

use std::sync::Arc;

use crate::catalog::{CatalogSnapshot, TableWrite};
use crate::engine::Database;
use crate::error::{Result, SnowError};
use crate::exec::dag::ExprDag;
use crate::exec::kernel::mask_keep;
use crate::exec::pipeline::eval_exprs;
use crate::exec::{Bitmap, Chunk, ColumnVec, ExecCtx};
use crate::govern::QueryGovernor;
use crate::plan::binder::bind_expr;
use crate::plan::{Field, PExpr};
use crate::sql::ast::Expr;
use crate::storage::DEFAULT_PARTITION_ROWS;
use crate::variant::Variant;

impl Database {
    /// `INSERT`: evaluates the `VALUES` tuples and seals them into fresh
    /// partitions (streamed straight to partition files when a store is
    /// attached). The append merges with concurrent appends at commit time;
    /// existing partitions are never rewritten.
    pub(crate) fn plan_insert(
        &self,
        cat: &CatalogSnapshot,
        table: &str,
        rows: &[Vec<Expr>],
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        let upper = table.to_ascii_uppercase();
        let t = cat
            .table(&upper)
            .ok_or_else(|| SnowError::Catalog(format!("table '{table}' does not exist")))?;
        // One `SEQ8()` counter runs through all tuples.
        let mut seq = 0;
        let mut new_rows: Vec<Vec<Variant>> = Vec::with_capacity(rows.len());
        for tuple in rows {
            if tuple.len() != t.schema().len() {
                return Err(SnowError::Catalog(format!(
                    "INSERT arity {} does not match table arity {}",
                    tuple.len(),
                    t.schema().len()
                )));
            }
            let row = tuple
                .iter()
                .map(|e| crate::exec::eval_const(&bind_expr(e, &[])?, &mut seq))
                .collect::<Result<_>>()?;
            new_rows.push(row);
        }
        let inserted = new_rows.len();
        let schema = t.schema().to_vec();
        let parts = self.build_partitions(&upper, &schema, DEFAULT_PARTITION_ROWS, gov, |b| {
            new_rows.iter().try_for_each(|row| b.push_row(row))
        })?;
        let write = (!parts.is_empty()).then_some(TableWrite::Append { parts, schema });
        Ok((upper, write, format!("inserted {inserted} row(s)")))
    }

    /// `DELETE` (`sets` is `None`) and `UPDATE`: copy-on-write partition
    /// rewrite. A row is hit iff the predicate is `TRUE` on it (`FALSE` and
    /// `NULL` rows are left alone — SQL three-valued logic; a value that is
    /// no boolean raises, as in a filter). Partitions with no hit keep their
    /// `Arc` (zero copy, and — because conflict detection is by partition
    /// identity — zero conflict surface); a partition that `DELETE` hits on
    /// every row is removed outright; any other is rebuilt from its columns,
    /// `DELETE` keeping the rows not hit, `UPDATE` all rows with the `SET`
    /// columns swapped in. `SET c = e` is `CASE WHEN hit THEN e ELSE c END`
    /// over the old row (so `SET a = a + 1` is well-defined): `e` is
    /// evaluated on hit rows only, and after the whole partition's predicate.
    /// `SEQ8()` numbers the rows of each partition from zero, in the
    /// predicate and again in the `SET` list.
    pub(crate) fn plan_rewrite(
        &self,
        cat: &CatalogSnapshot,
        table: &str,
        sets: Option<&[(String, Expr)]>,
        predicate: Option<&Expr>,
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        let upper = table.to_ascii_uppercase();
        let t = cat
            .table(&upper)
            .ok_or_else(|| SnowError::Catalog(format!("table '{table}' does not exist")))?;
        let schema = t.schema().to_vec();
        let arity = schema.len();
        // Every column, qualified by the table name; the hit mask rides along
        // as column `arity`.
        let fields: Vec<Field> =
            schema.iter().map(|c| Field::new(Some(t.name()), c.name.clone())).collect();
        let mut set_cols = Vec::new();
        let mut set_exprs = Vec::new();
        for (col, e) in sets.unwrap_or_default() {
            let idx = t.column_index(col).ok_or_else(|| {
                SnowError::Plan(format!("unknown column '{col}' in UPDATE SET"))
            })?;
            set_cols.push(idx);
            set_exprs.push(PExpr::Case {
                operand: None,
                branches: vec![(PExpr::Col(arity), bind_expr(e, &fields)?)],
                else_expr: Some(Box::new(PExpr::Col(idx))),
            });
        }
        let pred = predicate.map(|p| bind_expr(p, &fields)).transpose()?;
        let pred_dag = pred.as_ref().map(|p| ExprDag::compile([p]));
        let set_dag = ExprDag::compile(&set_exprs);
        let mut reads = Vec::new();
        pred.iter().chain(&set_exprs).for_each(|e| e.collect_cols(&mut reads));
        let mut ctx = ExecCtx::with_governor(gov.clone());

        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut affected = 0usize;
        for part in t.partitions() {
            gov.checkpoint("Rewrite")?;
            let rows = part.row_count();
            if rows == 0 {
                continue;
            }
            let stored = (0..arity)
                .map(|i| Ok(part.read_column_governed(i, gov, "Rewrite")?.data))
                .collect::<Result<Vec<_>>>()?;
            // The expressions run over copies of the columns they read,
            // decoded unless the statement runs on encoded blocks.
            let copy = |(i, col): (usize, &Arc<ColumnVec>)| match reads.contains(&i) {
                false => ColumnVec::Null(rows),
                true if ctx.encode => (**col).clone(),
                true => col.decoded(),
            };
            let mut chunk = Chunk { cols: stored.iter().enumerate().map(copy).collect(), rows };
            let mut hit = vec![pred_dag.is_none(); rows];
            if let Some(dag) = &pred_dag {
                ctx.seq_counter = 0;
                let mask = eval_exprs(dag, &chunk, &mut ctx, None, None);
                // A value that is no boolean raises at its row, which comes
                // before the row the mask ends at.
                for r in mask_keep(&mask.cols[0])? {
                    hit[r] = true;
                }
                if let Some(e) = mask.err {
                    return Err(e);
                }
            }
            let hits = hit.iter().filter(|&&h| h).count();
            if hits == 0 {
                continue;
            }
            affected += hits;
            removed.push(part.clone());
            if sets.is_none() && hits == rows {
                continue;
            }
            added.extend(self.build_partitions(&upper, &schema, rows, gov, |b| {
                let mut cols: Vec<&ColumnVec> = stored.iter().map(|c| &**c).collect();
                if sets.is_none() {
                    return b.push_rows_from(&cols, (0..rows).filter(|&r| !hit[r]));
                }
                chunk.cols.push(ColumnVec::Bool { vals: hit, valid: Bitmap::ones(rows) });
                ctx.seq_counter = 0;
                let new = eval_exprs(&set_dag, &chunk, &mut ctx, None, None).complete()?;
                for (&idx, col) in set_cols.iter().zip(&new) {
                    cols[idx] = col.as_ref();
                }
                b.push_rows_from(&cols, 0..rows)
            })?);
        }
        let write = (!removed.is_empty()).then_some(TableWrite::Rewrite { removed, added });
        let verb = if sets.is_none() { "deleted" } else { "updated" };
        Ok((upper, write, format!("{verb} {affected} row(s)")))
    }
}
