//! DML planning: `INSERT`/`UPDATE`/`DELETE` as prepared copy-on-write
//! partition writes. Each planner is pure with respect to the catalog — it
//! returns the table name, the prepared [`TableWrite`] (`None` when no
//! partition was touched) and the result message; committing that write or
//! stacking it onto a transaction is the dispatcher's business.

use std::sync::Arc;

use crate::catalog::{CatalogSnapshot, TableWrite};
use crate::engine::Database;
use crate::error::{Result, SnowError};
use crate::exec::ExecCtx;
use crate::govern::QueryGovernor;
use crate::plan::{Field, PExpr};
use crate::sql::ast::Expr;
use crate::storage::{ColumnDef, ScanSource, Table, TableBuilder, DEFAULT_PARTITION_ROWS};
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
        // Evaluate each VALUES tuple as literal expressions.
        let mut ctx = ExecCtx::default();
        let chunk = crate::exec::Chunk { cols: Vec::new(), rows: 1 };
        let parts = [(&chunk, 0usize)];
        let view = crate::exec::RowView::new(&parts);
        let mut new_rows: Vec<Vec<Variant>> = Vec::with_capacity(rows.len());
        for tuple in rows {
            if tuple.len() != t.schema().len() {
                return Err(SnowError::Catalog(format!(
                    "INSERT arity {} does not match table arity {}",
                    tuple.len(),
                    t.schema().len()
                )));
            }
            let mut row = Vec::with_capacity(tuple.len());
            for e in tuple {
                let bound = crate::plan::binder::bind_expr(e, &[], None)?;
                row.push(crate::exec::eval(&bound, view, &mut ctx)?);
            }
            new_rows.push(row);
        }
        let inserted = new_rows.len();
        let schema = t.schema().to_vec();
        let parts = self.build_partitions(&upper, &schema, &new_rows, DEFAULT_PARTITION_ROWS, gov)?;
        let write = (!parts.is_empty()).then_some(TableWrite::Append { parts, schema });
        Ok((upper, write, format!("inserted {inserted} row(s)")))
    }

    /// `DELETE`: copy-on-write partition rewrite. Partitions with no matching
    /// row keep their `Arc` (zero copy, and — because conflict detection is
    /// by partition identity — zero conflict surface); partitions losing all
    /// rows are removed outright; mixed partitions are rebuilt from their
    /// surviving rows. Rows are deleted iff the predicate is `TRUE`
    /// (`FALSE`-or-`NULL` rows survive — SQL three-valued logic).
    pub(crate) fn plan_delete(
        &self,
        cat: &CatalogSnapshot,
        table: &str,
        predicate: Option<&Expr>,
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        let upper = table.to_ascii_uppercase();
        let t = cat
            .table(&upper)
            .ok_or_else(|| SnowError::Catalog(format!("table '{table}' does not exist")))?;
        let schema = t.schema().to_vec();
        let bound = self.bind_dml_predicate(&t, predicate)?;
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut deleted = 0usize;
        for part in t.partitions() {
            gov.checkpoint("Rewrite")?;
            let rows = part.row_count();
            if rows == 0 {
                continue;
            }
            let (mask, cols) = self.match_rows(part, &schema, bound.as_ref(), gov)?;
            let hits = mask.iter().filter(|&&m| m).count();
            if hits == 0 {
                continue;
            }
            deleted += hits;
            removed.push(part.clone());
            if hits == rows {
                continue;
            }
            let mut survivors: Vec<Vec<Variant>> = Vec::with_capacity(rows - hits);
            for (r, &dead) in mask.iter().enumerate() {
                if !dead {
                    survivors.push(cols.iter().map(|c| c.get(r)).collect());
                }
            }
            added.extend(self.build_partitions(&upper, &schema, &survivors, rows, gov)?);
        }
        let write = (!removed.is_empty()).then_some(TableWrite::Rewrite { removed, added });
        Ok((upper, write, format!("deleted {deleted} row(s)")))
    }

    /// `UPDATE`: copy-on-write partition rewrite. Untouched partitions keep
    /// their `Arc`; a partition with at least one matching row is rebuilt
    /// with the `SET` expressions applied to matching rows (evaluated
    /// against the *old* row, so `SET a = a + 1` is well-defined).
    pub(crate) fn plan_update(
        &self,
        cat: &CatalogSnapshot,
        table: &str,
        sets: &[(String, Expr)],
        predicate: Option<&Expr>,
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        let upper = table.to_ascii_uppercase();
        let t = cat
            .table(&upper)
            .ok_or_else(|| SnowError::Catalog(format!("table '{table}' does not exist")))?;
        let schema = t.schema().to_vec();
        let fields = self.dml_fields(&t);
        let mut set_cols: Vec<(usize, PExpr)> = Vec::with_capacity(sets.len());
        for (col, e) in sets {
            let idx = t.column_index(col).ok_or_else(|| {
                SnowError::Plan(format!("unknown column '{col}' in UPDATE SET"))
            })?;
            set_cols.push((idx, crate::plan::binder::bind_expr(e, &fields, None)?));
        }
        let bound = self.bind_dml_predicate(&t, predicate)?;
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut updated = 0usize;
        for part in t.partitions() {
            gov.checkpoint("Rewrite")?;
            let rows = part.row_count();
            if rows == 0 {
                continue;
            }
            let (mask, cols) = self.match_rows(part, &schema, bound.as_ref(), gov)?;
            let hits = mask.iter().filter(|&&m| m).count();
            if hits == 0 {
                continue;
            }
            updated += hits;
            removed.push(part.clone());
            // Re-materialize the whole partition, substituting the SET
            // expressions on matching rows.
            let chunk = self.partition_chunk(&cols, rows);
            let mut ctx = ExecCtx::default();
            let mut rebuilt: Vec<Vec<Variant>> = Vec::with_capacity(rows);
            for (r, &hit) in mask.iter().enumerate() {
                let mut row: Vec<Variant> = cols.iter().map(|c| c.get(r)).collect();
                if hit {
                    let parts = [(&chunk, r)];
                    let view = crate::exec::RowView::new(&parts);
                    for (idx, e) in &set_cols {
                        row[*idx] = crate::exec::eval(e, view, &mut ctx)?;
                    }
                }
                rebuilt.push(row);
            }
            added.extend(self.build_partitions(&upper, &schema, &rebuilt, rows, gov)?);
        }
        let write = (!removed.is_empty()).then_some(TableWrite::Rewrite { removed, added });
        Ok((upper, write, format!("updated {updated} row(s)")))
    }

    /// Bind fields for DML predicates/SET expressions: every column,
    /// qualified by the table name.
    fn dml_fields(&self, t: &Table) -> Vec<Field> {
        t.schema()
            .iter()
            .map(|c| Field::new(Some(t.name()), c.name.clone()))
            .collect()
    }

    fn bind_dml_predicate(&self, t: &Table, predicate: Option<&Expr>) -> Result<Option<PExpr>> {
        let fields = self.dml_fields(t);
        predicate
            .map(|p| crate::plan::binder::bind_expr(p, &fields, None))
            .transpose()
    }

    /// Reads every column of a partition (governed) and evaluates the
    /// predicate per row: `mask[r]` is true iff the predicate is `TRUE` on
    /// row `r` (no predicate matches every row).
    fn match_rows(
        &self,
        part: &Arc<ScanSource>,
        schema: &[ColumnDef],
        pred: Option<&PExpr>,
        gov: &QueryGovernor,
    ) -> Result<(Vec<bool>, Vec<Arc<crate::exec::ColumnVec>>)> {
        let rows = part.row_count();
        let mut cols = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            cols.push(part.read_column_governed(i, gov, "Rewrite")?.data);
        }
        let mask = match pred {
            None => vec![true; rows],
            Some(p) => {
                let chunk = self.partition_chunk(&cols, rows);
                let mut ctx = ExecCtx::default();
                let mut mask = Vec::with_capacity(rows);
                for r in 0..rows {
                    let parts = [(&chunk, r)];
                    let view = crate::exec::RowView::new(&parts);
                    let v = crate::exec::eval(p, view, &mut ctx)?;
                    mask.push(crate::exec::truth(&v)? == Some(true));
                }
                mask
            }
        };
        Ok((mask, cols))
    }

    fn partition_chunk(
        &self,
        cols: &[Arc<crate::exec::ColumnVec>],
        rows: usize,
    ) -> crate::exec::Chunk {
        crate::exec::Chunk { cols: cols.iter().map(|c| c.decoded()).collect(), rows }
    }

    /// Seals rows into fresh partitions through the standard builder path
    /// (type validation, stats, zone maps), streaming to partition files
    /// when a store is attached and charging the governor for every sealed
    /// partition.
    pub(crate) fn build_partitions(
        &self,
        name: &str,
        schema: &[ColumnDef],
        rows: &[Vec<Variant>],
        partition_rows: usize,
        gov: &Arc<QueryGovernor>,
    ) -> Result<Vec<Arc<ScanSource>>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let sink = self.governed_sink(schema, gov.clone());
        let mut b =
            TableBuilder::with_sink(name.to_string(), schema.to_vec(), partition_rows.max(1), sink);
        for row in rows {
            b.push_row(row)?;
        }
        Ok(b.finish()?.partitions().to_vec())
    }
}
