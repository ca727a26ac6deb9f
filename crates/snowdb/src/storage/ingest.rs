//! Schema-less ingestion: newline-delimited JSON → tables.
//!
//! Implements the paper's "in-situ processing without manual schema definition
//! or data loading" staging path (§I): each document becomes a row, the column
//! set is inferred from the data, and nested values land in `VARIANT` columns.
//!
//! Ingest is *streaming* with bounded memory: a first pass over the input
//! infers the schema one document at a time (keeping only per-column type
//! state), and a second pass parses again and pushes rows into a
//! [`TableBuilder`](super::TableBuilder) that seals — and, for a persistent
//! database, flushes to disk — each micro-partition as soon as it fills.
//! Peak memory is one open partition plus one parsed document, independent of
//! input size, and every sealed partition is charged against the session's
//! `STATEMENT_MEMORY_LIMIT` as it goes.

use std::io::BufRead;
use std::sync::Arc;

use super::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use crate::catalog::{TableWrite, WriteSet};
use crate::error::{Result, SnowError};
use crate::govern::QueryGovernor;
use crate::variant::{parse_json, Variant};
use crate::Database;

/// How a column's type is inferred across documents.
fn unify(a: ColumnType, b: ColumnType) -> ColumnType {
    use ColumnType::*;
    match (a, b) {
        (x, y) if x == y => x,
        // Numeric widening mirrors VARIANT's "lowest common type" (§II-B).
        (Int, Float) | (Float, Int) => Float,
        _ => Variant,
    }
}

fn type_of(v: &Variant) -> Option<ColumnType> {
    match v {
        Variant::Null => None,
        Variant::Int(_) => Some(ColumnType::Int),
        Variant::Float(_) => Some(ColumnType::Float),
        Variant::Bool(_) => Some(ColumnType::Bool),
        Variant::Str(_) => Some(ColumnType::Str),
        Variant::Array(_) | Variant::Object(_) => Some(ColumnType::Variant),
    }
}

/// Incremental schema inference: one column per top-level key (in first-seen
/// order), scalar types widened across documents, structures as `VARIANT`.
/// Holds only per-column type state — O(columns), not O(documents).
#[derive(Default)]
pub struct SchemaInferer {
    order: Vec<String>,
    types: std::collections::HashMap<String, Option<ColumnType>>,
    docs: usize,
}

impl SchemaInferer {
    pub fn new() -> SchemaInferer {
        SchemaInferer::default()
    }

    /// Folds one document into the running schema.
    pub fn observe(&mut self, doc: &Variant) -> Result<()> {
        let obj = doc.as_object().ok_or_else(|| {
            SnowError::Catalog("ingestion expects one JSON object per line".into())
        })?;
        for (k, v) in obj.iter() {
            let key = k.to_uppercase();
            let entry = match self.types.get_mut(&key) {
                Some(e) => e,
                None => {
                    self.order.push(key.clone());
                    self.types.entry(key.clone()).or_insert(None)
                }
            };
            *entry = match (*entry, type_of(v)) {
                (None, t) => t,
                (t, None) => t,
                (Some(a), Some(b)) => Some(unify(a, b)),
            };
        }
        self.docs += 1;
        Ok(())
    }

    /// Number of documents observed so far.
    pub fn docs(&self) -> usize {
        self.docs
    }

    /// The inferred schema; all-null columns default to `VARIANT`.
    pub fn finish(&self) -> Result<Vec<ColumnDef>> {
        if self.order.is_empty() {
            return Err(SnowError::Catalog("cannot infer a schema from zero documents".into()));
        }
        Ok(self
            .order
            .iter()
            .map(|name| {
                let ty = self.types[name].unwrap_or(ColumnType::Variant);
                ColumnDef::new(name.clone(), ty)
            })
            .collect())
    }
}

/// Extracts one row from a document, matching schema names back to document
/// keys case-insensitively; missing keys load as NULL.
fn row_from_doc(doc: &Variant, names: &[String]) -> Vec<Variant> {
    names
        .iter()
        .map(|name| {
            doc.as_object()
                .and_then(|o| {
                    o.iter()
                        .find(|(k, _)| k.eq_ignore_ascii_case(name))
                        .map(|(_, v)| v.clone())
                })
                .unwrap_or(Variant::Null)
        })
        .collect()
}

impl Database {
    /// Loads newline-delimited JSON text into a table, inferring the schema.
    /// Returns the number of rows loaded. Keys missing from a document load
    /// as NULL; unknown keys seen later widen the schema.
    pub fn load_jsonl(&self, table: &str, text: &str) -> Result<usize> {
        self.load_jsonl_lines(table, || Ok(text.lines().map(|l| Ok(l.to_string()))))
    }

    /// Streaming variant of [`Database::load_jsonl`] reading from a file:
    /// the file is scanned twice through a buffered reader (schema pass, then
    /// load pass) and never held in memory as a whole.
    pub fn load_jsonl_path(&self, table: &str, path: impl AsRef<std::path::Path>) -> Result<usize> {
        let path = path.as_ref();
        self.load_jsonl_lines(table, || {
            let f = std::fs::File::open(path)
                .map_err(|e| SnowError::Storage(format!("{}: open: {e}", path.display())))?;
            Ok(std::io::BufReader::new(f).lines().map(|r| {
                r.map_err(|e| SnowError::Storage(format!("read line: {e}")))
            }))
        })
    }

    /// Two-pass streaming core: `mk_lines` opens a fresh pass over the input.
    fn load_jsonl_lines<F, I>(&self, table: &str, mk_lines: F) -> Result<usize>
    where
        F: Fn() -> Result<I>,
        I: Iterator<Item = Result<String>>,
    {
        // Pass 1: incremental schema inference; documents are parsed and
        // immediately discarded.
        let mut inf = SchemaInferer::new();
        for line in mk_lines()? {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            inf.observe(&parse_json(&line)?)?;
        }
        let n = inf.docs();
        let schema = inf.finish()?;
        let names: Vec<String> = schema.iter().map(|c| c.name.clone()).collect();

        // Pass 2: re-parse and stream rows into the (possibly disk-flushing)
        // table builder; partitions seal and flush incrementally, and a read
        // or parse error aborts the load before anything is committed.
        self.replace_table(table, schema, DEFAULT_PARTITION_ROWS, |b| {
            for line in mk_lines()? {
                let line = line?;
                if !line.trim().is_empty() {
                    b.push_row(&row_from_doc(&parse_json(&line)?, &names))?;
                }
            }
            Ok(())
        })?;
        Ok(n)
    }
}

/// What a finished [`StreamIngestor`] did: rows landed and commits made.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestReport {
    pub rows: usize,
    pub commits: usize,
}

/// Streaming micro-commit ingest into an *existing* table: JSONL documents
/// buffer up to `rows_per_commit` rows, then each batch commits as one
/// optimistic [`TableWrite::Append`] (retried under seeded backoff on lost
/// races — appends merge with concurrent appends and with compactor
/// rewrites, so retries converge). Readers see batch boundaries only: every
/// committed version is a consistent prefix of the stream.
///
/// Unlike [`Database::load_jsonl`] (which *replaces* the table and infers a
/// schema), the ingestor appends against the table's fixed schema: a
/// document key not in the schema is a typed catalog error, a missing key
/// loads as NULL.
pub struct StreamIngestor<'a> {
    db: &'a Database,
    /// Upper-cased table name.
    table: String,
    schema: Vec<ColumnDef>,
    names: Vec<String>,
    buf: Vec<Vec<Variant>>,
    rows_per_commit: usize,
    report: IngestReport,
}

impl Database {
    /// Opens a streaming micro-commit ingest channel into existing table
    /// `table`, committing every `rows_per_commit` buffered rows (clamped
    /// ≥ 1). See [`StreamIngestor`].
    pub fn stream_ingest(&self, table: &str, rows_per_commit: usize) -> Result<StreamIngestor<'_>> {
        let upper = table.to_ascii_uppercase();
        let t = self.table(&upper).ok_or_else(|| {
            SnowError::Catalog(format!(
                "table '{table}' does not exist (streaming ingest appends; create it first)"
            ))
        })?;
        let schema = t.schema().to_vec();
        let names = schema.iter().map(|c| c.name.clone()).collect();
        Ok(StreamIngestor {
            db: self,
            table: upper,
            schema,
            names,
            buf: Vec::new(),
            rows_per_commit: rows_per_commit.max(1),
            report: IngestReport::default(),
        })
    }
}

impl StreamIngestor<'_> {
    /// Parses one JSONL document and buffers its row, committing a batch when
    /// the buffer fills. Blank lines are skipped; a key outside the table's
    /// schema is a typed catalog error (nothing from the current buffer is
    /// lost — the line can be corrected and re-pushed).
    pub fn push_json(&mut self, line: &str) -> Result<()> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let doc = parse_json(line)?;
        let obj = doc.as_object().ok_or_else(|| {
            SnowError::Catalog("ingestion expects one JSON object per line".into())
        })?;
        for (k, _) in obj.iter() {
            if !self.names.iter().any(|n| n.eq_ignore_ascii_case(k)) {
                return Err(SnowError::Catalog(format!(
                    "unknown key '{k}' for table '{}' (columns: {})",
                    self.table,
                    self.names.join(", ")
                )));
            }
        }
        self.buf.push(row_from_doc(&doc, &self.names));
        if self.buf.len() >= self.rows_per_commit {
            self.commit_batch()?;
        }
        Ok(())
    }

    /// Rows committed so far (excludes the open buffer).
    pub fn committed_rows(&self) -> usize {
        self.report.rows
    }

    /// Commits the buffered batch as one `Append`, retrying lost commit
    /// races against a fresh snapshot. The partitions are rebuilt per
    /// attempt; a failed attempt's files are invisible debris.
    fn commit_batch(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.buf);
        let gov = Arc::new(QueryGovernor::from_params(&self.db.session_params()));
        self.db.autocommit(&gov, |base| {
            if base.table(&self.table).is_none() {
                return Err(SnowError::Catalog(format!(
                    "table '{}' was dropped mid-ingest",
                    self.table
                )));
            }
            let parts = self.db.build_partitions(
                &self.table,
                &self.schema,
                self.rows_per_commit,
                &gov,
                |b| rows.iter().try_for_each(|row| b.push_row(row)),
            )?;
            let append = TableWrite::Append { parts, schema: self.schema.clone() };
            Ok((WriteSet::single(&self.table, append), ()))
        })?;
        self.report.rows += rows.len();
        self.report.commits += 1;
        Ok(())
    }

    /// Flushes any partial batch and returns the totals.
    pub fn finish(mut self) -> Result<IngestReport> {
        self.commit_batch()?;
        Ok(self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infer(lines: &[&str]) -> Result<Vec<ColumnDef>> {
        let mut inf = SchemaInferer::new();
        for line in lines {
            inf.observe(&parse_json(line).unwrap())?;
        }
        inf.finish()
    }

    #[test]
    fn infers_scalar_types_and_order() {
        let schema =
            infer(&[r#"{"a": 1, "b": "x", "c": true}"#, r#"{"a": 2.5, "b": "y", "c": false}"#])
                .unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema[0], ColumnDef::new("A", ColumnType::Float)); // widened
        assert_eq!(schema[1].ty, ColumnType::Str);
        assert_eq!(schema[2].ty, ColumnType::Bool);
    }

    #[test]
    fn conflicting_types_become_variant() {
        let schema = infer(&[r#"{"a": 1}"#, r#"{"a": "one"}"#]).unwrap();
        assert_eq!(schema[0].ty, ColumnType::Variant);
    }

    #[test]
    fn missing_keys_load_as_null_and_widen() {
        let db = Database::new();
        let n = db
            .load_jsonl(
                "t",
                r#"{"a": 1}
                   {"a": 2, "extra": [1, 2]}"#,
            )
            .unwrap();
        assert_eq!(n, 2);
        let r = db.query("SELECT a, extra FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows[0][0], Variant::Int(1));
        assert!(r.rows[0][1].is_null());
        assert_eq!(r.rows[1][1], Variant::array(vec![Variant::Int(1), Variant::Int(2)]));
    }

    #[test]
    fn nested_values_stay_queryable() {
        let db = Database::new();
        db.load_jsonl("t", r#"{"id": 1, "tags": [{"N": "x"}, {"N": "y"}]}"#).unwrap();
        let r = db
            .query("SELECT f.value:N FROM t, LATERAL FLATTEN(INPUT => tags) f ORDER BY 1")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Variant::str("x"));
    }

    #[test]
    fn rejects_non_objects_and_empty_input() {
        let db = Database::new();
        assert!(db.load_jsonl("t", "[1, 2]").is_err());
        assert!(db.load_jsonl("t", "").is_err());
        assert!(db.load_jsonl("t", "not json").is_err());
    }

    #[test]
    fn load_jsonl_path_streams_from_a_file() {
        let path = std::env::temp_dir().join(format!("snowdb-ingest-{}.jsonl", std::process::id()));
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!("{{\"id\": {i}, \"sq\": {}}}\n", i * i));
        }
        std::fs::write(&path, &text).unwrap();
        let db = Database::new();
        let n = db.load_jsonl_path("t", &path).unwrap();
        assert_eq!(n, 100);
        let r = db.query("SELECT SUM(sq) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Variant::Int((0..100).map(|i| i * i).sum()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ingest_charges_the_session_memory_budget() {
        let db = Database::new();
        db.execute("SET STATEMENT_MEMORY_LIMIT = 512").unwrap();
        let mut text = String::new();
        for i in 0..2000 {
            text.push_str(&format!("{{\"id\": {i}, \"pad\": \"xxxxxxxxxxxxxxxx\"}}\n"));
        }
        let err = db.load_jsonl("t", &text).unwrap_err();
        assert!(matches!(err, SnowError::ResourceExhausted(_)), "{err}");
        db.execute("UNSET STATEMENT_MEMORY_LIMIT").unwrap();
        assert!(db.load_jsonl("t", &text).is_ok());
    }
}
