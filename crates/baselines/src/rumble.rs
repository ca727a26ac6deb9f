//! RumbleDB-like runner: the paper's RumbleDB-on-Spark stand-in.
//!
//! Executes the same iterator tree as the translation layer, but locally and
//! row at a time, with collections pre-parsed into memory (the analogue of
//! Parquet-backed Spark RDDs: no parse cost on the scan path, but per-row
//! interpretation and full materialization between FLWOR clauses — the
//! overheads §V-D attributes to the Spark backend's UDF fallback).

use std::collections::HashMap;
use std::time::Instant;

use jsoniq_core::ast::{Item, JResult, JsoniqError};
use jsoniq_core::interp::{CollectionProvider, Interpreter};
use snowdb::variant::Object;
use snowdb::{Database, Variant};

/// In-memory, pre-parsed collections plus the interpreting executor.
#[derive(Default)]
pub struct RumbleRunner {
    collections: HashMap<String, Vec<Item>>,
}

impl RumbleRunner {
    pub fn new() -> RumbleRunner {
        RumbleRunner::default()
    }

    /// Loads a collection of pre-parsed items.
    pub fn load<I>(&mut self, name: &str, items: I)
    where
        I: IntoIterator<Item = Item>,
    {
        self.collections.insert(name.to_ascii_uppercase(), items.into_iter().collect());
    }

    /// Copies a `snowdb` table (one object per row) so all engines see
    /// identical data.
    pub fn load_from_table(&mut self, db: &Database, table: &str) {
        let t = db.table(table).unwrap_or_else(|| panic!("unknown table {table}"));
        let names: Vec<&str> = t.schema().iter().map(|c| c.name.as_str()).collect();
        let mut items = Vec::with_capacity(t.row_count());
        for part in t.partitions() {
            let mem = part.to_mem().unwrap_or_else(|e| panic!("table {table}: {e}"));
            for r in 0..mem.row_count() {
                let mut obj = Object::with_capacity(names.len());
                for (i, n) in names.iter().enumerate() {
                    obj.insert(*n, mem.column(i).get(r));
                }
                items.push(Variant::object(obj));
            }
        }
        self.collections.insert(table.to_ascii_uppercase(), items);
    }

    /// Runs a JSONiq query with the Spark-boundary simulation on: every value
    /// bound by a FLWOR clause crosses a serialization boundary, as it does
    /// between RumbleDB's Java iterators and Spark (paper §III-A3).
    pub fn query(&self, src: &str) -> JResult<Vec<Item>> {
        Interpreter::new(&Mem { runner: self })
            .with_serialization_boundaries(true)
            .eval_query(src)
    }

    /// Runs with a wall-clock cutoff (paper §V-A imposes a 10-minute limit).
    pub fn query_with_deadline(&self, src: &str, deadline: Instant) -> JResult<Vec<Item>> {
        Interpreter::with_deadline(&Mem { runner: self }, deadline)
            .with_serialization_boundaries(true)
            .eval_query(src)
    }
}

struct Mem<'a> {
    runner: &'a RumbleRunner,
}

impl CollectionProvider for Mem<'_> {
    fn collection(&self, name: &str) -> JResult<Vec<Item>> {
        self.runner
            .collections
            .get(&name.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| JsoniqError::Dynamic(format!("unknown collection '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_queries_over_loaded_collections() {
        let mut r = RumbleRunner::new();
        r.load("nums", (1..=4).map(Variant::Int));
        let out = r
            .query(r#"sum(for $x in collection("nums") where $x mod 2 eq 0 return $x)"#)
            .unwrap();
        assert_eq!(out, vec![Variant::Int(6)]);
    }

    #[test]
    fn matches_docstore_results() {
        use crate::docstore::DocStore;
        use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Int)],
            (0..20).map(|i| vec![Variant::Int(i)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        let mut rb = RumbleRunner::new();
        rb.load_from_table(&db, "T");
        let mut ds = DocStore::new();
        ds.load_from_table(&db, "T");
        let q = r#"for $t in collection("T") where $t.A lt 3 return $t.A"#;
        assert_eq!(rb.query(q).unwrap(), ds.query(q).unwrap());
    }
}
