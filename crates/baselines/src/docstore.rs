//! Document-store engine: the AsterixDB stand-in.
//!
//! The defining architectural property captured here is *parse-on-scan*:
//! collections are stored as serialized JSON text, and every query pays the
//! cost of parsing each document before evaluating the query tree over it row
//! at a time — the document-centric design the paper contrasts against
//! Snowflake's transparently columnarized `VARIANT` storage (§II-B, §VI).

use std::collections::HashMap;
use std::time::Instant;

use jsoniq_core::ast::{Item, JResult, JsoniqError};
use jsoniq_core::interp::{CollectionProvider, Interpreter};
use snowdb::variant::{parse_json, to_json, Object};
use snowdb::{Database, Variant};

/// A document store holding serialized JSON collections.
#[derive(Default)]
pub struct DocStore {
    collections: HashMap<String, Vec<String>>,
}

impl DocStore {
    pub fn new() -> DocStore {
        DocStore::default()
    }

    /// Loads a collection from items, serializing each to JSON text.
    pub fn load<I>(&mut self, name: &str, items: I)
    where
        I: IntoIterator<Item = Item>,
    {
        let docs = items.into_iter().map(|v| to_json(&v)).collect();
        self.collections.insert(name.to_string(), docs);
    }

    /// Copies a `snowdb` table into the store: each row becomes one JSON
    /// document keyed by column names, so all engines see identical data.
    pub fn load_from_table(&mut self, db: &Database, table: &str) {
        let t = db.table(table).unwrap_or_else(|| panic!("unknown table {table}"));
        let names: Vec<&str> = t.schema().iter().map(|c| c.name.as_str()).collect();
        let mut docs = Vec::with_capacity(t.row_count());
        for part in t.partitions() {
            let mem = part.to_mem().unwrap_or_else(|e| panic!("table {table}: {e}"));
            for r in 0..mem.row_count() {
                let mut obj = Object::with_capacity(names.len());
                for (i, n) in names.iter().enumerate() {
                    obj.insert(*n, mem.column(i).get(r));
                }
                docs.push(to_json(&Variant::object(obj)));
            }
        }
        self.collections.insert(table.to_ascii_uppercase(), docs);
    }

    /// Total serialized bytes of a collection.
    pub fn collection_bytes(&self, name: &str) -> u64 {
        self.collections
            .get(&name.to_ascii_uppercase())
            .map(|docs| docs.iter().map(|d| d.len() as u64).sum())
            .unwrap_or(0)
    }

    /// Number of documents.
    pub fn len(&self, name: &str) -> usize {
        self.collections.get(&name.to_ascii_uppercase()).map_or(0, Vec::len)
    }

    /// Runs a JSONiq query over the store, parsing documents on the scan path.
    pub fn query(&self, src: &str) -> JResult<Vec<Item>> {
        Interpreter::new(&ParseOnScan { store: self }).eval_query(src)
    }

    /// Like [`DocStore::query`] with a wall-clock deadline (the benchmark
    /// cutoff of the paper's §V-A).
    pub fn query_with_deadline(&self, src: &str, deadline: Instant) -> JResult<Vec<Item>> {
        Interpreter::with_deadline(&ParseOnScan { store: self }, deadline).eval_query(src)
    }
}

struct ParseOnScan<'a> {
    store: &'a DocStore,
}

impl CollectionProvider for ParseOnScan<'_> {
    fn collection(&self, name: &str) -> JResult<Vec<Item>> {
        let docs = self
            .store
            .collections
            .get(&name.to_ascii_uppercase())
            .ok_or_else(|| JsoniqError::Dynamic(format!("unknown collection '{name}'")))?;
        // The scan path parses every document — the cost that separates a
        // document store from a columnar engine.
        docs.iter()
            .map(|d| parse_json(d).map_err(|e| JsoniqError::Dynamic(e.to_string())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_query() {
        let mut ds = DocStore::new();
        ds.load(
            "T",
            (0..10).map(|i| {
                let mut o = Object::new();
                o.insert("X", Variant::Int(i));
                Variant::object(o)
            }),
        );
        let r = ds.query(r#"for $t in collection("T") where $t.X ge 8 return $t.X"#).unwrap();
        assert_eq!(r, vec![Variant::Int(8), Variant::Int(9)]);
    }

    #[test]
    fn mirrors_database_table() {
        use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Int)],
            (0..5).map(|i| vec![Variant::Int(i)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        let mut ds = DocStore::new();
        ds.load_from_table(&db, "T");
        assert_eq!(ds.len("T"), 5);
        assert!(ds.collection_bytes("T") > 0);
        let r = ds.query(r#"count(for $t in collection("T") return $t)"#).unwrap();
        assert_eq!(r, vec![Variant::Int(5)]);
    }

    #[test]
    fn deadline_aborts_long_queries() {
        let mut ds = DocStore::new();
        ds.load(
            "big",
            (0..2000).map(|i| {
                let mut o = Object::new();
                o.insert("X", Variant::Int(i));
                Variant::object(o)
            }),
        );
        // Quadratic self-join query with an already-expired deadline.
        let res = ds.query_with_deadline(
            r#"count(for $a in collection("big") for $b in collection("big")
                     where $a.X eq $b.X return 1)"#,
            Instant::now(),
        );
        assert!(matches!(res, Err(JsoniqError::Timeout)));
    }
}
