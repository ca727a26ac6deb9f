//! Multi-version catalog: immutable snapshots plus optimistic commits.
//!
//! This is the engine's MVCC core, built on the same storage model Snowflake
//! gets its concurrency story from: table data lives in *immutable*
//! micro-partitions, so a catalog version is nothing but a map from table
//! names to partition lists — and a snapshot is a cheap `Arc` of that map.
//!
//! - A [`CatalogSnapshot`] is one committed catalog version. Every query and
//!   every explicit transaction pins one and binds/executes entirely against
//!   it, so concurrent DDL/DML can never change what an in-flight statement
//!   sees (no torn multi-table binds, no half-applied drops).
//! - A [`SharedCatalog`] holds the current snapshot behind a lock that is
//!   taken only to *swap* the `Arc` — readers never block writers and
//!   vice versa.
//! - Writers describe their intent as a [`WriteSet`] of per-table
//!   [`TableWrite`]s *relative to the snapshot they pinned*, prepared
//!   entirely off to the side (new partition files included). The commit
//!   point re-checks the intent against the *current* snapshot
//!   ([`CatalogSnapshot::apply`]): a compare-and-swap with partition-level
//!   conflict detection rather than a blind version equality test, so two
//!   appenders to the same table both commit, while a rewrite whose source
//!   partitions were concurrently removed surfaces a typed
//!   [`SnowError::WriteConflict`].
//!
//! Conflict rules (checked per table in the write set):
//!
//! | write | conflicts when |
//! |---|---|
//! | `Put` (load/replace) | table changed after the base snapshot |
//! | `Put { expect_absent }` (CREATE) | table exists in the current snapshot |
//! | `Append` (INSERT) | table dropped, or its schema changed |
//! | `Rewrite` (UPDATE/DELETE) | any source partition no longer live |
//! | `Drop` | never (a concurrent drop makes it a no-op) |
//!
//! Appends merge by construction: partitions are only ever added, so two
//! concurrent `INSERT`s into one table both land, in commit order — exactly
//! the behaviour of Snowflake's own metadata CAS.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use std::sync::MutexGuard;

use crate::error::{Result, SnowError};
use crate::plan::Catalog;
use crate::storage::{ScanSource, Table};

/// One table inside a committed snapshot.
#[derive(Clone, Debug)]
pub struct TableEntry {
    pub table: Arc<Table>,
    /// Catalog version at which this table last changed — the per-table
    /// grain of conflict detection.
    pub committed_at: u64,
}

/// One committed catalog version: an immutable map of table snapshots.
#[derive(Clone, Debug, Default)]
pub struct CatalogSnapshot {
    version: u64,
    tables: BTreeMap<String, TableEntry>,
    /// Store-side GC pin for this version's partition files. Attached by the
    /// engine when the snapshot is published (persistent databases only);
    /// every query clone of the snapshot shares it, so a file under an
    /// in-flight plan is never unlinked.
    pin: Option<Arc<crate::store::VersionPin>>,
}

impl CatalogSnapshot {
    pub(crate) fn new(version: u64, tables: BTreeMap<String, TableEntry>) -> CatalogSnapshot {
        CatalogSnapshot { version, tables, pin: None }
    }

    /// Attaches the store-side GC pin protecting this version's files.
    pub(crate) fn set_pin(&mut self, pin: Arc<crate::store::VersionPin>) {
        self.pin = Some(pin);
    }

    /// The committed version this snapshot pins.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Fetches a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(&name.to_ascii_uppercase()).map(|e| e.table.clone())
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// All entries (upper-cased name → entry).
    pub(crate) fn entries(&self) -> &BTreeMap<String, TableEntry> {
        &self.tables
    }

    /// Validates `set` (prepared against catalog version `base_version`)
    /// against *this* (current) snapshot and, if conflict-free, produces the
    /// successor snapshot at `self.version() + 1`. This is the optimistic
    /// compare-and-swap: pure, no I/O — the caller publishes the result only
    /// after the manifest commit succeeds.
    pub(crate) fn apply(&self, base_version: u64, set: &WriteSet) -> Result<CatalogSnapshot> {
        let new_version = self.version + 1;
        let mut tables = self.tables.clone();
        for (name, write) in &set.writes {
            let conflict = |detail: &str| {
                SnowError::write_conflict(name, base_version, self.version, detail)
            };
            match write {
                TableWrite::Put { table, expect_absent, .. } => {
                    if let Some(entry) = tables.get(name) {
                        if *expect_absent {
                            // CREATE raced a concurrent CREATE. (A table that
                            // already existed at the base snapshot is caught
                            // at statement time as a catalog error.)
                            return Err(conflict("table was created concurrently"));
                        }
                        if entry.committed_at > base_version {
                            return Err(conflict("table changed concurrently"));
                        }
                    }
                    tables.insert(
                        name.clone(),
                        TableEntry { table: table.clone(), committed_at: new_version },
                    );
                }
                TableWrite::Append { parts, schema, .. } => {
                    let Some(entry) = tables.get(name) else {
                        return Err(conflict("table was dropped concurrently"));
                    };
                    let cur = &entry.table;
                    // Appended partitions were built against the base schema;
                    // a concurrent reload may have changed it out from under
                    // them, and gluing mismatched partitions onto the new
                    // table would corrupt scans.
                    if cur.schema() != schema.as_slice() {
                        return Err(conflict("table schema changed concurrently"));
                    }
                    let mut partitions = cur.partitions().to_vec();
                    partitions.extend(parts.iter().cloned());
                    tables.insert(
                        name.clone(),
                        TableEntry {
                            table: Arc::new(Table::from_parts(
                                cur.name().to_string(),
                                cur.schema().to_vec(),
                                partitions,
                            )),
                            committed_at: new_version,
                        },
                    );
                }
                TableWrite::Rewrite { removed, added, .. } => {
                    let Some(entry) = tables.get(name) else {
                        return Err(conflict("table was dropped concurrently"));
                    };
                    let cur = &entry.table;
                    // Every source partition of the rewrite must still be
                    // live: if a concurrent UPDATE/DELETE (or a reload)
                    // replaced one, blindly swapping would silently undo
                    // that committed change.
                    for r in removed {
                        if !cur.partitions().iter().any(|p| Arc::ptr_eq(p, r)) {
                            return Err(conflict(
                                "a source partition of the rewrite was removed concurrently",
                            ));
                        }
                    }
                    let mut partitions: Vec<Arc<ScanSource>> = cur
                        .partitions()
                        .iter()
                        .filter(|p| !removed.iter().any(|r| Arc::ptr_eq(p, r)))
                        .cloned()
                        .collect();
                    partitions.extend(added.iter().cloned());
                    tables.insert(
                        name.clone(),
                        TableEntry {
                            table: Arc::new(Table::from_parts(
                                cur.name().to_string(),
                                cur.schema().to_vec(),
                                partitions,
                            )),
                            committed_at: new_version,
                        },
                    );
                }
                // A concurrent drop makes this drop an idempotent no-op.
                TableWrite::Drop => {
                    tables.remove(name);
                }
            }
        }
        Ok(CatalogSnapshot { version: new_version, tables, pin: None })
    }
}

impl Catalog for CatalogSnapshot {
    fn table(&self, name: &str) -> Option<Arc<Table>> {
        CatalogSnapshot::table(self, name)
    }
}

/// One table's intended change, prepared against a pinned base snapshot.
/// Partition data — including freshly written partition files, for a
/// persistent database — is fully prepared before commit; the write set only
/// carries the sources. Manifest-side file references are derived from the
/// disk-backed sources at commit time.
#[derive(Clone, Debug)]
pub enum TableWrite {
    /// Install a complete table snapshot: CREATE TABLE, CLONE and UNDROP
    /// (`expect_absent`), a load, or `persist_to`.
    Put { table: Arc<Table>, expect_absent: bool },
    /// INSERT: append partitions to whatever the table holds at commit time.
    /// Merges with any concurrent append. `schema` is the schema the new
    /// partitions were built against (conflict detection re-checks it).
    Append {
        parts: Vec<Arc<ScanSource>>,
        schema: Vec<crate::storage::ColumnDef>,
    },
    /// UPDATE/DELETE copy-on-write: replace `removed` (identified by `Arc`
    /// identity — partitions are immutable, so identity is version identity)
    /// with `added`.
    Rewrite {
        removed: Vec<Arc<ScanSource>>,
        added: Vec<Arc<ScanSource>>,
    },
    /// DROP TABLE.
    Drop,
}

/// A set of per-table writes committed atomically (one catalog version).
#[derive(Clone, Debug, Default)]
pub struct WriteSet {
    /// Upper-cased table name → write. One write per table.
    pub writes: Vec<(String, TableWrite)>,
}

impl WriteSet {
    pub fn single(name: &str, write: TableWrite) -> WriteSet {
        WriteSet { writes: vec![(name.to_ascii_uppercase(), write)] }
    }
}

/// The current catalog version plus the commit serialization point.
///
/// Readers call [`SharedCatalog::snapshot`] (an `Arc` clone under a read
/// lock); writers serialize on [`SharedCatalog::lock_commits`] for the
/// check-commit-publish critical section. Snapshot reads never wait on a
/// commit's manifest I/O: the write lock is only taken for the final swap.
#[derive(Debug)]
pub struct SharedCatalog {
    current: RwLock<Arc<CatalogSnapshot>>,
    commit_lock: Mutex<()>,
    /// Recently superseded snapshots, oldest first — the in-memory half of
    /// the retention window. Holding these (with their pins) keeps time
    /// travel to recent versions allocation-free and GC-safe; older retained
    /// versions are reconstructed from the manifest history instead.
    history: Mutex<std::collections::VecDeque<Arc<CatalogSnapshot>>>,
    /// Retention window (number of versions including current, ≥ 1).
    capacity: std::sync::atomic::AtomicU64,
}

impl Default for SharedCatalog {
    fn default() -> SharedCatalog {
        SharedCatalog::new(CatalogSnapshot::default())
    }
}

impl SharedCatalog {
    pub fn new(snapshot: CatalogSnapshot) -> SharedCatalog {
        SharedCatalog {
            current: RwLock::new(Arc::new(snapshot)),
            commit_lock: Mutex::new(()),
            history: Mutex::new(std::collections::VecDeque::new()),
            capacity: std::sync::atomic::AtomicU64::new(crate::store::DEFAULT_RETENTION),
        }
    }

    /// Pins the current committed snapshot.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.current.read().clone()
    }

    /// Serializes commits: hold the guard across conflict check, manifest
    /// commit, and [`SharedCatalog::publish`].
    pub(crate) fn lock_commits(&self) -> MutexGuard<'_, ()> {
        self.commit_lock.lock()
    }

    /// Publishes a new committed snapshot (caller holds the commit lock).
    /// The superseded snapshot moves into the in-memory history, bounded by
    /// the retention capacity.
    pub(crate) fn publish(&self, snapshot: Arc<CatalogSnapshot>) {
        debug_assert!(snapshot.version() > self.current.read().version());
        let prev = {
            let mut cur = self.current.write();
            std::mem::replace(&mut *cur, snapshot)
        };
        let keep = self.capacity.load(std::sync::atomic::Ordering::Relaxed).max(1) - 1;
        let mut history = self.history.lock();
        history.push_back(prev);
        while history.len() as u64 > keep {
            history.pop_front();
        }
    }

    /// A retained in-memory snapshot at exactly `version`, if still held.
    pub(crate) fn at_version(&self, version: u64) -> Option<Arc<CatalogSnapshot>> {
        let current = self.snapshot();
        if current.version() == version {
            return Some(current);
        }
        self.history
            .lock()
            .iter()
            .rev()
            .find(|s| s.version() == version)
            .cloned()
    }

    /// The in-memory retention window (number of versions including current).
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Re-bounds the in-memory retention window (truncating immediately).
    pub(crate) fn set_capacity(&self, versions: u64) {
        let versions = versions.max(1);
        self.capacity.store(versions, std::sync::atomic::Ordering::Relaxed);
        let mut history = self.history.lock();
        while history.len() as u64 > versions - 1 {
            history.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnDef, ColumnType, MemSink, TableBuilder};
    use crate::variant::Variant;

    fn table(name: &str, vals: &[i64]) -> Arc<Table> {
        let schema = vec![ColumnDef::new("A", ColumnType::Int)];
        let mut b = TableBuilder::new(name, schema, 2, Box::new(MemSink)).unwrap();
        for v in vals {
            b.push_row(&[Variant::Int(*v)]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn put(t: Arc<Table>) -> TableWrite {
        TableWrite::Put { table: t, expect_absent: false }
    }

    #[test]
    fn concurrent_appends_merge() {
        let base = CatalogSnapshot::default()
            .apply(0, &WriteSet::single("T", put(table("T", &[1, 2, 3]))))
            .unwrap();
        // Two writers pin version 1 and each prepare an append.
        let w1 = table("W1", &[10]);
        let w2 = table("W2", &[20]);
        let a1 = WriteSet::single(
            "T",
            TableWrite::Append {
                parts: w1.partitions().to_vec(),
                schema: vec![ColumnDef::new("A", ColumnType::Int)],
            },
        );
        let a2 = WriteSet::single(
            "T",
            TableWrite::Append {
                parts: w2.partitions().to_vec(),
                schema: vec![ColumnDef::new("A", ColumnType::Int)],
            },
        );
        let v2 = base.apply(base.version(), &a1).unwrap();
        // Writer 2 commits against v2 but prepared against v1: still merges.
        let v3 = v2.apply(base.version(), &a2).unwrap();
        assert_eq!(v3.table("T").unwrap().row_count(), 5);
        assert_eq!(v3.version(), 3);
    }

    #[test]
    fn rewrite_of_concurrently_removed_partition_conflicts() {
        let base = CatalogSnapshot::default()
            .apply(0, &WriteSet::single("T", put(table("T", &[1, 2, 3, 4]))))
            .unwrap();
        let victim = base.table("T").unwrap().partitions()[0].clone();
        // Writer A rewrites partition 0 and commits.
        let rw = |src: &Arc<ScanSource>| {
            WriteSet::single(
                "T",
                TableWrite::Rewrite {
                    removed: vec![src.clone()],
                    added: table("N", &[9]).partitions().to_vec(),
                },
            )
        };
        let v2 = base.apply(base.version(), &rw(&victim)).unwrap();
        // Writer B prepared a rewrite of the same (now dead) partition.
        let err = v2.apply(base.version(), &rw(&victim)).unwrap_err();
        assert!(matches!(err, SnowError::WriteConflict(_)), "{err}");
    }

    #[test]
    fn put_conflicts_only_when_table_changed_after_base() {
        let v1 = CatalogSnapshot::default()
            .apply(0, &WriteSet::single("T", put(table("T", &[1]))))
            .unwrap();
        let v2 = v1.apply(1, &WriteSet::single("T", put(table("T", &[2])))).unwrap();
        // A replace prepared at v1 now races the v2 replace.
        let err = v2.apply(1, &WriteSet::single("T", put(table("T", &[3])))).unwrap_err();
        assert!(matches!(err, SnowError::WriteConflict(_)), "{err}");
        // The same replace prepared at v2 is fine.
        assert!(v2.apply(2, &WriteSet::single("T", put(table("T", &[3])))).is_ok());
        // CREATE semantics conflict on any concurrent existence.
        let create = WriteSet::single(
            "T",
            TableWrite::Put { table: table("T", &[4]), expect_absent: true },
        );
        assert!(v2.apply(2, &create).is_err());
    }

    #[test]
    fn append_to_dropped_table_conflicts_and_drop_is_idempotent() {
        let v1 = CatalogSnapshot::default()
            .apply(0, &WriteSet::single("T", put(table("T", &[1]))))
            .unwrap();
        let v2 = v1.apply(1, &WriteSet::single("T", TableWrite::Drop)).unwrap();
        let append = WriteSet::single(
            "T",
            TableWrite::Append {
                parts: table("X", &[5]).partitions().to_vec(),
                schema: vec![ColumnDef::new("A", ColumnType::Int)],
            },
        );
        assert!(matches!(
            v2.apply(1, &append).unwrap_err(),
            SnowError::WriteConflict(_)
        ));
        // Dropping again is a no-op, not a conflict.
        let v3 = v2.apply(1, &WriteSet::single("T", TableWrite::Drop)).unwrap();
        assert!(v3.table("T").is_none());
    }
}
