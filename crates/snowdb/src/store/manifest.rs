//! Versioned catalog manifest with atomic commit.
//!
//! The manifest is the single source of truth for what a persistent database
//! contains: a monotonically increasing version, the next partition-file
//! sequence number, and per table its schema plus the ordered list of live
//! partition files. Partition files themselves are immutable and are written
//! *before* the commit that references them — a file not reachable from the
//! committed manifest simply does not exist as far as readers are concerned
//! (crash debris is swept on the next open).
//!
//! Commit protocol (LevelDB-style, crash-atomic on POSIX semantics):
//!
//! ```text
//! 1. render the new manifest (version N+1) to MANIFEST.tmp
//! 2. fsync(MANIFEST.tmp)
//! 3. rename(MANIFEST.tmp -> MANIFEST)      # the atomic commit point
//! 4. fsync(directory)
//! ```
//!
//! A crash before step 3 leaves the old `MANIFEST` untouched (plus ignorable
//! debris); a crash after step 3 leaves the new version fully committed.
//! [`ChaosSite::ManifestCommit`] faults are injected immediately before the
//! temp write, between steps 2 and 3 (both simulate a crash whose recovery
//! must reopen the *previous* version), and after step 4 — a crash *after*
//! the atomic commit point, where recovery must instead conclude the commit
//! happened (the store resolves this by re-reading the on-disk manifest).
//!
//! The manifest is serialized as JSON via the crate's own
//! [`Variant`](crate::variant::Variant) parser/printer, so the store adds no
//! serialization dependency.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::error::{Result, SnowError};
use crate::govern::chaos::{ChaosSchedule, ChaosSite};
use crate::storage::{ColumnDef, ColumnType};
use crate::variant::{parse_json, to_json, Object, Variant};

/// Name of the committed manifest file inside the database directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Name of the commit-in-progress temp file.
pub const MANIFEST_TMP: &str = "MANIFEST.tmp";
/// Manifest serialization format version (2 = with version retention:
/// `retention` + `history`); readers accept exactly this one.
pub const MANIFEST_FORMAT: i64 = 2;
/// Default number of committed versions retained (current + 7 historical).
pub const DEFAULT_RETENTION: u64 = 8;

/// One live partition file of a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartRef {
    /// File name relative to the store's `parts/` directory.
    pub file: String,
    pub rows: usize,
}

/// Catalog entry for one table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableManifest {
    pub schema: Vec<ColumnDef>,
    pub partitions: Vec<PartRef>,
}

/// One retained *historical* catalog version: the full table set as it stood
/// when that version was current. Time travel and `UNDROP` reconstruct
/// tables from these records; GC keeps every partition file they reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionRecord {
    pub version: u64,
    pub tables: BTreeMap<String, TableManifest>,
}

/// The whole catalog at one committed version, plus the retained history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Committed catalog version; bumps by one per commit.
    pub version: u64,
    /// Next partition-file sequence number. Persisted so file names are never
    /// reused even across drop + crash + reopen.
    pub next_file: u64,
    /// How many committed versions to retain, counting the current one.
    /// Always ≥ 1; shrinking it evicts history on the next commit.
    pub retention: u64,
    pub tables: BTreeMap<String, TableManifest>,
    /// Strictly older retained versions, ascending by version. The newest
    /// history entry is the version immediately before `version`.
    pub history: Vec<VersionRecord>,
}

impl Default for Manifest {
    fn default() -> Manifest {
        Manifest {
            version: 0,
            next_file: 0,
            retention: DEFAULT_RETENTION,
            tables: BTreeMap::new(),
            history: Vec::new(),
        }
    }
}

fn storage(msg: impl Into<String>) -> SnowError {
    SnowError::Storage(msg.into())
}

fn tables_to_json(tables: &BTreeMap<String, TableManifest>) -> Variant {
    let list: Vec<Variant> = tables
        .iter()
        .map(|(name, t)| {
            let mut obj = Object::new();
            obj.insert("name", Variant::str(name));
            let cols: Vec<Variant> = t
                .schema
                .iter()
                .map(|c| {
                    let mut col = Object::new();
                    col.insert("name", Variant::str(&c.name));
                    col.insert("type", Variant::str(c.ty.name()));
                    Variant::object(col)
                })
                .collect();
            obj.insert("columns", Variant::array(cols));
            let parts: Vec<Variant> = t
                .partitions
                .iter()
                .map(|p| {
                    let mut part = Object::new();
                    part.insert("file", Variant::str(&p.file));
                    part.insert("rows", Variant::Int(p.rows as i64));
                    Variant::object(part)
                })
                .collect();
            obj.insert("partitions", Variant::array(parts));
            Variant::object(obj)
        })
        .collect();
    Variant::array(list)
}

fn tables_from_json(list: &[Variant]) -> Result<BTreeMap<String, TableManifest>> {
    let mut tables = BTreeMap::new();
    for t in list {
        let obj = t.as_object().ok_or_else(|| storage("table entry is not an object"))?;
        let name = field_str(obj, "name")?;
        let mut schema = Vec::new();
        for c in obj
            .get("columns")
            .and_then(Variant::as_array)
            .ok_or_else(|| storage(format!("table '{name}': 'columns' is not an array")))?
        {
            let col = c
                .as_object()
                .ok_or_else(|| storage(format!("table '{name}': column entry is not an object")))?;
            let cname = field_str(col, "name")?;
            let tyname = field_str(col, "type")?;
            let ty = ColumnType::parse(&tyname).ok_or_else(|| {
                storage(format!("table '{name}': unknown column type '{tyname}'"))
            })?;
            schema.push(ColumnDef::new(cname, ty));
        }
        let mut partitions = Vec::new();
        for p in obj
            .get("partitions")
            .and_then(Variant::as_array)
            .ok_or_else(|| storage(format!("table '{name}': 'partitions' is not an array")))?
        {
            let part = p
                .as_object()
                .ok_or_else(|| storage(format!("table '{name}': partition entry is not an object")))?;
            let file = field_str(part, "file")?;
            if file.contains('/') || file.contains("..") {
                return Err(storage(format!(
                    "table '{name}': partition file name '{file}' escapes the parts directory"
                )));
            }
            let rows = usize::try_from(field_int(part, "rows")?)
                .map_err(|_| storage(format!("table '{name}': negative row count")))?;
            partitions.push(PartRef { file, rows });
        }
        if tables.insert(name.clone(), TableManifest { schema, partitions }).is_some() {
            return Err(storage(format!("duplicate table '{name}' in manifest")));
        }
    }
    Ok(tables)
}

impl Manifest {
    /// Renders the manifest as canonical JSON text.
    pub fn to_json_text(&self) -> String {
        let mut root = Object::new();
        root.insert("format", Variant::Int(MANIFEST_FORMAT));
        root.insert("version", Variant::Int(self.version as i64));
        root.insert("next_file", Variant::Int(self.next_file as i64));
        root.insert("retention", Variant::Int(self.retention as i64));
        root.insert("tables", tables_to_json(&self.tables));
        let history: Vec<Variant> = self
            .history
            .iter()
            .map(|rec| {
                let mut obj = Object::new();
                obj.insert("version", Variant::Int(rec.version as i64));
                obj.insert("tables", tables_to_json(&rec.tables));
                Variant::object(obj)
            })
            .collect();
        root.insert("history", Variant::array(history));
        to_json(&Variant::object(root))
    }

    /// Parses manifest JSON; every malformation is a typed `Storage` error.
    pub fn from_json_text(text: &str) -> Result<Manifest> {
        let v = parse_json(text).map_err(|e| storage(format!("manifest is not valid JSON: {e}")))?;
        let root = v.as_object().ok_or_else(|| storage("manifest root is not an object"))?;
        let format = field_int(root, "format")?;
        if format != MANIFEST_FORMAT {
            return Err(storage(format!(
                "unsupported manifest format {format} (expected {MANIFEST_FORMAT})"
            )));
        }
        let version = u64::try_from(field_int(root, "version")?)
            .map_err(|_| storage("manifest version is negative"))?;
        let next_file = u64::try_from(field_int(root, "next_file")?)
            .map_err(|_| storage("manifest next_file is negative"))?;
        let list = root
            .get("tables")
            .and_then(Variant::as_array)
            .ok_or_else(|| storage("manifest 'tables' is not an array"))?;
        let tables = tables_from_json(list)?;
        let retention = u64::try_from(field_int(root, "retention")?)
            .ok()
            .filter(|&r| r >= 1)
            .ok_or_else(|| storage("manifest retention must be ≥ 1"))?;
        let mut history = Vec::new();
        let mut prev: Option<u64> = None;
        for rec in root
            .get("history")
            .and_then(Variant::as_array)
            .ok_or_else(|| storage("manifest 'history' is not an array"))?
        {
            let obj = rec
                .as_object()
                .ok_or_else(|| storage("history entry is not an object"))?;
            let hv = u64::try_from(field_int(obj, "version")?)
                .map_err(|_| storage("history version is negative"))?;
            if hv >= version || prev.is_some_and(|p| hv <= p) {
                return Err(storage(format!(
                    "history version {hv} out of order (current {version})"
                )));
            }
            prev = Some(hv);
            let list = obj
                .get("tables")
                .and_then(Variant::as_array)
                .ok_or_else(|| storage("history 'tables' is not an array"))?;
            history.push(VersionRecord { version: hv, tables: tables_from_json(list)? });
        }
        Ok(Manifest { version, next_file, retention, tables, history })
    }

    /// Every partition file referenced by the current version *or* any
    /// retained historical version — the GC live set.
    pub fn all_files(&self) -> std::collections::HashSet<String> {
        let mut live: std::collections::HashSet<String> = self
            .tables
            .values()
            .flat_map(|t| t.partitions.iter().map(|p| p.file.clone()))
            .collect();
        for rec in &self.history {
            live.extend(rec.tables.values().flat_map(|t| t.partitions.iter().map(|p| p.file.clone())));
        }
        live
    }

    /// Pushes the current version onto the history. Called at the start of
    /// every commit, *before* the version bump and mutation, so each commit
    /// retains its predecessor — eviction by [`Manifest::enforce_retention`]
    /// is then the only point where a file can become unreferenced. The
    /// initial empty version 0 is never archived: an empty catalog holds no
    /// files to protect and is not worth a retention slot.
    pub fn archive_current(&mut self) {
        if self.version == 0 {
            return;
        }
        self.history.push(VersionRecord {
            version: self.version,
            tables: self.tables.clone(),
        });
    }

    /// Drops history entries beyond the retention window (current version
    /// counts as one slot) and returns the evicted records — the GC's unlink
    /// candidates.
    pub fn enforce_retention(&mut self) -> Vec<VersionRecord> {
        let keep = self.retention.max(1).saturating_sub(1) as usize;
        if self.history.len() <= keep {
            return Vec::new();
        }
        let evict = self.history.len() - keep;
        self.history.drain(..evict).collect()
    }

    /// The table set as of `version`: the current tables when `version` is
    /// current, else the retained history record. `None` when the version
    /// was never committed or has been evicted from retention.
    pub fn tables_at(&self, version: u64) -> Option<&BTreeMap<String, TableManifest>> {
        if version == self.version {
            return Some(&self.tables);
        }
        self.history
            .iter()
            .rev()
            .find(|rec| rec.version == version)
            .map(|rec| &rec.tables)
    }

    /// Retained versions, ascending (history then current).
    pub fn retained_versions(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.history.iter().map(|r| r.version).collect();
        v.push(self.version);
        v
    }
}

fn field_int(obj: &Object, key: &str) -> Result<i64> {
    obj.get(key)
        .and_then(Variant::as_i64)
        .ok_or_else(|| storage(format!("manifest field '{key}' missing or not an integer")))
}

fn field_str(obj: &Object, key: &str) -> Result<String> {
    obj.get(key)
        .and_then(Variant::as_str)
        .map(str::to_string)
        .ok_or_else(|| storage(format!("manifest field '{key}' missing or not a string")))
}

/// Reads the committed manifest, or `None` when the directory has never
/// committed one (a fresh database).
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(storage(format!("{}: read: {e}", path.display()))),
    };
    Manifest::from_json_text(&text)
        .map(Some)
        .map_err(|e| match e {
            SnowError::Storage(m) => storage(format!("{}: {m}", path.display())),
            other => other,
        })
}

/// A [`ChaosSite::ManifestCommit`] injection point. Faults — including the
/// schedule's injected *panics* — surface as typed `Storage` errors: the
/// commit path runs on the caller's thread, outside the morsel layer's
/// panic isolation, so the crash simulation is contained right here.
fn chaos_point(chaos: Option<&ChaosSchedule>, op: &str) -> Result<()> {
    let Some(schedule) = chaos else { return Ok(()) };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        schedule.maybe_inject(ChaosSite::ManifestCommit, op)
    })) {
        Ok(r) => r,
        Err(payload) => Err(storage(format!(
            "simulated crash during manifest commit: {}",
            crate::govern::panic_message(&*payload)
        ))),
    }
}

/// Atomically commits `manifest` into `dir` using the temp-write → fsync →
/// rename → fsync-dir protocol. On any error (real I/O or injected fault)
/// the previously committed manifest remains the visible version.
pub fn commit_manifest(
    dir: &Path,
    manifest: &Manifest,
    chaos: Option<&ChaosSchedule>,
) -> Result<()> {
    let tmp = dir.join(MANIFEST_TMP);
    let dst = dir.join(MANIFEST_FILE);
    let text = manifest.to_json_text();

    chaos_point(chaos, "ManifestCommit/prepare")?;

    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| storage(format!("{}: create: {e}", tmp.display())))?;
    f.write_all(text.as_bytes())
        .map_err(|e| storage(format!("{}: write: {e}", tmp.display())))?;
    f.sync_all()
        .map_err(|e| storage(format!("{}: fsync: {e}", tmp.display())))?;
    drop(f);

    // The crash-injection point the recovery test targets: the temp file is
    // durable but the rename has not happened — reopen must see the old
    // version and ignore the debris.
    chaos_point(chaos, "ManifestCommit/rename")?;

    std::fs::rename(&tmp, &dst)
        .map_err(|e| storage(format!("{} -> {}: rename: {e}", tmp.display(), dst.display())))?;
    if let Ok(d) = std::fs::File::open(dir) {
        // Directory fsync makes the rename durable; best-effort on
        // filesystems that reject directory handles.
        let _ = d.sync_all();
    }

    // Crash *after* the commit point: the new version is durable on disk but
    // the caller has not yet observed success. Recovery (or the store's
    // resync-on-error path) must conclude the commit happened — the CAS
    // ambiguity every distributed commit protocol has to resolve.
    chaos_point(chaos, "ManifestCommit/publish")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut tables = BTreeMap::new();
        tables.insert(
            "hep".to_string(),
            TableManifest {
                schema: vec![
                    ColumnDef::new("RUN", ColumnType::Int),
                    ColumnDef::new("MET", ColumnType::Variant),
                ],
                partitions: vec![
                    PartRef { file: "p0.part".into(), rows: 4096 },
                    PartRef { file: "p1.part".into(), rows: 17 },
                ],
            },
        );
        tables.insert(
            "empty".to_string(),
            TableManifest {
                schema: vec![ColumnDef::new("X", ColumnType::Str)],
                partitions: vec![],
            },
        );
        Manifest { version: 42, next_file: 7, tables, ..Manifest::default() }
    }

    #[test]
    fn manifest_json_roundtrip() {
        let m = sample();
        let text = m.to_json_text();
        let back = Manifest::from_json_text(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_history_roundtrips() {
        let mut m = sample();
        m.retention = 3;
        m.archive_current();
        m.history[0].version = 41;
        m.tables.remove("empty");
        let text = m.to_json_text();
        let back = Manifest::from_json_text(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.history.len(), 1);
        assert_eq!(back.tables_at(41).unwrap().len(), 2);
        assert_eq!(back.tables_at(42).unwrap().len(), 1);
        assert!(back.tables_at(40).is_none());
        assert_eq!(back.retained_versions(), vec![41, 42]);
    }

    #[test]
    fn retention_eviction_returns_oldest_records() {
        let mut m = Manifest { retention: 3, ..Manifest::default() };
        for v in 0..6 {
            m.archive_current();
            m.version = v + 1;
            let evicted = m.enforce_retention();
            // With retention 3 the first evictions start once history holds
            // more than two entries.
            for rec in &evicted {
                assert!(rec.version + 2 < m.version);
            }
        }
        assert_eq!(m.history.len(), 2);
        assert_eq!(m.retained_versions(), vec![4, 5, 6]);
    }

    #[test]
    fn malformed_manifests_fail_typed() {
        for bad in [
            "not json at all",
            "[1,2,3]",
            "{\"format\": 99, \"version\": 1, \"next_file\": 0, \"tables\": []}",
            // The retired pre-retention format.
            "{\"format\": 1, \"version\": 5, \"next_file\": 2, \"tables\": []}",
            "{\"format\": 2, \"version\": 1, \"next_file\": 0, \"tables\": 3}",
            "{\"format\": 2, \"version\": 1, \"next_file\": 0, \"tables\": \
             [{\"name\": \"t\", \"columns\": [{\"name\": \"a\", \"type\": \"NOPE\"}], \"partitions\": []}]}",
            // Path traversal in a partition file name is rejected.
            "{\"format\": 2, \"version\": 1, \"next_file\": 0, \"tables\": \
             [{\"name\": \"t\", \"columns\": [], \"partitions\": [{\"file\": \"../evil\", \"rows\": 1}]}]}",
        ] {
            let err = Manifest::from_json_text(bad).unwrap_err();
            assert!(matches!(err, SnowError::Storage(_)), "{bad} -> {err}");
        }
    }

    #[test]
    fn commit_then_read_roundtrips_and_is_atomic_over_rewrites() {
        let dir = std::env::temp_dir().join(format!("snowdb-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_manifest(&dir).unwrap().is_none());
        let mut m = sample();
        commit_manifest(&dir, &m, None).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().unwrap(), m);
        // A second commit replaces the manifest atomically.
        m.version += 1;
        m.tables.remove("empty");
        commit_manifest(&dir, &m, None).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().unwrap(), m);
        assert!(!dir.join(MANIFEST_TMP).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
