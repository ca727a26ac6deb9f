//! Micro-partitioned columnar storage.
//!
//! Models the storage properties of §II-B of the paper:
//! - tables are horizontally sharded into *micro-partitions* of bounded size;
//! - within a partition, data is stored per column;
//! - declared scalar columns are shredded into typed vectors once, at ingest
//!   ("transparent columnarization / lowest common type"), `VARIANT` columns
//!   are kept as parsed values; both are [`ColumnVec`]s — the column type the
//!   partition file codec, the buffer cache and the executor also hold, so a
//!   scan slices the stored column instead of converting it;
//! - each partition keeps one metadata record per column ([`ColumnMeta`]:
//!   stored type, byte cost, statistics), whose bounds and null count the
//!   executor uses to prune partitions;
//! - every scan accounts the bytes of the columns it actually touches, which is
//!   the quantity reported in the paper's §V-E.

pub mod encode;
pub mod ingest;
pub mod morsel;
pub mod stats;
mod table;

pub use encode::encode_from_env;
pub use ingest::{IngestReport, StreamIngestor};
pub use stats::{ColumnStats, KmvSketch, TableStats};
pub use table::{
    ColumnDef, MemSink, MicroPartition, PartitionSink, Table, TableBuilder,
    DEFAULT_PARTITION_ROWS,
};

use std::sync::Arc;

use crate::column::ColumnVec;
use crate::error::Result;
use crate::govern::QueryGovernor;
use crate::store::cache::CacheOutcome;
use crate::store::DiskPartition;
use crate::variant::Variant;

/// Declared type of a table column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer (`NUMBER(38,0)` in the paper's staging).
    Int,
    /// 64-bit float (`DOUBLE`).
    Float,
    /// Boolean.
    Bool,
    /// UTF-8 string (`VARCHAR`).
    Str,
    /// Schema-less nested value (`VARIANT`).
    Variant,
}

impl ColumnType {
    /// Canonical SQL type name; round-trips through [`ColumnType::parse`]
    /// (used by the persistent store's manifest).
    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Bool => "BOOLEAN",
            ColumnType::Str => "VARCHAR",
            ColumnType::Variant => "VARIANT",
        }
    }

    /// Parses a SQL type name.
    pub fn parse(name: &str) -> Option<ColumnType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "NUMBER" => Some(ColumnType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Some(ColumnType::Float),
            "BOOLEAN" | "BOOL" => Some(ColumnType::Bool),
            "VARCHAR" | "STRING" | "TEXT" | "CHAR" => Some(ColumnType::Str),
            "VARIANT" | "OBJECT" | "ARRAY" => Some(ColumnType::Variant),
            _ => None,
        }
    }
}

/// The type a stored column actually holds, which the partition file records
/// per block. For a column promoted to boxed variants mid-ingest this is
/// [`ColumnType::Variant`] regardless of the declared schema type — the
/// decoder must read back what was encoded.
pub fn stored_type(col: &ColumnVec) -> ColumnType {
    match col {
        ColumnVec::Int { .. } => ColumnType::Int,
        ColumnVec::Float { .. } => ColumnType::Float,
        ColumnVec::Bool { .. } => ColumnType::Bool,
        ColumnVec::Str(_) | ColumnVec::DictStr { .. } => ColumnType::Str,
        ColumnVec::Runs { values, .. } => stored_type(values),
        ColumnVec::Objects(_) | ColumnVec::List(_) | ColumnVec::Var(_) | ColumnVec::Null(_) => {
            ColumnType::Variant
        }
    }
}

/// What a partition knows of one column without reading it: the one
/// metadata record per partition column, built at seal
/// ([`MicroPartition`]) and decoded from the partition file's footer
/// ([`DiskPartition`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnMeta {
    /// The type the column stores ([`stored_type`]).
    pub ty: ColumnType,
    /// Cost of reading the column: its estimated in-memory size (memory) or
    /// its exact encoded block length (disk). This is what a scan *saves* by
    /// pruning the partition or skipping the column.
    pub bytes: u64,
    /// Row and null counts, distinct-value sketch and histogram.
    pub stats: ColumnStats,
}

impl ColumnMeta {
    /// The record of a sealed column.
    pub fn of(col: &ColumnVec) -> ColumnMeta {
        ColumnMeta {
            ty: stored_type(col),
            bytes: col.estimated_size(),
            stats: ColumnStats::build(col),
        }
    }

    /// Can a row of this column satisfy `value <cmp> lit`? Only a scalar
    /// column with rows is decided ([`ColumnStats::may_match`]); a `VARIANT`
    /// column or an empty one always may — it is never pruned on, matching
    /// the paper's note that pruning works on micro-partition-level metadata
    /// for addressable columns.
    pub fn may_match(&self, cmp: &str, lit: &Variant) -> bool {
        self.ty == ColumnType::Variant || self.stats.rows == 0 || self.stats.may_match(cmp, lit)
    }
}

/// One micro-partition as the scan operator sees it: either fully resident
/// in memory or backed by an immutable partition file that is read lazily,
/// one column block at a time.
///
/// This is the abstraction that makes pruning *real*: the executor consults
/// only [`ScanSource::columns`] — metadata, free of data I/O — to decide what
/// to read, and then fetches exactly the surviving columns via
/// [`ScanSource::read_column_governed`].
/// For a disk partition, a pruned partition or an unprojected column
/// therefore contributes **zero** file bytes to `bytes_scanned`.
#[derive(Debug)]
pub enum ScanSource {
    /// A memory-resident partition (the default for non-persistent tables).
    Mem(MicroPartition),
    /// A partition file of a persistent database, read lazily through the
    /// store's shared buffer cache.
    Disk(DiskPartition),
}

/// Result of materializing one column from a [`ScanSource`].
#[derive(Clone, Debug)]
pub struct ColumnRead {
    /// The column, shared with the partition (memory) or the buffer cache
    /// (disk).
    pub data: Arc<ColumnVec>,
    /// Bytes charged to `bytes_scanned`: the estimated in-memory size for
    /// memory partitions; the *exact file bytes read* for disk partitions —
    /// zero on a buffer-cache hit.
    pub io_bytes: u64,
    /// Decoded bytes newly materialized by this read (charged against the
    /// query's memory budget); zero for memory partitions and cache hits.
    pub mem_bytes: u64,
    /// Cache accounting for disk reads; `None` for memory partitions.
    pub cache: Option<CacheOutcome>,
}

impl ScanSource {
    /// The metadata record of every column, in schema order: sealed with a
    /// memory partition, decoded from a disk partition's footer.
    pub fn columns(&self) -> &[ColumnMeta] {
        match self {
            ScanSource::Mem(p) => p.columns(),
            ScanSource::Disk(p) => &p.meta().columns,
        }
    }

    /// Number of rows in the partition.
    pub fn row_count(&self) -> usize {
        self.columns().first().map_or(0, |c| c.stats.rows as usize)
    }

    /// Optimizer statistics for column `i`.
    pub fn column_stats(&self, i: usize) -> &ColumnStats {
        &self.columns()[i].stats
    }

    /// Cost of reading column `i` ([`ColumnMeta::bytes`]).
    pub fn column_bytes(&self, i: usize) -> u64 {
        self.columns()[i].bytes
    }

    /// Sum of [`ScanSource::column_bytes`] over all columns.
    pub fn total_bytes(&self) -> u64 {
        self.columns().iter().map(|c| c.bytes).sum()
    }

    /// True for disk-backed partitions.
    pub fn is_disk(&self) -> bool {
        matches!(self, ScanSource::Disk(_))
    }

    /// The memory partition, when this source is memory-resident.
    pub fn as_mem(&self) -> Option<&MicroPartition> {
        match self {
            ScanSource::Mem(p) => Some(p),
            ScanSource::Disk(_) => None,
        }
    }

    /// Materializes column `i` under the query's governor. Disk reads pass a
    /// [`StoreRead`](crate::govern::chaos::ChaosSite::StoreRead) checkpoint
    /// first, then consult the buffer cache, and only on a miss touch the
    /// file — charging exactly the block's bytes.
    pub fn read_column_governed(
        &self,
        i: usize,
        gov: &QueryGovernor,
        op: &str,
    ) -> Result<ColumnRead> {
        match self {
            ScanSource::Mem(p) => Ok(ColumnRead {
                data: p.column_arc(i),
                io_bytes: self.column_bytes(i),
                mem_bytes: 0,
                cache: None,
            }),
            ScanSource::Disk(p) => p.read_column_governed(i, gov, op),
        }
    }

    /// Ungoverned convenience read (catalog maintenance, baselines, tests).
    pub fn read_column(&self, i: usize) -> Result<Arc<ColumnVec>> {
        Ok(self
            .read_column_governed(i, &QueryGovernor::unbounded(), "Scan")?
            .data)
    }

    /// Fully materializes the partition in memory (persistence round-trips,
    /// `INSERT` table rebuilds). Cheap for memory partitions — columns are
    /// `Arc`-shared, not copied.
    pub fn to_mem(&self) -> Result<MicroPartition> {
        match self {
            ScanSource::Mem(p) => Ok(p.clone()),
            ScanSource::Disk(p) => {
                let cols = (0..p.meta().columns.len())
                    .map(|i| self.read_column(i))
                    .collect::<Result<Vec<_>>>()?;
                Ok(MicroPartition::from_arc_columns(cols))
            }
        }
    }
}

/// Accumulated scan statistics for one query execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// Bytes of column data actually read (referenced columns of non-pruned
    /// partitions) — the §V-E metric. Estimated in-memory bytes for memory
    /// tables; **exact file bytes read** for disk tables (cache hits cost 0).
    pub bytes_scanned: u64,
    /// Total partitions considered across all scans.
    pub partitions_total: u64,
    /// Partitions actually read after pruning.
    pub partitions_scanned: u64,
    /// Partitions excluded by pruning (`total - scanned`, kept
    /// explicitly so merged multi-scan stats stay interpretable).
    pub partitions_pruned: u64,
    /// Column blocks of scanned partitions skipped by projection pruning.
    pub columns_skipped: u64,
    /// Bytes *not* read thanks to partition pruning and column skipping —
    /// the saved-I/O counterpart of `bytes_scanned`, uniform across memory
    /// and disk scans.
    pub bytes_skipped: u64,
    /// Rows produced by scans.
    pub rows_scanned: u64,
    /// Buffer-cache hits (disk scans only).
    pub cache_hits: u64,
    /// Buffer-cache misses, i.e. column blocks fetched from files.
    pub cache_misses: u64,
    /// Blocks evicted from the buffer cache while this query loaded blocks.
    pub cache_evictions: u64,
    /// Missed blocks the buffer cache did not keep (admission refused them,
    /// or they exceed its capacity).
    pub cache_not_admitted: u64,
}

impl ScanStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &ScanStats) {
        self.bytes_scanned += other.bytes_scanned;
        self.partitions_total += other.partitions_total;
        self.partitions_scanned += other.partitions_scanned;
        self.partitions_pruned += other.partitions_pruned;
        self.columns_skipped += other.columns_skipped;
        self.bytes_skipped += other.bytes_skipped;
        self.rows_scanned += other.rows_scanned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_not_admitted += other.cache_not_admitted;
    }

    /// Folds one column access outcome into the stats.
    pub fn record_read(&mut self, read: &ColumnRead) {
        self.bytes_scanned += read.io_bytes;
        if let Some(c) = read.cache {
            if c.hit {
                self.cache_hits += 1;
            } else {
                self.cache_misses += 1;
            }
            self.cache_evictions += c.evictions;
            self.cache_not_admitted += u64::from(c.not_admitted);
        }
    }
}


#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::*;
    use crate::column::Bitmap;
    use crate::variant::{cmp_variants, Object};

    const CMPS: [&str; 8] = ["=", "<", "<=", ">", ">=", "<>", "IS NULL", "IS NOT NULL"];

    #[test]
    fn the_record_holds_the_bounds_with_nulls() {
        let mut c = ColumnVec::new();
        for v in [3.0, -1.0, 7.5] {
            c.push(Variant::Float(v));
        }
        c.push(Variant::Null);
        let meta = ColumnMeta::of(&c);
        assert_eq!(meta.ty, ColumnType::Float);
        assert_eq!(meta.bytes, c.estimated_size());
        let h = &meta.stats.histogram;
        assert_eq!((h.first(), h.last()), (Some(&Variant::Float(-1.0)), Some(&Variant::Float(7.5))));
        assert_eq!(meta.stats.nulls, 1);
    }

    #[test]
    fn variant_and_empty_columns_never_prune() {
        let var = ColumnMeta::of(&ColumnVec::Var(vec![Variant::Int(1)]));
        let empty = ColumnMeta::of(&ColumnVec::Int { vals: Vec::new(), valid: Bitmap::new() });
        let nulls = ColumnMeta::of(&ColumnVec::Null(3));
        for meta in [var, empty, nulls] {
            for cmp in CMPS {
                for lit in [Variant::Int(1), Variant::Int(-7), Variant::Null] {
                    assert!(meta.may_match(cmp, &lit), "{meta:?} {cmp} {lit:?}");
                }
            }
        }
    }

    #[test]
    fn an_all_null_typed_column_has_null_bounds() {
        let c = ColumnVec::Int { vals: vec![0, 0], valid: Bitmap::nulls(2) };
        let meta = ColumnMeta::of(&c);
        assert!(meta.stats.histogram.is_empty());
        assert_eq!(meta.stats.nulls, 2);
        // No comparison can match an all-null partition...
        for cmp in ["=", "<", "<=", ">", ">=", "<>"] {
            assert!(!meta.may_match(cmp, &Variant::Int(0)), "{cmp} kept all-null");
        }
        // ...but IS NULL must keep it, and IS NOT NULL must prune it.
        assert!(meta.may_match("IS NULL", &Variant::Null));
        assert!(!meta.may_match("IS NOT NULL", &Variant::Null));
    }

    /// The bounds and null count of a pass over the cells under
    /// [`cmp_variants`]: the reference the record must equal.
    struct Reference {
        min: Option<Variant>,
        max: Option<Variant>,
        nulls: u64,
        cells: Vec<Variant>,
    }

    impl Reference {
        fn of(col: &ColumnVec) -> Reference {
            let cells: Vec<Variant> = (0..col.len()).map(|i| col.get(i)).collect();
            let present = cells.iter().filter(|v| !v.is_null());
            Reference {
                min: present.clone().min_by(|a, b| cmp_variants(a, b)).cloned(),
                max: present.max_by(|a, b| cmp_variants(a, b)).cloned(),
                nulls: cells.iter().filter(|v| v.is_null()).count() as u64,
                cells,
            }
        }

        /// The pruning decision on the reference bounds: a scalar column
        /// with rows is decided from its bounds and null count, any other
        /// column always may match.
        fn may_match(&self, ty: ColumnType, cmp: &str, lit: &Variant) -> bool {
            use Ordering::*;
            if ty == ColumnType::Variant || self.cells.is_empty() {
                return true;
            }
            let (Some(min), Some(max)) = (&self.min, &self.max) else {
                return cmp == "IS NULL";
            };
            let (lo, hi) = (cmp_variants(min, lit), cmp_variants(max, lit));
            match cmp {
                "IS NULL" => self.nulls > 0,
                "IS NOT NULL" => true,
                "=" => lo != Greater && hi != Less,
                "<" => lo == Less,
                "<=" => lo != Greater,
                ">" => hi == Greater,
                ">=" => hi != Less,
                "<>" => !(lo == Equal && hi == Equal),
                _ => unreachable!("{cmp}"),
            }
        }

        /// Does some cell satisfy `cell <cmp> lit`?
        fn some_row_matches(&self, cmp: &str, lit: &Variant) -> bool {
            self.cells.iter().any(|v| match cmp {
                "IS NULL" => v.is_null(),
                "IS NOT NULL" => !v.is_null(),
                _ if v.is_null() || lit.is_null() => false,
                _ => {
                    let c = cmp_variants(v, lit);
                    match cmp {
                        "=" => c.is_eq(),
                        "<" => c.is_lt(),
                        "<=" => c.is_le(),
                        ">" => c.is_gt(),
                        ">=" => c.is_ge(),
                        _ => c.is_ne(),
                    }
                }
            })
        }
    }

    /// Literals at, just below and just above `v`, of its type and across
    /// numeric types.
    fn around(v: &Variant) -> Vec<Variant> {
        match v {
            Variant::Int(i) => vec![
                Variant::Int(*i),
                Variant::Int(i.saturating_sub(1)),
                Variant::Int(i.saturating_add(1)),
                Variant::Float(*i as f64),
                Variant::Float(*i as f64 - 0.5),
                Variant::Float(*i as f64 + 0.5),
            ],
            Variant::Float(f) => vec![
                Variant::Float(*f),
                Variant::Float(f.next_down()),
                Variant::Float(f.next_up()),
                Variant::Int(f.floor() as i64),
                Variant::Int(f.ceil() as i64),
            ],
            Variant::Bool(b) => vec![Variant::Bool(*b), Variant::Bool(!*b)],
            Variant::Str(s) => vec![
                v.clone(),
                Variant::str(format!("{s}\0")),
                Variant::str(&s[..s.char_indices().last().map_or(0, |(i, _)| i)]),
            ],
            other => vec![other.clone()],
        }
    }

    /// Every `ColumnVec` representation on random data: the record's bounds
    /// and null count equal a pass over the cells, and for every comparison
    /// against literals around those bounds (and a few fixed ones) the
    /// pruning decision equals the reference's and never drops a partition
    /// holding a matching row.
    #[test]
    fn pruning_from_the_record_equals_a_pass_over_the_cells() {
        let state = std::cell::Cell::new(0x5eed_u64);
        let next = |n: u64| {
            state.set(crate::govern::chaos::splitmix64(state.get()));
            state.get() % n
        };
        let floats = [0.0, -0.0, 1.5, -2.25, f64::NAN, 1e300, -1e300, 3.0];
        let strs = ["", "a", "ab", "b", "zz", "é"];
        for round in 0..40 {
            let rows = [1, 2, 7, 33, 200][round % 5];
            let valid = |p: u64| Bitmap::from_fn(rows, |_| next(p) != 0);
            let mut cols: Vec<(&str, ColumnVec)> = Vec::new();
            let ints: Vec<i64> = (0..rows)
                .map(|_| match next(6) {
                    0 => i64::MAX,
                    1 => i64::MIN,
                    2 => (1 << 53) + next(3) as i64,
                    _ => next(40) as i64 - 20,
                })
                .collect();
            cols.push(("Int", ColumnVec::Int { vals: ints, valid: valid(4) }));
            let fs = (0..rows).map(|_| floats[next(8) as usize]).collect();
            cols.push(("Float", ColumnVec::Float { vals: fs, valid: valid(4) }));
            let bs = (0..rows).map(|_| next(2) == 0).collect();
            cols.push(("Bool", ColumnVec::Bool { vals: bs, valid: valid(3) }));
            let str_at = |_| (next(5) != 0).then(|| Arc::from(strs[next(6) as usize]));
            cols.push(("Str", ColumnVec::Str((0..rows).map(str_at).collect())));
            let dict: Vec<Arc<str>> = strs.iter().map(|&s| Arc::from(s)).collect();
            let codes = (0..rows)
                .map(|_| if next(5) == 0 { crate::column::NULL_CODE } else { next(6) as u32 })
                .collect();
            cols.push(("DictStr", ColumnVec::DictStr { codes, dict: Arc::new(dict) }));
            let mut ends = Vec::new();
            let mut end = 0;
            while end < rows {
                end = (end + 1 + next(4) as usize).min(rows);
                ends.push(end as u32);
            }
            let runs = ends.len();
            let run_ints = (0..runs).map(|_| next(10) as i64 - 5).collect();
            let run_valid = Bitmap::from_fn(runs, |_| next(4) != 0);
            let int_runs = ColumnVec::Int { vals: run_ints, valid: run_valid.clone() };
            let int_runs = ColumnVec::Runs { ends: ends.clone(), values: Box::new(int_runs) };
            cols.push(("Runs(Int)", int_runs));
            let run_bools = (0..runs).map(|_| next(2) == 0).collect();
            let bool_runs = ColumnVec::Bool { vals: run_bools, valid: run_valid };
            cols.push(("Runs(Bool)", ColumnVec::Runs { ends, values: Box::new(bool_runs) }));
            let all_null = ColumnVec::Float { vals: vec![0.0; rows], valid: Bitmap::nulls(rows) };
            cols.push(("all-NULL Float", all_null));
            cols.push(("Null(n)", ColumnVec::Null(rows)));
            let var = (0..rows)
                .map(|_| match next(4) {
                    0 => Variant::Null,
                    1 => Variant::Int(next(9) as i64),
                    2 => Variant::str(strs[next(6) as usize]),
                    _ => Variant::array(vec![Variant::Int(next(3) as i64)]),
                })
                .collect();
            cols.push(("Var", ColumnVec::Var(var)));
            let record = |next: &dyn Fn(u64) -> u64| {
                let mut o = Object::new();
                o.insert("I", Variant::Int(next(7) as i64 - 3));
                o.insert("S", Variant::str(strs[next(6) as usize]));
                Variant::object(o)
            };
            let objects = (0..rows)
                .map(|r| if r > 0 && next(5) == 0 { Variant::Null } else { record(&next) })
                .collect();
            let lists = (0..rows)
                .map(|r| match next(4) {
                    0 if r > 0 => Variant::Null,
                    n => Variant::array((0..=n).map(|_| record(&next)).collect()),
                })
                .collect();
            for (name, boxed) in [("Objects", objects), ("List", lists)] {
                let shredded = encode::encode_column(ColumnVec::Var(boxed));
                assert!(
                    matches!(shredded, ColumnVec::Objects(_) | ColumnVec::List(_)),
                    "{name} did not shred"
                );
                cols.push((name, shredded));
            }

            for (name, col) in &cols {
                let meta = ColumnMeta::of(col);
                let want = Reference::of(col);
                let h = &meta.stats.histogram;
                let same = |a: Option<&Variant>, b: &Option<Variant>| match (a, b) {
                    (Some(a), Some(b)) => cmp_variants(a, b).is_eq(),
                    (a, b) => a.is_none() && b.is_none(),
                };
                assert!(same(h.first(), &want.min), "{name}: min {:?} vs {:?}", h.first(), want.min);
                assert!(same(h.last(), &want.max), "{name}: max {:?} vs {:?}", h.last(), want.max);
                assert_eq!(meta.stats.nulls, want.nulls, "{name}: nulls");
                assert_eq!(meta.stats.rows, rows as u64, "{name}: rows");
                let mut lits = vec![
                    Variant::Null,
                    Variant::Int(0),
                    Variant::Float(f64::NAN),
                    Variant::Float(-0.0),
                    Variant::str("b"),
                    Variant::Bool(true),
                ];
                for bound in want.min.iter().chain(&want.max) {
                    lits.extend(around(bound));
                }
                for cmp in CMPS {
                    for lit in &lits {
                        let got = meta.may_match(cmp, lit);
                        assert_eq!(got, want.may_match(meta.ty, cmp, lit), "{name} {cmp} {lit:?}");
                        assert!(
                            got || !want.some_row_matches(cmp, lit),
                            "{name}: {cmp} {lit:?} pruned a matching row"
                        );
                    }
                }
            }
        }
    }
}
