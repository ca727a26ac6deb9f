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
//! - each partition keeps zone maps (min/max) per column, which the executor uses
//!   to prune partitions;
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

use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::ColumnVec;
use crate::error::Result;
use crate::govern::QueryGovernor;
use crate::store::cache::CacheOutcome;
use crate::store::DiskPartition;
use crate::variant::{cmp_variants, Variant};

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

/// Per-column min/max statistics for one micro-partition ("zone map").
///
/// Only kept for scalar-typed columns; `VARIANT` columns report `None` and are
/// never pruned on, matching the paper's note that pruning works on
/// micro-partition-level metadata for addressable columns.
#[derive(Clone, Debug)]
pub struct ZoneMap {
    pub min: Variant,
    pub max: Variant,
    pub null_count: usize,
}

impl ZoneMap {
    /// Builds the zone map for a column, or `None` for variant columns and
    /// empty columns. An all-null scalar column *does* get a zone map — with
    /// `Variant::Null` bounds — so `IS NULL` / `IS NOT NULL` pruning can see
    /// its null count (a `None` here means "no metadata, never prune").
    pub fn build(col: &ColumnVec) -> Option<ZoneMap> {
        if stored_type(col) == ColumnType::Variant || col.is_empty() {
            return None;
        }
        let mut min: Option<Variant> = None;
        let mut max: Option<Variant> = None;
        let mut null_count = 0usize;
        for i in 0..col.len() {
            let v = col.get(i);
            if v.is_null() {
                null_count += 1;
                continue;
            }
            match &min {
                Some(m) if cmp_variants(&v, m) == Ordering::Less => min = Some(v.clone()),
                None => min = Some(v.clone()),
                _ => {}
            }
            match &max {
                Some(m) if cmp_variants(&v, m) == Ordering::Greater => max = Some(v),
                None => max = Some(v),
                _ => {}
            }
        }
        Some(ZoneMap {
            min: min.unwrap_or(Variant::Null),
            max: max.unwrap_or(Variant::Null),
            null_count,
        })
    }

    /// Can a value in `[min, max]` possibly satisfy `value <cmp> literal`?
    ///
    /// `cmp` is one of `=`, `<`, `<=`, `>`, `>=`, `<>`, `IS NULL`,
    /// `IS NOT NULL`; returns `true` when the partition cannot be excluded.
    ///
    /// Comparisons between the zone-map bounds and the literal go through
    /// [`cmp_variants`], whose (Int, Float) arm is the exact `cmp_i64_f64`
    /// path — never an `i64 as f64` cast — so an `Int` zone map compared
    /// against a `Float` literal is decided correctly even for values
    /// straddling 2^53 (see `zone_map_int_bounds_vs_float_literal_is_exact`).
    pub fn may_match(&self, cmp: &str, lit: &Variant) -> bool {
        use Ordering::*;
        match cmp {
            // Null-presence predicates read only the null count / bounds:
            // a partition with no NULLs cannot satisfy IS NULL; an all-null
            // partition (Null bounds) cannot satisfy IS NOT NULL.
            "IS NULL" => return self.null_count > 0,
            "IS NOT NULL" => return !self.min.is_null(),
            _ => {}
        }
        // All-null partition: no value comparison can succeed. Without this
        // guard, Null (which sorts above every value) would make `>` / `>=`
        // wrongly keep the partition.
        if self.min.is_null() {
            return false;
        }
        let min_c = cmp_variants(&self.min, lit);
        let max_c = cmp_variants(&self.max, lit);
        match cmp {
            "=" => min_c != Greater && max_c != Less,
            "<" => min_c == Less,
            "<=" => min_c != Greater,
            ">" => max_c == Greater,
            ">=" => max_c != Less,
            "<>" => !(min_c == Equal && max_c == Equal),
            _ => true,
        }
    }
}

/// One micro-partition as the scan operator sees it: either fully resident
/// in memory or backed by an immutable partition file that is read lazily,
/// one column block at a time.
///
/// This is the abstraction that makes pruning *real*: the executor consults
/// only [`ScanSource::zone_map`] and [`ScanSource::column_bytes`] — both
/// metadata, free of data I/O — to decide what to read, and then fetches
/// exactly the surviving columns via [`ScanSource::read_column_governed`].
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
    /// Number of rows in the partition.
    pub fn row_count(&self) -> usize {
        match self {
            ScanSource::Mem(p) => p.row_count(),
            ScanSource::Disk(p) => p.row_count(),
        }
    }

    /// Zone map for column `i`, when available. Metadata-only for both
    /// arms: disk partitions carry zone maps in their footer.
    pub fn zone_map(&self, i: usize) -> Option<&ZoneMap> {
        match self {
            ScanSource::Mem(p) => p.zone_map(i),
            ScanSource::Disk(p) => p.zone_map(i),
        }
    }

    /// Optimizer statistics for column `i`. Metadata-only: disk partitions
    /// carry stats in their footer.
    pub fn column_stats(&self, i: usize) -> &ColumnStats {
        match self {
            ScanSource::Mem(p) => p.column_stats(i),
            ScanSource::Disk(p) => p.column_stats(i),
        }
    }

    /// Cost of reading column `i`: estimated in-memory bytes (memory) or
    /// exact encoded block length (disk). This is what a scan *saves* by
    /// pruning the partition or skipping the column.
    pub fn column_bytes(&self, i: usize) -> u64 {
        match self {
            ScanSource::Mem(p) => p.column_bytes(i),
            ScanSource::Disk(p) => p.column_bytes(i),
        }
    }

    /// Sum of [`ScanSource::column_bytes`] over all columns.
    pub fn total_bytes(&self) -> u64 {
        match self {
            ScanSource::Mem(p) => p.total_bytes(),
            ScanSource::Disk(p) => p.total_bytes(),
        }
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
                io_bytes: p.column_bytes(i),
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
    /// Partitions actually read after zone-map pruning.
    pub partitions_scanned: u64,
    /// Partitions excluded by zone-map pruning (`total - scanned`, kept
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
    use super::*;
    use crate::column::Bitmap;

    #[test]
    fn zone_map_bounds() {
        let mut c = ColumnVec::new();
        for v in [3.0, -1.0, 7.5] {
            c.push(Variant::Float(v));
        }
        c.push(Variant::Null);
        let zm = ZoneMap::build(&c).unwrap();
        assert_eq!(zm.min, Variant::Float(-1.0));
        assert_eq!(zm.max, Variant::Float(7.5));
        assert_eq!(zm.null_count, 1);
    }

    #[test]
    fn zone_map_pruning_decisions() {
        let zm = ZoneMap { min: Variant::Int(10), max: Variant::Int(20), null_count: 0 };
        assert!(zm.may_match("=", &Variant::Int(15)));
        assert!(!zm.may_match("=", &Variant::Int(25)));
        assert!(!zm.may_match("<", &Variant::Int(10)));
        assert!(zm.may_match("<", &Variant::Int(11)));
        assert!(!zm.may_match(">", &Variant::Int(20)));
        assert!(zm.may_match(">=", &Variant::Int(20)));
        assert!(!zm.may_match(">=", &Variant::Int(21)));
        assert!(zm.may_match("<>", &Variant::Int(15)));
        let point = ZoneMap { min: Variant::Int(5), max: Variant::Int(5), null_count: 0 };
        assert!(!point.may_match("<>", &Variant::Int(5)));
    }

    #[test]
    fn no_zone_map_for_variant_columns() {
        assert!(ZoneMap::build(&ColumnVec::Var(vec![Variant::Int(1)])).is_none());
    }

    #[test]
    fn all_null_column_gets_null_bounded_zone_map() {
        let c = ColumnVec::Int { vals: vec![0, 0], valid: Bitmap::nulls(2) };
        let zm = ZoneMap::build(&c).unwrap();
        assert!(zm.min.is_null() && zm.max.is_null());
        assert_eq!(zm.null_count, 2);
        // No comparison can match an all-null partition...
        for cmp in ["=", "<", "<=", ">", ">=", "<>"] {
            assert!(!zm.may_match(cmp, &Variant::Int(0)), "{cmp} kept all-null");
        }
        // ...but IS NULL must keep it, and IS NOT NULL must prune it.
        assert!(zm.may_match("IS NULL", &Variant::Null));
        assert!(!zm.may_match("IS NOT NULL", &Variant::Null));
        // Empty columns still have no zone map.
        let empty = ColumnVec::Int { vals: Vec::new(), valid: Bitmap::new() };
        assert!(ZoneMap::build(&empty).is_none());
    }

    #[test]
    fn null_presence_pruning_uses_null_count() {
        let no_nulls = ZoneMap { min: Variant::Int(1), max: Variant::Int(9), null_count: 0 };
        assert!(!no_nulls.may_match("IS NULL", &Variant::Null));
        assert!(no_nulls.may_match("IS NOT NULL", &Variant::Null));
        let some_nulls = ZoneMap { min: Variant::Int(1), max: Variant::Int(9), null_count: 3 };
        assert!(some_nulls.may_match("IS NULL", &Variant::Null));
        assert!(some_nulls.may_match("IS NOT NULL", &Variant::Null));
    }

    #[test]
    fn zone_map_int_bounds_vs_float_literal_is_exact() {
        // 2^53 is where f64 loses integer precision: 2^53 and 2^53 + 1 cast
        // to the same double. The zone-map comparisons must distinguish them.
        let p53 = 1i64 << 53;
        let zm = ZoneMap {
            min: Variant::Int(p53 + 1),
            max: Variant::Int(p53 + 1),
            null_count: 0,
        };
        // A lossy `min as f64` comparison would call these equal and keep /
        // prune the partition wrongly.
        assert!(!zm.may_match("=", &Variant::Float(p53 as f64)));
        assert!(zm.may_match(">", &Variant::Float(p53 as f64)));
        assert!(!zm.may_match("<=", &Variant::Float(p53 as f64)));
        assert!(zm.may_match("<>", &Variant::Float(p53 as f64)));

        let zm_lo = ZoneMap {
            min: Variant::Int(-p53 - 1),
            max: Variant::Int(-p53 - 1),
            null_count: 0,
        };
        assert!(!zm_lo.may_match("=", &Variant::Float(-(p53 as f64))));
        assert!(zm_lo.may_match("<", &Variant::Float(-(p53 as f64))));
        assert!(!zm_lo.may_match(">=", &Variant::Float(-(p53 as f64))));

        // Above 2^63 every i64 sorts below the float.
        let zm_max = ZoneMap {
            min: Variant::Int(i64::MAX),
            max: Variant::Int(i64::MAX),
            null_count: 0,
        };
        assert!(zm_max.may_match("<", &Variant::Float(9.223372036854776e18)));
        assert!(!zm_max.may_match(">=", &Variant::Float(9.223372036854776e18)));
    }
}
