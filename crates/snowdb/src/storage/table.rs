//! Tables and micro-partitions.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use super::stats::TableStats;
use super::{stored_type, ColumnMeta, ColumnType, ScanSource};
use crate::column::{Bitmap, ColumnVec};
use crate::error::{Result, SnowError};
use crate::variant::{cmp_variants, Variant};

/// Default number of rows per micro-partition.
///
/// Snowflake sizes partitions at 50–500 MB of uncompressed data; at the event
/// sizes of the ADL workload this row count lands partitions in a proportionally
/// scaled-down range while still giving the optimizer many partitions to prune.
pub const DEFAULT_PARTITION_ROWS: usize = 4096;

/// A column declaration: name plus declared type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> ColumnDef {
        ColumnDef { name: name.into(), ty }
    }
}

/// One immutable horizontal shard of a table, resident in memory.
///
/// Columns are individually `Arc`-shared: a scan slices batches out of the
/// shared column, and the disk path caches decoded blocks as the same type.
#[derive(Clone, Debug)]
pub struct MicroPartition {
    columns: Vec<Arc<ColumnVec>>,
    meta: Vec<ColumnMeta>,
}

impl MicroPartition {
    pub(crate) fn seal(columns: Vec<ColumnVec>) -> MicroPartition {
        // Seal-time encoding: each column independently picks the smaller of
        // its plain and encoded representations (dictionary for strings, runs
        // for ints/bools, typed fields for flat records). Everything
        // downstream — the column records, the partition
        // file writer, the scan — sees the encoded column.
        MicroPartition::from_arc_columns(
            columns.into_iter().map(|c| Arc::new(super::encode::encode_column(c))).collect(),
        )
    }

    /// Seals pre-shared columns as they are, without choosing an encoding
    /// (the store rewrites a table's partitions this way without copying the
    /// data; tests build plain partitions of encodable data with it).
    pub fn from_arc_columns(columns: Vec<Arc<ColumnVec>>) -> MicroPartition {
        debug_assert!(columns.windows(2).all(|w| w[0].len() == w[1].len()));
        // Each column's record — byte cost and statistics, whose bounds and
        // null count also decide pruning — is computed once here, at seal
        // time, never at query time.
        let meta = columns.iter().map(|c| ColumnMeta::of(c)).collect();
        MicroPartition { columns, meta }
    }

    /// Number of rows in the partition.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Column data by position.
    pub fn column(&self, i: usize) -> &ColumnVec {
        self.columns[i].as_ref()
    }

    /// Shared handle to column `i`.
    pub fn column_arc(&self, i: usize) -> Arc<ColumnVec> {
        self.columns[i].clone()
    }

    /// The metadata record of every column, in schema order.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.meta
    }
}

/// An immutable snapshot of a table: schema plus sealed partition sources.
///
/// Tables are `Arc`-shared into query executions; ingest builds a fresh snapshot
/// via [`TableBuilder`], which keeps queries free of locking on the data path.
/// Each partition is a [`ScanSource`] — fully resident for in-memory tables,
/// a lazily-read partition file for persistent ones.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Vec<ColumnDef>,
    partitions: Vec<Arc<ScanSource>>,
    row_count: usize,
    stats: OnceLock<Arc<TableStats>>,
}

impl Table {
    /// Assembles a table from already-sealed partition sources (the store's
    /// reopen path).
    pub(crate) fn from_parts(
        name: String,
        schema: Vec<ColumnDef>,
        partitions: Vec<Arc<ScanSource>>,
    ) -> Table {
        let row_count = partitions.iter().map(|p| p.row_count()).sum();
        Table { name, schema, partitions, row_count, stats: OnceLock::new() }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared schema.
    pub fn schema(&self) -> &[ColumnDef] {
        &self.schema
    }

    /// Position of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Sealed partition sources.
    pub fn partitions(&self) -> &[Arc<ScanSource>] {
        &self.partitions
    }

    /// Total rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Total bytes across all partitions (estimated in-memory bytes for
    /// memory partitions, exact on-disk block bytes for disk partitions).
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.total_bytes()).sum()
    }

    /// Aggregated optimizer statistics, computed lazily on first use and
    /// cached for the life of this (immutable) snapshot. Metadata-only:
    /// per-partition stats come from sealed partitions or disk footers, so
    /// this never reads column data.
    pub fn stats(&self) -> &Arc<TableStats> {
        self.stats.get_or_init(|| {
            Arc::new(TableStats::aggregate(self.schema.len(), &self.partitions))
        })
    }
}

/// Destination of sealed micro-partitions during ingest.
///
/// The builder streams: as soon as a partition fills, it is sealed and handed
/// to the sink — kept in memory ([`MemSink`]), written straight to a
/// partition file (the store's sink), or wrapped with governor accounting —
/// so ingest memory is bounded by one open partition, not the whole table.
pub trait PartitionSink {
    fn flush(&self, part: MicroPartition) -> Result<Arc<ScanSource>>;
}

/// The default sink: partitions stay resident in memory.
pub struct MemSink;

impl PartitionSink for MemSink {
    fn flush(&self, part: MicroPartition) -> Result<Arc<ScanSource>> {
        Ok(Arc::new(ScanSource::Mem(part)))
    }
}

/// The empty open-partition column for a declared type: already committed to
/// the type, so an all-NULL column still seals (and persists) as that type.
fn empty_column(ty: ColumnType) -> ColumnVec {
    match ty {
        ColumnType::Int => ColumnVec::Int { vals: Vec::new(), valid: Bitmap::new() },
        ColumnType::Float => ColumnVec::Float { vals: Vec::new(), valid: Bitmap::new() },
        ColumnType::Bool => ColumnVec::Bool { vals: Vec::new(), valid: Bitmap::new() },
        ColumnType::Str => ColumnVec::Str(Vec::new()),
        ColumnType::Variant => ColumnVec::Var(Vec::new()),
    }
}

/// The ingest rule for declared columns, on top of [`ColumnVec::push`]: a
/// number shreds into the other numeric type when the conversion is
/// *lossless* (an integral double into an `Int` column, an integer a double
/// holds exactly into a `Float` column). Everything else is `push`'s own
/// contract: a value of the column's type or NULL is stored natively, and any
/// other value promotes the **whole column** to boxed variants — Snowflake's
/// "lowest common type" columnarization falling back to VARIANT storage when a
/// micro-partition's values drift. Nothing is truncated or nulled out: the
/// cell read back always equals the value pushed.
fn push_declared(col: &mut ColumnVec, v: &Variant) {
    match (&*col, v) {
        (ColumnVec::Int { .. }, Variant::Float(f))
            if f.fract() == 0.0
                && *f >= -9_223_372_036_854_775_808.0
                && *f < 9_223_372_036_854_775_808.0 =>
        {
            col.push(Variant::Int(*f as i64))
        }
        (ColumnVec::Float { .. }, Variant::Int(i))
            if cmp_variants(&Variant::Float(*i as f64), v) == Ordering::Equal =>
        {
            col.push(Variant::Float(*i as f64))
        }
        _ => col.push(v.clone()),
    }
}

/// Accumulates rows and seals them into micro-partitions.
pub struct TableBuilder {
    name: String,
    schema: Vec<ColumnDef>,
    partition_rows: usize,
    sink: Box<dyn PartitionSink>,
    sealed: Vec<Arc<ScanSource>>,
    open: Vec<ColumnVec>,
    open_rows: usize,
    total_rows: usize,
}

impl TableBuilder {
    /// Starts a builder sealing partitions of `partition_rows` rows into
    /// `sink`. A partition size of zero is a typed catalog error.
    pub fn new(
        name: impl Into<String>,
        schema: Vec<ColumnDef>,
        partition_rows: usize,
        sink: Box<dyn PartitionSink>,
    ) -> Result<TableBuilder> {
        let name = name.into();
        if partition_rows == 0 {
            return Err(SnowError::Catalog(format!(
                "table {name}: rows per partition must be positive"
            )));
        }
        let open = schema.iter().map(|c| empty_column(c.ty)).collect();
        Ok(TableBuilder {
            name,
            schema,
            partition_rows,
            sink,
            sealed: Vec::new(),
            open,
            open_rows: 0,
            total_rows: 0,
        })
    }

    /// Appends one row; the row must have exactly one value per schema column.
    pub fn push_row(&mut self, row: &[Variant]) -> Result<()> {
        self.check_arity(row.len())?;
        for (col, v) in self.open.iter_mut().zip(row) {
            push_declared(col, v);
        }
        self.row_pushed()
    }

    /// Appends rows `rows` of `cols` — one column per schema column, e.g. a
    /// stored partition's — in that order: what [`TableBuilder::push_row`]
    /// builds from the same values, without boxing a cell whose source holds
    /// it as the open partition does.
    pub fn push_rows_from(
        &mut self,
        cols: &[&ColumnVec],
        rows: impl IntoIterator<Item = usize>,
    ) -> Result<()> {
        self.check_arity(cols.len())?;
        for r in rows {
            for (dst, src) in self.open.iter_mut().zip(cols) {
                // A source of the open column's stored type holds nothing
                // `push_declared` would convert or promote on.
                if stored_type(dst) == stored_type(src) {
                    dst.push_from(src, r);
                } else {
                    push_declared(dst, &src.get(r));
                }
            }
            self.row_pushed()?;
        }
        Ok(())
    }

    fn check_arity(&self, arity: usize) -> Result<()> {
        if arity != self.schema.len() {
            return Err(SnowError::Catalog(format!(
                "row arity {} does not match schema arity {} for table {}",
                arity,
                self.schema.len(),
                self.name
            )));
        }
        Ok(())
    }

    fn row_pushed(&mut self) -> Result<()> {
        self.open_rows += 1;
        self.total_rows += 1;
        if self.open_rows >= self.partition_rows {
            self.seal_open()?;
        }
        Ok(())
    }

    fn seal_open(&mut self) -> Result<()> {
        if self.open_rows == 0 {
            return Ok(());
        }
        let cols = std::mem::replace(
            &mut self.open,
            self.schema.iter().map(|c| empty_column(c.ty)).collect(),
        );
        self.sealed.push(self.sink.flush(MicroPartition::seal(cols))?);
        self.open_rows = 0;
        Ok(())
    }

    /// Seals any open partition and produces the immutable table. Fallible
    /// because the final flush may hit the sink (e.g. a disk write).
    pub fn finish(mut self) -> Result<Table> {
        self.seal_open()?;
        Ok(Table {
            name: self.name,
            schema: self.schema,
            partitions: self.sealed,
            row_count: self.total_rows,
            stats: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(name: &str) -> ColumnDef {
        ColumnDef::new(name, ColumnType::Int)
    }

    fn builder(schema: Vec<ColumnDef>, partition_rows: usize) -> TableBuilder {
        TableBuilder::new("t", schema, partition_rows, Box::new(MemSink)).unwrap()
    }

    fn pushed(ty: ColumnType, vals: &[Variant]) -> ColumnVec {
        let mut c = empty_column(ty);
        for v in vals {
            push_declared(&mut c, v);
        }
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(c.get(i), *v, "row {i} of {vals:?} in a {ty:?} column");
        }
        c
    }

    #[test]
    fn declared_columns_shred_losslessly_or_promote() {
        let int = ColumnType::Int;
        // Null and an integral double shred into the Int column.
        let c = pushed(int, &[Variant::Int(5), Variant::Null, Variant::Float(7.0)]);
        assert!(matches!(c.get(2), Variant::Int(7)));
        assert_eq!(stored_type(&c), int);
        // A drifting value promotes the column; every value is kept exactly.
        let c = pushed(int, &[Variant::Int(5), Variant::str("oops"), Variant::Int(6)]);
        assert_eq!(stored_type(&c), ColumnType::Variant);
        // Non-integral, out-of-range (2^63) and NaN doubles promote an Int
        // column instead of truncating, saturating or nulling.
        for f in [7.5, 9.223372036854776e18, f64::NAN] {
            let mut c = empty_column(int);
            push_declared(&mut c, &Variant::Float(f));
            assert_eq!(stored_type(&c), ColumnType::Variant, "{f}");
            assert!(matches!(c.get(0), Variant::Float(g) if g.to_bits() == f.to_bits()));
        }
        // An integer above 2^53 does not fit a double exactly: a Float column
        // promotes rather than rounds it, while a small one shreds.
        let c = pushed(ColumnType::Float, &[Variant::Int((1i64 << 53) + 1)]);
        assert_eq!(stored_type(&c), ColumnType::Variant);
        let c = pushed(ColumnType::Float, &[Variant::Int(42)]);
        assert!(matches!(c.get(0), Variant::Float(f) if f == 42.0));
        // An all-NULL column keeps its declared type.
        let c = pushed(ColumnType::Bool, &[Variant::Null, Variant::Null]);
        assert_eq!(stored_type(&c), ColumnType::Bool);
    }

    #[test]
    fn builder_partitions_by_row_count() {
        let mut b = builder(vec![int_col("a")], 3);
        for i in 0..10 {
            b.push_row(&[Variant::Int(i)]).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.partitions().len(), 4);
        assert_eq!(t.partitions()[0].row_count(), 3);
        assert_eq!(t.partitions()[3].row_count(), 1);
    }

    /// `push_rows_from` is `push_row` over the same values, whatever holds
    /// them: every source representation into every declared type, across
    /// partition boundaries and through a mid-partition promotion.
    #[test]
    fn pushing_columns_builds_what_pushing_their_rows_builds() {
        let dict = Arc::new(vec![Arc::from("a"), Arc::from("b")]);
        let sources = [
            ColumnVec::from_variants(vec![Variant::Int(1), Variant::Null, Variant::Int(3)]),
            ColumnVec::from_variants(vec![Variant::Float(2.0), Variant::Float(0.5), Variant::Null]),
            ColumnVec::from_variants(vec![Variant::Null, Variant::str("x"), Variant::str("y")]),
            ColumnVec::DictStr { codes: vec![1, crate::column::NULL_CODE, 0], dict },
            ColumnVec::Runs {
                ends: vec![2, 3],
                values: Box::new(ColumnVec::from_variants(vec![Variant::Bool(true), Variant::Null])),
            },
            ColumnVec::Var(vec![Variant::Int(7), Variant::Float(8.0), Variant::Null]),
            ColumnVec::Var(vec![Variant::Int(7), Variant::str("stray"), Variant::Int(9)]),
            ColumnVec::Null(3),
        ];
        let order = [2, 0, 1, 1, 0, 2, 2];
        for ty in [ColumnType::Int, ColumnType::Float, ColumnType::Bool, ColumnType::Str, ColumnType::Variant] {
            for src in &sources {
                let schema = vec![ColumnDef::new("c", ty)];
                let mut by_cols = builder(schema.clone(), 4);
                by_cols.push_rows_from(&[src], order).unwrap();
                let mut by_rows = builder(schema, 4);
                for r in order {
                    by_rows.push_row(&[src.get(r)]).unwrap();
                }
                let (got, want) = (by_cols.finish().unwrap(), by_rows.finish().unwrap());
                assert_eq!(got.partitions().len(), 2);
                for (g, w) in got.partitions().iter().zip(want.partitions()) {
                    let (g, w) = (g.as_mem().unwrap(), w.as_mem().unwrap());
                    assert_eq!(format!("{g:?}"), format!("{w:?}"), "{src:?} into {ty:?}");
                }
            }
        }
        let mut b = builder(vec![int_col("a"), int_col("b")], DEFAULT_PARTITION_ROWS);
        assert!(b.push_rows_from(&[&sources[0]], 0..1).is_err());
    }

    #[test]
    fn builder_rejects_wrong_arity() {
        let mut b = builder(vec![int_col("a"), int_col("b")], DEFAULT_PARTITION_ROWS);
        assert!(b.push_row(&[Variant::Int(1)]).is_err());
    }

    #[test]
    fn partition_bounds_cover_their_rows_only() {
        let mut b = builder(vec![int_col("a")], 2);
        for i in [1, 2, 100, 200] {
            b.push_row(&[Variant::Int(i)]).unwrap();
        }
        let t = b.finish().unwrap();
        let h0 = &t.partitions()[0].column_stats(0).histogram;
        let h1 = &t.partitions()[1].column_stats(0).histogram;
        assert_eq!(h0.last(), Some(&Variant::Int(2)));
        assert_eq!(h1.first(), Some(&Variant::Int(100)));
        assert!(!t.partitions()[0].columns()[0].may_match(">", &Variant::Int(2)));
        assert!(t.partitions()[1].columns()[0].may_match(">", &Variant::Int(199)));
    }

    #[test]
    fn column_index_is_case_insensitive() {
        let t = builder(vec![int_col("Foo")], DEFAULT_PARTITION_ROWS).finish().unwrap();
        assert_eq!(t.column_index("FOO"), Some(0));
        assert_eq!(t.column_index("foo"), Some(0));
        assert_eq!(t.column_index("bar"), None);
    }

    #[test]
    fn empty_table_has_no_partitions() {
        let t = builder(vec![int_col("a")], DEFAULT_PARTITION_ROWS).finish().unwrap();
        assert_eq!(t.partitions().len(), 0);
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn table_stats_aggregate_across_partitions() {
        let mut b = builder(vec![int_col("a")], 4);
        for i in 0..10 {
            b.push_row(&[if i % 5 == 0 { Variant::Null } else { Variant::Int(i % 3) }])
                .unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.partitions().len(), 3);
        let stats = t.stats();
        assert_eq!(stats.rows, 10);
        let col = stats.columns[0].as_ref().expect("aggregated stats");
        assert_eq!(col.rows, 10);
        assert_eq!(col.nulls, 2);
        assert_eq!(col.distinct(), 3.0); // values 0, 1, 2
    }

    /// A failing sink propagates through `push_row`/`finish` as a typed
    /// error instead of losing data silently.
    #[test]
    fn sink_errors_propagate() {
        struct FailSink;
        impl PartitionSink for FailSink {
            fn flush(&self, _part: MicroPartition) -> Result<Arc<ScanSource>> {
                Err(SnowError::Storage("disk full".into()))
            }
        }
        let mut b = TableBuilder::new("t", vec![int_col("a")], 2, Box::new(FailSink)).unwrap();
        b.push_row(&[Variant::Int(1)]).unwrap();
        let err = b.push_row(&[Variant::Int(2)]).unwrap_err();
        assert!(matches!(err, SnowError::Storage(_)));
    }
}
