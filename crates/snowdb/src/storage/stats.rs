//! Per-column statistics for cost-based optimization.
//!
//! The statistics here answer two questions: "can this partition contain a
//! match?" ([`ColumnStats::may_match`], which prunes partitions) and "*how
//! many* rows will match?" ([`ColumnStats::selectivity`], which costs
//! plans). Each sealed micro-partition computes, per column:
//!
//! - a **KMV (k-minimum-values) NDV sketch** — the `k` smallest 64-bit hashes
//!   of the distinct values. Below `k` distinct values the count is exact;
//!   above, `ndv ≈ (k-1) · 2⁶⁴ / h_k` where `h_k` is the k-th smallest hash.
//!   Sketches merge by unioning hash sets and re-truncating, so per-table
//!   aggregation over partitions is lossless with respect to the sketch;
//! - the **null count** (null fraction = nulls / rows);
//! - a small **equi-depth histogram**: values sampled at even quantiles of
//!   the sorted non-null column, used for range-predicate selectivity. Its
//!   first and last bounds are the column's minimum and maximum, the bounds
//!   pruning reads;
//! - **array cardinality** counters (cells holding arrays and their total
//!   element count) for `VARIANT` columns, which cost FLATTEN fan-out.
//!
//! Everything here is metadata: statistics persist in the partition-file
//! footer (format v4) and aggregate lazily per table, so neither pruning nor
//! the optimizer touches column data.

use std::cmp::Ordering;
use std::sync::Arc;

use super::ScanSource;
use crate::column::{ColumnVec, Records};
use crate::variant::{cmp_f64, cmp_variants, Variant};

/// Sketch size: distinct counts up to `KMV_K` are exact; beyond, the estimate
/// has a relative standard error of about `1/√(k-2)` (~13% at 64).
pub const KMV_K: usize = 64;

/// Number of histogram bounds kept per column (16 equi-depth buckets).
pub const HISTOGRAM_BOUNDS: usize = 17;

/// Deterministic 64-bit hash of a variant under the engine's value-equality:
/// values that compare [`Ordering::Equal`] under [`cmp_variants`] hash alike
/// (an integral float hashes as its integer, `-0.0` as `0.0`, every NaN the
/// same). FNV-1a over a canonical byte encoding — stable across runs,
/// platforms, and toolchains, so persisted sketches stay comparable.
pub fn hash_variant(v: &Variant) -> u64 {
    let mut h = FNV_OFFSET;
    mix_variant(v, &mut h);
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix_bytes(bytes: &[u8], h: &mut u64) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn mix_variant(v: &Variant, h: &mut u64) {
    match v {
        Variant::Null => mix_bytes(&[0], h),
        Variant::Bool(b) => mix_bytes(&[1, u8::from(*b)], h),
        Variant::Int(i) => mix_int(*i, h),
        Variant::Float(f) => mix_float(*f, h),
        Variant::Str(s) => {
            mix_bytes(&[4], h);
            mix_bytes(s.as_bytes(), h);
        }
        Variant::Array(items) => {
            mix_bytes(&[5], h);
            mix_bytes(&(items.len() as u64).to_le_bytes(), h);
            for it in items.iter() {
                mix_variant(it, h);
            }
        }
        Variant::Object(o) => {
            mix_bytes(&[6], h);
            for (k, val) in o.iter() {
                mix_bytes(k.as_bytes(), h);
                mix_variant(val, h);
            }
        }
    }
}

fn mix_int(i: i64, h: &mut u64) {
    mix_bytes(&[2], h);
    mix_bytes(&i.to_le_bytes(), h);
}

fn mix_float(f: f64, h: &mut u64) {
    // Canonicalize to the integer form when the value is exactly an i64
    // (cmp_variants treats Int(5) == Float(5.0)); -0.0 folds into 0; NaNs all
    // hash as one value (NaN == NaN in this engine).
    if f.is_nan() {
        mix_bytes(&[3, 0xff], h);
    } else if f.fract() == 0.0
        && (-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&f)
    {
        mix_int(f as i64, h);
    } else {
        mix_bytes(&[3], h);
        mix_bytes(&f.to_bits().to_le_bytes(), h);
    }
}

/// [`mix_variant`] of row `r` of a scalar column, unboxed for numbers.
fn mix_cell(col: &ColumnVec, r: usize, h: &mut u64) {
    match col {
        ColumnVec::Int { vals, valid } if valid.get(r) => mix_int(vals[r], h),
        ColumnVec::Float { vals, valid } if valid.get(r) => mix_float(vals[r], h),
        _ => mix_variant(&col.get(r), h),
    }
}

/// [`mix_variant`] of the object record `r` rebuilds, read off its fields.
fn mix_record(rec: &Records, r: usize, h: &mut u64) {
    mix_bytes(&[6], h);
    for (k, field) in rec.keys.iter().zip(&rec.fields) {
        mix_bytes(k.as_bytes(), h);
        mix_cell(field, r, h);
    }
}

/// [`cmp_variants`] of rows `a` and `b` of a scalar column, unboxed for
/// numbers.
fn cmp_cells(col: &ColumnVec, a: usize, b: usize) -> Ordering {
    match col {
        ColumnVec::Int { vals, valid } if valid.get(a) && valid.get(b) => vals[a].cmp(&vals[b]),
        ColumnVec::Float { vals, valid } if valid.get(a) && valid.get(b) => {
            cmp_f64(vals[a], vals[b])
        }
        _ => cmp_variants(&col.get(a), &col.get(b)),
    }
}

/// [`cmp_variants`] of the objects records `a` and `b` rebuild: one key
/// sequence, so field by field.
fn cmp_records(rec: &Records, a: usize, b: usize) -> Ordering {
    rec.fields
        .iter()
        .map(|f| cmp_cells(f, a, b))
        .find(|c| c.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// K-minimum-values distinct-count sketch: the `k` smallest distinct hashes
/// seen, sorted ascending.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KmvSketch {
    hashes: Vec<u64>,
}

impl KmvSketch {
    pub fn new() -> KmvSketch {
        KmvSketch { hashes: Vec::new() }
    }

    /// Rebuilds a sketch from persisted hashes (the format decoder). Input
    /// is re-sorted/deduped/truncated so a corrupt file cannot break the
    /// sketch invariant.
    pub fn from_hashes(mut hashes: Vec<u64>) -> KmvSketch {
        hashes.sort_unstable();
        hashes.dedup();
        hashes.truncate(KMV_K);
        KmvSketch { hashes }
    }

    /// The retained hashes, sorted ascending (for persistence).
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Observes one value's hash.
    pub fn insert_hash(&mut self, h: u64) {
        match self.hashes.binary_search(&h) {
            Ok(_) => {}
            Err(pos) => {
                if pos < KMV_K {
                    self.hashes.insert(pos, h);
                    self.hashes.truncate(KMV_K);
                }
            }
        }
    }

    /// Observes one value.
    pub fn insert(&mut self, v: &Variant) {
        self.insert_hash(hash_variant(v));
    }

    /// Unions another sketch into this one.
    pub fn merge(&mut self, other: &KmvSketch) {
        for &h in &other.hashes {
            self.insert_hash(h);
        }
    }

    /// Estimated number of distinct values observed. Exact below `KMV_K`.
    pub fn estimate(&self) -> f64 {
        if self.hashes.len() < KMV_K {
            self.hashes.len() as f64
        } else {
            let kth = self.hashes[KMV_K - 1];
            // (k-1) / (kth / 2^64): the k-th smallest of n uniform hashes
            // sits near k/n of the hash space.
            ((KMV_K - 1) as f64) * (u64::MAX as f64) / (kth as f64).max(1.0)
        }
    }
}

/// Statistics for one column of one micro-partition, or (after
/// [`ColumnStats::merge`]) an aggregate over many partitions.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Rows covered by this record.
    pub rows: u64,
    /// NULL cells among them.
    pub nulls: u64,
    /// Distinct-value sketch over non-null values.
    pub ndv: KmvSketch,
    /// Equi-depth histogram bounds, ascending under [`cmp_variants`]; empty
    /// when the column had no non-null values.
    pub histogram: Vec<Variant>,
    /// Cells holding arrays (FLATTEN inputs).
    pub array_cells: u64,
    /// Total elements across those arrays.
    pub array_elems: u64,
}

impl ColumnStats {
    /// Computes statistics for a sealed column. One sort of the non-null
    /// values per column per partition — seal-time work, never query-time. A
    /// boxed column lends its values, a shredded one is read off its fields,
    /// any other reads its values back once.
    pub fn build(col: &ColumnVec) -> ColumnStats {
        match col {
            ColumnVec::Var(vals) => ColumnStats::of_values(vals),
            ColumnVec::Objects(rec) => ColumnStats::of_rows(
                col,
                |r, h| mix_record(rec, r, h),
                |a, b| cmp_records(rec, a, b),
            ),
            ColumnVec::List(lists) => {
                let mix = |r: usize, h: &mut u64| {
                    mix_bytes(&[5], h);
                    mix_bytes(&(lists.range(r).len() as u64).to_le_bytes(), h);
                    lists.range(r).for_each(|i| mix_record(&lists.items, i, h));
                };
                // Item by item, then the shorter array first.
                let cmp = |a: usize, b: usize| {
                    let (x, y) = (lists.range(a), lists.range(b));
                    x.clone()
                        .zip(y.clone())
                        .map(|(p, q)| cmp_records(&lists.items, p, q))
                        .find(|c| c.is_ne())
                        .unwrap_or_else(|| x.len().cmp(&y.len()))
                };
                let mut stats = ColumnStats::of_rows(col, mix, cmp);
                for r in (0..col.len()).filter(|&r| lists.valid.get(r)) {
                    stats.array_cells += 1;
                    stats.array_elems += lists.range(r).len() as u64;
                }
                stats
            }
            _ => ColumnStats::of_values(&(0..col.len()).map(|i| col.get(i)).collect::<Vec<_>>()),
        }
    }

    /// The statistics [`ColumnStats::of_values`] computes from the values a
    /// shredded column rebuilds, computed from its rows: `mix` hashes row `r`
    /// as [`hash_variant`] hashes its value and `cmp` orders two rows as
    /// [`cmp_variants`] orders theirs. Only the histogram's rows are rebuilt.
    /// Array counters are the caller's.
    fn of_rows(
        col: &ColumnVec,
        mix: impl Fn(usize, &mut u64),
        cmp: impl Fn(usize, usize) -> Ordering,
    ) -> ColumnStats {
        let mut present: Vec<usize> = (0..col.len()).filter(|&r| !col.is_null_at(r)).collect();
        let mut ndv = KmvSketch::new();
        for &r in &present {
            let mut h = FNV_OFFSET;
            mix(r, &mut h);
            ndv.insert_hash(h);
        }
        // Stable, as the values' sort: equal rows keep their order.
        present.sort_by(|&a, &b| cmp(a, b));
        let histogram = bound_positions(present.len()).map(|p| col.get(present[p])).collect();
        ColumnStats {
            rows: col.len() as u64,
            nulls: (col.len() - present.len()) as u64,
            ndv,
            histogram,
            array_cells: 0,
            array_elems: 0,
        }
    }

    fn of_values(vals: &[Variant]) -> ColumnStats {
        let mut nulls = 0u64;
        let mut ndv = KmvSketch::new();
        let mut array_cells = 0u64;
        let mut array_elems = 0u64;
        let mut present: Vec<&Variant> = Vec::with_capacity(vals.len());
        for v in vals {
            if v.is_null() {
                nulls += 1;
                continue;
            }
            if let Variant::Array(items) = v {
                array_cells += 1;
                array_elems += items.len() as u64;
            }
            ndv.insert(v);
            present.push(v);
        }
        present.sort_by(|a, b| cmp_variants(a, b));
        let histogram = sample_bounds(&present);
        let rows = vals.len() as u64;
        ColumnStats { rows, nulls, ndv, histogram, array_cells, array_elems }
    }

    /// Folds another partition's statistics into this aggregate. Histograms
    /// merge approximately: the pooled bounds are re-sampled back down to
    /// [`HISTOGRAM_BOUNDS`].
    pub fn merge(&mut self, other: &ColumnStats) {
        self.rows += other.rows;
        self.nulls += other.nulls;
        self.ndv.merge(&other.ndv);
        self.array_cells += other.array_cells;
        self.array_elems += other.array_elems;
        if !other.histogram.is_empty() {
            let mut pooled = std::mem::take(&mut self.histogram);
            pooled.extend(other.histogram.iter().cloned());
            pooled.sort_by(cmp_variants);
            self.histogram = sample_bounds(&pooled);
        }
    }

    /// Fraction of rows that are NULL.
    pub fn null_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows as f64
        }
    }

    /// Estimated distinct non-null values.
    pub fn distinct(&self) -> f64 {
        self.ndv.estimate().max(1.0)
    }

    /// Expected FLATTEN output rows per input row for this column: total
    /// array elements over total rows. `None` when no cell held an array.
    pub fn avg_flatten_fanout(&self) -> Option<f64> {
        if self.array_cells == 0 || self.rows == 0 {
            None
        } else {
            Some(self.array_elems as f64 / self.rows as f64)
        }
    }

    /// Fraction of histogram bounds strictly below `lit` — the equi-depth
    /// estimate of `P(value < lit)` among non-null rows.
    fn frac_below(&self, lit: &Variant, inclusive: bool) -> f64 {
        if self.histogram.is_empty() {
            return 0.5;
        }
        let n = self.histogram.len() as f64;
        let hits = self
            .histogram
            .iter()
            .filter(|b| {
                let c = cmp_variants(b, lit);
                c == Ordering::Less || (inclusive && c == Ordering::Equal)
            })
            .count() as f64;
        hits / n
    }

    /// Can a row covered by this record satisfy `value <cmp> lit`? Reads
    /// only the bounds — the histogram's first and last values, `NULL` when
    /// it is empty — and the null count; `false` excludes the partition.
    /// `cmp` is spelled as in [`ColumnStats::selectivity`].
    ///
    /// The bounds and the literal compare under [`cmp_variants`], whose
    /// (Int, Float) arm is exact — never an `i64 as f64` cast — so an `Int`
    /// column against a `Float` literal is decided correctly even for values
    /// straddling 2^53.
    pub fn may_match(&self, cmp: &str, lit: &Variant) -> bool {
        use Ordering::*;
        let (Some(min), Some(max)) = (self.histogram.first(), self.histogram.last()) else {
            // All NULL: only IS NULL can hold, and only over rows.
            return cmp == "IS NULL" && self.nulls > 0;
        };
        let (min_c, max_c) = (cmp_variants(min, lit), cmp_variants(max, lit));
        match cmp {
            "IS NULL" => self.nulls > 0,
            "IS NOT NULL" => true,
            "=" => min_c != Greater && max_c != Less,
            "<" => min_c == Less,
            "<=" => min_c != Greater,
            ">" => max_c == Greater,
            ">=" => max_c != Less,
            "<>" => !(min_c == Equal && max_c == Equal),
            _ => true,
        }
    }

    /// Estimated selectivity of `value <cmp> lit` over this column's rows
    /// (NULL rows never satisfy a comparison). `cmp` is one of `=`, `<`,
    /// `<=`, `>`, `>=`, `<>`, `IS NULL`, `IS NOT NULL`.
    pub fn selectivity(&self, cmp: &str, lit: &Variant) -> f64 {
        let non_null = 1.0 - self.null_fraction();
        let sel = match cmp {
            "IS NULL" => return self.null_fraction().clamp(0.0, 1.0),
            "IS NOT NULL" => return non_null.clamp(0.0, 1.0),
            "=" => non_null / self.distinct(),
            "<>" => non_null * (1.0 - 1.0 / self.distinct()),
            "<" => non_null * self.frac_below(lit, false),
            "<=" => non_null * self.frac_below(lit, true),
            ">" => non_null * (1.0 - self.frac_below(lit, true)),
            ">=" => non_null * (1.0 - self.frac_below(lit, false)),
            _ => 0.25,
        };
        sel.clamp(0.0, 1.0)
    }
}

/// The positions of up to [`HISTOGRAM_BOUNDS`] values at even quantiles of
/// `n` sorted values (first and last always included).
fn bound_positions(n: usize) -> impl Iterator<Item = usize> {
    let b = HISTOGRAM_BOUNDS.min(n);
    (0..b).map(move |j| j * (n - 1) / (b - 1).max(1))
}

/// Samples up to [`HISTOGRAM_BOUNDS`] values at even quantiles of a sorted
/// slice.
fn sample_bounds<V: std::borrow::Borrow<Variant>>(sorted: &[V]) -> Vec<Variant> {
    bound_positions(sorted.len()).map(|p| sorted[p].borrow().clone()).collect()
}

/// Lazily-aggregated statistics for a whole table: the per-partition records
/// merged column-wise. A table without partitions has no statistics; the
/// estimator then falls back to heuristics.
#[derive(Clone, Debug)]
pub struct TableStats {
    /// Total table rows.
    pub rows: u64,
    /// Aggregated per-column statistics, indexed like the schema.
    pub columns: Vec<Option<Arc<ColumnStats>>>,
}

impl TableStats {
    /// Aggregates partition-level statistics; metadata-only (footers for disk
    /// partitions, sealed stats for memory partitions).
    pub fn aggregate(arity: usize, partitions: &[Arc<ScanSource>]) -> TableStats {
        let rows = partitions.iter().map(|p| p.row_count() as u64).sum();
        let mut columns = Vec::with_capacity(arity);
        for i in 0..arity {
            let mut acc: Option<ColumnStats> = None;
            for p in partitions {
                match &mut acc {
                    Some(a) => a.merge(p.column_stats(i)),
                    None => acc = Some(p.column_stats(i).clone()),
                }
            }
            columns.push(acc.map(Arc::new));
        }
        TableStats { rows, columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_column(vals: impl IntoIterator<Item = i64>) -> ColumnVec {
        ColumnVec::from_variants(vals.into_iter().map(Variant::Int).collect())
    }

    #[test]
    fn kmv_exact_below_k() {
        let mut s = KmvSketch::new();
        for i in 0..40i64 {
            s.insert(&Variant::Int(i % 20));
        }
        assert_eq!(s.estimate(), 20.0);
    }

    #[test]
    fn kmv_estimates_large_cardinalities() {
        let mut s = KmvSketch::new();
        for i in 0..50_000i64 {
            s.insert(&Variant::Int(i));
        }
        let est = s.estimate();
        assert!(
            (est - 50_000.0).abs() / 50_000.0 < 0.35,
            "estimate {est} too far from 50000"
        );
    }

    #[test]
    fn kmv_merge_equals_union() {
        let mut a = KmvSketch::new();
        let mut b = KmvSketch::new();
        let mut whole = KmvSketch::new();
        for i in 0..1000i64 {
            let v = Variant::Int(i);
            if i % 2 == 0 {
                a.insert(&v);
            } else {
                b.insert(&v);
            }
            whole.insert(&v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn hash_respects_value_equality() {
        assert_eq!(hash_variant(&Variant::Int(5)), hash_variant(&Variant::Float(5.0)));
        assert_eq!(hash_variant(&Variant::Float(0.0)), hash_variant(&Variant::Float(-0.0)));
        assert_eq!(
            hash_variant(&Variant::Float(f64::NAN)),
            hash_variant(&Variant::Float(-f64::NAN))
        );
        // 2^53 + 1 is not representable as f64: must hash unlike Float(2^53).
        let p53 = 1i64 << 53;
        assert_ne!(
            hash_variant(&Variant::Int(p53 + 1)),
            hash_variant(&Variant::Float(p53 as f64))
        );
        assert_eq!(
            hash_variant(&Variant::Int(p53)),
            hash_variant(&Variant::Float(p53 as f64))
        );
    }

    #[test]
    fn column_stats_counts_and_histogram() {
        let mut c = int_column(0..100);
        c.push(Variant::Null);
        c.push(Variant::Null);
        let s = ColumnStats::build(&c);
        assert_eq!(s.rows, 102);
        assert_eq!(s.nulls, 2);
        // 100 distinct values exceeds KMV_K, so the count is estimated.
        let ndv = s.distinct();
        assert!((ndv - 100.0).abs() / 100.0 < 0.4, "ndv estimate {ndv}");
        assert_eq!(s.histogram.len(), HISTOGRAM_BOUNDS);
        assert_eq!(s.histogram[0], Variant::Int(0));
        assert_eq!(s.histogram[HISTOGRAM_BOUNDS - 1], Variant::Int(99));
        // Range selectivity is roughly the quantile.
        let sel = s.selectivity("<", &Variant::Int(50));
        assert!((0.3..0.7).contains(&sel), "{sel}");
        // Equality: 1/ndv scaled by non-null fraction.
        let eq = s.selectivity("=", &Variant::Int(7));
        assert!((eq - (100.0 / 102.0) / ndv).abs() < 1e-12, "{eq}");
        assert!((s.selectivity("IS NULL", &Variant::Null) - 2.0 / 102.0).abs() < 1e-12);
    }

    /// A record whose bounds are `min` and `max`, over `nulls` NULLs more.
    fn bounded(min: Variant, max: Variant, nulls: u64) -> ColumnStats {
        let histogram = vec![min, max];
        ColumnStats { rows: 2 + nulls, nulls, histogram, ..ColumnStats::build(&ColumnVec::new()) }
    }

    #[test]
    fn pruning_decisions_read_the_bounds() {
        let s = bounded(Variant::Int(10), Variant::Int(20), 0);
        assert!(s.may_match("=", &Variant::Int(15)));
        assert!(!s.may_match("=", &Variant::Int(25)));
        assert!(!s.may_match("<", &Variant::Int(10)));
        assert!(s.may_match("<", &Variant::Int(11)));
        assert!(s.may_match("<=", &Variant::Int(10)));
        assert!(!s.may_match("<=", &Variant::Int(9)));
        assert!(!s.may_match(">", &Variant::Int(20)));
        assert!(s.may_match(">=", &Variant::Int(20)));
        assert!(!s.may_match(">=", &Variant::Int(21)));
        assert!(s.may_match("<>", &Variant::Int(15)));
        let point = bounded(Variant::Int(5), Variant::Int(5), 0);
        assert!(!point.may_match("<>", &Variant::Int(5)));
    }

    #[test]
    fn null_presence_pruning_reads_the_null_count() {
        let no_nulls = bounded(Variant::Int(1), Variant::Int(9), 0);
        assert!(!no_nulls.may_match("IS NULL", &Variant::Null));
        assert!(no_nulls.may_match("IS NOT NULL", &Variant::Null));
        let some_nulls = bounded(Variant::Int(1), Variant::Int(9), 3);
        assert!(some_nulls.may_match("IS NULL", &Variant::Null));
        assert!(some_nulls.may_match("IS NOT NULL", &Variant::Null));
    }

    #[test]
    fn int_bounds_against_a_float_literal_are_exact() {
        // 2^53 is where f64 loses integer precision: 2^53 and 2^53 + 1 cast
        // to the same double. The comparisons must distinguish them.
        let p53 = 1i64 << 53;
        let s = bounded(Variant::Int(p53 + 1), Variant::Int(p53 + 1), 0);
        // A lossy `min as f64` comparison would call these equal and keep /
        // prune the partition wrongly.
        assert!(!s.may_match("=", &Variant::Float(p53 as f64)));
        assert!(s.may_match(">", &Variant::Float(p53 as f64)));
        assert!(!s.may_match("<=", &Variant::Float(p53 as f64)));
        assert!(s.may_match("<>", &Variant::Float(p53 as f64)));

        let lo = bounded(Variant::Int(-p53 - 1), Variant::Int(-p53 - 1), 0);
        assert!(!lo.may_match("=", &Variant::Float(-(p53 as f64))));
        assert!(lo.may_match("<", &Variant::Float(-(p53 as f64))));
        assert!(!lo.may_match(">=", &Variant::Float(-(p53 as f64))));

        // 2^63 as a double is above every i64.
        let top = bounded(Variant::Int(i64::MAX), Variant::Int(i64::MAX), 0);
        assert!(top.may_match("<", &Variant::Float(9.223372036854776e18)));
        assert!(!top.may_match(">=", &Variant::Float(9.223372036854776e18)));
    }

    #[test]
    fn merge_tracks_concatenation() {
        let a = ColumnStats::build(&int_column(0..500));
        let b = ColumnStats::build(&int_column(500..1000));
        let mut m = a.clone();
        m.merge(&b);
        let whole = ColumnStats::build(&int_column(0..1000));
        assert_eq!(m.rows, whole.rows);
        assert_eq!(m.ndv, whole.ndv);
        // Merged histogram still spans the full domain.
        assert_eq!(m.histogram.first(), Some(&Variant::Int(0)));
        assert_eq!(m.histogram.last(), Some(&Variant::Int(999)));
    }

    /// A shredded column's statistics, read off its fields, are the boxed
    /// column's: NULL rows and fields, `-0.0`, NaN, integral doubles, ties,
    /// strings and booleans, empty and unequal arrays.
    #[test]
    fn shredded_columns_have_the_boxed_columns_statistics() {
        let state = std::cell::Cell::new(11u64);
        let next = |n: u64| {
            state.set(crate::govern::chaos::splitmix64(state.get()));
            state.get() % n
        };
        let floats = [0.0, -0.0, 1.0, 2.5, f64::NAN, -3.0, 1e300];
        let record = || {
            let mut o = crate::variant::Object::new();
            let pick = next(8) as usize;
            o.insert("F", floats.get(pick).map_or(Variant::Null, |&f| Variant::Float(f)));
            let i = next(4) as i64 - 2;
            o.insert("I", if next(5) == 0 { Variant::Null } else { Variant::Int(i) });
            o.insert("S", Variant::str(["a", "b", ""][next(3) as usize]));
            o.insert("B", Variant::Bool(next(2) == 0));
            Variant::object(o)
        };
        let objects: Vec<Variant> = (0..300)
            .map(|_| if next(6) == 0 { Variant::Null } else { record() })
            .collect();
        let lists: Vec<Variant> = (0..300)
            .map(|_| match next(7) {
                0 => Variant::Null,
                n => Variant::array((0..n % 4).map(|_| record()).collect()),
            })
            .collect();
        for boxed in [objects, lists] {
            let shredded = crate::storage::encode::encode_column(ColumnVec::Var(boxed.clone()));
            assert!(matches!(shredded, ColumnVec::Objects(_) | ColumnVec::List(_)));
            let want = ColumnStats::build(&ColumnVec::Var(boxed));
            assert_eq!(format!("{:?}", ColumnStats::build(&shredded)), format!("{want:?}"));
        }
    }

    #[test]
    fn array_fanout_tracked_for_variant_columns() {
        let c = ColumnVec::Var(vec![
            Variant::array(vec![Variant::Int(1), Variant::Int(2)]),
            Variant::array(vec![Variant::Int(3)]),
            Variant::array(Vec::new()),
            Variant::Int(9), // non-array cell
        ]);
        let s = ColumnStats::build(&c);
        assert_eq!(s.array_cells, 3);
        assert_eq!(s.array_elems, 3);
        assert_eq!(s.avg_flatten_fanout(), Some(3.0 / 4.0));
    }
}
