//! The one in-memory column type, from partition file to pipeline.
//!
//! A declared column is shredded once, when [`TableBuilder`] pushes a row
//! into its open partition, and stays shredded: the sealed
//! [`MicroPartition`], the SNPT codec, the buffer cache and every execution
//! batch hold the same [`ColumnVec`] — a dense typed vector plus a validity
//! [`Bitmap`], a dictionary or run-length encoding of one, flat records or
//! arrays of flat records shredded into typed child columns ([`Records`],
//! [`RecordLists`]), or boxed [`Variant`]s for genuinely mixed and nested
//! data. A scan hands the executor [`ColumnVec::slice`]s of the stored
//! column; nothing is converted in between.
//!
//! ## Adaptivity contract
//!
//! A `ColumnVec` starts as [`ColumnVec::Null`] (an untyped run of NULLs) and
//! commits to the type of the first non-null value pushed into it. When a
//! later value does not match the committed type the column *promotes* to
//! [`ColumnVec::Var`] — values are re-boxed, never coerced, so
//! `col.push(v); col.get(col.len() - 1)` always returns exactly `v`.
//! [`ColumnVec::push`] never cross-promotes Int↔Float, because expression
//! semantics (e.g. `TYPEOF`, integer overflow promotion) can observe the
//! difference; the lossless Int↔Float shredding of *declared* columns is an
//! ingest rule and lives with [`TableBuilder`].
//!
//! ## Two byte estimates
//!
//! [`ColumnVec::estimated_size`] is exact over the values (it walks strings
//! and variants) and is taken once per sealed or decoded column: it is what
//! `bytes_scanned` reports for memory partitions and what the buffer cache
//! and the governor charge for a block. [`ColumnVec::approx_bytes`] is O(1)
//! per column and is what the governor charges for every batch in flight.
//!
//! [`TableBuilder`]: crate::storage::TableBuilder
//! [`MicroPartition`]: crate::storage::MicroPartition

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::variant::{Key, Object, Variant};

/// Sentinel dictionary code marking a NULL row. Dictionaries are bounded by
/// the partition row count, so the sentinel can never collide with a real
/// code.
pub const NULL_CODE: u32 = u32::MAX;

/// Index of the run covering row `i` (rows `ends[r-1]..ends[r]` belong to
/// run `r`).
pub(crate) fn run_index(ends: &[u32], i: usize) -> usize {
    ends.partition_point(|&e| e as usize <= i)
}

/// Typed run values over their runs: the rows of run `r` hold `vals[r]`, or
/// the zero a NULL slot holds when run `r` is NULL.
fn expand_runs<T: Copy + Default>(ends: &[u32], vals: &[T], valid: &Bitmap) -> (Vec<T>, Bitmap) {
    let n = ends.last().map_or(0, |&e| e as usize);
    let (mut out, mut ok) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for (r, &end) in ends.iter().enumerate() {
        let v = valid.get(r);
        out.resize(end as usize, if v { vals[r] } else { T::default() });
        ok.resize(end as usize, v);
    }
    (out, Bitmap::from_fn(n, |i| ok[i]))
}

/// Validity bitmap: bit `i` set means row `i` holds a value (not NULL).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bitmap {
    blocks: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Bitmap of `n` cleared (NULL) bits.
    pub fn nulls(n: usize) -> Bitmap {
        Bitmap { blocks: vec![0; n.div_ceil(64)], len: n }
    }

    /// Bitmap of `n` set (valid) bits.
    pub fn ones(n: usize) -> Bitmap {
        let mut out = Bitmap { blocks: vec![u64::MAX; n.div_ceil(64)], len: n };
        out.clear_tail();
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, valid: bool) {
        let (block, bit) = (self.len / 64, self.len % 64);
        if bit == 0 {
            self.blocks.push(0);
        }
        if valid {
            self.blocks[block] |= 1 << bit;
        }
        self.len += 1;
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.blocks[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / 64] |= 1 << (i % 64);
    }

    /// Bitwise AND with a bitmap of the same length, a word at a time.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        let blocks = self.blocks.iter().zip(&other.blocks).map(|(a, b)| a & b).collect();
        Bitmap { blocks, len: self.len }
    }

    /// Number of set (valid) bits. Bits beyond `len` are kept zero by
    /// construction, so a plain popcount over the blocks is exact.
    pub fn count_valid(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }

    /// Keeps the first `n` bits, clearing any tail bits in the last block so
    /// `count_valid` stays exact.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.blocks.truncate(n.div_ceil(64));
        self.len = n;
        self.clear_tail();
    }

    /// Copies bits `lo..hi` into a new bitmap, a word at a time: each output
    /// word is two shifted input words (one when `lo` is 64-aligned, which
    /// is every scan batch).
    pub fn slice(&self, lo: usize, hi: usize) -> Bitmap {
        debug_assert!(lo <= hi && hi <= self.len);
        let len = hi - lo;
        let (first, shift) = (lo / 64, lo % 64);
        let blocks = (first..first + len.div_ceil(64))
            .map(|w| {
                let low = self.blocks[w] >> shift;
                match self.blocks.get(w + 1) {
                    Some(next) if shift != 0 => low | next << (64 - shift),
                    _ => low,
                }
            })
            .collect();
        let mut out = Bitmap { blocks, len };
        out.clear_tail();
        out
    }

    /// Rebuilds a bitmap of `len` bits from its on-disk form: bit `i` is bit
    /// `i % 8` of byte `i / 8`. `bytes` must hold `len.div_ceil(8)` bytes;
    /// stray bits past `len` in the last byte are dropped.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Bitmap {
        debug_assert_eq!(bytes.len(), len.div_ceil(8));
        let blocks = bytes
            .chunks(8)
            .map(|c| {
                let mut word = [0u8; 8];
                word[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(word)
            })
            .collect();
        let mut out = Bitmap { blocks, len };
        out.clear_tail();
        out
    }

    /// Zeroes the bits past `len` in the last block, which `count_valid`
    /// relies on.
    fn clear_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            let last = self.blocks.len() - 1;
            self.blocks[last] &= (1u64 << (self.len % 64)) - 1;
        }
    }

    /// Splits off the bits at `at..` into a new bitmap (a word-at-a-time
    /// [`Bitmap::slice`], then a truncate).
    pub fn split_off(&mut self, at: usize) -> Bitmap {
        let tail = self.slice(at, self.len);
        self.truncate(at);
        tail
    }

    /// Appends all bits of `other`, a word at a time: each word of `other`
    /// lands in at most two words of `self`.
    pub fn extend_from(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.blocks.extend_from_slice(&other.blocks);
        } else {
            for &word in &other.blocks {
                let last = self.blocks.len() - 1;
                self.blocks[last] |= word << shift;
                self.blocks.push(word >> (64 - shift));
            }
        }
        // The bits past `other.len` were zero, so the tail stays clean.
        self.len += other.len;
        self.blocks.truncate(self.len.div_ceil(64));
    }

    /// Packs bit `i = bit(i)` for `i in 0..len`, a word at a time.
    pub fn from_fn(len: usize, mut bit: impl FnMut(usize) -> bool) -> Bitmap {
        let blocks = (0..len.div_ceil(64))
            .map(|w| {
                let lo = w * 64;
                (lo..len.min(lo + 64)).fold(0u64, |word, i| word | u64::from(bit(i)) << (i - lo))
            })
            .collect();
        Bitmap { blocks, len }
    }

    /// The validity of a gather: bit `j` is bit `idx[j]` of this bitmap.
    fn gather(&self, idx: &[usize]) -> Bitmap {
        if self.all_valid() {
            return Bitmap::ones(idx.len());
        }
        Bitmap::from_fn(idx.len(), |j| self.get(idx[j]))
    }

    /// As [`Bitmap::gather`]; a `None` entry is a NULL row.
    fn gather_opt(&self, idx: &[Option<usize>]) -> Bitmap {
        if self.all_valid() {
            return Bitmap::from_fn(idx.len(), |j| idx[j].is_some());
        }
        Bitmap::from_fn(idx.len(), |j| idx[j].is_some_and(|i| self.get(i)))
    }
}

/// Flat records that share one key sequence, shredded into one plain column
/// per key: field `k` of row `r` is row `r` of `fields[k]`. The fields of a
/// NULL record are NULL, so a field pick is the field's column as it stands.
#[derive(Clone, Debug)]
pub struct Records {
    /// The key sequence, shared by every slice and gather of the column.
    pub keys: Arc<[Arc<str>]>,
    /// One `Null`, `Int`, `Float`, `Bool` or `Str` column per key.
    pub fields: Vec<ColumnVec>,
    pub valid: Bitmap,
}

impl Records {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Row `i` rebuilt as the object that was shredded: its keys in their
    /// order, each value in its own type.
    pub fn get(&self, i: usize) -> Variant {
        if !self.valid.get(i) {
            return Variant::Null;
        }
        let fields = self.keys.iter().zip(&self.fields).map(|(k, f)| (k.clone(), f.get(i)));
        Variant::object(Object::from_distinct(fields.collect()))
    }

    /// The column of field `key`; `None` when the records have no such key.
    pub fn field(&self, key: &str) -> Option<&ColumnVec> {
        self.keys.iter().position(|k| &**k == key).map(|k| &self.fields[k])
    }

    /// True when rows of `other` append field by field: the same key
    /// sequence and, per key, the same representation — or an all-NULL
    /// field on either side, which adapts.
    pub fn same_shape(&self, other: &Records) -> bool {
        (Arc::ptr_eq(&self.keys, &other.keys) || self.keys == other.keys)
            && self.fields.iter().zip(&other.fields).all(|(a, b)| {
                matches!(a, ColumnVec::Null(_))
                    || matches!(b, ColumnVec::Null(_))
                    || std::mem::discriminant(a) == std::mem::discriminant(b)
            })
    }

    fn with_fields(&self, valid: Bitmap, f: impl FnMut(&ColumnVec) -> ColumnVec) -> Records {
        Records { keys: self.keys.clone(), fields: self.fields.iter().map(f).collect(), valid }
    }

    /// `n` NULL records of this key sequence.
    fn nulls_like(&self, n: usize) -> Records {
        self.with_fields(Bitmap::nulls(n), |_| ColumnVec::Null(n))
    }

    pub fn gather(&self, idx: &[usize]) -> Records {
        self.with_fields(self.valid.gather(idx), |f| f.gather(idx))
    }

    pub fn gather_opt(&self, idx: &[Option<usize>]) -> Records {
        self.with_fields(self.valid.gather_opt(idx), |f| f.gather_opt(idx))
    }

    pub fn slice(&self, lo: usize, hi: usize) -> Records {
        self.with_fields(self.valid.slice(lo, hi), |f| f.slice(lo, hi))
    }

    fn truncate(&mut self, n: usize) {
        self.fields.iter_mut().for_each(|f| f.truncate(n));
        self.valid.truncate(n);
    }

    /// Appends `other`, which must have [the same shape](Records::same_shape).
    pub fn append(&mut self, other: Records) {
        for (f, o) in self.fields.iter_mut().zip(other.fields) {
            f.append(o);
        }
        self.valid.extend_from(&other.valid);
    }

    /// Copies row `i` of `other`, which must have the same shape.
    fn push_from(&mut self, other: &Records, i: usize) {
        for (f, o) in self.fields.iter_mut().zip(&other.fields) {
            f.push_from(o, i);
        }
        self.valid.push(other.valid.get(i));
    }

    fn push_null(&mut self) {
        self.fields.iter_mut().for_each(ColumnVec::push_null);
        self.valid.push(false);
    }

    /// The keys once, the validity bits and the field columns.
    fn estimated_size(&self) -> u64 {
        self.keys.iter().map(|k| k.len() as u64 + 2).sum::<u64>()
            + self.len().div_ceil(8) as u64
            + self.fields.iter().map(ColumnVec::estimated_size).sum::<u64>()
    }

    fn approx_bytes(&self) -> u64 {
        self.len() as u64 / 8 + self.fields.iter().map(ColumnVec::approx_bytes).sum::<u64>()
    }
}

/// Arrays of flat records: row `r` holds items `ranges[r].0..ranges[r].1` of
/// `items`, and a NULL row holds none. The items are shared: a slice or a
/// gather of the column copies ranges, never items, so a list carried through
/// a join or a flatten costs two offsets a row. As sealed, the ranges tile
/// the items in row order.
#[derive(Clone, Debug)]
pub struct RecordLists {
    pub ranges: Vec<(u32, u32)>,
    pub valid: Bitmap,
    pub items: Arc<Records>,
}

impl RecordLists {
    /// Lists whose row `r` holds items `offsets[r]..offsets[r + 1]`.
    pub fn from_offsets(offsets: &[u32], valid: Bitmap, items: Records) -> RecordLists {
        let ranges = offsets.windows(2).map(|w| (w[0], w[1])).collect();
        RecordLists { ranges, valid, items: Arc::new(items) }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// The items of row `r`.
    pub fn range(&self, r: usize) -> Range<usize> {
        let (lo, hi) = self.ranges[r];
        lo as usize..hi as usize
    }

    /// Row `r` rebuilt as the array that was shredded.
    pub fn get(&self, r: usize) -> Variant {
        if !self.valid.get(r) {
            return Variant::Null;
        }
        Variant::array(self.range(r).map(|i| self.items.get(i)).collect())
    }

    /// The items of every row in row order, and the offsets of the rows in
    /// them: what a partition file stores. Lists whose ranges tile their
    /// items in row order — every sealed one — lend their own items.
    pub fn packed(&self) -> (Cow<'_, Records>, Vec<u32>) {
        let mut offsets = Vec::with_capacity(self.len() + 1);
        let (mut at, mut tiled) = (0u32, true);
        offsets.push(0);
        for &(lo, hi) in &self.ranges {
            tiled &= lo == at;
            at += hi - lo;
            offsets.push(at);
        }
        if tiled && at as usize == self.items.len() {
            return (Cow::Borrowed(&*self.items), offsets);
        }
        let idx: Vec<usize> = (0..self.len()).flat_map(|r| self.range(r)).collect();
        (Cow::Owned(self.items.gather(&idx)), offsets)
    }

    /// The lists with every NULL row made a valid empty list.
    pub fn filled(&self) -> RecordLists {
        let ranges = (self.ranges.iter().enumerate())
            .map(|(r, &(lo, hi))| {
                if self.valid.get(r) {
                    (lo, hi)
                } else {
                    (lo, lo)
                }
            })
            .collect();
        self.with_ranges(ranges, Bitmap::ones(self.len()))
    }

    fn with_ranges(&self, ranges: Vec<(u32, u32)>, valid: Bitmap) -> RecordLists {
        RecordLists { ranges, valid, items: self.items.clone() }
    }

    pub fn gather(&self, idx: &[usize]) -> RecordLists {
        self.with_ranges(idx.iter().map(|&r| self.ranges[r]).collect(), self.valid.gather(idx))
    }

    pub fn gather_opt(&self, idx: &[Option<usize>]) -> RecordLists {
        let ranges = idx.iter().map(|&r| r.map_or((0, 0), |r| self.ranges[r])).collect();
        self.with_ranges(ranges, self.valid.gather_opt(idx))
    }

    pub fn slice(&self, lo: usize, hi: usize) -> RecordLists {
        self.with_ranges(self.ranges[lo..hi].to_vec(), self.valid.slice(lo, hi))
    }

    fn truncate(&mut self, n: usize) {
        self.ranges.truncate(n);
        self.valid.truncate(n);
    }

    /// `n` NULL rows over items of this shape.
    fn nulls_like(&self, n: usize) -> RecordLists {
        RecordLists {
            ranges: vec![(0, 0); n],
            valid: Bitmap::nulls(n),
            items: Arc::new(self.items.nulls_like(0)),
        }
    }

    /// Appends `other`, whose items must have the same shape: its ranges
    /// as they are over shared items, else over a copy of its items.
    fn append(&mut self, other: RecordLists) {
        if !Arc::ptr_eq(&self.items, &other.items) {
            let base = self.items.len() as u32;
            let (items, offsets) = other.packed();
            Arc::make_mut(&mut self.items).append(items.into_owned());
            let shifted = offsets.windows(2).map(|w| (w[0] + base, w[1] + base));
            self.ranges.extend(shifted);
        } else {
            self.ranges.extend_from_slice(&other.ranges);
        }
        self.valid.extend_from(&other.valid);
    }

    fn push_null(&mut self) {
        self.ranges.push((0, 0));
        self.valid.push(false);
    }

    /// Offsets, validity bits and the items: O(fields), not O(values).
    fn estimated_size(&self) -> u64 {
        self.ranges.len() as u64 * 8 + self.len().div_ceil(8) as u64 + self.items.estimated_size()
    }

    /// Offsets and the share of the items the rows hold.
    fn approx_bytes(&self) -> u64 {
        let held: u64 = self.ranges.iter().map(|&(lo, hi)| u64::from(hi - lo)).sum();
        let per_item = self.items.approx_bytes() / self.items.len().max(1) as u64;
        self.ranges.len() as u64 * 8 + held * per_item
    }
}

/// One column of a sealed partition, a cached block or an execution batch: a
/// typed vector with a validity bitmap, an encoding of one, or boxed variants
/// for mixed/nested data. Fields are public so vectorized kernels and the
/// SNPT codec can match on the representation directly.
#[derive(Clone, Debug)]
pub enum ColumnVec {
    /// An untyped run of NULLs — the state of a column before any non-null
    /// value commits it to a type, and the free representation for columns a
    /// scan was told not to materialize.
    Null(usize),
    Int { vals: Vec<i64>, valid: Bitmap },
    Float { vals: Vec<f64>, valid: Bitmap },
    Bool { vals: Vec<bool>, valid: Bitmap },
    /// Strings use the `Option` niche directly; the `Arc` payload makes
    /// copies cheap.
    Str(Vec<Option<Arc<str>>>),
    /// Dictionary-encoded strings, built at seal time: `codes[i]` indexes the
    /// dictionary, [`NULL_CODE`] marks a NULL row. The dictionary is
    /// `Arc`-shared by every batch sliced from the column. Kernels
    /// compare/hash the codes and defer string materialization to
    /// project/sort/result boundaries.
    DictStr { codes: Vec<u32>, dict: Arc<Vec<Arc<str>>> },
    /// Run-length-encoded ints or bools, built at seal time: run `r` covers
    /// rows `ends[r-1]..ends[r]` and holds row `r` of `values` (a NULL run is
    /// a null value row).
    Runs { ends: Vec<u32>, values: Box<ColumnVec> },
    /// Objects of one key sequence with scalar fields, shredded at seal time
    /// (see [`crate::storage::encode`]).
    Objects(Records),
    /// Arrays of such objects, shredded at seal time.
    List(RecordLists),
    /// Boxed fallback for mixed types and nested values.
    Var(Vec<Variant>),
}

impl Default for ColumnVec {
    fn default() -> ColumnVec {
        ColumnVec::Null(0)
    }
}

impl ColumnVec {
    /// Empty untyped column.
    pub fn new() -> ColumnVec {
        ColumnVec::Null(0)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Null(n) => *n,
            ColumnVec::Int { vals, .. } => vals.len(),
            ColumnVec::Float { vals, .. } => vals.len(),
            ColumnVec::Bool { vals, .. } => vals.len(),
            ColumnVec::Str(v) => v.len(),
            ColumnVec::DictStr { codes, .. } => codes.len(),
            ColumnVec::Runs { ends, .. } => ends.last().map_or(0, |&e| e as usize),
            ColumnVec::Objects(r) => r.len(),
            ColumnVec::List(l) => l.len(),
            ColumnVec::Var(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads row `i` back as a variant.
    pub fn get(&self, i: usize) -> Variant {
        match self {
            ColumnVec::Null(n) => {
                debug_assert!(i < *n);
                Variant::Null
            }
            ColumnVec::Int { vals, valid } => {
                if valid.get(i) {
                    Variant::Int(vals[i])
                } else {
                    Variant::Null
                }
            }
            ColumnVec::Float { vals, valid } => {
                if valid.get(i) {
                    Variant::Float(vals[i])
                } else {
                    Variant::Null
                }
            }
            ColumnVec::Bool { vals, valid } => {
                if valid.get(i) {
                    Variant::Bool(vals[i])
                } else {
                    Variant::Null
                }
            }
            ColumnVec::Str(v) => v[i].clone().map_or(Variant::Null, Variant::Str),
            ColumnVec::DictStr { codes, dict } => {
                if codes[i] == NULL_CODE {
                    Variant::Null
                } else {
                    Variant::Str(dict[codes[i] as usize].clone())
                }
            }
            ColumnVec::Runs { ends, values } => values.get(run_index(ends, i)),
            ColumnVec::Objects(r) => r.get(i),
            ColumnVec::List(l) => l.get(i),
            ColumnVec::Var(v) => v[i].clone(),
        }
    }

    /// True when row `i` is NULL.
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            ColumnVec::Null(_) => true,
            ColumnVec::Int { valid, .. } => !valid.get(i),
            ColumnVec::Float { valid, .. } => !valid.get(i),
            ColumnVec::Bool { valid, .. } => !valid.get(i),
            ColumnVec::Str(v) => v[i].is_none(),
            ColumnVec::DictStr { codes, .. } => codes[i] == NULL_CODE,
            ColumnVec::Runs { ends, values } => values.is_null_at(run_index(ends, i)),
            ColumnVec::Objects(Records { valid, .. })
            | ColumnVec::List(RecordLists { valid, .. }) => !valid.get(i),
            ColumnVec::Var(v) => v[i].is_null(),
        }
    }

    /// Canonical group/distinct/join key for row `i`, equal to
    /// `Key::of(&self.get(i))` but without boxing typed values.
    pub fn key_at(&self, i: usize) -> Key {
        match self {
            ColumnVec::Null(_) => Key::Null,
            ColumnVec::Int { vals, valid } => {
                if valid.get(i) {
                    Key::Int(vals[i])
                } else {
                    Key::Null
                }
            }
            ColumnVec::Float { vals, valid } => {
                if valid.get(i) {
                    Key::of_f64(vals[i])
                } else {
                    Key::Null
                }
            }
            ColumnVec::Bool { vals, valid } => {
                if valid.get(i) {
                    Key::Bool(vals[i])
                } else {
                    Key::Null
                }
            }
            ColumnVec::Str(v) => v[i].clone().map_or(Key::Null, Key::Str),
            ColumnVec::DictStr { codes, dict } => {
                if codes[i] == NULL_CODE {
                    Key::Null
                } else {
                    Key::Str(dict[codes[i] as usize].clone())
                }
            }
            ColumnVec::Runs { ends, values } => values.key_at(run_index(ends, i)),
            ColumnVec::Objects(_) | ColumnVec::List(_) => Key::of(&self.get(i)),
            ColumnVec::Var(v) => Key::of(&v[i]),
        }
    }

    /// Appends a value, adapting the representation per the module contract:
    /// first non-null value commits the type, mismatches promote to `Var`.
    pub fn push(&mut self, v: Variant) {
        match (&mut *self, v) {
            (ColumnVec::Null(n), Variant::Null) => *n += 1,
            (ColumnVec::Int { vals, valid }, Variant::Int(i)) => {
                vals.push(i);
                valid.push(true);
            }
            (ColumnVec::Int { vals, valid }, Variant::Null) => {
                vals.push(0);
                valid.push(false);
            }
            (ColumnVec::Float { vals, valid }, Variant::Float(f)) => {
                vals.push(f);
                valid.push(true);
            }
            (ColumnVec::Float { vals, valid }, Variant::Null) => {
                vals.push(0.0);
                valid.push(false);
            }
            (ColumnVec::Bool { vals, valid }, Variant::Bool(b)) => {
                vals.push(b);
                valid.push(true);
            }
            (ColumnVec::Bool { vals, valid }, Variant::Null) => {
                vals.push(false);
                valid.push(false);
            }
            (ColumnVec::Str(vals), Variant::Str(s)) => vals.push(Some(s)),
            (ColumnVec::Str(vals), Variant::Null) => vals.push(None),
            (ColumnVec::DictStr { codes, .. }, Variant::Null) => codes.push(NULL_CODE),
            (ColumnVec::Objects(r), Variant::Null) => r.push_null(),
            (ColumnVec::List(l), Variant::Null) => l.push_null(),
            (
                ColumnVec::DictStr { .. }
                | ColumnVec::Runs { .. }
                | ColumnVec::Objects(_)
                | ColumnVec::List(_),
                v,
            ) => {
                // Encoded columns are scan-produced; a stray row push decodes
                // in place and retries under the adaptive contract.
                self.decode_in_place();
                self.push(v);
            }
            (ColumnVec::Var(vals), v) => vals.push(v),
            (_, v) => {
                self.adapt_for(&v);
                self.push(v);
            }
        }
    }

    /// Appends one NULL.
    pub fn push_null(&mut self) {
        self.push(Variant::Null);
    }

    /// Appends `n` NULLs.
    pub fn push_nulls(&mut self, n: usize) {
        if let ColumnVec::Null(len) = self {
            *len += n;
            return;
        }
        for _ in 0..n {
            self.push(Variant::Null);
        }
    }

    /// Re-types the column so `v` can be pushed natively: an untyped NULL run
    /// commits to `v`'s type (backfilling null slots); a committed column
    /// promotes to `Var`.
    fn adapt_for(&mut self, v: &Variant) {
        match self {
            ColumnVec::Null(n) => {
                let n = *n;
                *self = match v {
                    Variant::Int(_) => {
                        ColumnVec::Int { vals: vec![0; n], valid: Bitmap::nulls(n) }
                    }
                    Variant::Float(_) => {
                        ColumnVec::Float { vals: vec![0.0; n], valid: Bitmap::nulls(n) }
                    }
                    Variant::Bool(_) => {
                        ColumnVec::Bool { vals: vec![false; n], valid: Bitmap::nulls(n) }
                    }
                    Variant::Str(_) => ColumnVec::Str(vec![None; n]),
                    Variant::Array(_) | Variant::Object(_) => {
                        ColumnVec::Var(vec![Variant::Null; n])
                    }
                    Variant::Null => unreachable!("null never forces a type"),
                };
            }
            _ => {
                let vals = std::mem::take(self).into_variants();
                *self = ColumnVec::Var(vals);
            }
        }
    }

    /// Re-types an untyped NULL run to the representation of `other` so
    /// subsequent typed row copies stay typed.
    fn adapt_to(&mut self, other: &ColumnVec) {
        let ColumnVec::Null(n) = self else { return };
        let n = *n;
        *self = match other {
            ColumnVec::Null(_) => return,
            ColumnVec::Int { .. } => {
                ColumnVec::Int { vals: vec![0; n], valid: Bitmap::nulls(n) }
            }
            ColumnVec::Float { .. } => {
                ColumnVec::Float { vals: vec![0.0; n], valid: Bitmap::nulls(n) }
            }
            ColumnVec::Bool { .. } => {
                ColumnVec::Bool { vals: vec![false; n], valid: Bitmap::nulls(n) }
            }
            ColumnVec::Str(_) => ColumnVec::Str(vec![None; n]),
            // Sharing the dictionary keeps subsequent same-dict copies on the
            // cheap code path.
            ColumnVec::DictStr { dict, .. } => {
                ColumnVec::DictStr { codes: vec![NULL_CODE; n], dict: dict.clone() }
            }
            ColumnVec::Runs { values, .. } => {
                self.adapt_to(values);
                return;
            }
            // NULL records of the same keys, whose all-NULL fields adapt to
            // the rows copied after them.
            ColumnVec::Objects(r) => ColumnVec::Objects(r.nulls_like(n)),
            ColumnVec::List(l) => ColumnVec::List(l.nulls_like(n)),
            ColumnVec::Var(_) => ColumnVec::Var(vec![Variant::Null; n]),
        };
    }

    /// Copies row `i` of `other` to the end of this column without boxing
    /// when the representations match.
    pub fn push_from(&mut self, other: &ColumnVec, i: usize) {
        if matches!(self, ColumnVec::Null(_)) && !matches!(other, ColumnVec::Null(_)) {
            self.adapt_to(other);
        }
        match (&mut *self, other) {
            (ColumnVec::Null(n), ColumnVec::Null(_)) => *n += 1,
            (
                ColumnVec::Int { vals, valid },
                ColumnVec::Int { vals: ov, valid: ovalid },
            ) => {
                vals.push(ov[i]);
                valid.push(ovalid.get(i));
            }
            (
                ColumnVec::Float { vals, valid },
                ColumnVec::Float { vals: ov, valid: ovalid },
            ) => {
                vals.push(ov[i]);
                valid.push(ovalid.get(i));
            }
            (
                ColumnVec::Bool { vals, valid },
                ColumnVec::Bool { vals: ov, valid: ovalid },
            ) => {
                vals.push(ov[i]);
                valid.push(ovalid.get(i));
            }
            (ColumnVec::Str(vals), ColumnVec::Str(ov)) => vals.push(ov[i].clone()),
            (
                ColumnVec::DictStr { codes, dict },
                ColumnVec::DictStr { codes: oc, dict: od },
            ) if Arc::ptr_eq(dict, od) => codes.push(oc[i]),
            (ColumnVec::Str(vals), ColumnVec::DictStr { codes, dict }) => vals
                .push((codes[i] != NULL_CODE).then(|| dict[codes[i] as usize].clone())),
            (ColumnVec::Objects(r), ColumnVec::Objects(o)) if r.same_shape(o) => r.push_from(o, i),
            (ColumnVec::List(l), ColumnVec::List(o)) if l.items.same_shape(&o.items) => {
                l.append(o.slice(i, i + 1))
            }
            (ColumnVec::Var(vals), ColumnVec::Var(ov)) => vals.push(ov[i].clone()),
            _ => self.push(other.get(i)),
        }
    }

    /// Appends all rows of `other`, promoting on representation mismatch.
    pub fn append(&mut self, other: ColumnVec) {
        if matches!(self, ColumnVec::Null(0)) {
            *self = other;
            return;
        }
        if matches!(self, ColumnVec::Null(_)) && !matches!(other, ColumnVec::Null(_)) {
            self.adapt_to(&other);
        }
        match (&mut *self, other) {
            (ColumnVec::Null(n), ColumnVec::Null(m)) => *n += m,
            (
                ColumnVec::Int { vals, valid },
                ColumnVec::Int { vals: ov, valid: ovalid },
            ) => {
                vals.extend(ov);
                valid.extend_from(&ovalid);
            }
            (
                ColumnVec::Float { vals, valid },
                ColumnVec::Float { vals: ov, valid: ovalid },
            ) => {
                vals.extend(ov);
                valid.extend_from(&ovalid);
            }
            (
                ColumnVec::Bool { vals, valid },
                ColumnVec::Bool { vals: ov, valid: ovalid },
            ) => {
                vals.extend(ov);
                valid.extend_from(&ovalid);
            }
            (ColumnVec::Str(vals), ColumnVec::Str(ov)) => vals.extend(ov),
            (
                ColumnVec::DictStr { codes, dict },
                ColumnVec::DictStr { codes: oc, dict: od },
            ) if Arc::ptr_eq(dict, &od) => codes.extend(oc),
            (ColumnVec::Str(vals), ColumnVec::DictStr { codes, dict }) => {
                vals.extend(codes.iter().map(|&c| {
                    (c != NULL_CODE).then(|| dict[c as usize].clone())
                }));
            }
            (ColumnVec::Objects(r), ColumnVec::Objects(o)) if r.same_shape(&o) => r.append(o),
            (ColumnVec::List(l), ColumnVec::List(o)) if l.items.same_shape(&o.items) => l.append(o),
            (ColumnVec::Var(vals), ColumnVec::Var(ov)) => vals.extend(ov),
            (_, other) => {
                // Representation mismatch: row-wise pushes promote as needed.
                for i in 0..other.len() {
                    self.push(other.get(i));
                }
            }
        }
    }

    /// Splits the column at `at`, returning the tail.
    pub fn split_off(&mut self, at: usize) -> ColumnVec {
        match self {
            ColumnVec::Null(n) => {
                let tail = *n - at;
                *n = at;
                ColumnVec::Null(tail)
            }
            ColumnVec::Int { vals, valid } => {
                ColumnVec::Int { vals: vals.split_off(at), valid: valid.split_off(at) }
            }
            ColumnVec::Float { vals, valid } => {
                ColumnVec::Float { vals: vals.split_off(at), valid: valid.split_off(at) }
            }
            ColumnVec::Bool { vals, valid } => {
                ColumnVec::Bool { vals: vals.split_off(at), valid: valid.split_off(at) }
            }
            ColumnVec::Str(v) => ColumnVec::Str(v.split_off(at)),
            ColumnVec::DictStr { codes, dict } => {
                ColumnVec::DictStr { codes: codes.split_off(at), dict: dict.clone() }
            }
            ColumnVec::Runs { ends, values } => {
                // Runs fully before `at` stay; a run straddling `at` is
                // truncated in the head and re-opened (same value) in the
                // tail.
                let at_u = at as u32;
                let r = ends.partition_point(|&e| e <= at_u);
                let run_start = if r == 0 { 0 } else { ends[r - 1] };
                let straddle = r < ends.len() && run_start < at_u;
                let tail_ends: Vec<u32> = ends[r..].iter().map(|&e| e - at_u).collect();
                ends.truncate(r);
                let tail_values = values.split_off(r);
                if straddle {
                    ends.push(at_u);
                    values.push_from(&tail_values, 0);
                }
                ColumnVec::Runs { ends: tail_ends, values: Box::new(tail_values) }
            }
            ColumnVec::Objects(_) | ColumnVec::List(_) => {
                let tail = self.slice(at, self.len());
                self.truncate(at);
                tail
            }
            ColumnVec::Var(v) => ColumnVec::Var(v.split_off(at)),
        }
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        match self {
            ColumnVec::Null(len) => *len = (*len).min(n),
            ColumnVec::Int { vals, valid } => {
                vals.truncate(n);
                valid.truncate(n);
            }
            ColumnVec::Float { vals, valid } => {
                vals.truncate(n);
                valid.truncate(n);
            }
            ColumnVec::Bool { vals, valid } => {
                vals.truncate(n);
                valid.truncate(n);
            }
            ColumnVec::Str(v) => v.truncate(n),
            ColumnVec::DictStr { codes, .. } => codes.truncate(n),
            ColumnVec::Runs { ends, values } => {
                let r = ends.partition_point(|&e| (e as usize) <= n);
                let run_start = if r == 0 { 0 } else { ends[r - 1] as usize };
                if r < ends.len() && run_start < n {
                    values.truncate(r + 1);
                    ends.truncate(r);
                    ends.push(n as u32);
                } else {
                    values.truncate(r);
                    ends.truncate(r);
                }
            }
            ColumnVec::Objects(r) => r.truncate(n),
            ColumnVec::List(l) => l.truncate(n),
            ColumnVec::Var(v) => v.truncate(n),
        }
    }

    /// Builds a new column of `idx.len()` rows taking row `idx[j]` for output
    /// row `j`, preserving the typed representation.
    pub fn gather(&self, idx: &[usize]) -> ColumnVec {
        match self {
            ColumnVec::Null(_) => ColumnVec::Null(idx.len()),
            ColumnVec::Int { vals, valid } => ColumnVec::Int {
                vals: idx.iter().map(|&i| vals[i]).collect(),
                valid: valid.gather(idx),
            },
            ColumnVec::Float { vals, valid } => ColumnVec::Float {
                vals: idx.iter().map(|&i| vals[i]).collect(),
                valid: valid.gather(idx),
            },
            ColumnVec::Bool { vals, valid } => ColumnVec::Bool {
                vals: idx.iter().map(|&i| vals[i]).collect(),
                valid: valid.gather(idx),
            },
            ColumnVec::Str(v) => {
                ColumnVec::Str(idx.iter().map(|&i| v[i].clone()).collect())
            }
            ColumnVec::DictStr { codes, dict } => ColumnVec::DictStr {
                codes: idx.iter().map(|&i| codes[i]).collect(),
                dict: dict.clone(),
            },
            ColumnVec::Runs { ends, values } => {
                // Gathered runs lose contiguity; emit the typed decoded form.
                let mut out = ColumnVec::new();
                for &i in idx {
                    out.push_from(values, run_index(ends, i));
                }
                out
            }
            ColumnVec::Objects(r) => ColumnVec::Objects(r.gather(idx)),
            ColumnVec::List(l) => ColumnVec::List(l.gather(idx)),
            ColumnVec::Var(v) => {
                ColumnVec::Var(idx.iter().map(|&i| v[i].clone()).collect())
            }
        }
    }

    /// Like [`ColumnVec::gather`], but `None` entries produce NULL rows
    /// (the outer-join emit path).
    pub fn gather_opt(&self, idx: &[Option<usize>]) -> ColumnVec {
        match self {
            ColumnVec::Null(_) => ColumnVec::Null(idx.len()),
            ColumnVec::Int { vals, valid } => ColumnVec::Int {
                vals: idx.iter().map(|&i| i.map_or(0, |i| vals[i])).collect(),
                valid: valid.gather_opt(idx),
            },
            ColumnVec::Float { vals, valid } => ColumnVec::Float {
                vals: idx.iter().map(|&i| i.map_or(0.0, |i| vals[i])).collect(),
                valid: valid.gather_opt(idx),
            },
            ColumnVec::Bool { vals, valid } => ColumnVec::Bool {
                vals: idx.iter().map(|&i| i.is_some_and(|i| vals[i])).collect(),
                valid: valid.gather_opt(idx),
            },
            ColumnVec::Str(v) => ColumnVec::Str(
                idx.iter().map(|&i| i.and_then(|i| v[i].clone())).collect(),
            ),
            ColumnVec::DictStr { codes, dict } => ColumnVec::DictStr {
                codes: idx.iter().map(|&i| i.map_or(NULL_CODE, |i| codes[i])).collect(),
                dict: dict.clone(),
            },
            ColumnVec::Runs { ends, values } => {
                let mut out = ColumnVec::new();
                for &i in idx {
                    match i {
                        Some(i) => out.push_from(values, run_index(ends, i)),
                        None => out.push_null(),
                    }
                }
                out
            }
            ColumnVec::Objects(r) => ColumnVec::Objects(r.gather_opt(idx)),
            ColumnVec::List(l) => ColumnVec::List(l.gather_opt(idx)),
            ColumnVec::Var(v) => ColumnVec::Var(
                idx.iter()
                    .map(|&i| i.map_or(Variant::Null, |i| v[i].clone()))
                    .collect(),
            ),
        }
    }

    /// Copies rows `lo..hi` into a new column of the same representation —
    /// the scan boundary. Values are slice-copied, the validity bitmap is
    /// copied a word at a time, a dictionary stays shared through its `Arc`,
    /// and runs are cut to the range with their ends re-based to `lo`.
    pub fn slice(&self, lo: usize, hi: usize) -> ColumnVec {
        match self {
            ColumnVec::Null(_) => ColumnVec::Null(hi - lo),
            ColumnVec::Int { vals, valid } => {
                ColumnVec::Int { vals: vals[lo..hi].to_vec(), valid: valid.slice(lo, hi) }
            }
            ColumnVec::Float { vals, valid } => {
                ColumnVec::Float { vals: vals[lo..hi].to_vec(), valid: valid.slice(lo, hi) }
            }
            ColumnVec::Bool { vals, valid } => {
                ColumnVec::Bool { vals: vals[lo..hi].to_vec(), valid: valid.slice(lo, hi) }
            }
            ColumnVec::Str(v) => ColumnVec::Str(v[lo..hi].to_vec()),
            ColumnVec::DictStr { codes, dict } => {
                ColumnVec::DictStr { codes: codes[lo..hi].to_vec(), dict: dict.clone() }
            }
            ColumnVec::Runs { ends, values } => {
                let lo_r = run_index(ends, lo);
                let hi_r = if hi == lo { lo_r } else { run_index(ends, hi - 1) + 1 };
                ColumnVec::Runs {
                    ends: ends[lo_r..hi_r]
                        .iter()
                        .map(|&e| (e as usize).min(hi) as u32 - lo as u32)
                        .collect(),
                    values: Box::new(values.slice(lo_r, hi_r)),
                }
            }
            ColumnVec::Objects(r) => ColumnVec::Objects(r.slice(lo, hi)),
            ColumnVec::List(l) => ColumnVec::List(l.slice(lo, hi)),
            ColumnVec::Var(v) => ColumnVec::Var(v[lo..hi].to_vec()),
        }
    }

    /// True when the column is an encoded (dictionary, run-length or
    /// shredded) representation.
    pub fn is_encoded(&self) -> bool {
        matches!(
            self,
            ColumnVec::DictStr { .. }
                | ColumnVec::Runs { .. }
                | ColumnVec::Objects(_)
                | ColumnVec::List(_)
        )
    }

    /// Plain (decoded) copy of the column: `DictStr` materializes strings,
    /// `Runs` expands to its typed form, shredded records box into the
    /// variants they were shredded from; plain columns clone.
    pub fn decoded(&self) -> ColumnVec {
        match self {
            ColumnVec::DictStr { codes, dict } => ColumnVec::Str(
                codes
                    .iter()
                    .map(|&c| (c != NULL_CODE).then(|| dict[c as usize].clone()))
                    .collect(),
            ),
            // Typed runs expand typed. Runs with no value at all stay an
            // untyped NULL column, as pushing their rows leaves them.
            ColumnVec::Runs { ends, values } => match &**values {
                ColumnVec::Int { vals, valid } if valid.count_valid() > 0 => {
                    let (vals, valid) = expand_runs(ends, vals, valid);
                    ColumnVec::Int { vals, valid }
                }
                ColumnVec::Float { vals, valid } if valid.count_valid() > 0 => {
                    let (vals, valid) = expand_runs(ends, vals, valid);
                    ColumnVec::Float { vals, valid }
                }
                ColumnVec::Bool { vals, valid } if valid.count_valid() > 0 => {
                    let (vals, valid) = expand_runs(ends, vals, valid);
                    ColumnVec::Bool { vals, valid }
                }
                _ => {
                    let mut out = ColumnVec::new();
                    let mut start = 0usize;
                    for (r, &end) in ends.iter().enumerate() {
                        let v = values.get(r);
                        if v.is_null() {
                            out.push_nulls(end as usize - start);
                        } else {
                            for _ in start..end as usize {
                                out.push(v.clone());
                            }
                        }
                        start = end as usize;
                    }
                    out
                }
            },
            ColumnVec::Objects(_) | ColumnVec::List(_) => {
                ColumnVec::Var((0..self.len()).map(|i| self.get(i)).collect())
            }
            other => other.clone(),
        }
    }

    /// Replaces an encoded column with its decoded form in place; plain
    /// columns are untouched.
    pub fn decode_in_place(&mut self) {
        if self.is_encoded() {
            *self = self.decoded();
        }
    }

    /// Builds a column from boxed variants via adaptive pushes.
    pub fn from_variants(vals: Vec<Variant>) -> ColumnVec {
        let mut col = ColumnVec::new();
        for v in vals {
            col.push(v);
        }
        col
    }

    /// Consumes the column into boxed variants.
    pub fn into_variants(self) -> Vec<Variant> {
        match self {
            ColumnVec::Var(v) => v,
            other => (0..other.len()).map(|i| other.get(i)).collect(),
        }
    }

    /// Byte size of the column *as held*, exact over its values: scan
    /// accounting for memory partitions, micro-partition sizing, and what the
    /// buffer cache and the governor charge for a decoded block. Encoded
    /// columns charge their encoded size — codes plus the shared dictionary,
    /// run offsets plus run values, or offsets plus the record fields (summed
    /// per field, never per record) — never the materialized estimate.
    pub fn estimated_size(&self) -> u64 {
        match self {
            ColumnVec::Null(n) => *n as u64,
            ColumnVec::Int { vals, .. } => vals.len() as u64 * 8,
            ColumnVec::Float { vals, .. } => vals.len() as u64 * 8,
            ColumnVec::Bool { vals, .. } => vals.len() as u64,
            ColumnVec::Str(v) => {
                v.iter().map(|s| s.as_ref().map_or(1, |s| s.len() as u64 + 2)).sum()
            }
            ColumnVec::DictStr { codes, dict } => {
                codes.len() as u64 * 4 + dict.iter().map(|s| s.len() as u64 + 2).sum::<u64>()
            }
            ColumnVec::Runs { ends, values } => {
                ends.len() as u64 * 4 + values.estimated_size()
            }
            ColumnVec::Objects(r) => r.estimated_size(),
            ColumnVec::List(l) => l.estimated_size(),
            ColumnVec::Var(v) => v.iter().map(Variant::estimated_size).sum(),
        }
    }

    /// Cheap memory estimate for governance accounting. Typed columns are
    /// exact; `Str`/`Var` columns extrapolate a first-row sample over all
    /// rows, matching the pre-vectorization `Chunk` estimate in spirit (O(1)
    /// per column, catches the large-nested-value blow-ups).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            ColumnVec::Null(n) => *n as u64,
            ColumnVec::Int { vals, .. } => vals.len() as u64 * 8 + (vals.len() as u64 / 8),
            ColumnVec::Float { vals, .. } => {
                vals.len() as u64 * 8 + (vals.len() as u64 / 8)
            }
            ColumnVec::Bool { vals, .. } => vals.len() as u64 / 4 + 1,
            ColumnVec::Str(v) => {
                let sample = v
                    .iter()
                    .find_map(|s| s.as_ref())
                    .map_or(1, |s| s.len() as u64 + 2);
                v.len() as u64 * (sample + 8)
            }
            // Encoded columns charge their encoded footprint: codes/run ends
            // plus the (shared) dictionary or per-run values — not the
            // materialized strings they stand for.
            ColumnVec::DictStr { codes, dict } => {
                codes.len() as u64 * 4
                    + dict.iter().map(|s| s.len() as u64 + 2).sum::<u64>()
            }
            ColumnVec::Runs { ends, values } => {
                ends.len() as u64 * 4 + values.approx_bytes()
            }
            ColumnVec::Objects(r) => r.approx_bytes(),
            ColumnVec::List(l) => l.approx_bytes(),
            ColumnVec::Var(v) => {
                let flat = v.len() as u64 * std::mem::size_of::<Variant>() as u64;
                let sample = v.first().map_or(0, Variant::estimated_size);
                flat + sample * v.len() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_roundtrip_and_truncate() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        let tail = b.split_off(65);
        assert_eq!(b.len(), 65);
        assert_eq!(tail.len(), 65);
        assert_eq!(tail.get(0), 65 % 3 == 0);
        b.truncate(3);
        assert_eq!(b.count_valid(), 1);
    }

    #[test]
    fn push_commits_type_on_first_value() {
        let mut c = ColumnVec::new();
        c.push(Variant::Null);
        c.push(Variant::Null);
        c.push(Variant::Int(7));
        assert!(matches!(c, ColumnVec::Int { .. }));
        assert!(c.get(0).is_null());
        assert!(c.is_null_at(1));
        assert_eq!(c.get(2), Variant::Int(7));
    }

    #[test]
    fn push_mismatch_promotes_without_loss() {
        let mut c = ColumnVec::new();
        c.push(Variant::Int(1));
        c.push(Variant::Float(2.5));
        assert!(matches!(c, ColumnVec::Var(_)));
        // Promotion preserves the exact variants — no Int→Float coercion.
        assert_eq!(c.get(0), Variant::Int(1));
        assert!(matches!(c.get(0), Variant::Int(_)));
        assert_eq!(c.get(1), Variant::Float(2.5));
    }

    #[test]
    fn gather_preserves_type_and_nulls() {
        let mut c = ColumnVec::new();
        for v in [Variant::Int(1), Variant::Null, Variant::Int(3)] {
            c.push(v);
        }
        let g = c.gather(&[2, 0, 1, 2]);
        assert!(matches!(g, ColumnVec::Int { .. }));
        assert_eq!(g.get(0), Variant::Int(3));
        assert_eq!(g.get(1), Variant::Int(1));
        assert!(g.is_null_at(2));
        assert_eq!(g.get(3), Variant::Int(3));
        let go = c.gather_opt(&[Some(0), None]);
        assert_eq!(go.get(0), Variant::Int(1));
        assert!(go.is_null_at(1));
    }

    #[test]
    fn append_and_split_roundtrip() {
        let mut a = ColumnVec::from_variants(vec![Variant::Int(1), Variant::Int(2)]);
        let b = ColumnVec::from_variants(vec![Variant::Int(3), Variant::Null]);
        a.append(b);
        assert_eq!(a.len(), 4);
        assert!(matches!(a, ColumnVec::Int { .. }));
        let tail = a.split_off(1);
        assert_eq!(a.len(), 1);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.get(0), Variant::Int(2));
        assert!(tail.is_null_at(2));
        // Mismatched append promotes.
        let mut m = ColumnVec::from_variants(vec![Variant::Int(1)]);
        m.append(ColumnVec::from_variants(vec![Variant::str("x")]));
        assert_eq!(m.get(1), Variant::str("x"));
    }

    #[test]
    fn bitmap_slice_at_word_boundaries() {
        let mut b = Bitmap::new();
        for i in 0..200 {
            b.push(i % 3 == 0 || i % 7 == 0);
        }
        let cuts = [0, 1, 63, 64, 65, 127, 128, 129, 200];
        for &lo in &cuts {
            for &hi in cuts.iter().filter(|&&hi| hi >= lo) {
                let s = b.slice(lo, hi);
                assert_eq!(s.len(), hi - lo, "{lo}..{hi}");
                let mut bitwise = Bitmap::new();
                for i in lo..hi {
                    bitwise.push(b.get(i));
                }
                // Equal as values, tail bits included: `count_valid` and
                // later pushes rely on a clean last block.
                assert_eq!(s, bitwise, "{lo}..{hi}");
            }
        }
    }

    /// `extend_from`, `split_off` and the validity half of `gather` /
    /// `gather_opt` move whole words; each must equal its bit-at-a-time
    /// definition — tail bits included — at every alignment.
    #[test]
    fn bitmap_word_operations_match_their_bitwise_definitions() {
        // A fixed pseudo-random pattern (an LCG), so a failure reproduces.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 63 == 1
        };
        let pushed = |bits: &[bool]| {
            let mut b = Bitmap::new();
            bits.iter().for_each(|&v| b.push(v));
            b
        };
        let lens = [0usize, 1, 5, 63, 64, 65, 127, 128, 130, 200];
        for &n in &lens {
            let head: Vec<bool> = (0..n).map(|_| bit()).collect();
            for &m in &lens {
                let tail: Vec<bool> = (0..m).map(|_| bit()).collect();
                let mut joined = pushed(&head);
                joined.extend_from(&pushed(&tail));
                let all: Vec<bool> = head.iter().chain(&tail).copied().collect();
                assert_eq!(joined, pushed(&all), "extend {n} + {m}");
                assert_eq!(joined.count_valid(), all.iter().filter(|&&v| v).count());
                // A push after the append lands in a clean tail.
                joined.push(true);
                assert!(joined.get(n + m), "push after extend {n} + {m}");
                joined.truncate(n + m);

                let split = joined.split_off(n);
                assert_eq!(joined, pushed(&head), "split head {n} | {m}");
                assert_eq!(split, pushed(&tail), "split tail {n} | {m}");
            }
            if n == 0 {
                continue;
            }
            let src = pushed(&head);
            for &k in &lens {
                let idx: Vec<usize> = (0..k).map(|j| (j * 7 + n / 2) % n).collect();
                let want: Vec<bool> = idx.iter().map(|&i| head[i]).collect();
                assert_eq!(src.gather(&idx), pushed(&want), "gather {k} of {n}");
                let opt: Vec<Option<usize>> =
                    idx.iter().enumerate().map(|(j, &i)| (j % 3 != 1).then_some(i)).collect();
                let want: Vec<bool> = opt.iter().map(|i| i.is_some_and(|i| head[i])).collect();
                assert_eq!(src.gather_opt(&opt), pushed(&want), "gather_opt {k} of {n}");
            }
            assert_eq!(Bitmap::ones(n).gather(&[0, n - 1, 0]), Bitmap::ones(3));
        }
    }

    #[test]
    fn bitmap_from_le_bytes_matches_pushes_and_drops_stray_bits() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let mut pushed = Bitmap::new();
            let mut bytes = vec![0u8; len.div_ceil(8)];
            for i in 0..len {
                let bit = i % 5 != 1;
                pushed.push(bit);
                bytes[i / 8] |= u8::from(bit) << (i % 8);
            }
            assert_eq!(Bitmap::from_le_bytes(&bytes, len), pushed, "len {len}");
            if !len.is_multiple_of(8) {
                *bytes.last_mut().unwrap() |= !0u8 << (len % 8);
                assert_eq!(Bitmap::from_le_bytes(&bytes, len), pushed, "stray, len {len}");
            }
        }
    }

    #[test]
    fn run_index_finds_covering_run() {
        let ends = vec![3u32, 5, 9];
        assert_eq!(run_index(&ends, 0), 0);
        assert_eq!(run_index(&ends, 2), 0);
        assert_eq!(run_index(&ends, 3), 1);
        assert_eq!(run_index(&ends, 4), 1);
        assert_eq!(run_index(&ends, 8), 2);
    }

    #[test]
    fn slice_stays_typed() {
        let data = ColumnVec::from_variants(vec![
            Variant::Float(1.5),
            Variant::Null,
            Variant::Float(2.5),
            Variant::Float(3.5),
        ]);
        let c = data.slice(1, 4);
        assert!(matches!(c, ColumnVec::Float { .. }));
        assert_eq!(c.len(), 3);
        assert!(c.is_null_at(0));
        assert_eq!(c.get(2), Variant::Float(3.5));
    }

    fn dict_data() -> ColumnVec {
        let dict: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b")];
        ColumnVec::DictStr {
            codes: vec![0, 1, NULL_CODE, 0, 1, 1],
            dict: Arc::new(dict),
        }
    }

    fn runs_data() -> ColumnVec {
        ColumnVec::Runs {
            ends: vec![3, 5, 9],
            values: Box::new(ColumnVec::from_variants(vec![
                Variant::Int(7),
                Variant::Null,
                Variant::Int(9),
            ])),
        }
    }

    #[test]
    fn slice_keeps_encodings_and_decodes_equal() {
        let d = dict_data();
        let enc = d.slice(1, 5);
        assert!(matches!(enc, ColumnVec::DictStr { .. }));
        let dec = d.slice(1, 5).decoded();
        assert!(matches!(dec, ColumnVec::Str(_)));
        for i in 0..4 {
            assert_eq!(enc.get(i), dec.get(i), "row {i}");
            assert_eq!(enc.key_at(i), dec.key_at(i), "key {i}");
            assert_eq!(enc.is_null_at(i), dec.is_null_at(i), "null {i}");
        }

        let r = runs_data();
        let enc = r.slice(2, 8);
        assert!(matches!(enc, ColumnVec::Runs { .. }));
        assert_eq!(enc.len(), 6);
        let dec = r.slice(2, 8).decoded();
        assert!(matches!(dec, ColumnVec::Int { .. }));
        for i in 0..6 {
            assert_eq!(enc.get(i), dec.get(i), "row {i}");
            assert_eq!(enc.key_at(i), dec.key_at(i), "key {i}");
        }
    }

    /// Typed runs expand to the very column their rows, pushed one by one,
    /// make — NULL slots, `-0.0` and NaN included.
    #[test]
    fn typed_runs_decode_as_their_rows_pushed() {
        let runs = |values: Vec<Variant>, ends: Vec<u32>| ColumnVec::Runs {
            ends,
            values: Box::new(ColumnVec::from_variants(values)),
        };
        for col in [
            runs_data(),
            runs(
                vec![Variant::Null, Variant::Float(-0.0), Variant::Float(f64::NAN)],
                vec![2, 2, 5],
            ),
            runs(vec![Variant::Bool(true), Variant::Null], vec![1, 4]),
            runs(vec![Variant::Null, Variant::Null], vec![2, 3]),
        ] {
            let pushed = ColumnVec::from_variants((0..col.len()).map(|i| col.get(i)).collect());
            assert_eq!(format!("{:?}", col.decoded()), format!("{pushed:?}"));
        }
    }

    #[test]
    fn encoded_columns_decode_on_mutation_and_stay_equal() {
        let mut c = dict_data().slice(0, 6);
        c.push(Variant::str("z"));
        assert!(matches!(c, ColumnVec::Str(_)));
        assert_eq!(c.get(1), Variant::str("b"));
        assert_eq!(c.get(6), Variant::str("z"));
        assert!(c.is_null_at(2));

        let mut r = runs_data().slice(0, 9);
        r.push(Variant::Int(42));
        assert!(matches!(r, ColumnVec::Int { .. }));
        assert_eq!(r.get(0), Variant::Int(7));
        assert!(r.is_null_at(3));
        assert_eq!(r.get(9), Variant::Int(42));
    }

    #[test]
    fn encoded_split_truncate_gather_match_decoded() {
        for at in 0..=9 {
            let mut enc = runs_data().slice(0, 9);
            let mut dec = enc.decoded();
            let enc_tail = enc.split_off(at);
            let dec_tail = dec.split_off(at);
            assert_eq!(enc.len(), at, "head len at {at}");
            assert_eq!(enc_tail.len(), 9 - at);
            for i in 0..at {
                assert_eq!(enc.get(i), dec.get(i), "head row {i} at {at}");
            }
            for i in 0..9 - at {
                assert_eq!(enc_tail.get(i), dec_tail.get(i), "tail row {i} at {at}");
            }
        }
        for n in 0..=9 {
            let mut enc = runs_data().slice(0, 9);
            let dec = enc.decoded();
            enc.truncate(n);
            assert_eq!(enc.len(), n, "truncate {n}");
            for i in 0..n {
                assert_eq!(enc.get(i), dec.get(i), "row {i} after truncate {n}");
            }
        }
        let enc = dict_data().slice(0, 6);
        let g = enc.gather(&[5, 2, 0]);
        assert!(matches!(g, ColumnVec::DictStr { .. }));
        assert_eq!(g.get(0), Variant::str("b"));
        assert!(g.is_null_at(1));
        let go = enc.gather_opt(&[Some(1), None]);
        assert_eq!(go.get(0), Variant::str("b"));
        assert!(go.is_null_at(1));
        let r = runs_data().slice(0, 9);
        let rg = r.gather(&[8, 4, 0]);
        assert!(matches!(rg, ColumnVec::Int { .. }));
        assert_eq!(rg.get(0), Variant::Int(9));
        assert!(rg.is_null_at(1));
        assert_eq!(rg.get(2), Variant::Int(7));
    }

    #[test]
    fn dict_append_shares_dictionary_and_push_from_stays_on_codes() {
        let data = dict_data();
        let mut a = data.slice(0, 3);
        let b = data.slice(3, 6);
        // Same dict Arc: append stays on codes.
        a.append(b.clone());
        assert!(matches!(a, ColumnVec::DictStr { .. }));
        assert_eq!(a.len(), 6);
        assert_eq!(a.get(4), Variant::str("b"));
        // A NULL run adapts to the dictionary, then copies codes.
        let mut dst = ColumnVec::new();
        dst.push_nulls(1);
        dst.push_from(&b, 0);
        assert!(matches!(dst, ColumnVec::DictStr { .. }));
        assert!(dst.is_null_at(0));
        assert_eq!(dst.get(1), Variant::str("a"));
        // approx_bytes charges the encoded footprint, not materialized
        // strings.
        let enc = dict_data().slice(0, 6);
        assert!(enc.approx_bytes() < enc.decoded().approx_bytes());
    }

    #[test]
    fn key_at_matches_boxed_keys() {
        let vals = vec![
            Variant::Int(1),
            Variant::Float(1.0),
            Variant::Float(-0.0),
            Variant::Float(f64::NAN),
            Variant::Null,
            Variant::str("s"),
            Variant::Bool(true),
        ];
        for v in &vals {
            let mut c = ColumnVec::new();
            c.push(v.clone());
            assert_eq!(c.key_at(0), Key::of(v), "typed key for {v:?}");
        }
        // And on a promoted mixed column.
        let c = ColumnVec::from_variants(vals.clone());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(c.key_at(i), Key::of(v));
        }
    }

    /// Records and lists of records, shredded, and their boxed rows: every
    /// operation gives the rows the same operation gives the boxed column.
    #[test]
    fn shredded_columns_move_rows_as_their_boxed_values() {
        let record = |q: i64, pt: Option<f64>| {
            let mut o = Object::new();
            o.insert("Q", Variant::Int(q));
            o.insert("PT", pt.map_or(Variant::Null, Variant::Float));
            Variant::object(o)
        };
        let objects: Vec<Variant> = (0..9)
            .map(|i| match i % 4 {
                1 => Variant::Null,
                _ => record(i, (i % 3 > 0).then_some(i as f64 / 2.0)),
            })
            .collect();
        let lists: Vec<Variant> = (0..9)
            .map(|i| match i % 4 {
                1 => Variant::Null,
                2 => Variant::array(Vec::new()),
                _ => Variant::array(
                    (0..i % 3 + 1).map(|j| record(i * 10 + j, Some(j as f64))).collect(),
                ),
            })
            .collect();
        let rows =
            |c: &ColumnVec| (0..c.len()).map(|i| format!("{:?}", c.get(i))).collect::<Vec<_>>();
        for boxed in [objects, lists] {
            let col = crate::storage::encode::encode_column(ColumnVec::Var(boxed.clone()));
            assert!(col.is_encoded(), "{col:?}");
            let var = ColumnVec::Var(boxed);
            assert_eq!(rows(&col), rows(&var));
            assert_eq!(rows(&col.decoded()), rows(&var));
            assert_eq!(rows(&col.slice(2, 7)), rows(&var.slice(2, 7)));
            let idx = [8, 0, 3, 3, 1];
            assert_eq!(rows(&col.gather(&idx)), rows(&var.gather(&idx)));
            let opt = [Some(4), None, Some(1), Some(0)];
            assert_eq!(rows(&col.gather_opt(&opt)), rows(&var.gather_opt(&opt)));
            for at in [0, 3, 9] {
                let (mut head, mut vhead) = (col.clone(), var.clone());
                let (tail, vtail) = (head.split_off(at), vhead.split_off(at));
                assert_eq!(rows(&head), rows(&vhead), "head at {at}");
                assert_eq!(rows(&tail), rows(&vtail), "tail at {at}");
                // Appending the tail of a gathered copy, and copying rows
                // one by one into NULLs, keep the shape.
                head.append(tail.gather(&(0..tail.len()).collect::<Vec<_>>()));
                assert!(head.is_encoded());
                assert_eq!(rows(&head), rows(&var));
            }
            let mut copied = ColumnVec::new();
            copied.push_nulls(2);
            for i in 0..col.len() {
                copied.push_from(&col.slice(i, i + 1), 0);
            }
            assert!(copied.is_encoded(), "{copied:?}");
            assert_eq!(rows(&copied)[2..], rows(&var)[..]);
            let mut pushed = col.clone();
            pushed.push_null();
            assert!(pushed.is_encoded() && pushed.is_null_at(9));
            pushed.push(Variant::Int(1));
            assert!(matches!(pushed, ColumnVec::Var(_)));
            assert!(col.estimated_size() < var.estimated_size());
        }
    }

    #[test]
    fn push_from_adapts_null_run_to_source_type() {
        let src = ColumnVec::from_variants(vec![Variant::Int(5), Variant::Null]);
        let mut dst = ColumnVec::new();
        dst.push_nulls(2);
        dst.push_from(&src, 0);
        dst.push_from(&src, 1);
        assert!(matches!(dst, ColumnVec::Int { .. }));
        assert!(dst.is_null_at(0));
        assert_eq!(dst.get(2), Variant::Int(5));
        assert!(dst.is_null_at(3));
    }
}
