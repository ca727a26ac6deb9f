//! The one key table under the hash join, the hash aggregate and DISTINCT.
//!
//! A [`KeyTable`] holds keys — one or more columns — and finds the entry whose
//! key equals a row's. It is filled in one of two ways:
//!
//! - **built** ([`KeyTable::build`]) by a join from its right input: entry `r`
//!   is build row `r`, a row with a NULL in its key is in no chain (NULL never
//!   matches), and a chain lists its rows in ascending order, so the matches of
//!   a probe row come out in right-row order — the order of a nested loop;
//! - **grown** ([`KeyTable::grow`]) by an aggregate, a batch at a time: each
//!   row's entry comes back as its slot, and a key not yet in the table
//!   becomes the next entry, so entry indices are first-seen order. NULL is a
//!   key like any other: NULL = NULL.
//!
//! # Layout
//!
//! - `keys`: the key columns, in the representation their expressions
//!   produced; a grown table appends the first-seen cell of each new key
//!   ([`ColumnVec::push_from`]), so its key columns are the groups' key
//!   columns, ready to emit;
//! - `hashes`: one `u64` per entry;
//! - `heads` / `next`: power-of-two bucket heads and one chain link per entry.
//!   A grown table doubles its heads when more than half are taken.
//!
//! # Dense keys
//!
//! A built table whose key is one `Int` column, and whose non-NULL values
//! `lo..=hi` span at most [`DENSE_SLOTS_PER_ROW`] slots per build row, indexes
//! its heads by the key itself: key `k` is slot `k - lo`. It computes no
//! hashes. A slot holds one key value, so every entry in its chain equals the
//! probe's key and none is compared. The probe of such a table maps a row's
//! [`Key`] to a slot: `Key::Int(k)` is slot `k - lo` when that is in range, and
//! every other key — a NULL, a string, a non-integral double — is in no slot,
//! as no `Int` key equals it. Whether a table is dense follows from the build
//! input alone; chains, their ascending order and the unlinked NULL rows are
//! those of the hashed table.
//!
//! # Hashing
//!
//! Hashes are computed a column at a time from each column's representation
//! ([`KeyHasher::hash_rows`]): an `Int`, `Float` or `Bool` column is one pass
//! over its values, a `Str` column hashes each string, a `DictStr` column each
//! dictionary entry once (a row reads its code's hash), a `Runs` column each
//! run once, a `Var` column each boxed value, element by element, and a
//! shredded `Objects` or `List` column each value it rebuilds. Every
//! representation of one [`Key`] hashes alike — an integral double as its
//! integer, `-0.0` as `0`, every NaN as one NaN, a NULL as one NULL word — so
//! `1` in an `Int` column meets `1.0` in a `Float` column. The mix is a folded
//! multiply keyed by two words drawn from a [`RandomState`] once per join or
//! aggregate execution, so where a key lands is not known to whoever chose
//! the keys.
//!
//! # Equality
//!
//! A candidate whose hash equals the row's is compared column by column under
//! [`Key`] equality ([`same_key`]): `1` = `1.0`, `-0.0` = `0.0`, NaN = NaN,
//! NULL = NULL, arrays and objects element by element. `Int` against `Int`
//! compares the integers, two `DictStr` columns over one dictionary compare
//! codes and strings compare as strings whatever their dictionaries; any other
//! pair compares [`ColumnVec::key_at`].

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::column::{Bitmap, ColumnVec, NULL_CODE};
use crate::error::{Result, SnowError};
use crate::variant::{Key, Variant};

use super::metrics::TableIndex;
use super::pipeline::BATCH_ROWS;

/// The end of a chain.
const NO_ENTRY: u32 = u32::MAX;

/// Bucket heads of a table grown from empty.
const MIN_HEADS: usize = 16;

/// A built table over one `Int` key indexes its heads by the key when the
/// key's non-NULL values span at most this many slots per build row; a wider
/// key is hashed. At 8, a dense table's index takes at most 36 bytes per
/// build row (heads 32, link 4) against 16 to 20 for a hashed one (hash 8,
/// link 4, heads 4 to 8).
const DENSE_SLOTS_PER_ROW: u64 = 8;

/// Words that keep values of different types apart before they are mixed.
const FLOAT_TAG: u64 = 0x243f_6a88_85a3_08d3;
const BOOL_TAG: u64 = 0x1319_8a2e_0370_7344;
const STR_TAG: u64 = 0xa409_3822_299f_31d0;
const ARRAY_TAG: u64 = 0x082e_fa98_ec4e_6c89;
const OBJECT_TAG: u64 = 0x4528_21e6_38d0_1377;
const NULL_WORD: u64 = 0xbe54_66cf_34e9_0c6c;

/// A key hash: a folded multiply keyed once per join or aggregate execution.
#[derive(Clone, Copy)]
pub(super) struct KeyHasher {
    seed: u64,
    mul: u64,
}

/// Per-row hashes of a key, and which rows have a NULL in it (empty when
/// none has).
pub(super) struct RowHashes {
    pub(super) hashes: Vec<u64>,
    null: Vec<bool>,
}

impl RowHashes {
    pub(super) fn is_null(&self, r: usize) -> bool {
        self.null.get(r).copied().unwrap_or(false)
    }

    /// Mixes the NULL word into row `r` and flags it.
    fn mix_null(&mut self, hasher: &KeyHasher, r: usize) {
        self.hashes[r] = hasher.mix(self.hashes[r], NULL_WORD);
        if self.null.is_empty() {
            self.null.resize(self.hashes.len(), false);
        }
        self.null[r] = true;
    }

    /// Mixes `word(r)` into every row `r` that `valid` marks, the NULL word
    /// into the others.
    fn mix_valid(&mut self, hasher: &KeyHasher, valid: &Bitmap, word: impl Fn(usize) -> u64) {
        if valid.all_valid() {
            for (r, h) in self.hashes.iter_mut().enumerate() {
                *h = hasher.mix(*h, word(r));
            }
            return;
        }
        for r in 0..self.hashes.len() {
            match valid.get(r) {
                true => self.hashes[r] = hasher.mix(self.hashes[r], word(r)),
                false => self.mix_null(hasher, r),
            }
        }
    }
}

impl KeyHasher {
    pub(super) fn new() -> KeyHasher {
        let state = RandomState::new();
        KeyHasher {
            seed: state.hash_one(1u8),
            mul: state.hash_one(2u8) | 1,
        }
    }

    fn mix(&self, h: u64, word: u64) -> u64 {
        let p = u128::from(h ^ word) * u128::from(self.mul);
        (p as u64) ^ ((p >> 64) as u64)
    }

    fn str_word(&self, s: &str) -> u64 {
        let bytes = s.as_bytes();
        let mut h = self.mix(self.seed ^ STR_TAG, bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h = self.mix(h, u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            h = self.mix(h, u64::from_le_bytes(w));
        }
        h
    }

    /// The word of a value: equal [`Key`]s have equal words.
    fn value_word(&self, v: &Variant) -> u64 {
        match v {
            Variant::Null => NULL_WORD,
            Variant::Bool(b) => BOOL_TAG ^ u64::from(*b),
            Variant::Int(i) => *i as u64,
            Variant::Float(f) => float_word(*f),
            Variant::Str(s) => self.str_word(s),
            Variant::Array(items) => items
                .iter()
                .fold(self.mix(ARRAY_TAG, items.len() as u64), |h, x| {
                    self.mix(h, self.value_word(x))
                }),
            Variant::Object(obj) => obj
                .iter()
                .fold(self.mix(OBJECT_TAG, obj.len() as u64), |h, (k, x)| {
                    self.mix(self.mix(h, self.str_word(k)), self.value_word(x))
                }),
        }
    }

    /// Hashes the first `rows` rows of a key, a column at a time.
    fn hash_rows<'c>(
        &self,
        keys: impl IntoIterator<Item = &'c ColumnVec>,
        rows: usize,
    ) -> RowHashes {
        let mut out = RowHashes {
            hashes: vec![self.seed; rows],
            null: Vec::new(),
        };
        for col in keys {
            self.mix_column(col, &mut out);
        }
        out
    }

    /// Mixes one key column's words into the row hashes.
    fn mix_column(&self, col: &ColumnVec, out: &mut RowHashes) {
        let rows = out.hashes.len();
        match col {
            ColumnVec::Null(_) => (0..rows).for_each(|r| out.mix_null(self, r)),
            ColumnVec::Int { vals, valid } => out.mix_valid(self, valid, |r| vals[r] as u64),
            ColumnVec::Float { vals, valid } => out.mix_valid(self, valid, |r| float_word(vals[r])),
            ColumnVec::Bool { vals, valid } => {
                out.mix_valid(self, valid, |r| BOOL_TAG ^ u64::from(vals[r]))
            }
            ColumnVec::Str(vals) => {
                for (r, s) in vals.iter().take(rows).enumerate() {
                    match s {
                        Some(s) => out.hashes[r] = self.mix(out.hashes[r], self.str_word(s)),
                        None => out.mix_null(self, r),
                    }
                }
            }
            ColumnVec::DictStr { codes, dict } => {
                let words: Vec<u64> = dict.iter().map(|s| self.str_word(s)).collect();
                for (r, &code) in codes.iter().take(rows).enumerate() {
                    match code {
                        NULL_CODE => out.mix_null(self, r),
                        code => out.hashes[r] = self.mix(out.hashes[r], words[code as usize]),
                    }
                }
            }
            ColumnVec::Runs { ends, values } => {
                let mut lo = 0;
                for (run, &end) in ends.iter().enumerate() {
                    let (lo_r, hi_r) = (lo, (end as usize).min(rows));
                    lo = hi_r;
                    let v = values.get(run);
                    if v.is_null() {
                        (lo_r..hi_r).for_each(|r| out.mix_null(self, r));
                        continue;
                    }
                    let w = self.value_word(&v);
                    for h in &mut out.hashes[lo_r..hi_r] {
                        *h = self.mix(*h, w);
                    }
                }
            }
            ColumnVec::Var(vals) => {
                for (r, v) in vals.iter().take(rows).enumerate() {
                    match v {
                        Variant::Null => out.mix_null(self, r),
                        v => out.hashes[r] = self.mix(out.hashes[r], self.value_word(v)),
                    }
                }
            }
            // Shredded records hash as the values they rebuild.
            ColumnVec::Objects(_) | ColumnVec::List(_) => {
                for r in 0..rows {
                    match col.get(r) {
                        Variant::Null => out.mix_null(self, r),
                        v => out.hashes[r] = self.mix(out.hashes[r], self.value_word(&v)),
                    }
                }
            }
        }
    }
}

/// The word of a double: an integral one is its integer's word, as its
/// [`Key`] is that integer's.
fn float_word(f: f64) -> u64 {
    float_word_of(float_key(f))
}

/// The word of a double from its [`float_key`].
#[inline]
fn float_word_of((integral, word): (bool, u64)) -> u64 {
    match integral {
        true => word,
        false => word ^ FLOAT_TAG,
    }
}

/// A double's [`Key`] without building one: whether it is integral, and
/// its integer's word or its canonical bits. Two doubles are equal keys
/// exactly when these are equal.
#[inline]
fn float_key(f: f64) -> (bool, u64) {
    match Key::of_f64(f) {
        Key::Int(i) => (true, i as u64),
        Key::Float(bits) => (false, bits),
        _ => unreachable!("a double's key is an Int or a Float"),
    }
}

/// Row `i` of a string column, `Some(None)` when it is NULL; `None` for any
/// other representation.
fn str_at(c: &ColumnVec, i: usize) -> Option<Option<&str>> {
    match c {
        ColumnVec::Str(v) => Some(v[i].as_deref()),
        ColumnVec::DictStr { codes, dict } => {
            Some((codes[i] != NULL_CODE).then(|| &*dict[codes[i] as usize]))
        }
        _ => None,
    }
}

/// Key equality of row `i` of `a` and row `j` of `b`; NULL equals NULL.
fn same_key(a: &ColumnVec, i: usize, b: &ColumnVec, j: usize) -> bool {
    match (a, b) {
        (ColumnVec::Int { vals: x, valid: vx }, ColumnVec::Int { vals: y, valid: vy }) => {
            let valid = vx.get(i);
            valid == vy.get(j) && (!valid || x[i] == y[j])
        }
        (ColumnVec::DictStr { codes: x, dict: dx }, ColumnVec::DictStr { codes: y, dict: dy })
            if Arc::ptr_eq(dx, dy) =>
        {
            x[i] == y[j]
        }
        _ => match (str_at(a, i), str_at(b, j)) {
            (Some(x), Some(y)) => x == y,
            _ => a.key_at(i) == b.key_at(j),
        },
    }
}

/// The value range `lo..=hi` of a built table's key when its heads are
/// indexed by the key (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DenseRange {
    lo: i64,
    hi: i64,
}

impl DenseRange {
    /// The range of the non-NULL values of the first `rows` rows of `keys`,
    /// when `keys` is one `Int` column and the range spans at most
    /// [`DENSE_SLOTS_PER_ROW`] slots per row.
    fn of(keys: &[ColumnVec], rows: usize) -> Option<DenseRange> {
        let [ColumnVec::Int { vals, valid }] = keys else {
            return None;
        };
        let vals = &vals[..rows];
        let (lo, hi) = if valid.all_valid() {
            (*vals.iter().min()?, *vals.iter().max()?)
        } else {
            let mut set = vals
                .iter()
                .enumerate()
                .filter(|&(r, _)| valid.get(r))
                .map(|(_, &k)| k);
            let first = set.next()?;
            set.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k)))
        };
        // `abs_diff` cannot overflow, and `hi - lo + 1 <= 8 * rows` slots is
        // `hi - lo < 8 * rows`.
        (hi.abs_diff(lo) < (rows as u64).saturating_mul(DENSE_SLOTS_PER_ROW))
            .then_some(DenseRange { lo, hi })
    }

    /// The slot of key `k`, or `None` outside the range. `k - lo` taken in
    /// wrapping `i64` and read as `u64` is the exact difference when `k >=
    /// lo` and at least 2^63 when `k < lo`.
    #[inline]
    fn slot(&self, k: i64) -> Option<usize> {
        let d = k.wrapping_sub(self.lo) as u64;
        (d <= self.hi.abs_diff(self.lo)).then_some(d as usize)
    }
}

/// Keys, their hashes and the chains that find them (see the module docs).
pub(super) struct KeyTable {
    hasher: KeyHasher,
    keys: Vec<ColumnVec>,
    /// Empty in a dense table.
    hashes: Vec<u64>,
    heads: Vec<u32>,
    next: Vec<u32>,
    /// `Some` when the heads are indexed by the key (see the module docs).
    dense: Option<DenseRange>,
}

impl KeyTable {
    /// An empty table over `arity` key columns, to be grown.
    pub(super) fn new(hasher: KeyHasher, arity: usize) -> KeyTable {
        KeyTable {
            hasher,
            keys: vec![ColumnVec::new(); arity],
            hashes: Vec::new(),
            heads: vec![NO_ENTRY; MIN_HEADS],
            next: Vec::new(),
            dense: None,
        }
    }

    /// A join's table over the `rows` rows of `keys`: a row with a NULL in
    /// its key is in no chain, and every chain is in ascending row order.
    /// One `Int` key of a narrow enough range is indexed directly, any other
    /// key is hashed (see the module docs). `checkpoint` is called before
    /// every [`BATCH_ROWS`] rows are linked.
    pub(super) fn build(
        keys: Vec<ColumnVec>,
        rows: usize,
        mut checkpoint: impl FnMut() -> Result<()>,
    ) -> Result<KeyTable> {
        if rows >= NO_ENTRY as usize {
            return Err(SnowError::Exec(format!(
                "a join's build side holds {rows} rows"
            )));
        }
        let dense = DenseRange::of(&keys, rows);
        let mut table = KeyTable {
            hasher: KeyHasher::new(),
            keys,
            hashes: Vec::new(),
            heads: Vec::new(),
            next: vec![NO_ENTRY; rows],
            dense,
        };
        // Linking at the head, last row first, leaves every chain in
        // ascending row order.
        match (dense, &table.keys[..]) {
            (Some(range), [ColumnVec::Int { vals, valid }]) => {
                table.heads = vec![NO_ENTRY; range.hi.abs_diff(range.lo) as usize + 1];
                for r in (0..rows).rev() {
                    if r % BATCH_ROWS == 0 {
                        checkpoint()?;
                    }
                    if valid.get(r) {
                        let slot = range.slot(vals[r]).expect("a build key is in its range");
                        table.next[r] = table.heads[slot];
                        table.heads[slot] = r as u32;
                    }
                }
            }
            _ => {
                let hashed = table.hasher.hash_rows(&table.keys, rows);
                table.heads = vec![NO_ENTRY; rows.next_power_of_two()];
                for r in (0..rows).rev() {
                    if r % BATCH_ROWS == 0 {
                        checkpoint()?;
                    }
                    if !hashed.is_null(r) {
                        table.link(r as u32, hashed.hashes[r]);
                    }
                }
                table.hashes = hashed.hashes;
            }
        }
        Ok(table)
    }

    /// How the table finds a key: by value in `lo..=hi`, or by hash.
    pub(super) fn index(&self) -> TableIndex {
        match self.dense {
            Some(DenseRange { lo, hi }) => TableIndex::Dense { lo, hi },
            None => TableIndex::Hashed,
        }
    }

    /// Bytes the table's index holds: heads, links and hashes.
    pub(super) fn index_bytes(&self) -> u64 {
        (self.heads.len() as u64 + self.next.len() as u64) * 4 + self.hashes.len() as u64 * 8
    }

    /// The first entry of the chain of an `Int` key in a dense table, or
    /// [`None`] when no entry has that key.
    #[inline]
    fn dense_head(&self, range: DenseRange, k: i64) -> Option<u32> {
        let e = self.heads[range.slot(k)?];
        (e != NO_ENTRY).then_some(e)
    }

    /// The entry after `e` in its chain.
    #[inline]
    fn next_entry(&self, e: u32) -> Option<u32> {
        let n = self.next[e as usize];
        (n != NO_ENTRY).then_some(n)
    }

    /// Number of entries.
    pub(super) fn len(&self) -> usize {
        self.next.len()
    }

    /// True when the table has no entry.
    pub(super) fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Consumes the table into its key columns.
    pub(super) fn into_keys(self) -> Vec<ColumnVec> {
        self.keys
    }

    /// Hashes the first `rows` rows of `cols`, a key of this table's arity.
    pub(super) fn hash<C: Borrow<ColumnVec>>(&self, cols: &[C], rows: usize) -> RowHashes {
        self.hasher.hash_rows(cols.iter().map(Borrow::borrow), rows)
    }

    /// The entries whose key equals row `row` of `cols`, whose hash is
    /// `hash`, in chain order. A dense table ignores `hash`: it finds the
    /// row's slot from its [`Key`].
    pub(super) fn matches<'t, C: Borrow<ColumnVec>>(
        &'t self,
        cols: &'t [C],
        row: usize,
        hash: u64,
    ) -> impl Iterator<Item = usize> + 't {
        let mut e = match self.dense {
            Some(range) => match cols[0].borrow().key_at(row) {
                Key::Int(k) => self.dense_head(range, k).unwrap_or(NO_ENTRY),
                _ => NO_ENTRY,
            },
            None => self.heads[self.bucket(hash)],
        };
        let dense = self.dense.is_some();
        std::iter::from_fn(move || {
            while e != NO_ENTRY {
                let i = e as usize;
                e = self.next[i];
                if dense
                    || self.hashes[i] == hash
                        && self
                            .keys
                            .iter()
                            .zip(cols)
                            .all(|(k, c)| same_key(k, i, c.borrow(), row))
                {
                    return Some(i);
                }
            }
            None
        })
    }

    /// The pairs a probe over the one key column `col` makes: for each of
    /// its first `rows` rows in order, `(row, entry)` for every entry whose
    /// key equals the row's, in chain order — and `(row, unmatched)` for a
    /// row that matched nothing, when `unmatched` is given — appended to
    /// `left` and `right`. Returns whether every row made exactly one pair.
    /// An `Int` column against a dense table is looked up by value, with no
    /// hash; against a hashed `Int` key it is compared as integers.
    pub(super) fn probe_column(
        &self,
        col: &ColumnVec,
        rows: usize,
        unmatched: Option<usize>,
        left: &mut Vec<usize>,
        right: &mut Vec<usize>,
    ) -> bool {
        match (self.dense, col, &self.keys[..]) {
            (Some(range), ColumnVec::Int { vals, valid }, _) => {
                pairs(rows, unmatched, left, right, |lr, out| {
                    if valid.get(lr) {
                        let mut e = self.dense_head(range, vals[lr]);
                        while let Some(i) = e {
                            out.push(i as usize);
                            e = self.next_entry(i);
                        }
                    }
                })
            }
            (None, ColumnVec::Int { vals, valid }, [ColumnVec::Int { vals: keys, .. }]) => {
                let hashed = self.hasher.hash_rows([col], rows);
                pairs(rows, unmatched, left, right, |lr, out| {
                    if valid.get(lr) {
                        let (h, k) = (hashed.hashes[lr], vals[lr]);
                        let mut e = self.heads[self.bucket(h)];
                        // A linked entry's key is never NULL.
                        while e != NO_ENTRY {
                            let i = e as usize;
                            if self.hashes[i] == h && keys[i] == k {
                                out.push(i);
                            }
                            e = self.next[i];
                        }
                    }
                })
            }
            _ => {
                let cols = std::slice::from_ref(col);
                let hashed = self
                    .dense
                    .is_none()
                    .then(|| self.hasher.hash_rows(cols, rows));
                pairs(rows, unmatched, left, right, |lr, out| match &hashed {
                    Some(h) if h.is_null(lr) => {}
                    Some(h) => out.extend(self.matches(cols, lr, h.hashes[lr])),
                    None => out.extend(self.matches(cols, lr, 0)),
                })
            }
        }
    }

    /// The entry whose key equals row `row` of `cols`, whose hash is `hash`,
    /// and whether it was inserted just now — as the next entry, its cells
    /// copied from `cols`.
    pub(super) fn find_or_insert<C: Borrow<ColumnVec>>(
        &mut self,
        cols: &[C],
        row: usize,
        hash: u64,
    ) -> (usize, bool) {
        if let Some(i) = self.matches(cols, row, hash).next() {
            return (i, false);
        }
        for (k, c) in self.keys.iter_mut().zip(cols) {
            k.push_from(c.borrow(), row);
        }
        (self.add_entry(hash), true)
    }

    /// The entry of each of the first `rows` rows of `cols`, a key of this
    /// table's arity, as one slot per row; a key not in the table yet
    /// becomes the next entry, so entries stay in first-seen order. The
    /// typed arms read no [`Key`]: one `Int` key is compared as integers, a
    /// `Float` one through its canonical word ([`float_key`]), a `DictStr`
    /// one is looked up once per code, and two or more `Int` keys compare
    /// column by column. Any other key goes row by row through
    /// [`KeyTable::find_or_insert`].
    pub(super) fn grow<C: Borrow<ColumnVec>>(&mut self, cols: &[C], rows: usize) -> Vec<u32> {
        let cols: Vec<&ColumnVec> = cols.iter().map(Borrow::borrow).collect();
        let mut slots = Vec::with_capacity(rows);
        // An empty table's key columns take the representation of the
        // first batch, so that the typed arms below apply to it.
        if self.is_empty() {
            for (k, c) in self.keys.iter_mut().zip(&cols) {
                *k = match c {
                    ColumnVec::Int { .. } => ColumnVec::Int { vals: Vec::new(), valid: Bitmap::new() },
                    ColumnVec::Float { .. } => ColumnVec::Float { vals: Vec::new(), valid: Bitmap::new() },
                    _ => ColumnVec::new(),
                };
            }
        }
        fn all_int<C: Borrow<ColumnVec>>(cols: &[C]) -> bool {
            cols.iter().all(|c| matches!(c.borrow(), ColumnVec::Int { .. }))
        }
        match &cols[..] {
            [ColumnVec::Int { vals, valid }] if all_int(&self.keys) => {
                let hashed = self.hasher.hash_rows(cols.iter().copied(), rows);
                for (r, &h) in hashed.hashes.iter().enumerate() {
                    let (x, ok) = (vals[r], valid.get(r));
                    let [ColumnVec::Int { vals: kv, valid: kok }] = &self.keys[..] else {
                        unreachable!("checked above");
                    };
                    let found = self.chain(h).find(|&i| kok.get(i) == ok && (!ok || kv[i] == x));
                    slots.push(found.unwrap_or_else(|| {
                        if let [ColumnVec::Int { vals, valid }] = &mut self.keys[..] {
                            vals.push(x);
                            valid.push(ok);
                        }
                        self.add_entry(h)
                    }) as u32);
                }
            }
            [ColumnVec::Float { vals, valid }]
                if matches!(self.keys[..], [ColumnVec::Float { .. }]) =>
            {
                // A row's key and hash come from one `float_key`; a
                // candidate with the row's bits is equal without one.
                let null_hash = self.hasher.mix(self.hasher.seed, NULL_WORD);
                for r in 0..rows {
                    let (x, ok) = (vals[r], valid.get(r));
                    let key = float_key(x);
                    let h = match ok {
                        true => self.hasher.mix(self.hasher.seed, float_word_of(key)),
                        false => null_hash,
                    };
                    let [ColumnVec::Float { vals: kv, valid: kok }] = &self.keys[..] else {
                        unreachable!("checked above");
                    };
                    let found = self.chain(h).find(|&i| {
                        kok.get(i) == ok
                            && (!ok || kv[i].to_bits() == x.to_bits() || float_key(kv[i]) == key)
                    });
                    slots.push(found.unwrap_or_else(|| {
                        if let [ColumnVec::Float { vals, valid }] = &mut self.keys[..] {
                            vals.push(x);
                            valid.push(ok);
                        }
                        self.add_entry(h)
                    }) as u32);
                }
            }
            // A dictionary much larger than the batch (a filtered piece of
            // a partition) would cost more to memoize than it saves.
            [col @ ColumnVec::DictStr { codes, dict }] if dict.len() <= 4 * rows + 64 => {
                // One lookup per code: slot `memo[code]`, the last for NULL.
                let mut memo = vec![NO_ENTRY; dict.len() + 1];
                for (r, &code) in codes[..rows].iter().enumerate() {
                    let m = if code == NULL_CODE { dict.len() } else { code as usize };
                    if memo[m] == NO_ENTRY {
                        let word = match code {
                            NULL_CODE => NULL_WORD,
                            code => self.hasher.str_word(&dict[code as usize]),
                        };
                        let hash = self.hasher.mix(self.hasher.seed, word);
                        memo[m] = self.find_or_insert(&[*col], r, hash).0 as u32;
                    }
                    slots.push(memo[m]);
                }
            }
            _ if cols.len() > 1 && all_int(&cols) && all_int(&self.keys) => {
                let hashed = self.hasher.hash_rows(cols.iter().copied(), rows);
                fn ints(c: &ColumnVec) -> (&[i64], &Bitmap) {
                    match c {
                        ColumnVec::Int { vals, valid } => (vals, valid),
                        _ => unreachable!("checked above"),
                    }
                }
                let batch: Vec<(&[i64], &Bitmap)> = cols.iter().map(|c| ints(c)).collect();
                for (r, &h) in hashed.hashes.iter().enumerate() {
                    let found = self.chain(h).find(|&i| {
                        self.keys.iter().zip(&batch).all(|(k, &(vals, valid))| {
                            let (kv, kok) = ints(k);
                            let ok = valid.get(r);
                            kok.get(i) == ok && (!ok || kv[i] == vals[r])
                        })
                    });
                    slots.push(found.unwrap_or_else(|| {
                        for (k, c) in self.keys.iter_mut().zip(&cols) {
                            k.push_from(c, r);
                        }
                        self.add_entry(h)
                    }) as u32);
                }
            }
            _ => {
                let hashed = self.hasher.hash_rows(cols.iter().copied(), rows);
                for (r, &h) in hashed.hashes.iter().enumerate() {
                    slots.push(self.find_or_insert(&cols, r, h).0 as u32);
                }
            }
        }
        slots
    }

    /// The entries of the chain of `hash` whose hash is `hash`.
    #[inline]
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut e = self.heads[self.bucket(hash)];
        std::iter::from_fn(move || {
            while e != NO_ENTRY {
                let i = e as usize;
                e = self.next[i];
                if self.hashes[i] == hash {
                    return Some(i);
                }
            }
            None
        })
    }

    /// Links the next entry, whose key cells were just pushed and whose
    /// hash is `hash`, doubling the heads when more than half are taken.
    fn add_entry(&mut self, hash: u64) -> usize {
        let i = self.hashes.len();
        let entry = u32::try_from(i)
            .ok()
            .filter(|&e| e != NO_ENTRY)
            .expect("a key table holds fewer than 2^32 - 1 keys");
        self.hashes.push(hash);
        self.next.push(NO_ENTRY);
        if self.hashes.len() * 2 > self.heads.len() {
            self.heads = vec![NO_ENTRY; self.heads.len() * 2];
            for e in (0..self.hashes.len()).rev() {
                self.link(e as u32, self.hashes[e]);
            }
        } else {
            self.link(entry, hash);
        }
        i
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        (hash & (self.heads.len() as u64 - 1)) as usize
    }

    /// Puts entry `e`, whose hash is `hash`, at the head of its chain.
    fn link(&mut self, e: u32, hash: u64) {
        let bucket = self.bucket(hash);
        self.next[e as usize] = self.heads[bucket];
        self.heads[bucket] = e;
    }
}

/// For each of `rows` probe rows in order, the entries `find` appends to
/// `right`, each paired with the row in `left`, then `(row, unmatched)` when
/// it found none and `unmatched` is given. Returns whether every row made
/// exactly one pair.
#[inline]
fn pairs(
    rows: usize,
    unmatched: Option<usize>,
    left: &mut Vec<usize>,
    right: &mut Vec<usize>,
    mut find: impl FnMut(usize, &mut Vec<usize>),
) -> bool {
    let mut one_each = true;
    for lr in 0..rows {
        let before = right.len();
        find(lr, right);
        let found = right.len() - before;
        left.resize(left.len() + found, lr);
        if let (0, Some(u)) = (found, unmatched) {
            left.push(lr);
            right.push(u);
        }
        one_each &= right.len() == before + 1;
    }
    one_each
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash of every row whose key has no NULL, and which rows have one.
    fn hashes(h: &KeyHasher, col: &ColumnVec) -> (Vec<Option<u64>>, Vec<bool>) {
        let out = h.hash_rows([col], col.len());
        let null: Vec<bool> = (0..col.len()).map(|r| out.is_null(r)).collect();
        (
            out.hashes
                .iter()
                .zip(&null)
                .map(|(&h, &n)| (!n).then_some(h))
                .collect(),
            null,
        )
    }

    /// One value in every representation that can hold it hashes alike, and
    /// exactly the NULL rows are flagged.
    #[test]
    fn every_representation_of_a_key_hashes_alike() {
        let h = KeyHasher::new();
        let ints = ColumnVec::from_variants(vec![Variant::Int(1), Variant::Null, Variant::Int(0)]);
        let floats = ColumnVec::from_variants(vec![
            Variant::Float(1.0),
            Variant::Null,
            Variant::Float(-0.0),
        ]);
        let mixed = ColumnVec::Var(vec![Variant::Float(1.0), Variant::Null, Variant::Int(0)]);
        let runs = ColumnVec::Runs {
            ends: vec![1, 2, 3],
            values: Box::new(ColumnVec::from_variants(vec![
                Variant::Int(1),
                Variant::Null,
                Variant::Int(0),
            ])),
        };
        let want = hashes(&h, &ints);
        assert_eq!(want.1, [false, true, false]);
        for col in [&floats, &mixed, &runs] {
            assert_eq!(hashes(&h, col), want, "{col:?}");
        }
        let strs =
            ColumnVec::from_variants(vec![Variant::str("ab"), Variant::Null, Variant::str("")]);
        let dict: Arc<Vec<Arc<str>>> = Arc::new(vec![Arc::from(""), Arc::from("ab")]);
        let coded = ColumnVec::DictStr {
            codes: vec![1, NULL_CODE, 0],
            dict,
        };
        let boxed = ColumnVec::Var(vec![Variant::str("ab"), Variant::Null, Variant::str("")]);
        let want = hashes(&h, &strs);
        assert_eq!(hashes(&h, &coded), want);
        assert_eq!(hashes(&h, &boxed), want);
        // NaN is one key; arrays hash element by element under Key equality.
        let nan =
            ColumnVec::from_variants(vec![Variant::Float(f64::NAN), Variant::Float(-f64::NAN)]);
        let (nan, _) = hashes(&h, &nan);
        assert_eq!(nan[0], nan[1]);
        let arrays = ColumnVec::Var(vec![
            Variant::array(vec![Variant::Int(2), Variant::Null]),
            Variant::array(vec![Variant::Float(2.0), Variant::Null]),
        ]);
        let (arrays, _) = hashes(&h, &arrays);
        assert_eq!(arrays[0], arrays[1]);
        // Shredded records and lists of them hash as their boxed values.
        let record = |q: i64, pt: Variant| {
            let mut o = crate::variant::Object::new();
            o.insert("Q", Variant::Int(q));
            o.insert("PT", pt);
            Variant::object(o)
        };
        let objects = vec![
            record(1, Variant::Float(2.5)),
            Variant::Null,
            record(1, Variant::Null),
        ];
        let lists = vec![
            Variant::array(vec![objects[0].clone(), objects[2].clone()]),
            Variant::Null,
            Variant::array(Vec::new()),
        ];
        for boxed in [objects, lists] {
            let shredded = crate::storage::encode::encode_column(ColumnVec::Var(boxed.clone()));
            assert!(matches!(
                shredded,
                ColumnVec::Objects(_) | ColumnVec::List(_)
            ));
            assert_eq!(hashes(&h, &shredded), hashes(&h, &ColumnVec::Var(boxed)));
        }
    }

    /// A NULL cell hashes as one NULL word in every representation, so NULL
    /// is a group of its own.
    #[test]
    fn a_null_hashes_alike_in_every_representation() {
        let h = KeyHasher::new();
        let cols = [
            ColumnVec::Null(1),
            ColumnVec::Int {
                vals: vec![7],
                valid: Bitmap::nulls(1),
            },
            ColumnVec::Float {
                vals: vec![2.5],
                valid: Bitmap::nulls(1),
            },
            ColumnVec::Str(vec![None]),
            ColumnVec::DictStr {
                codes: vec![NULL_CODE],
                dict: Arc::new(vec![Arc::from("a")]),
            },
            ColumnVec::Runs {
                ends: vec![1],
                values: Box::new(ColumnVec::Null(1)),
            },
            ColumnVec::Var(vec![Variant::Null]),
            ColumnVec::Objects(crate::column::Records {
                keys: vec![Arc::from("K")].into(),
                fields: vec![ColumnVec::Null(1)],
                valid: Bitmap::nulls(1),
            }),
            ColumnVec::List(crate::column::RecordLists::from_offsets(
                &[0, 0],
                Bitmap::nulls(1),
                crate::column::Records {
                    keys: vec![Arc::from("K")].into(),
                    fields: vec![ColumnVec::Null(0)],
                    valid: Bitmap::new(),
                },
            )),
        ];
        let want = h.hash_rows([&cols[0]], 1).hashes;
        for col in &cols {
            assert_eq!(h.hash_rows([col], 1).hashes, want, "{col:?}");
        }
    }

    #[test]
    fn keys_compare_under_key_equality() {
        let ints = ColumnVec::from_variants(vec![Variant::Int(1), Variant::Int(0)]);
        let floats = ColumnVec::from_variants(vec![Variant::Float(1.0), Variant::Float(-0.0)]);
        let dict: Arc<Vec<Arc<str>>> = Arc::new(vec![Arc::from("a"), Arc::from("b")]);
        let a = ColumnVec::DictStr {
            codes: vec![0, 1],
            dict: dict.clone(),
        };
        let b = ColumnVec::DictStr {
            codes: vec![1, 0],
            dict,
        };
        let other = ColumnVec::DictStr {
            codes: vec![0],
            dict: Arc::new(vec![Arc::from("b")]),
        };
        let plain = ColumnVec::Str(vec![Some(Arc::from("b")), None]);
        assert!(same_key(&ints, 0, &floats, 0) && same_key(&ints, 1, &floats, 1));
        assert!(!same_key(&ints, 0, &floats, 1));
        assert!(same_key(&a, 0, &b, 1) && !same_key(&a, 0, &b, 0));
        assert!(same_key(&a, 1, &other, 0) && !same_key(&a, 0, &other, 0));
        assert!(same_key(&plain, 0, &a, 1) && !same_key(&plain, 0, &a, 0));
        // NULL = NULL, and a NULL equals no value — not even the zero an
        // invalid `Int` cell holds.
        let nulls = ColumnVec::from_variants(vec![Variant::Int(0), Variant::Null]);
        assert!(same_key(&nulls, 1, &nulls, 1) && !same_key(&nulls, 1, &ints, 1));
        assert!(same_key(&plain, 1, &nulls, 1) && !same_key(&plain, 1, &a, 0));
    }

    fn ints(keys: &[Option<i64>]) -> ColumnVec {
        let cells = keys.iter().map(|k| k.map_or(Variant::Null, Variant::Int));
        ColumnVec::from_variants(cells.collect())
    }

    /// Dense when the span is at most 8 slots per row — exactly 8× is, 8×
    /// plus one is not — computed without overflow at the ends of `i64`.
    #[test]
    fn a_key_is_dense_up_to_eight_slots_per_row() {
        let range = |keys: &[Option<i64>]| DenseRange::of(&[ints(keys)], keys.len());
        assert_eq!(
            range(&[Some(-3), Some(12)]),
            Some(DenseRange { lo: -3, hi: 12 })
        );
        assert_eq!(range(&[Some(-3), Some(13)]), None, "17 slots for 2 rows");
        assert_eq!(
            range(&[Some(5), None, Some(5), Some(28)]),
            Some(DenseRange { lo: 5, hi: 28 })
        );
        assert_eq!(
            range(&[Some(5), None, Some(5), Some(37)]),
            None,
            "33 slots for 4 rows"
        );
        assert_eq!(range(&[Some(i64::MIN), Some(i64::MAX)]), None);
        assert_eq!(
            range(&[Some(i64::MAX), Some(i64::MAX - 15)]),
            Some(DenseRange {
                lo: i64::MAX - 15,
                hi: i64::MAX
            })
        );
        assert_eq!(range(&[None, None]), None, "no value, no range");
        assert_eq!(range(&[]), None);
        let floats = ColumnVec::from_variants(vec![Variant::Float(1.0)]);
        assert_eq!(DenseRange::of(&[floats], 1), None);
        assert_eq!(
            DenseRange::of(&[ints(&[Some(1)]), ints(&[Some(1)])], 1),
            None
        );
        // Slots of keys outside the range, whichever way `k - lo` wraps.
        let r = DenseRange { lo: -5, hi: 10 };
        assert_eq!((r.slot(-5), r.slot(10)), (Some(0), Some(15)));
        for k in [-6, 11, i64::MIN, i64::MAX] {
            assert_eq!(r.slot(k), None, "{k}");
        }
        let top = DenseRange {
            lo: i64::MAX - 1,
            hi: i64::MAX,
        };
        assert_eq!((top.slot(i64::MAX), top.slot(i64::MIN)), (Some(1), None));
    }

    /// A dense table keeps the hashed table's chains — ascending, NULL rows
    /// unlinked — and finds a probe row of any representation by its key.
    #[test]
    fn a_dense_table_finds_every_representation_of_an_integer_key() {
        let build = ints(&[Some(3), None, Some(-1), Some(3), Some(0), Some(3)]);
        let table = KeyTable::build(vec![build], 6, || Ok(())).unwrap();
        assert_eq!(table.index(), TableIndex::Dense { lo: -1, hi: 3 });
        assert!(table.hashes.is_empty());
        assert_eq!(table.index_bytes(), (5 + 6) * 4);
        let probe = |col: ColumnVec| -> Vec<Vec<usize>> {
            (0..col.len())
                .map(|r| table.matches(&[&col], r, 0).collect())
                .collect()
        };
        let threes = vec![0, 3, 5];
        assert_eq!(
            probe(ints(&[Some(3), None, Some(-1), Some(4), Some(i64::MIN)])),
            [threes.clone(), vec![], vec![2], vec![], vec![]]
        );
        let floats = ColumnVec::from_variants(vec![
            Variant::Float(3.0),
            Variant::Float(-0.0),
            Variant::Float(2.5),
            Variant::Float(f64::NAN),
        ]);
        assert_eq!(probe(floats), [threes.clone(), vec![4], vec![], vec![]]);
        let boxed = ColumnVec::Var(vec![
            Variant::Int(0),
            Variant::str("3"),
            Variant::Float(-1.0),
            Variant::Null,
        ]);
        assert_eq!(probe(boxed), [vec![4], vec![], vec![2], vec![]]);
        let runs = ColumnVec::Runs {
            ends: vec![2, 3],
            values: Box::new(ints(&[Some(3), None])),
        };
        assert_eq!(probe(runs), [threes.clone(), threes.clone(), vec![]]);
        let dict = ColumnVec::DictStr {
            codes: vec![0],
            dict: Arc::new(vec![Arc::from("3")]),
        };
        assert_eq!(probe(dict), [Vec::<usize>::new()]);
        // The one-loop probe agrees, with and without unmatched rows.
        let col = ints(&[Some(3), None, Some(7), Some(0)]);
        let (mut l, mut r) = (Vec::new(), Vec::new());
        assert!(!table.probe_column(&col, 4, Some(usize::MAX), &mut l, &mut r));
        assert_eq!(l, [0, 0, 0, 1, 2, 3]);
        assert_eq!(r, [0, 3, 5, usize::MAX, usize::MAX, 4]);
    }

    /// A hashed `Int` key compares integers in the one-loop probe, and
    /// every other representation goes through `matches`.
    #[test]
    fn a_hashed_integer_key_probes_in_one_loop() {
        let build = ints(&[Some(10_000), None, Some(-7), Some(10_000)]);
        let table = KeyTable::build(vec![build], 4, || Ok(())).unwrap();
        assert_eq!(table.index(), TableIndex::Hashed);
        assert_eq!(table.index_bytes(), (4 + 4) * 4 + 4 * 8);
        for col in [
            ints(&[Some(10_000), Some(-7), None, Some(5)]),
            ColumnVec::from_variants(vec![
                Variant::Float(10_000.0),
                Variant::Float(-7.0),
                Variant::Null,
                Variant::Float(5.5),
            ]),
        ] {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            assert!(
                !table.probe_column(&col, 4, None, &mut l, &mut r),
                "{col:?}"
            );
            assert_eq!((l, r), (vec![0, 0, 1], vec![0, 3, 2]), "{col:?}");
        }
    }

    /// 100 000 distinct keys grown through many doublings keep their
    /// first-seen indices, and each is found again, once.
    #[test]
    fn a_grown_table_keeps_first_seen_indices_across_doublings() {
        const N: i64 = 100_000;
        // Two key columns in a scrambled order: an integer and its parity as
        // a string, in batches of 4096 rows.
        let key = |r: i64| (r * 7919) % N;
        let mut table = KeyTable::new(KeyHasher::new(), 2);
        for pass in 0..2 {
            for lo in (0..N).step_by(4096) {
                let rows: Vec<i64> = (lo..(lo + 4096).min(N)).collect();
                let cols = [
                    ColumnVec::from_variants(rows.iter().map(|&r| Variant::Int(key(r))).collect()),
                    ColumnVec::from_variants(
                        rows.iter()
                            .map(|&r| Variant::str(["even", "odd"][(key(r) % 2) as usize]))
                            .collect(),
                    ),
                ];
                let hashed = table.hash(&cols, rows.len());
                for (j, &r) in rows.iter().enumerate() {
                    let (i, fresh) = table.find_or_insert(&cols, j, hashed.hashes[j]);
                    assert_eq!((i, fresh), (r as usize, pass == 0), "row {r}, pass {pass}");
                }
            }
        }
        assert_eq!(table.hashes.len(), N as usize);
        assert!(table.heads.len() >= 2 * N as usize && table.heads.len() < 4 * N as usize);
        let keys = table.into_keys();
        assert_eq!(keys[0].get(12_345), Variant::Int(key(12_345)));
    }

    /// A representation that changes between rows joins the first-seen
    /// group: `1` then `1.0` is one key, and the table keeps the `Int`.
    #[test]
    fn a_grown_table_keeps_the_first_seen_cell() {
        let mut table = KeyTable::new(KeyHasher::new(), 1);
        let batches = [
            ColumnVec::from_variants(vec![Variant::Int(1), Variant::Null]),
            ColumnVec::from_variants(vec![
                Variant::Float(1.0),
                Variant::Null,
                Variant::Float(2.5),
            ]),
        ];
        let mut seen = Vec::new();
        for col in &batches {
            let hashed = table.hash(std::slice::from_ref(col), col.len());
            for r in 0..col.len() {
                seen.push(table.find_or_insert(std::slice::from_ref(col), r, hashed.hashes[r]));
            }
        }
        assert_eq!(
            seen,
            [(0, true), (1, true), (0, false), (1, false), (2, true)]
        );
        let keys = table.into_keys();
        let cells = keys[0].clone().into_variants();
        assert!(
            matches!(cells[..], [Variant::Int(1), Variant::Null, Variant::Float(f)] if f == 2.5),
            "{cells:?}"
        );
    }

    /// `grow`'s typed arms — one `Int`, one `Float`, a dictionary, two
    /// `Int`s — give every row the slot row-by-row `find_or_insert` gives
    /// it, over batches whose first one fixes the table's representation
    /// and whose later ones keep or change it: NULLs, `-0.0` = `0.0`, NaN,
    /// `1.0` meeting `1`, two dictionaries.
    #[test]
    fn growing_a_batch_finds_the_slots_of_row_by_row_inserts() {
        let f = Variant::Float;
        let ints = |v: &[Option<i64>]| ColumnVec::from_variants(v.iter().map(|x| x.map_or(Variant::Null, Variant::Int)).collect());
        let dict = |codes: Vec<u32>, words: &[&str]| ColumnVec::DictStr {
            codes,
            dict: Arc::new(words.iter().map(|w| Arc::<str>::from(*w)).collect()),
        };
        let cases: Vec<Vec<Vec<ColumnVec>>> = vec![
            vec![vec![ints(&[Some(3), None, Some(3), Some(-1)])], vec![ints(&[None, Some(-1), Some(7)])]],
            vec![
                vec![ColumnVec::from_variants(vec![f(0.0), f(f64::NAN), Variant::Null, f(2.5)])],
                vec![ColumnVec::from_variants(vec![f(-0.0), f(f64::NAN), f(2.5), f(1.0), Variant::Null])],
                vec![ints(&[Some(1), Some(0)])],
            ],
            vec![
                vec![dict(vec![0, 1, NULL_CODE, 0], &["a", "b"])],
                vec![dict(vec![1, 0, 2, NULL_CODE], &["b", "c", "a"])],
            ],
            vec![
                vec![ints(&[Some(1), Some(1), None, Some(2)]), ints(&[Some(5), Some(6), Some(5), Some(5)])],
                vec![ints(&[Some(2), None, Some(1)]), ints(&[Some(5), Some(5), Some(6)])],
            ],
        ];
        for batches in cases {
            let arity = batches[0].len();
            let (mut grown, mut rowwise) = (KeyTable::new(KeyHasher::new(), arity), KeyTable::new(KeyHasher::new(), arity));
            for cols in &batches {
                let rows = cols[0].len();
                let hashed = rowwise.hash(cols, rows);
                let want: Vec<u32> =
                    (0..rows).map(|r| rowwise.find_or_insert(cols, r, hashed.hashes[r]).0 as u32).collect();
                assert_eq!(grown.grow(cols, rows), want, "{cols:?}");
            }
            let cells = |t: KeyTable| format!("{:?}", t.into_keys().into_iter().map(ColumnVec::into_variants).collect::<Vec<_>>());
            assert_eq!(cells(grown), cells(rowwise));
        }
    }
}
