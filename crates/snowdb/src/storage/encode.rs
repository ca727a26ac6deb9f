//! Seal-time column encodings.
//!
//! Micro-partitions encode columns when they are sealed: low-cardinality
//! string columns become dictionaries ([`ColumnVec::DictStr`]), repetitive
//! int/bool columns become run-length runs ([`ColumnVec::Runs`]), and boxed
//! columns of flat records shred into typed fields ([`ColumnVec::Objects`],
//! [`ColumnVec::List`]). The encoded column is what the partition file writes
//! (per-block encoding ids in the footer: `DictStr` 1, `RleInt` 2, `RleBool`
//! 3, `Shredded` 4, see [`crate::store::format`]), what the buffer cache
//! holds, and what the scan slices for the executor, whose kernels evaluate
//! filters and group keys directly on dictionary codes, and flatten, pick
//! fields, size and concatenate shredded records without boxing them.
//!
//! ## Shredding
//!
//! A `VARIANT` column shreds when both of these hold:
//! - every non-NULL row is an object with one key sequence (at least one
//!   key), or an array of such objects (empty arrays allowed);
//! - every field's non-NULL values have one scalar type: Int, Float, Bool or
//!   Str (a field NULL on every row is allowed).
//!
//! Anything else — a missing key, a NULL or non-object item, Int mixed with
//! Float, a nested field, a column of only empty arrays — stays boxed
//! ([`ColumnVec::Var`]). A shredded column rebuilds each row exactly
//! ([`ColumnVec::get`]: same keys in the same order, an Int stays an Int), so
//! its statistics are the boxed column's; `ColumnStats::build` reads them off
//! the fields without rebuilding a record. Shredded columns, as boxed ones,
//! are never pruned on.
//!
//! ## Policy
//!
//! Encoding is *encode-if-smaller*: a column is encoded only when the encoded
//! estimate undercuts the plain estimate, so pathological inputs (unique
//! strings, non-repetitive ints) never pay for an encoding that cannot win.
//! The decision is per column per partition, mirroring how Snowflake picks a
//! compression scheme per micro-partition block.
//!
//! Every seal applies the policy; there is no switch. `SNOWDB_ENCODE=0`
//! (`QueryOptions::encode` off) changes execution, not storage: scans then
//! decode every block at the pipeline boundary.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::{Bitmap, ColumnVec, RecordLists, Records, NULL_CODE};
use crate::variant::Variant;

/// The process default for encoded execution (`SNOWDB_ENCODE`, on unless it
/// says off).
pub fn encode_from_env() -> bool {
    crate::QueryOptions::default().encode
}

/// Applies the encode-if-smaller policy to one sealed column.
pub(crate) fn encode_column(col: ColumnVec) -> ColumnVec {
    let runs = match &col {
        ColumnVec::Str(vals) => return dict_encode(vals).unwrap_or(col),
        // Encoded estimate per run: 4 bytes of offset plus the value (8 for
        // an int, 1 for a bool), against 8 or 1 bytes per plain row.
        ColumnVec::Int { vals, valid } => rle_encode(vals, valid, 12, 8)
            .map(|(ends, vals, valid)| (ends, ColumnVec::Int { vals, valid })),
        ColumnVec::Bool { vals, valid } => rle_encode(vals, valid, 5, 1)
            .map(|(ends, vals, valid)| (ends, ColumnVec::Bool { vals, valid })),
        ColumnVec::Var(vals) => return shred(vals).unwrap_or(col),
        _ => None,
    };
    match runs {
        Some((ends, values)) => ColumnVec::Runs { ends, values: Box::new(values) },
        None => col,
    }
}

/// Shreds a boxed column of flat records or arrays of them (see the module
/// docs), or `None` when its values do not all have that shape.
fn shred(vals: &[Variant]) -> Option<ColumnVec> {
    match vals.iter().find(|v| !v.is_null())? {
        Variant::Object(_) => {
            let mut records = RecordsBuilder::default();
            for v in vals {
                if !records.push(v) {
                    return None;
                }
            }
            records.finish().map(ColumnVec::Objects)
        }
        Variant::Array(_) => {
            let (mut offsets, mut valid) = (Vec::with_capacity(vals.len() + 1), Bitmap::new());
            offsets.push(0u32);
            let mut items = RecordsBuilder::default();
            for v in vals {
                match v {
                    Variant::Null => valid.push(false),
                    Variant::Array(arr) => {
                        for item in arr.iter() {
                            if item.is_null() || !items.push(item) {
                                return None;
                            }
                        }
                        valid.push(true);
                    }
                    _ => return None,
                }
                offsets.push(u32::try_from(items.rows).ok()?);
            }
            Some(ColumnVec::List(RecordLists::from_offsets(&offsets, valid, items.finish()?)))
        }
        _ => None,
    }
}

/// Shreds records row by row; `push` reports whether the value fits.
#[derive(Default)]
struct RecordsBuilder {
    /// The key sequence, set by the first object.
    keys: Option<Arc<[Arc<str>]>>,
    fields: Vec<ColumnVec>,
    valid: Bitmap,
    rows: usize,
}

impl RecordsBuilder {
    fn push(&mut self, v: &Variant) -> bool {
        match v {
            Variant::Null => self.fields.iter_mut().for_each(ColumnVec::push_null),
            Variant::Object(obj) => {
                let entries = obj.entries();
                let keys = self.keys.get_or_insert_with(|| {
                    entries.iter().map(|(k, _)| k.clone()).collect()
                });
                let same_keys = keys.len() == entries.len()
                    && keys.iter().zip(entries).all(|(k, (e, _))| Arc::ptr_eq(k, e) || k == e);
                if !same_keys || keys.is_empty() {
                    return false;
                }
                if self.fields.is_empty() {
                    self.fields = vec![ColumnVec::Null(self.rows); keys.len()];
                }
                for (field, (_, x)) in self.fields.iter_mut().zip(entries) {
                    if !push_scalar(field, x) {
                        return false;
                    }
                }
            }
            _ => return false,
        }
        self.valid.push(!v.is_null());
        self.rows += 1;
        true
    }

    /// The records; `None` when no row was an object.
    fn finish(self) -> Option<Records> {
        Some(Records { keys: self.keys?, fields: self.fields, valid: self.valid })
    }
}

/// Pushes a field value when it keeps the field one plain scalar column.
fn push_scalar(field: &mut ColumnVec, v: &Variant) -> bool {
    match (&mut *field, v) {
        (ColumnVec::Float { vals, valid }, Variant::Float(x)) => {
            vals.push(*x);
            valid.push(true);
        }
        (ColumnVec::Int { vals, valid }, Variant::Int(x)) => {
            vals.push(*x);
            valid.push(true);
        }
        (ColumnVec::Bool { vals, valid }, Variant::Bool(x)) => {
            vals.push(*x);
            valid.push(true);
        }
        (ColumnVec::Str(vals), Variant::Str(x)) => vals.push(Some(x.clone())),
        (_, Variant::Null)
        | (
            ColumnVec::Null(_),
            Variant::Int(_) | Variant::Float(_) | Variant::Bool(_) | Variant::Str(_),
        ) => field.push(v.clone()),
        _ => return false,
    }
    true
}

/// Dictionary-encodes a string column in first-appearance order, or `None`
/// when the dictionary would not be smaller than the plain column.
pub(crate) fn dict_encode(vals: &[Option<Arc<str>>]) -> Option<ColumnVec> {
    if vals.len() >= NULL_CODE as usize {
        return None;
    }
    let mut index: HashMap<Arc<str>, u32> = HashMap::new();
    let mut dict: Vec<Arc<str>> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(vals.len());
    let mut plain_bytes = 0u64;
    for v in vals {
        match v {
            None => {
                plain_bytes += 1;
                codes.push(NULL_CODE);
            }
            Some(s) => {
                plain_bytes += s.len() as u64 + 2;
                let code = match index.get(s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        index.insert(s.clone(), c);
                        dict.push(s.clone());
                        c
                    }
                };
                codes.push(code);
            }
        }
    }
    let dict_bytes: u64 = dict.iter().map(|s| s.len() as u64 + 2).sum();
    let encoded_bytes = codes.len() as u64 * 4 + dict_bytes;
    (encoded_bytes < plain_bytes)
        .then(|| ColumnVec::DictStr { codes, dict: Arc::new(dict) })
}

/// Run-length-encodes a typed column (NULL is its own run value): cumulative
/// run ends plus one value and validity bit per run. `None` when the column
/// is too long for `u32` offsets or `run_bytes` per run would not undercut
/// `row_bytes` per plain row.
fn rle_encode<T: Copy + PartialEq>(
    vals: &[T],
    valid: &Bitmap,
    run_bytes: u64,
    row_bytes: u64,
) -> Option<(Vec<u32>, Vec<T>, Bitmap)> {
    if vals.len() >= u32::MAX as usize {
        return None;
    }
    // A NULL row's slot in `vals` is a placeholder, not part of its value.
    let cell = |i: usize| valid.get(i).then(|| vals[i]);
    let mut ends: Vec<u32> = Vec::new();
    let mut run_vals: Vec<T> = Vec::new();
    let mut run_valid = Bitmap::new();
    for (i, &v) in vals.iter().enumerate() {
        if i == 0 || cell(i - 1) != cell(i) {
            ends.push(0);
            run_vals.push(v);
            run_valid.push(valid.get(i));
        }
        *ends.last_mut().expect("run exists for every row") = i as u32 + 1;
    }
    (ends.len() as u64 * run_bytes < vals.len() as u64 * row_bytes)
        .then_some((ends, run_vals, run_valid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Variant;

    fn s(x: &str) -> Option<Arc<str>> {
        Some(Arc::from(x))
    }

    #[test]
    fn dict_encode_low_cardinality_roundtrips() {
        let vals: Vec<Option<Arc<str>>> = (0..100)
            .map(|i| if i % 7 == 0 { None } else { s(["red", "green", "blue"][i % 3]) })
            .collect();
        let enc = dict_encode(&vals).expect("low cardinality must encode");
        let ColumnVec::DictStr { codes, dict } = &enc else {
            panic!("expected DictStr")
        };
        assert_eq!(codes.len(), 100);
        assert!(dict.len() <= 3);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(enc.get(i), v.clone().map_or(Variant::Null, Variant::Str));
        }
        // Encoded estimate must undercut the plain estimate (satellite: the
        // governor charges what is actually held).
        assert!(enc.estimated_size() < ColumnVec::Str(vals).estimated_size());
    }

    #[test]
    fn dict_encode_declines_high_cardinality() {
        let vals: Vec<Option<Arc<str>>> =
            (0..100).map(|i| s(&format!("unique-value-{i}"))).collect();
        assert!(dict_encode(&vals).is_none());
    }

    #[test]
    fn rle_encode_roundtrips_and_declines() {
        let cells: Vec<Variant> =
            (0..100).map(|i| if i < 50 { Variant::Int(1) } else { Variant::Null }).collect();
        let plain = ColumnVec::from_variants(cells.clone());
        let enc = encode_column(plain.clone());
        assert!(matches!(&enc, ColumnVec::Runs { ends, .. } if ends == &[50, 100]));
        for (i, v) in cells.iter().enumerate() {
            assert_eq!(enc.get(i), *v);
        }
        assert!(enc.estimated_size() < plain.estimated_size());

        let unique = ColumnVec::from_variants((0..100).map(Variant::Int).collect());
        assert!(matches!(encode_column(unique), ColumnVec::Int { .. }));

        let bools = ColumnVec::from_variants((0..100).map(|i| Variant::Bool(i < 30)).collect());
        let enc = encode_column(bools);
        assert!(matches!(enc, ColumnVec::Runs { .. }));
        assert_eq!(enc.get(29), Variant::Bool(true));
        assert_eq!(enc.get(30), Variant::Bool(false));
    }
}
