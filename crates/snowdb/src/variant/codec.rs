//! The byte codec for [`Variant`]: a compact tagged tree.
//!
//! One tag byte per value; integers are zigzag varints, floats their eight
//! IEEE bytes, strings and keys a varint length and UTF-8 bytes, arrays and
//! objects a varint count and their elements. SNPT partition files
//! ([`crate::store::format`]) and wire frames ([`crate::server::proto`])
//! both hold values in this encoding, so this module is also the one place
//! that reads `Variant` bytes nobody vouches for: every read is
//! bounds-checked, nesting is capped at [`MAX_DEPTH`], and an element count
//! is checked against the bytes that remain (and reserves for at most 1024
//! elements ahead of reading them). A failure is a [`Malformed`], which each
//! caller reports as its own kind of error (a corrupt file, a bad frame).
//!
//! A `Decoder` reads a run of values that repeat the same object keys — one
//! SNPT column block, one wire frame — and hands every occurrence of a key the
//! same `Arc<str>`: its key table holds up to `KEY_TABLE_CAP` distinct keys
//! for the decoder's lifetime, and a key's bytes are compared against the
//! table (first against the key at the same field position of the previous
//! object) before they are validated and allocated. Values, key order and
//! every error are those of a decoder without the table. [`decode`] reads one
//! value with a table of its own.

use std::sync::Arc;

use super::{Object, Variant};

/// Maximum nesting depth accepted when decoding — bounds stack use on
/// adversarially deep (or corrupt) input.
pub const MAX_DEPTH: usize = 512;

/// The whole encoding of [`Variant::Null`]: an all-NULL column is a run of it.
pub const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_OBJECT: u8 = 7;

/// Why bytes do not decode.
#[derive(Debug)]
pub struct Malformed(pub String);

pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends the encoding of `v` to `out`.
pub fn encode(v: &Variant, out: &mut Vec<u8>) {
    match v {
        Variant::Null => out.push(TAG_NULL),
        Variant::Bool(false) => out.push(TAG_FALSE),
        Variant::Bool(true) => out.push(TAG_TRUE),
        Variant::Int(i) => {
            out.push(TAG_INT);
            put_varint(out, zigzag(*i));
        }
        Variant::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Variant::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Variant::Array(items) => {
            out.push(TAG_ARRAY);
            put_varint(out, items.len() as u64);
            for item in items.iter() {
                encode(item, out);
            }
        }
        Variant::Object(obj) => {
            out.push(TAG_OBJECT);
            put_varint(out, obj.len() as u64);
            for (k, val) in obj.iter() {
                put_str(out, k);
                encode(val, out);
            }
        }
    }
}

/// A string as its byte length (varint) and its UTF-8 bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The next `n` bytes of `buf` at `*pos`, which moves past them.
fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], Malformed> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| Malformed(format!("truncated: need {n} bytes at offset {pos}")))?;
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, Malformed> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = take(buf, pos, 1)?[0];
        // The tenth byte holds bit 63 only: anything above it would be lost.
        if shift >= 64 || (shift == 63 && b & 0x7E != 0) {
            return Err(Malformed("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// A count of items that each occupy at least one byte: a forged count
/// larger than the rest of the input fails here.
fn get_count(buf: &[u8], pos: &mut usize, what: &str) -> Result<usize, Malformed> {
    let n = get_varint(buf, pos)?;
    let left = buf.len() - *pos;
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= left)
        .ok_or_else(|| Malformed(format!("{what} {n} exceeds the {left} byte(s) that remain")))
}

/// A length-prefixed UTF-8 string.
pub fn get_str(buf: &[u8], pos: &mut usize) -> Result<Arc<str>, Malformed> {
    let len = get_count(buf, pos, "string length")?;
    let s = std::str::from_utf8(take(buf, pos, len)?)
        .map_err(|e| Malformed(format!("invalid utf-8: {e}")))?;
    Ok(Arc::from(s))
}

/// Decodes the value at `*pos`, which moves past it.
pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Variant, Malformed> {
    Decoder::new().decode(buf, pos)
}

/// Distinct object keys one [`Decoder`] keeps; keys past it are allocated
/// per occurrence, as [`decode`] does.
pub(crate) const KEY_TABLE_CAP: usize = 64;

/// Decodes a run of values that share their object keys (see the module
/// documentation). Every check of [`decode`] applies to every value.
#[derive(Default)]
pub(crate) struct Decoder {
    /// The keys produced so far, at most [`KEY_TABLE_CAP`].
    keys: Vec<Arc<str>>,
    /// `at[i]` indexes `keys` with the key last read at field position `i`.
    at: Vec<u8>,
}

impl Decoder {
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Decodes the value at `*pos`, which moves past it.
    pub fn decode(&mut self, buf: &[u8], pos: &mut usize) -> Result<Variant, Malformed> {
        self.decode_at(buf, pos, 0)
    }

    fn decode_at(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
        depth: usize,
    ) -> Result<Variant, Malformed> {
        if depth > MAX_DEPTH {
            return Err(Malformed(format!(
                "variant nesting exceeds depth {MAX_DEPTH}"
            )));
        }
        match take(buf, pos, 1)?[0] {
            TAG_NULL => Ok(Variant::Null),
            TAG_FALSE => Ok(Variant::Bool(false)),
            TAG_TRUE => Ok(Variant::Bool(true)),
            TAG_INT => Ok(Variant::Int(unzigzag(get_varint(buf, pos)?))),
            TAG_FLOAT => {
                let bits = take(buf, pos, 8)?.try_into().expect("an 8-byte slice");
                Ok(Variant::Float(f64::from_bits(u64::from_le_bytes(bits))))
            }
            TAG_STR => Ok(Variant::Str(get_str(buf, pos)?)),
            TAG_ARRAY => {
                let n = get_count(buf, pos, "array count")?;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(self.decode_at(buf, pos, depth + 1)?);
                }
                Ok(Variant::array(items))
            }
            TAG_OBJECT => {
                let n = get_count(buf, pos, "object count")?;
                let mut obj = Object::with_capacity(n.min(1024));
                for field in 0..n {
                    let key = self.key(buf, pos, field)?;
                    obj.insert(key, self.decode_at(buf, pos, depth + 1)?);
                }
                Ok(Variant::object(obj))
            }
            tag => Err(Malformed(format!("unknown variant tag {tag}"))),
        }
    }

    /// The object key at `*pos`, read as field `field` of its object: the
    /// table's `Arc` when its bytes are there, else a validated new one.
    fn key(&mut self, buf: &[u8], pos: &mut usize, field: usize) -> Result<Arc<str>, Malformed> {
        let len = get_count(buf, pos, "string length")?;
        let bytes = take(buf, pos, len)?;
        if let Some(&i) = self.at.get(field) {
            let key = &self.keys[usize::from(i)];
            if key.as_bytes() == bytes {
                return Ok(key.clone());
            }
        }
        let i = match self.keys.iter().position(|k| k.as_bytes() == bytes) {
            Some(i) => i,
            None => {
                let s = std::str::from_utf8(bytes)
                    .map_err(|e| Malformed(format!("invalid utf-8: {e}")))?;
                if self.keys.len() == KEY_TABLE_CAP {
                    return Ok(Arc::from(s));
                }
                self.keys.push(Arc::from(s));
                self.keys.len() - 1
            }
        };
        // `KEY_TABLE_CAP` fits a `u8`, and positions fill in order.
        let slot = i as u8;
        match field.cmp(&self.at.len()) {
            std::cmp::Ordering::Less => self.at[field] = slot,
            std::cmp::Ordering::Equal if field < KEY_TABLE_CAP => self.at.push(slot),
            _ => {}
        }
        Ok(self.keys[i].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Variant)]) -> Variant {
        let mut o = Object::new();
        for (k, v) in fields {
            o.insert(*k, v.clone());
        }
        Variant::object(o)
    }

    /// An object's encoding with its fields written as given, duplicates
    /// and all (`encode` never writes a duplicate key).
    fn raw_object(fields: &[(&[u8], Variant)]) -> Vec<u8> {
        let mut out = vec![TAG_OBJECT];
        put_varint(&mut out, fields.len() as u64);
        for (k, v) in fields {
            put_varint(&mut out, k.len() as u64);
            out.extend_from_slice(k);
            encode(v, &mut out);
        }
        out
    }

    /// Decodes `n` values one after another with one decoder.
    fn decode_run(buf: &[u8], n: usize) -> Result<Vec<Variant>, Malformed> {
        let mut dec = Decoder::new();
        let mut pos = 0;
        let out = (0..n)
            .map(|_| dec.decode(buf, &mut pos))
            .collect::<Result<Vec<_>, _>>()?;
        assert_eq!(pos, buf.len(), "every byte consumed");
        Ok(out)
    }

    fn keys_of(v: &Variant) -> Vec<Arc<str>> {
        match v {
            Variant::Object(o) => o.fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn overflowing_varints_are_malformed() {
        for bytes in [[0x80; 9].as_slice(), [0xFF; 9].as_slice()] {
            for last in [0x02u8, 0x7F, 0x40] {
                let mut buf = vec![TAG_INT];
                buf.extend_from_slice(bytes);
                buf.push(last);
                let err = decode(&buf, &mut 0).unwrap_err();
                assert!(err.0.contains("overflows"), "{}", err.0);
            }
        }
        // The largest value still fits: nine full bytes and a tenth of 1.
        for v in [i64::MIN, i64::MAX, -1, 0] {
            let mut buf = Vec::new();
            encode(&Variant::Int(v), &mut buf);
            assert_eq!(decode(&buf, &mut 0).unwrap(), Variant::Int(v));
        }
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(get_varint(&buf, &mut 0).unwrap(), u64::MAX);
    }

    #[test]
    fn repeated_keys_share_one_allocation() {
        let rows: Vec<Variant> = (0..5)
            .map(|i| {
                obj(&[
                    ("PT", Variant::Float(i as f64)),
                    ("ETA", Variant::Int(i)),
                    (
                        "NESTED",
                        Variant::array(vec![obj(&[("PT", Variant::Null)])]),
                    ),
                ])
            })
            .collect();
        let mut buf = Vec::new();
        for r in &rows {
            encode(r, &mut buf);
        }
        let got = decode_run(&buf, rows.len()).unwrap();
        assert_eq!(got, rows);
        let first = keys_of(&got[0]);
        for v in &got[1..] {
            for (a, b) in first.iter().zip(keys_of(v)) {
                assert!(Arc::ptr_eq(a, &b), "key {a} allocated twice");
            }
        }
        // The nested object's `PT` is the same key at another position.
        let Variant::Object(o) = &got[3] else {
            unreachable!()
        };
        let Some(Variant::Array(items)) = o.get("NESTED") else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&keys_of(&items[0])[0], &first[0]));
        // Without a shared decoder each value allocates its own.
        let alone = decode(&buf, &mut 0).unwrap();
        assert!(!Arc::ptr_eq(&keys_of(&alone)[0], &first[0]));
    }

    #[test]
    fn duplicate_keys_last_wins_first_position_kept() {
        let buf = raw_object(&[
            (b"A", Variant::Int(1)),
            (b"B", Variant::Int(2)),
            (b"A", Variant::Int(3)),
        ]);
        let mut twice = buf.clone();
        twice.extend_from_slice(&buf);
        for v in decode_run(&twice, 2).unwrap() {
            assert_eq!(v, obj(&[("A", Variant::Int(3)), ("B", Variant::Int(2))]));
            let keys = keys_of(&v);
            assert_eq!(&*keys[0], "A");
            assert_eq!(keys.len(), 2);
        }
    }

    #[test]
    fn more_distinct_keys_than_the_table_holds() {
        let n = KEY_TABLE_CAP * 2 + 3;
        let fields: Vec<(String, Variant)> = (0..n)
            .map(|i| (format!("K{i}"), Variant::Int(i as i64)))
            .collect();
        let one = obj(&fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect::<Vec<_>>());
        let mut buf = Vec::new();
        for _ in 0..3 {
            encode(&one, &mut buf);
        }
        let got = decode_run(&buf, 3).unwrap();
        for v in &got {
            assert_eq!(v, &one);
        }
        // Keys within the table are shared; the rest are still right.
        let (a, b) = (keys_of(&got[0]), keys_of(&got[2]));
        assert!(Arc::ptr_eq(&a[0], &b[0]));
        assert!(Arc::ptr_eq(&a[KEY_TABLE_CAP - 1], &b[KEY_TABLE_CAP - 1]));
        assert_eq!(a[n - 1], b[n - 1]);
    }

    #[test]
    fn keys_that_prefix_each_other_stay_apart() {
        let rows = [
            obj(&[("P", Variant::Int(1)), ("PT", Variant::Int(2))]),
            obj(&[("PT", Variant::Int(3)), ("P", Variant::Int(4))]),
            obj(&[("PTX", Variant::Int(5)), ("", Variant::Int(6))]),
            obj(&[("P", Variant::Int(7))]),
        ];
        let mut buf = Vec::new();
        for r in &rows {
            encode(r, &mut buf);
        }
        assert_eq!(decode_run(&buf, rows.len()).unwrap(), rows);
    }

    #[test]
    fn invalid_utf8_key_after_a_valid_key_of_the_same_length() {
        let mut buf = raw_object(&[(b"AB", Variant::Int(1))]);
        buf.extend_from_slice(&raw_object(&[(&[0xFF, 0xFE], Variant::Int(2))]));
        let mut dec = Decoder::new();
        let mut pos = 0;
        dec.decode(&buf, &mut pos).unwrap();
        let err = dec.decode(&buf, &mut pos).unwrap_err();
        assert!(err.0.contains("invalid utf-8"), "{}", err.0);
        // The same bytes alone fail the same way.
        let bad = raw_object(&[(&[0xFF, 0xFE], Variant::Int(2))]);
        assert_eq!(decode(&bad, &mut 0).unwrap_err().0, err.0);
    }
}
