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
        if shift >= 64 {
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
    decode_at(buf, pos, 0)
}

fn decode_at(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Variant, Malformed> {
    if depth > MAX_DEPTH {
        return Err(Malformed(format!("variant nesting exceeds depth {MAX_DEPTH}")));
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
                items.push(decode_at(buf, pos, depth + 1)?);
            }
            Ok(Variant::array(items))
        }
        TAG_OBJECT => {
            let n = get_count(buf, pos, "object count")?;
            let mut obj = Object::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = get_str(buf, pos)?;
                obj.insert(key, decode_at(buf, pos, depth + 1)?);
            }
            Ok(Variant::object(obj))
        }
        tag => Err(Malformed(format!("unknown variant tag {tag}"))),
    }
}
