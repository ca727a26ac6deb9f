//! Immutable micro-partition file format.
//!
//! One file per micro-partition, laid out so that projection pruning is a
//! byte-range decision: per-column compressed blocks first, then a
//! self-describing footer, so a reader fetches the footer once and afterwards
//! reads exactly the blocks of the columns a query materializes.
//!
//! ```text
//! +--------+---------+-----------------+-----------------+-----+--------+
//! | "SNPT" | version | column block 0  | column block 1  | ... | footer |
//! | 4 B    | u16+pad | (encoding per   | (offset/len/crc |     |        |
//! |        |         |  column type)   |  in footer)     |     |        |
//! +--------+---------+-----------------+-----------------+-----+--------+
//!                                        +------------+------------+--------+
//!                        ... footer ...  | footer crc | footer len | "SNPT" |
//!                                        | u32        | u32        | 4 B    |
//!                                        +------------+------------+--------+
//! ```
//!
//! The footer carries the schema (column names and types), row count, and for
//! every column its on-disk byte range, a CRC32 of the block, and its
//! statistics, whose bounds and null count decide pruning — so partition
//! pruning needs *zero* block bytes.
//!
//! Block encodings (all little-endian, varints are LEB128):
//! - `Int`    — validity bitmap, then zigzag-varint per non-null value;
//! - `Float`  — validity bitmap, then raw `f64` bits per non-null value;
//! - `Bool`   — validity bitmap, then value bitmap (one bit per row);
//! - `Str`    — validity bitmap, then `varint len + bytes` per non-null value;
//! - `Variant`— per row a tagged tree (null / bool / int / float / str /
//!   array / object), depth-guarded on decode.
//!
//! The footer also records a per-column *encoding id* for the two encoded
//! block layouts chosen at partition-build time (see
//! [`crate::storage::encode`]):
//! - `DictStr` — varint dictionary length, `varint len + bytes` per entry,
//!   then per row `varint code + 1` (`0` marks NULL);
//! - `RleInt`/`RleBool` — varint run count, varint length per run, then the
//!   per-run values as a plain `Int`/`Bool` block of `runs` rows;
//! - `Shredded` (id 4, on a `Variant` column) — a shape byte, then:
//!   objects (`0`) are a *records body* over the block's rows; lists (`1`)
//!   are a validity bitmap, a varint item count per non-NULL row, then a
//!   records body over the items. A records body is a validity bitmap, a
//!   varint key count, per key its `varint len + bytes` and a field tag
//!   (`0` all NULL, `1` Int, `2` Float, `3` Bool, `4` Str), then per field
//!   that is not all NULL a plain block of the body's rows. Its depth is fixed
//!   by the shape byte; a key count, an item total or a field the bytes
//!   cannot hold, a repeated key, a field value on a NULL record or a NULL
//!   list item is a typed error;
//!
//! and per-column statistics — NDV (KMV) sketch hashes, null counts,
//! equi-depth histogram bounds (the first and last are the column's minimum
//! and maximum), and array fan-out counters — so both pruning and cost-based
//! planning over a reopened database are metadata-only reads. A column's
//! type, block length and statistics decode into the same
//! [`ColumnMeta`](crate::storage::ColumnMeta) a memory partition seals.
//!
//! Blocks decode straight into [`ColumnVec`], the column type the buffer
//! cache holds and the executor slices: a validity bitmap on disk becomes the
//! column's [`Bitmap`] words, encoded blocks stay encoded.
//!
//! This is format version 4, the only one ever written to a database that
//! still exists; the reader accepts no other. (Version 3 also stored each
//! scalar column's minimum, maximum and null count in a block of its own,
//! which the statistics already held.)
//!
//! Every decode path is cursor-based and returns a typed
//! [`SnowError::Storage`] on truncation, bad magic, unsupported version,
//! unknown encoding id, CRC mismatch, or malformed bytes (including
//! out-of-range dictionary codes and inconsistent run lengths) — corrupt
//! input never panics.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use crate::column::{Bitmap, ColumnVec, RecordLists, Records, NULL_CODE};
use crate::error::{Result, SnowError};
use crate::storage::stats::{ColumnStats, KmvSketch};
use crate::storage::{stored_type, ColumnDef, ColumnMeta, ColumnType, MicroPartition};
use crate::variant::codec::{self, put_str, put_varint, unzigzag, zigzag};
use crate::variant::Variant;

/// File magic, present both in the 8-byte header and the 4-byte trailer.
pub const MAGIC: [u8; 4] = *b"SNPT";
/// The format version; readers reject any other with a typed error.
pub const FORMAT_VERSION: u16 = 4;
/// Fixed byte length of the header (`magic + version + padding`).
pub const HEADER_LEN: u64 = 8;
/// Fixed byte length of the trailer (`footer crc + footer len + magic`).
pub const TRAILER_LEN: u64 = 12;

/// On-disk block encoding of one column, recorded per column in the footer.
/// The *logical* type is [`ColumnMeta::ty`]; the encoding says how the block
/// bytes represent it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockEncoding {
    /// One value per row.
    Plain,
    /// Dictionary-coded strings.
    DictStr,
    /// Run-length-coded ints.
    RleInt,
    /// Run-length-coded bools.
    RleBool,
    /// Objects or lists of objects shredded into typed field blocks.
    Shredded,
}

impl BlockEncoding {
    fn tag(self) -> u8 {
        match self {
            BlockEncoding::Plain => 0,
            BlockEncoding::DictStr => 1,
            BlockEncoding::RleInt => 2,
            BlockEncoding::RleBool => 3,
            BlockEncoding::Shredded => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<BlockEncoding> {
        match tag {
            0 => Ok(BlockEncoding::Plain),
            1 => Ok(BlockEncoding::DictStr),
            2 => Ok(BlockEncoding::RleInt),
            3 => Ok(BlockEncoding::RleBool),
            4 => Ok(BlockEncoding::Shredded),
            t => Err(storage(format!("unknown column encoding id {t}"))),
        }
    }

    /// The encoding a column's in-memory representation writes as.
    fn of(col: &ColumnVec) -> BlockEncoding {
        match col {
            ColumnVec::DictStr { .. } => BlockEncoding::DictStr,
            ColumnVec::Runs { values, .. } => match stored_type(values) {
                ColumnType::Int => BlockEncoding::RleInt,
                ColumnType::Bool => BlockEncoding::RleBool,
                // Runs only ever wrap int/bool values; anything else writes
                // decoded (see `encode_column`).
                _ => BlockEncoding::Plain,
            },
            ColumnVec::Objects(_) | ColumnVec::List(_) => BlockEncoding::Shredded,
            _ => BlockEncoding::Plain,
        }
    }
}

/// The file-only half of a column's footer entry: its name and where and
/// how its block is stored. The block's length is the column record's
/// [`ColumnMeta::bytes`] — the exact I/O cost of reading the column, and the
/// unit `bytes_scanned` accounts for disk scans.
#[derive(Clone, Debug)]
pub struct BlockRef {
    pub name: String,
    /// How the block bytes are encoded.
    pub encoding: BlockEncoding,
    /// Absolute byte offset of the block from the start of the file.
    pub offset: u64,
    /// CRC32 (IEEE) of the encoded block.
    pub crc: u32,
}

/// Decoded footer of a partition file: per column, its record and its block,
/// indexed alike.
#[derive(Clone, Debug)]
pub struct PartitionMeta {
    pub row_count: usize,
    pub columns: Vec<ColumnMeta>,
    pub blocks: Vec<BlockRef>,
}

impl PartitionMeta {
    /// The schema as recorded in the footer.
    pub fn schema(&self) -> Vec<ColumnDef> {
        let def = |(b, c): (&BlockRef, &ColumnMeta)| ColumnDef::new(b.name.clone(), c.ty);
        self.blocks.iter().zip(&self.columns).map(def).collect()
    }
}

fn storage(msg: impl Into<String>) -> SnowError {
    SnowError::Storage(msg.into())
}

fn malformed(m: codec::Malformed) -> SnowError {
    storage(m.0)
}

pub(super) fn io_err(path: &Path, what: &str, e: std::io::Error) -> SnowError {
    storage(format!("{}: {what}: {e}", path.display()))
}

/// Prepends file-path context onto a `Storage` error from a lower layer.
fn with_path(path: &Path, e: SnowError) -> SnowError {
    match e {
        SnowError::Storage(m) => storage(format!("{}: {m}", path.display())),
        other => other,
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled, no external crates in this workspace.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0usize;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// Folds `data` into the running (pre-inverted) CRC `c` one byte at a time.
fn crc32_bytes(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE 802.3) of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc32_bytes(c, words.remainder()) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive encoders / cursor-based decoders.
// ---------------------------------------------------------------------------

fn put_bitmap(out: &mut Vec<u8>, bits: impl Iterator<Item = bool>) {
    let mut byte = 0u8;
    let mut n = 0usize;
    for b in bits {
        if b {
            byte |= 1 << (n % 8);
        }
        n += 1;
        if n.is_multiple_of(8) {
            out.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        out.push(byte);
    }
}

/// Bounds-checked forward cursor over a byte slice; every read is fallible.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| storage(format!("truncated: need {n} bytes at offset {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn varint(&mut self) -> Result<u64> {
        codec::get_varint(self.buf, &mut self.pos).map_err(malformed)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A varint that must fit a `usize`: a row or null count, which the
    /// bytes that follow do not bound.
    fn varsize(&mut self) -> Result<usize> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| storage("length overflows usize"))
    }

    /// A count of items that each take at least one more byte; rejects
    /// values that could not possibly fit in the remaining input, so corrupt
    /// counts fail fast instead of attempting huge allocations.
    fn varlen(&mut self) -> Result<usize> {
        let n = self.varsize()?;
        if n > self.remaining() {
            return Err(storage(format!(
                "truncated: count {n} exceeds the {} byte(s) that remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(storage(format!(
                "trailing garbage: {} bytes after expected end",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Reads the bitmap of `rows` bits at the cursor.
fn read_bitmap(cur: &mut Cur<'_>, rows: usize) -> Result<Bitmap> {
    Ok(Bitmap::from_le_bytes(cur.take(rows.div_ceil(8))?, rows))
}

/// Reads one `VARIANT` value ([`codec`]).
fn decode_variant(cur: &mut Cur<'_>) -> Result<Variant> {
    codec::decode(cur.buf, &mut cur.pos).map_err(malformed)
}

/// Reads a run of `rows` `VARIANT` values with one key table: the values of
/// a block repeat their object keys.
fn decode_variants(cur: &mut Cur<'_>, rows: usize) -> Result<Vec<Variant>> {
    // Each value takes at least its tag byte.
    let mut v = Vec::with_capacity(rows.min(cur.remaining()));
    let mut dec = codec::Decoder::new();
    for _ in 0..rows {
        v.push(dec.decode(cur.buf, &mut cur.pos).map_err(malformed)?);
    }
    Ok(v)
}

fn decode_str(cur: &mut Cur<'_>) -> Result<Arc<str>> {
    codec::get_str(cur.buf, &mut cur.pos).map_err(malformed)
}

// ---------------------------------------------------------------------------
// Column block encoding.
// ---------------------------------------------------------------------------

/// Appends a column's validity bitmap.
fn put_validity(out: &mut Vec<u8>, valid: &Bitmap) {
    put_bitmap(out, (0..valid.len()).map(|i| valid.get(i)));
}

/// Appends the encoded block for `col` to `out`.
pub fn encode_column(col: &ColumnVec, out: &mut Vec<u8>) {
    match col {
        ColumnVec::Int { vals, valid } => {
            put_validity(out, valid);
            for (i, x) in vals.iter().enumerate() {
                if valid.get(i) {
                    put_varint(out, zigzag(*x));
                }
            }
        }
        ColumnVec::Float { vals, valid } => {
            put_validity(out, valid);
            for (i, x) in vals.iter().enumerate() {
                if valid.get(i) {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
        ColumnVec::Bool { vals, valid } => {
            put_validity(out, valid);
            put_bitmap(out, vals.iter().enumerate().map(|(i, &b)| b && valid.get(i)));
        }
        ColumnVec::Str(v) => {
            put_bitmap(out, v.iter().map(Option::is_some));
            for s in v.iter().flatten() {
                put_str(out, s);
            }
        }
        ColumnVec::Var(v) => {
            for val in v {
                codec::encode(val, out);
            }
        }
        ColumnVec::Null(n) => out.extend(std::iter::repeat_n(codec::TAG_NULL, *n)),
        ColumnVec::DictStr { codes, dict } => {
            put_varint(out, dict.len() as u64);
            for s in dict.iter() {
                put_str(out, s);
            }
            // Per row: code + 1, with 0 marking NULL — codes are dense and
            // small, so the varint usually costs one byte.
            for &c in codes {
                if c == NULL_CODE {
                    put_varint(out, 0);
                } else {
                    put_varint(out, u64::from(c) + 1);
                }
            }
        }
        ColumnVec::Runs { ends, values } => match stored_type(values) {
            ColumnType::Int | ColumnType::Bool => {
                put_varint(out, ends.len() as u64);
                let mut start = 0u32;
                for &e in ends {
                    put_varint(out, u64::from(e - start));
                    start = e;
                }
                encode_column(values, out);
            }
            // Runs only ever wrap int/bool values; a foreign payload writes
            // decoded so the block matches its Plain footer encoding.
            _ => encode_column(&col.decoded(), out),
        },
        ColumnVec::Objects(r) => {
            out.push(SHAPE_OBJECTS);
            encode_records(r, out);
        }
        ColumnVec::List(l) => {
            out.push(SHAPE_LIST);
            put_validity(out, &l.valid);
            for r in (0..l.len()).filter(|&r| l.valid.get(r)) {
                put_varint(out, l.range(r).len() as u64);
            }
            encode_records(&l.packed().0, out);
        }
    }
}

/// Shape byte of a `Shredded` block: objects, or lists of objects.
const SHAPE_OBJECTS: u8 = 0;
const SHAPE_LIST: u8 = 1;

/// Tag of a records field that is NULL on every row; the four scalar types
/// follow it as 1 to 4.
const FIELD_NULLS: u8 = 0;

fn field_tag(field: &ColumnVec) -> u8 {
    match stored_type(field) {
        ColumnType::Int => 1,
        ColumnType::Float => 2,
        ColumnType::Bool => 3,
        ColumnType::Str => 4,
        ColumnType::Variant => FIELD_NULLS,
    }
}

fn field_type(tag: u8) -> Result<Option<ColumnType>> {
    match tag {
        FIELD_NULLS => Ok(None),
        1 => Ok(Some(ColumnType::Int)),
        2 => Ok(Some(ColumnType::Float)),
        3 => Ok(Some(ColumnType::Bool)),
        4 => Ok(Some(ColumnType::Str)),
        t => Err(storage(format!("unknown shredded field tag {t}"))),
    }
}

/// A records body: validity, keys with field tags, then the plain field
/// blocks (an all-NULL field has none).
fn encode_records(r: &Records, out: &mut Vec<u8>) {
    put_validity(out, &r.valid);
    put_varint(out, r.keys.len() as u64);
    for (k, f) in r.keys.iter().zip(&r.fields) {
        put_str(out, k);
        out.push(field_tag(f));
    }
    for f in r.fields.iter().filter(|f| field_tag(f) != FIELD_NULLS) {
        encode_column(&f.decoded(), out);
    }
}

fn decode_shredded(rows: usize, cur: &mut Cur<'_>) -> Result<ColumnVec> {
    match cur.u8()? {
        SHAPE_OBJECTS => Ok(ColumnVec::Objects(decode_records(rows, cur)?)),
        SHAPE_LIST => {
            let valid = read_bitmap(cur, rows)?;
            let mut offsets = Vec::with_capacity(rows + 1);
            offsets.push(0u32);
            let mut total = 0u32;
            for r in 0..rows {
                if valid.get(r) {
                    let items = cur.varint()?;
                    total = u32::try_from(items)
                        .ok()
                        .and_then(|n| total.checked_add(n))
                        .ok_or_else(|| storage(format!("list item total past {total} + {items}")))?;
                }
                offsets.push(total);
            }
            let items = decode_records(total as usize, cur)?;
            if !items.valid.all_valid() {
                return Err(storage("shredded list holds a NULL item".to_string()));
            }
            Ok(ColumnVec::List(RecordLists::from_offsets(&offsets, valid, items)))
        }
        s => Err(storage(format!("unknown shredded shape {s}"))),
    }
}

/// Reads a records body of `rows` rows. The validity bitmap comes first, so
/// a row count the bytes cannot hold fails before anything is reserved.
fn decode_records(rows: usize, cur: &mut Cur<'_>) -> Result<Records> {
    let valid = read_bitmap(cur, rows)?;
    let key_count = cur.varlen()?;
    if key_count == 0 {
        return Err(storage("shredded records without keys".to_string()));
    }
    let mut keys: Vec<Arc<str>> = Vec::with_capacity(key_count);
    let mut types = Vec::with_capacity(key_count);
    for _ in 0..key_count {
        let key = decode_str(cur)?;
        if keys.contains(&key) {
            return Err(storage(format!("shredded records repeat key '{key}'")));
        }
        keys.push(key);
        types.push(field_type(cur.u8()?)?);
    }
    let mut fields = Vec::with_capacity(key_count);
    for ty in types {
        let field = match ty {
            None => ColumnVec::Null(rows),
            Some(ty) => decode_plain(ty, rows, cur)?,
        };
        if (0..rows).any(|r| !valid.get(r) && !field.is_null_at(r)) {
            return Err(storage("shredded field holds a value on a NULL record".to_string()));
        }
        fields.push(field);
    }
    Ok(Records { keys: keys.into(), fields, valid })
}

/// Decodes a plain (one value per row) block body from the cursor. No
/// reservation outgrows the input: a typed column reads its validity bitmap,
/// one bit per row, before it reserves `rows` values, and a `VARIANT` cell
/// takes at least one byte.
fn decode_plain(ty: ColumnType, rows: usize, cur: &mut Cur<'_>) -> Result<ColumnVec> {
    Ok(match ty {
        ColumnType::Int => {
            let valid = read_bitmap(cur, rows)?;
            let mut vals = Vec::with_capacity(rows);
            for i in 0..rows {
                vals.push(if valid.get(i) { unzigzag(cur.varint()?) } else { 0 });
            }
            ColumnVec::Int { vals, valid }
        }
        ColumnType::Float => {
            let valid = read_bitmap(cur, rows)?;
            let mut vals = Vec::with_capacity(rows);
            for i in 0..rows {
                vals.push(if valid.get(i) { f64::from_bits(cur.u64()?) } else { 0.0 });
            }
            ColumnVec::Float { vals, valid }
        }
        ColumnType::Bool => {
            let valid = read_bitmap(cur, rows)?;
            let bits = read_bitmap(cur, rows)?;
            let vals = (0..rows).map(|i| valid.get(i) && bits.get(i)).collect();
            ColumnVec::Bool { vals, valid }
        }
        ColumnType::Str => {
            let valid = read_bitmap(cur, rows)?;
            let mut v = Vec::with_capacity(rows);
            for i in 0..rows {
                v.push(if valid.get(i) { Some(decode_str(cur)?) } else { None });
            }
            ColumnVec::Str(v)
        }
        ColumnType::Variant => ColumnVec::Var(decode_variants(cur, rows)?),
    })
}

/// Decodes a column block of `rows` rows; the block must be consumed exactly.
/// The decoded column *keeps* the block's encoding (`DictStr`/`Runs` stay
/// encoded in memory) — decoding to the plain representation is an execution
/// decision, not a storage one.
pub fn decode_column(
    ty: ColumnType,
    encoding: BlockEncoding,
    rows: usize,
    bytes: &[u8],
) -> Result<ColumnVec> {
    let mut cur = Cur::new(bytes);
    let col = match encoding {
        BlockEncoding::Plain => decode_plain(ty, rows, &mut cur)?,
        BlockEncoding::DictStr => {
            if ty != ColumnType::Str {
                return Err(storage(format!(
                    "dictionary encoding on non-string column type {}",
                    ty.name()
                )));
            }
            let dict_len = cur.varlen()?;
            if dict_len >= NULL_CODE as usize {
                return Err(storage(format!("dictionary length {dict_len} out of range")));
            }
            let mut dict = Vec::with_capacity(dict_len.min(4096));
            for _ in 0..dict_len {
                dict.push(decode_str(&mut cur)?);
            }
            // Each code takes at least one byte.
            let mut codes = Vec::with_capacity(rows.min(cur.remaining()));
            for _ in 0..rows {
                let raw = cur.varint()?;
                if raw == 0 {
                    codes.push(NULL_CODE);
                } else if (raw - 1) < dict_len as u64 {
                    codes.push((raw - 1) as u32);
                } else {
                    return Err(storage(format!(
                        "dictionary code {} out of range (dictionary has {dict_len} entries)",
                        raw - 1
                    )));
                }
            }
            ColumnVec::DictStr { codes, dict: Arc::new(dict) }
        }
        BlockEncoding::RleInt | BlockEncoding::RleBool => {
            let vty = if encoding == BlockEncoding::RleInt {
                ColumnType::Int
            } else {
                ColumnType::Bool
            };
            if ty != vty {
                return Err(storage(format!(
                    "run-length encoding of {} on column type {}",
                    vty.name(),
                    ty.name()
                )));
            }
            let run_count = cur.varlen()?;
            if run_count > rows {
                return Err(storage(format!(
                    "run count {run_count} exceeds row count {rows}"
                )));
            }
            let mut ends = Vec::with_capacity(run_count);
            let mut total = 0u64;
            for _ in 0..run_count {
                let len = cur.varint()?;
                if len == 0 {
                    return Err(storage("empty run in run-length block".to_string()));
                }
                total += len;
                if total > rows as u64 {
                    return Err(storage(format!(
                        "run lengths total {total} exceeds row count {rows}"
                    )));
                }
                ends.push(total as u32);
            }
            if total != rows as u64 {
                return Err(storage(format!(
                    "run lengths total {total} does not cover {rows} rows"
                )));
            }
            let values = decode_plain(vty, run_count, &mut cur)?;
            ColumnVec::Runs { ends, values: Box::new(values) }
        }
        BlockEncoding::Shredded => {
            if ty != ColumnType::Variant {
                return Err(storage(format!(
                    "shredded encoding on column type {}",
                    ty.name()
                )));
            }
            decode_shredded(rows, &mut cur)?
        }
    };
    cur.done()?;
    Ok(col)
}

// ---------------------------------------------------------------------------
// Footer encoding.
// ---------------------------------------------------------------------------

fn ty_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Bool => 2,
        ColumnType::Str => 3,
        ColumnType::Variant => 4,
    }
}

fn ty_from_tag(tag: u8) -> Result<ColumnType> {
    match tag {
        0 => Ok(ColumnType::Int),
        1 => Ok(ColumnType::Float),
        2 => Ok(ColumnType::Bool),
        3 => Ok(ColumnType::Str),
        4 => Ok(ColumnType::Variant),
        t => Err(storage(format!("unknown column type tag {t}"))),
    }
}

fn encode_footer(meta: &PartitionMeta) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, meta.row_count as u64);
    put_varint(&mut out, meta.columns.len() as u64);
    for (b, c) in meta.blocks.iter().zip(&meta.columns) {
        put_str(&mut out, &b.name);
        out.push(ty_tag(c.ty));
        out.push(b.encoding.tag());
        put_varint(&mut out, b.offset);
        put_varint(&mut out, c.bytes);
        out.extend_from_slice(&b.crc.to_le_bytes());
        let s = &c.stats;
        out.push(1); // statistics present
        put_varint(&mut out, s.rows);
        put_varint(&mut out, s.nulls);
        put_varint(&mut out, s.ndv.hashes().len() as u64);
        for &h in s.ndv.hashes() {
            out.extend_from_slice(&h.to_le_bytes());
        }
        put_varint(&mut out, s.histogram.len() as u64);
        for b in &s.histogram {
            codec::encode(b, &mut out);
        }
        put_varint(&mut out, s.array_cells);
        put_varint(&mut out, s.array_elems);
    }
    out
}

fn decode_footer(bytes: &[u8]) -> Result<PartitionMeta> {
    let mut cur = Cur::new(bytes);
    let row_count = cur.varsize()?;
    let col_count = cur.varlen()?;
    let mut columns = Vec::with_capacity(col_count.min(4096));
    let mut blocks = Vec::with_capacity(col_count.min(4096));
    for _ in 0..col_count {
        let name = decode_str(&mut cur)?.to_string();
        let ty = ty_from_tag(cur.u8()?)?;
        let encoding = BlockEncoding::from_tag(cur.u8()?)?;
        let offset = cur.varint()?;
        let bytes = cur.varint()?;
        let crc = cur.u32()?;
        let flag = cur.u8()?;
        if flag != 1 {
            return Err(storage(format!("bad column-stats flag {flag}")));
        }
        // A scan reads the partition's row count off the first column's
        // statistics: every column must cover as many rows.
        let rows = cur.varint()?;
        if let Some(first) = columns.first().filter(|c: &&ColumnMeta| c.stats.rows != rows) {
            let first = first.stats.rows;
            return Err(storage(format!("column '{name}' covers {rows} rows, the first {first}")));
        }
        let nulls = cur.varint()?;
        let hash_count = cur.varlen()?;
        if hash_count > crate::storage::stats::KMV_K {
            return Err(storage(format!(
                "NDV sketch holds {hash_count} hashes (max {})",
                crate::storage::stats::KMV_K
            )));
        }
        let mut hashes = Vec::with_capacity(hash_count);
        for _ in 0..hash_count {
            hashes.push(cur.u64()?);
        }
        let bound_count = cur.varlen()?;
        if bound_count > crate::storage::stats::HISTOGRAM_BOUNDS {
            return Err(storage(format!(
                "histogram holds {bound_count} bounds (max {})",
                crate::storage::stats::HISTOGRAM_BOUNDS
            )));
        }
        let mut histogram = Vec::with_capacity(bound_count);
        for _ in 0..bound_count {
            histogram.push(decode_variant(&mut cur)?);
        }
        let array_cells = cur.varint()?;
        let array_elems = cur.varint()?;
        let stats = ColumnStats {
            rows,
            nulls,
            ndv: KmvSketch::from_hashes(hashes),
            histogram,
            array_cells,
            array_elems,
        };
        columns.push(ColumnMeta { ty, bytes, stats });
        blocks.push(BlockRef { name, encoding, offset, crc });
    }
    cur.done()?;
    Ok(PartitionMeta { row_count, columns, blocks })
}

// ---------------------------------------------------------------------------
// Whole-file writer / reader.
// ---------------------------------------------------------------------------

/// The bytes of the partition file of a sealed micro-partition, and the
/// footer they carry. Writing them is the store's business: its partition
/// sink is the one place a partition file is created.
pub fn encode_partition(schema: &[ColumnDef], part: &MicroPartition) -> (Vec<u8>, PartitionMeta) {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&[0u8; 2]); // reserved
    debug_assert_eq!(buf.len() as u64, HEADER_LEN);

    let mut columns = Vec::with_capacity(schema.len());
    let mut blocks = Vec::with_capacity(schema.len());
    for (i, def) in schema.iter().enumerate() {
        let offset = buf.len() as u64;
        encode_column(part.column(i), &mut buf);
        let bytes = buf.len() as u64 - offset;
        let crc = crc32(&buf[offset as usize..]);
        // The record keeps the type the block was *encoded* with, not the
        // declared schema type: a column that drifted mid-ingest is promoted
        // to Variant storage, and the decoder keys off this footer field. On
        // disk its cost is the block's length.
        columns.push(ColumnMeta { bytes, ..part.columns()[i].clone() });
        let encoding = BlockEncoding::of(part.column(i));
        blocks.push(BlockRef { name: def.name.clone(), encoding, offset, crc });
    }
    let meta = PartitionMeta { row_count: part.row_count(), columns, blocks };

    let footer = encode_footer(&meta);
    buf.extend_from_slice(&footer);
    buf.extend_from_slice(&crc32(&footer).to_le_bytes());
    buf.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    buf.extend_from_slice(&MAGIC);
    (buf, meta)
}

/// Reads and validates the footer of a partition file: magic, version, and
/// footer CRC. Block bytes are *not* touched — this is the metadata-only read
/// that makes pruning free of data I/O.
pub fn read_footer(path: &Path) -> Result<PartitionMeta> {
    let mut f = std::fs::File::open(path).map_err(|e| io_err(path, "open", e))?;
    let file_len = f.metadata().map_err(|e| io_err(path, "stat", e))?.len();
    if file_len < HEADER_LEN + TRAILER_LEN {
        return Err(storage(format!(
            "{}: file too short ({file_len} bytes) to be a partition file",
            path.display()
        )));
    }

    let mut header = [0u8; 8];
    f.read_exact(&mut header).map_err(|e| io_err(path, "read header", e))?;
    if header[0..4] != MAGIC {
        return Err(storage(format!("{}: bad magic (not a partition file)", path.display())));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != FORMAT_VERSION {
        return Err(storage(format!(
            "{}: unsupported format version {version} (expected {FORMAT_VERSION})",
            path.display()
        )));
    }

    let mut trailer = [0u8; TRAILER_LEN as usize];
    f.seek(SeekFrom::End(-(TRAILER_LEN as i64)))
        .map_err(|e| io_err(path, "seek trailer", e))?;
    f.read_exact(&mut trailer).map_err(|e| io_err(path, "read trailer", e))?;
    if trailer[8..12] != MAGIC {
        return Err(storage(format!("{}: bad trailing magic (truncated file?)", path.display())));
    }
    let footer_crc = u32::from_le_bytes(trailer[0..4].try_into().expect("4 bytes"));
    let footer_len = u64::from(u32::from_le_bytes(trailer[4..8].try_into().expect("4 bytes")));
    let footer_end = file_len - TRAILER_LEN;
    if footer_len > footer_end - HEADER_LEN {
        return Err(storage(format!(
            "{}: footer length {footer_len} exceeds file size",
            path.display()
        )));
    }

    let mut footer = vec![0u8; footer_len as usize];
    f.seek(SeekFrom::Start(footer_end - footer_len))
        .map_err(|e| io_err(path, "seek footer", e))?;
    f.read_exact(&mut footer).map_err(|e| io_err(path, "read footer", e))?;
    if crc32(&footer) != footer_crc {
        return Err(storage(format!("{}: footer checksum mismatch", path.display())));
    }

    let meta = decode_footer(&footer).map_err(|e| with_path(path, e))?;
    for (b, c) in meta.blocks.iter().zip(&meta.columns) {
        let end = b.offset.saturating_add(c.bytes);
        if b.offset < HEADER_LEN || end > footer_end - footer_len {
            return Err(storage(format!(
                "{}: column '{}' block range [{}, {end}) escapes the data section",
                path.display(),
                b.name,
                b.offset
            )));
        }
    }
    Ok(meta)
}

/// Reads, CRC-checks, and decodes column `i`'s block. This is the *only*
/// data I/O a disk scan performs, and it reads exactly the block's bytes.
pub fn read_column(path: &Path, meta: &PartitionMeta, i: usize) -> Result<ColumnVec> {
    let (b, c) = (&meta.blocks[i], &meta.columns[i]);
    let mut f = std::fs::File::open(path).map_err(|e| io_err(path, "open", e))?;
    let mut block = vec![0u8; c.bytes as usize];
    f.seek(SeekFrom::Start(b.offset))
        .map_err(|e| io_err(path, "seek block", e))?;
    f.read_exact(&mut block)
        .map_err(|e| io_err(path, &format!("read column '{}'", b.name), e))?;
    if crc32(&block) != b.crc {
        return Err(storage(format!(
            "{}: column '{}' block checksum mismatch",
            path.display(),
            b.name
        )));
    }
    let col = decode_column(c.ty, b.encoding, meta.row_count, &block)
        .map_err(|e| with_path(path, with_ctx(&format!("column '{}'", b.name), e)))?;
    if col.len() as u64 != c.stats.rows {
        return Err(storage(format!(
            "{}: column '{}' holds {} rows, its statistics cover {}",
            path.display(),
            b.name,
            col.len(),
            c.stats.rows
        )));
    }
    Ok(col)
}

fn with_ctx(prefix: &str, e: SnowError) -> SnowError {
    match e {
        SnowError::Storage(m) => storage(format!("{prefix}: {m}")),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemSink, TableBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "snowdb-format-{}-{tag}-{n}.part",
            std::process::id()
        ))
    }

    fn write_to(path: &Path, schema: &[ColumnDef], part: &MicroPartition) -> PartitionMeta {
        let (bytes, meta) = encode_partition(schema, part);
        std::fs::write(path, bytes).unwrap();
        meta
    }

    fn sample_partition() -> (Vec<ColumnDef>, MicroPartition) {
        let schema = vec![
            ColumnDef::new("I", ColumnType::Int),
            ColumnDef::new("F", ColumnType::Float),
            ColumnDef::new("B", ColumnType::Bool),
            ColumnDef::new("S", ColumnType::Str),
            ColumnDef::new("V", ColumnType::Variant),
        ];
        let mut b = TableBuilder::new("t", schema.clone(), 64, Box::new(MemSink)).unwrap();
        for i in 0..13i64 {
            let nested = crate::variant::parse_json(&format!(
                "{{\"a\": [{i}, null, {{\"deep\": \"x{i}\"}}], \"b\": {}}}",
                i as f64 * 0.5
            ))
            .unwrap();
            let row = vec![
                if i % 4 == 0 { Variant::Null } else { Variant::Int(i - 6) },
                Variant::Float(i as f64 * 1.5 - 3.0),
                if i % 3 == 0 { Variant::Null } else { Variant::Bool(i % 2 == 0) },
                if i % 5 == 0 { Variant::Null } else { Variant::str(format!("s{i}")) },
                nested,
            ];
            b.push_row(&row).unwrap();
        }
        let t = b.finish().unwrap();
        let part = t.partitions()[0].as_mem().unwrap().clone();
        (schema, part)
    }

    #[test]
    fn partition_file_roundtrip_all_types() {
        let (schema, part) = sample_partition();
        let path = temp_path("roundtrip");
        let meta = write_to(&path, &schema, &part);
        assert_eq!(meta.row_count, 13);
        assert_eq!(meta.columns.len(), 5);

        let footer = read_footer(&path).unwrap();
        assert_eq!(footer.row_count, 13);
        assert_eq!(footer.schema(), schema);
        // The bounds pruning reads round-trip through the footer.
        // Col 0 is Int(i - 6) with every i % 4 == 0 null: min at i=1, max at i=11.
        let h = &footer.columns[0].stats.histogram;
        assert_eq!((h.first(), h.last()), (Some(&Variant::Int(-5)), Some(&Variant::Int(5))));
        assert!(!footer.columns[0].may_match(">", &Variant::Int(5)));
        // The VARIANT column is never pruned on.
        assert!(footer.columns[4].may_match("IS NULL", &Variant::Null));

        for i in 0..footer.columns.len() {
            let col = read_column(&path, &footer, i).unwrap();
            for r in 0..footer.row_count {
                assert_eq!(col.get(r), part.column(i).get(r), "col {i} row {r}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn float_bounds_roundtrip_bit_exact() {
        let schema = vec![ColumnDef::new("F", ColumnType::Float)];
        let mut b = TableBuilder::new("t", schema.clone(), 8, Box::new(MemSink)).unwrap();
        for v in [-0.0f64, 1.0e-300, f64::MAX] {
            b.push_row(&[Variant::Float(v)]).unwrap();
        }
        let t = b.finish().unwrap();
        let part = t.partitions()[0].as_mem().unwrap().clone();
        let path = temp_path("floatbounds");
        write_to(&path, &schema, &part);
        let footer = read_footer(&path).unwrap();
        let bits = |v: Option<&Variant>| match v {
            Some(Variant::Float(f)) => f.to_bits(),
            other => panic!("not a float bound: {other:?}"),
        };
        let h = &footer.columns[0].stats.histogram;
        assert_eq!(bits(h.first()), (-0.0f64).to_bits());
        assert_eq!(bits(h.last()), f64::MAX.to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_block_fails_with_typed_checksum_error() {
        let (schema, part) = sample_partition();
        let path = temp_path("corrupt");
        let meta = write_to(&path, &schema, &part);
        // Flip one byte inside the first column's block.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[meta.blocks[0].offset as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Footer still validates; the damaged block does not.
        let footer = read_footer(&path).unwrap();
        let err = read_column(&path, &footer, 0).unwrap_err();
        assert!(
            matches!(err, SnowError::Storage(ref m) if m.contains("checksum")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_footer_fails_typed() {
        let (schema, part) = sample_partition();
        let path = temp_path("trunc");
        write_to(&path, &schema, &part);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = read_footer(&path).unwrap_err();
        assert!(matches!(err, SnowError::Storage(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_fail_typed() {
        let (schema, part) = sample_partition();
        let path = temp_path("magic");
        write_to(&path, &schema, &part);
        let good = std::fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        let err = read_footer(&path).unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("magic")), "{err}");

        // Anything but the current version is refused, the three retired
        // generations included.
        for version in [0xFE, 1, 2, 3] {
            let mut bad_version = good.clone();
            bad_version[4] = version;
            std::fs::write(&path, &bad_version).unwrap();
            let err = read_footer(&path).unwrap_err();
            assert!(
                matches!(err, SnowError::Storage(ref m) if m.contains("unsupported format version")),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deep_variant_nesting_is_depth_guarded_on_decode() {
        let mut bytes = Vec::new();
        for _ in 0..(codec::MAX_DEPTH + 8) {
            bytes.push(6); // array tag
            bytes.push(1); // one element
        }
        bytes.push(codec::TAG_NULL);
        let err =
            decode_column(ColumnType::Variant, BlockEncoding::Plain, 1, &bytes).unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("depth")), "{err}");
    }

    /// Builds a low-cardinality / repetitive partition that triggers every
    /// encoded block layout (dict strings, int runs, bool runs).
    fn encoded_partition() -> (Vec<ColumnDef>, MicroPartition) {
        let schema = vec![
            ColumnDef::new("S", ColumnType::Str),
            ColumnDef::new("I", ColumnType::Int),
            ColumnDef::new("B", ColumnType::Bool),
        ];
        let mut b = TableBuilder::new("t", schema.clone(), 512, Box::new(MemSink)).unwrap();
        for i in 0..300i64 {
            b.push_row(&[
                if i % 11 == 0 {
                    Variant::Null
                } else {
                    Variant::str(["alpha", "beta", "gamma"][(i % 3) as usize])
                },
                Variant::Int(i / 50),
                Variant::Bool(i < 200),
            ])
            .unwrap();
        }
        let t = b.finish().unwrap();
        let part = t.partitions()[0].as_mem().unwrap().clone();
        (schema, part)
    }

    #[test]
    fn encoded_partition_roundtrips_and_shrinks() {
        let (schema, part) = encoded_partition();
        let path = temp_path("encoded");
        let meta = write_to(&path, &schema, &part);
        assert_eq!(meta.blocks[0].encoding, BlockEncoding::DictStr);
        assert_eq!(meta.blocks[1].encoding, BlockEncoding::RleInt);
        assert_eq!(meta.blocks[2].encoding, BlockEncoding::RleBool);

        let footer = read_footer(&path).unwrap();
        for (i, b) in footer.blocks.iter().enumerate() {
            let col = read_column(&path, &footer, i).unwrap();
            // Encoded blocks stay encoded in memory.
            assert_eq!(
                BlockEncoding::of(&col),
                b.encoding,
                "column {i} lost its encoding on read"
            );
            for r in 0..footer.row_count {
                assert_eq!(col.get(r), part.column(i).get(r), "col {i} row {r}");
            }
        }

        // The same rows written without encoding must cost more block bytes.
        let plain_part = MicroPartition::from_arc_columns(
            (0..schema.len()).map(|c| Arc::new(part.column(c).decoded())).collect(),
        );
        let plain_path = temp_path("plain");
        let plain_meta = write_to(&plain_path, &schema, &plain_part);
        let block_bytes = |m: &PartitionMeta| m.columns.iter().map(|c| c.bytes).sum::<u64>();
        assert!(
            block_bytes(&meta) < block_bytes(&plain_meta),
            "encoded {} >= plain {}",
            block_bytes(&meta),
            block_bytes(&plain_meta)
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&plain_path).ok();
    }

    #[test]
    fn column_records_roundtrip_through_the_footer() {
        let (schema, part) = sample_partition();
        let path = temp_path("stats");
        let written = write_to(&path, &schema, &part);
        let footer = read_footer(&path).unwrap();
        for (i, cm) in footer.columns.iter().enumerate() {
            // The record is the sealed one, its cost the block's length.
            let want = ColumnMeta { bytes: written.columns[i].bytes, ..part.columns()[i].clone() };
            assert_eq!(cm, &want, "col {i} record diverges after roundtrip");
        }
        // The Variant column's array fan-out counters survive persistence.
        let v = &footer.columns[4].stats;
        assert_eq!(v.rows, 13);
        assert_eq!(v.array_cells, 0); // top-level values are objects
        std::fs::remove_file(&path).ok();
    }

    /// Rewrites the footer of the partition file at `path` as `meta`, with a
    /// valid footer checksum.
    fn reseal_footer(path: &Path, meta: &PartitionMeta) {
        let bytes = std::fs::read(path).unwrap();
        let n = bytes.len();
        let footer_len = u32::from_le_bytes(bytes[n - 8..n - 4].try_into().unwrap()) as usize;
        let mut out = bytes[..n - TRAILER_LEN as usize - footer_len].to_vec();
        let footer = encode_footer(meta);
        out.extend_from_slice(&footer);
        out.extend_from_slice(&crc32(&footer).to_le_bytes());
        out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        out.extend_from_slice(&MAGIC);
        std::fs::write(path, out).unwrap();
    }

    /// A scan reads the row count off the first column's statistics, so
    /// statistics whose row counts disagree with each other, or with the
    /// rows a block decodes to, are typed errors, never a short column.
    #[test]
    fn statistics_covering_other_row_counts_fail_typed() {
        let (schema, part) = sample_partition();
        let path = temp_path("rows");
        let good = write_to(&path, &schema, &part);

        let mut one_off = good.clone();
        one_off.columns[2].stats.rows += 1;
        reseal_footer(&path, &one_off);
        let err = read_footer(&path).unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("covers 14 rows")), "{err}");

        let mut all_off = good;
        all_off.columns.iter_mut().for_each(|c| c.stats.rows = 12);
        reseal_footer(&path, &all_off);
        let footer = read_footer(&path).unwrap();
        let err = read_column(&path, &footer, 0).unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("holds 13 rows")), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_dict_block_fails_with_typed_checksum_error() {
        let (schema, part) = encoded_partition();
        let path = temp_path("dictflip");
        let meta = write_to(&path, &schema, &part);
        assert_eq!(meta.blocks[0].encoding, BlockEncoding::DictStr);
        // Flip one byte inside the dictionary block.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[meta.blocks[0].offset as usize + 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let footer = read_footer(&path).unwrap();
        let err = read_column(&path, &footer, 0).unwrap_err();
        assert!(
            matches!(err, SnowError::Storage(ref m) if m.contains("checksum")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_encoded_blocks_fail_typed_not_panic() {
        // Out-of-range dictionary code: dict of 1 entry, row code 2 (= raw 3).
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1); // dict len
        put_varint(&mut bytes, 1); // entry len
        bytes.push(b'x');
        put_varint(&mut bytes, 3); // code 2 → out of range
        let err =
            decode_column(ColumnType::Str, BlockEncoding::DictStr, 1, &bytes).unwrap_err();
        assert!(
            matches!(err, SnowError::Storage(ref m) if m.contains("out of range")),
            "{err}"
        );

        // Dictionary encoding on a non-string column is rejected.
        let err =
            decode_column(ColumnType::Int, BlockEncoding::DictStr, 1, &[0]).unwrap_err();
        assert!(matches!(err, SnowError::Storage(_)), "{err}");

        // Truncated dictionary block (dict promises more entries than exist).
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 5); // dict len 5, but no entries follow
        let err =
            decode_column(ColumnType::Str, BlockEncoding::DictStr, 1, &bytes).unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("truncated")), "{err}");

        // Run lengths that do not cover the row count.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1); // one run
        put_varint(&mut bytes, 3); // of 3 rows, but the block claims 5
        let err =
            decode_column(ColumnType::Int, BlockEncoding::RleInt, 5, &bytes).unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("cover")), "{err}");

        // A zero-length run is malformed.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 2);
        let err =
            decode_column(ColumnType::Int, BlockEncoding::RleInt, 2, &bytes).unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("empty run")), "{err}");
    }

    #[test]
    fn unknown_encoding_id_fails_typed() {
        let (schema, part) = sample_partition();
        let path = temp_path("unkenc");
        write_to(&path, &schema, &part);
        let mut bytes = std::fs::read(&path).unwrap();
        // Locate the footer via the trailer, patch the first column's
        // encoding byte to an unknown id, and re-seal the footer CRC so only
        // the encoding id is wrong.
        let n = bytes.len();
        let footer_len =
            u32::from_le_bytes(bytes[n - 8..n - 4].try_into().unwrap()) as usize;
        let footer_start = n - TRAILER_LEN as usize - footer_len;
        let footer_end = footer_start + footer_len;
        // Footer layout: varint row_count, varint col_count, then per column
        // varint name-len + name + ty tag + encoding id. All counts here are
        // single-byte varints.
        let name_len = bytes[footer_start + 2] as usize;
        let enc_pos = footer_start + 2 + 1 + name_len + 1;
        bytes[enc_pos] = 0xEE;
        let crc = crc32(&bytes[footer_start..footer_end]).to_le_bytes();
        bytes[n - 12..n - 8].copy_from_slice(&crc);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_footer(&path).unwrap_err();
        assert!(
            matches!(err, SnowError::Storage(ref m) if m.contains("encoding id")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC the sliced one must equal.
    fn crc32_reference(data: &[u8]) -> u32 {
        crc32_bytes(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let mut state = 0xC3C3_2024u64;
        let bytes: Vec<u8> = (0..(1 << 20) + 7)
            .map(|_| {
                state = crate::govern::chaos::splitmix64(state);
                state as u8
            })
            .collect();
        // Every length 0–64 at every start offset 0–7: each tail length and
        // each alignment of the eight-byte steps.
        for start in 0..8 {
            for len in 0..=64 {
                let b = &bytes[start..start + len];
                assert_eq!(crc32(b), crc32_reference(b), "start {start} len {len}");
            }
        }
        let big = &bytes[3..(1 << 20) + 3];
        assert_eq!(crc32(big), crc32_reference(big));
    }

    #[test]
    fn overflowing_varints_fail_typed() {
        // One valid row of an Int block: a bitmap byte, then ten varint bytes
        // whose last carries bits past bit 63.
        for (fill, last) in [(0x80u8, 0x02u8), (0xFF, 0x7F)] {
            let mut int_block = vec![1u8];
            int_block.extend_from_slice(&[fill; 9]);
            int_block.push(last);
            let err = decode_column(ColumnType::Int, BlockEncoding::Plain, 1, &int_block)
                .unwrap_err();
            assert!(matches!(err, SnowError::Storage(ref m) if m.contains("overflows")), "{err}");
            // The same varint inside a VARIANT cell.
            let mut var_block = vec![3u8];
            var_block.extend_from_slice(&int_block[1..]);
            let err = decode_column(ColumnType::Variant, BlockEncoding::Plain, 1, &var_block)
                .unwrap_err();
            assert!(matches!(err, SnowError::Storage(ref m) if m.contains("overflows")), "{err}");
        }
    }

    #[test]
    fn forged_row_counts_fail_typed_without_reserving() {
        // Reserving 1 << 40 cells up front would abort the process.
        for (ty, enc) in [
            (ColumnType::Variant, BlockEncoding::Plain),
            (ColumnType::Int, BlockEncoding::Plain),
            (ColumnType::Float, BlockEncoding::Plain),
            (ColumnType::Bool, BlockEncoding::Plain),
            (ColumnType::Str, BlockEncoding::Plain),
            (ColumnType::Str, BlockEncoding::DictStr),
            (ColumnType::Int, BlockEncoding::RleInt),
        ] {
            let err = decode_column(ty, enc, 1 << 40, &[0; 4]).unwrap_err();
            assert!(matches!(err, SnowError::Storage(_)), "{ty:?}/{enc:?}: {err}");
        }
        // A run count the block cannot hold fails before it is reserved.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1 << 40);
        let err = decode_column(ColumnType::Int, BlockEncoding::RleInt, usize::MAX, &bytes)
            .unwrap_err();
        assert!(matches!(err, SnowError::Storage(ref m) if m.contains("exceeds")), "{err}");
    }

    #[test]
    fn a_variant_block_allocates_each_key_once() {
        let (schema, part) = sample_partition();
        let path = temp_path("keys");
        write_to(&path, &schema, &part);
        let footer = read_footer(&path).unwrap();
        let col = read_column(&path, &footer, 4).unwrap();
        let ColumnVec::Var(rows) = &col else { panic!("a VARIANT block decodes boxed") };
        let key_ptrs = |v: &Variant| match v {
            Variant::Object(o) => o.iter().map(|(k, _)| k.as_ptr()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let first = key_ptrs(&rows[0]);
        assert_eq!(first.len(), 2);
        for r in &rows[1..] {
            assert_eq!(key_ptrs(r), first);
        }
        std::fs::remove_file(&path).ok();
    }
}
