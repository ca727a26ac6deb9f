//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is a little-endian `u32` payload length followed
//! by the payload; the first payload byte is the opcode. The framing layer
//! enforces a configurable maximum frame size *before* allocating — an
//! adversarial length prefix costs nothing — and every decoding failure is a
//! typed [`SnowError::Protocol`], never a panic and never an unbounded
//! allocation (untrusted element counts are checked against the bytes that
//! remain, so a forged count cannot pre-reserve memory it didn't ship).
//!
//! ## Frames
//!
//! | opcode | direction | name          | payload                                                 |
//! |--------|-----------|---------------|---------------------------------------------------------|
//! | `0x01` | c → s     | Hello         | `u32` protocol version, `str` auth token (stub)         |
//! | `0x02` | c → s     | Query         | `str` SQL statement                                     |
//! | `0x03` | c → s     | Cancel        | empty — trips the in-flight statement's governor        |
//! | `0x04` | c → s     | Goodbye       | empty — orderly close                                   |
//! | `0x81` | s → c     | HelloAck      | `u64` session id, `str` server banner                   |
//! | `0x82` | s → c     | ResultHeader  | `u32` column count, column names                        |
//! | `0x83` | s → c     | RowBatch      | `u32` row count, rows of `Variant`s ([`codec`] bytes)   |
//! | `0x84` | s → c     | ResultDone    | `u64` rows, compile µs, exec µs, bytes scanned, queued ms|
//! | `0x85` | s → c     | Message       | `str` statement message (DDL/DML/`SET` outcomes)        |
//! | `0x86` | s → c     | Error         | structured [`SnowError`] (kind byte + fields)           |
//!
//! One `Query` yields exactly one terminal frame: `Message`, `Error`, or
//! `ResultDone` (the latter preceded by one `ResultHeader` and zero or more
//! `RowBatch`es — results stream chunk-by-chunk, a client never needs the
//! whole result in one frame).

use std::io::{Read, Write};

use crate::engine::QueryResult;
use crate::error::{
    AdmissionTrip, DeadlineTrip, InternalTrip, ResourceTrip, Result, SnowError,
    WriteConflictTrip,
};
use crate::variant::{codec, Variant};

/// Protocol version spoken by this build; bumped on incompatible changes.
pub const PROTOCOL_VERSION: u32 = 2;

/// Default maximum frame size (16 MiB) — both sides enforce it on receive.
pub const DEFAULT_MAX_FRAME: u32 = 16 << 20;

/// Frame opcodes. Client-to-server opcodes have the high bit clear,
/// server-to-client opcodes have it set.
pub mod op {
    pub const HELLO: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const CANCEL: u8 = 0x03;
    pub const GOODBYE: u8 = 0x04;
    pub const HELLO_ACK: u8 = 0x81;
    pub const RESULT_HEADER: u8 = 0x82;
    pub const ROW_BATCH: u8 = 0x83;
    pub const RESULT_DONE: u8 = 0x84;
    pub const MESSAGE: u8 = 0x85;
    pub const ERROR: u8 = 0x86;
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one frame (length prefix + payload) in a single `write_all`, so
/// concurrent writers on a duplicated socket never interleave partial frames.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
        .map_err(|e| SnowError::Protocol(format!("write failed: {e}")))
}

/// Reads one frame payload, enforcing `max_frame` before allocating.
/// Returns `Ok(None)` on a clean EOF at a frame boundary; EOF mid-frame is a
/// typed protocol error.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(SnowError::Protocol(format!("read failed: {e}"))),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_frame {
        return Err(SnowError::Protocol(format!(
            "frame length {len} exceeds maximum {max_frame}"
        )));
    }
    if len == 0 {
        return Err(SnowError::Protocol("empty frame (no opcode)".into()));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| SnowError::Protocol(format!("truncated frame ({len} byte payload): {e}")))?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/// Payload writer: plain byte-appends, infallible.
pub struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn new(opcode: u8) -> Enc {
        Enc { buf: vec![opcode] }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// One value in the shared [`codec`] encoding.
    pub fn variant(&mut self, v: &Variant) {
        codec::encode(v, &mut self.buf);
    }

    pub fn error(&mut self, e: &SnowError) {
        fn simple(enc: &mut Enc, kind: u8, msg: &str) {
            enc.u8(kind);
            enc.str(msg);
        }
        match e {
            SnowError::Lex(m) => simple(self, 0, m),
            SnowError::Parse(m) => simple(self, 1, m),
            SnowError::Plan(m) => simple(self, 2, m),
            SnowError::Exec(m) => simple(self, 3, m),
            SnowError::Catalog(m) => simple(self, 4, m),
            SnowError::Json(m) => simple(self, 5, m),
            SnowError::Storage(m) => simple(self, 6, m),
            SnowError::Protocol(m) => simple(self, 7, m),
            SnowError::Cancelled { op } => simple(self, 8, op),
            SnowError::DeadlineExceeded(t) => {
                self.u8(9);
                self.str(&t.op);
                self.u64(t.elapsed_ms);
                self.u64(t.limit_ms);
            }
            SnowError::ResourceExhausted(t) => {
                self.u8(10);
                self.str(&t.resource);
                self.str(&t.op);
                self.u64(t.used);
                self.u64(t.limit);
            }
            SnowError::Internal(t) => {
                self.u8(11);
                self.str(&t.op);
                self.str(&t.detail);
            }
            SnowError::WriteConflict(t) => {
                self.u8(12);
                self.str(&t.table);
                self.u64(t.base_version);
                self.u64(t.current_version);
                self.u32(t.attempts);
                self.str(&t.detail);
            }
            SnowError::Rejected(t) => {
                self.u8(13);
                self.str(&t.reason);
                self.u64(t.session);
                self.u64(t.queued_ms);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Payload decoding (untrusted input)
// ---------------------------------------------------------------------------

/// Cursor over an untrusted payload: every read is bounds-checked and fails
/// with a typed [`SnowError::Protocol`]. Its values share one key table, so
/// the rows of a `RowBatch` allocate each object key once per frame.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    keys: codec::Decoder,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0, keys: codec::Decoder::new() }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole payload was consumed — terminal decoders call
    /// this so trailing garbage is a protocol error, not silently ignored.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnowError::Protocol(format!(
                "{} trailing byte(s) after frame body",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnowError::Protocol(format!(
                "frame truncated: wanted {n} byte(s), {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnowError::Protocol("string field is not valid UTF-8".into()))
    }

    pub fn variant(&mut self) -> Result<Variant> {
        self.keys.decode(self.buf, &mut self.pos).map_err(|m| SnowError::Protocol(m.0))
    }

    pub fn error(&mut self) -> Result<SnowError> {
        Ok(match self.u8()? {
            0 => SnowError::Lex(self.str()?),
            1 => SnowError::Parse(self.str()?),
            2 => SnowError::Plan(self.str()?),
            3 => SnowError::Exec(self.str()?),
            4 => SnowError::Catalog(self.str()?),
            5 => SnowError::Json(self.str()?),
            6 => SnowError::Storage(self.str()?),
            7 => SnowError::Protocol(self.str()?),
            8 => SnowError::Cancelled { op: self.str()? },
            9 => SnowError::DeadlineExceeded(Box::new(DeadlineTrip {
                op: self.str()?,
                elapsed_ms: self.u64()?,
                limit_ms: self.u64()?,
            })),
            10 => SnowError::ResourceExhausted(Box::new(ResourceTrip {
                resource: self.str()?,
                op: self.str()?,
                used: self.u64()?,
                limit: self.u64()?,
            })),
            11 => SnowError::Internal(Box::new(InternalTrip {
                op: self.str()?,
                detail: self.str()?,
            })),
            12 => SnowError::WriteConflict(Box::new(WriteConflictTrip {
                table: self.str()?,
                base_version: self.u64()?,
                current_version: self.u64()?,
                attempts: self.u32()?,
                detail: self.str()?,
            })),
            13 => SnowError::Rejected(Box::new(AdmissionTrip {
                reason: self.str()?,
                session: self.u64()?,
                queued_ms: self.u64()?,
            })),
            kind => {
                return Err(SnowError::Protocol(format!("unknown error kind {kind}")))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Frame constructors (the handful both sides build)
// ---------------------------------------------------------------------------

pub fn hello(token: &str) -> Vec<u8> {
    let mut e = Enc::new(op::HELLO);
    e.u32(PROTOCOL_VERSION);
    e.str(token);
    e.buf
}

pub fn hello_ack(session: u64, banner: &str) -> Vec<u8> {
    let mut e = Enc::new(op::HELLO_ACK);
    e.u64(session);
    e.str(banner);
    e.buf
}

pub fn query(sql: &str) -> Vec<u8> {
    let mut e = Enc::new(op::QUERY);
    e.str(sql);
    e.buf
}

pub fn message(text: &str) -> Vec<u8> {
    let mut e = Enc::new(op::MESSAGE);
    e.str(text);
    e.buf
}

pub fn error_frame(err: &SnowError) -> Vec<u8> {
    let mut e = Enc::new(op::ERROR);
    e.error(err);
    e.buf
}

pub fn result_header(columns: &[String]) -> Vec<u8> {
    let mut e = Enc::new(op::RESULT_HEADER);
    e.u32(columns.len() as u32);
    for c in columns {
        e.str(c);
    }
    e.buf
}

/// Statement-completion summary shipped in the terminal `ResultDone` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Done {
    pub rows: u64,
    pub compile_us: u64,
    pub exec_us: u64,
    pub bytes_scanned: u64,
    pub queued_ms: u64,
}

impl Done {
    /// The summary of a completed query: its times and bytes scanned read
    /// from the statement's record, plus the queue wait the server measured.
    pub fn of(qr: &QueryResult, queued_ms: u64) -> Done {
        Done {
            rows: qr.rows.len() as u64,
            compile_us: qr.profile.compile_time().as_micros() as u64,
            exec_us: qr.profile.exec_time().as_micros() as u64,
            bytes_scanned: qr.profile.scan.bytes_scanned,
            queued_ms,
        }
    }
}

pub fn result_done(d: Done) -> Vec<u8> {
    let mut e = Enc::new(op::RESULT_DONE);
    e.u64(d.rows);
    e.u64(d.compile_us);
    e.u64(d.exec_us);
    e.u64(d.bytes_scanned);
    e.u64(d.queued_ms);
    e.buf
}

pub fn decode_done(d: &mut Dec<'_>) -> Result<Done> {
    let done = Done {
        rows: d.u64()?,
        compile_us: d.u64()?,
        exec_us: d.u64()?,
        bytes_scanned: d.u64()?,
        queued_ms: d.u64()?,
    };
    d.finish()?;
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Object;

    fn roundtrip_variant(v: &Variant) {
        let mut e = Enc::new(0);
        e.variant(v);
        let mut d = Dec::new(&e.buf[1..]);
        assert_eq!(&d.variant().unwrap(), v);
        d.finish().unwrap();
    }

    #[test]
    fn variants_roundtrip() {
        let mut obj = Object::new();
        obj.insert("a", Variant::Int(-5));
        obj.insert("b", Variant::array(vec![Variant::Null, Variant::Bool(true)]));
        for v in [
            Variant::Null,
            Variant::Bool(false),
            Variant::Int(i64::MIN),
            Variant::Float(f64::NAN),
            Variant::str("héllo"),
            Variant::array(vec![Variant::Float(0.5), Variant::str("")]),
            Variant::object(obj),
        ] {
            // NaN != NaN under PartialEq would fail the roundtrip assert;
            // encode NaN via bit-pattern comparison instead.
            if let Variant::Float(x) = v {
                if x.is_nan() {
                    let mut e = Enc::new(0);
                    e.variant(&v);
                    let mut d = Dec::new(&e.buf[1..]);
                    match d.variant().unwrap() {
                        Variant::Float(y) => assert!(y.is_nan()),
                        other => panic!("unexpected {other:?}"),
                    }
                    continue;
                }
            }
            roundtrip_variant(&v);
        }
    }

    #[test]
    fn errors_roundtrip_structurally() {
        let errors = vec![
            SnowError::Parse("bad token".into()),
            SnowError::Protocol("oversized".into()),
            SnowError::Cancelled { op: "Filter".into() },
            SnowError::DeadlineExceeded(Box::new(DeadlineTrip {
                op: "Sort".into(),
                elapsed_ms: 12,
                limit_ms: 10,
            })),
            SnowError::ResourceExhausted(Box::new(ResourceTrip {
                resource: "memory".into(),
                op: "Join".into(),
                used: 200,
                limit: 100,
            })),
            SnowError::Internal(Box::new(InternalTrip {
                op: "executor".into(),
                detail: "boom".into(),
            })),
            SnowError::write_conflict("T", 3, 5, "partition rewritten"),
            SnowError::rejected("queue full", 7, 42),
        ];
        for err in errors {
            let frame = error_frame(&err);
            let mut d = Dec::new(&frame[1..]);
            assert_eq!(d.error().unwrap(), err);
            d.finish().unwrap();
        }
    }

    #[test]
    fn forged_counts_and_depth_are_typed_errors() {
        // Array claiming 2^31 elements with a 6-byte body.
        let mut e = Enc::new(0);
        e.u8(6);
        codec::put_varint(&mut e.buf, 1 << 31);
        e.buf.extend_from_slice(&[0; 6]);
        let mut d = Dec::new(&e.buf[1..]);
        assert!(matches!(d.variant(), Err(SnowError::Protocol(_))));

        // Arrays nested past the depth guard: each level is tag 6 + count 1.
        let mut deep = [6u8, 1].repeat(600);
        deep.push(0);
        let mut d = Dec::new(&deep);
        match d.variant() {
            Err(SnowError::Protocol(m)) => assert!(m.contains("depth"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overflowing_varints_are_typed_errors() {
        for last in [0x02u8, 0x7F] {
            for fill in [0x80u8, 0xFF] {
                let mut bytes = vec![3u8]; // TAG_INT
                bytes.extend_from_slice(&[fill; 9]);
                bytes.push(last);
                let mut d = Dec::new(&bytes);
                match d.variant() {
                    Err(SnowError::Protocol(m)) => assert!(m.contains("overflows"), "{m}"),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rows_of_one_frame_share_their_keys() {
        let mut obj = Object::new();
        obj.insert("PT", Variant::Float(1.5));
        obj.insert("ETA", Variant::Int(2));
        let row = Variant::object(obj);
        let mut e = Enc::new(0);
        e.variant(&row);
        e.variant(&row);
        let mut d = Dec::new(&e.buf[1..]);
        let (a, b) = (d.variant().unwrap(), d.variant().unwrap());
        d.finish().unwrap();
        assert_eq!((&a, &b), (&row, &row));
        let (Variant::Object(a), Variant::Object(b)) = (a, b) else { unreachable!() };
        for ((ka, _), (kb, _)) in a.iter().zip(b.iter()) {
            assert!(std::ptr::eq(ka, kb), "key {ka} allocated twice in one frame");
        }
    }

    #[test]
    fn truncated_and_non_utf8_fields_are_typed_errors() {
        // A float cut short.
        let mut d = Dec::new(&[4, 1, 2]);
        assert!(matches!(d.variant(), Err(SnowError::Protocol(_))));
        // str with invalid UTF-8.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut d = Dec::new(&buf);
        assert!(matches!(d.str(), Err(SnowError::Protocol(_))));
    }

    #[test]
    fn frame_io_roundtrip_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &query("SELECT 1")).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let payload = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(payload[0], op::QUERY);
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none(), "clean EOF");

        // Oversized length prefix fails before any allocation.
        let mut r = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        match read_frame(&mut r, 1024) {
            Err(SnowError::Protocol(m)) => assert!(m.contains("exceeds maximum"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }

        // Truncated payload is a typed error, not a hang or a panic.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&100u32.to_le_bytes());
        truncated.extend_from_slice(&[1, 2, 3]);
        let mut r = std::io::Cursor::new(truncated);
        assert!(matches!(read_frame(&mut r, 1024), Err(SnowError::Protocol(_))));
    }

    /// Seeded byte-mangling: decoding arbitrary garbage must always yield
    /// `Ok` or a typed protocol error — never a panic or runaway allocation.
    #[test]
    fn fuzzed_payloads_never_panic() {
        let mut state = 0x5EED_F00Du64;
        let mut next = move || {
            state = crate::govern::chaos::splitmix64(state);
            state
        };
        for _ in 0..500 {
            let len = (next() % 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            let mut d = Dec::new(&bytes);
            let _ = d.variant();
            let mut d = Dec::new(&bytes);
            let _ = d.error();
            let mut d = Dec::new(&bytes);
            let _ = d.str();
        }
    }
}
