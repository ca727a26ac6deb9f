//! A minimal blocking client for the wire protocol.
//!
//! [`Client`] drives one connection: connect + handshake, then one statement
//! at a time with [`Client::execute`]. A [`Canceller`] — a cheap clone of the
//! socket — can interrupt the statement in flight from another thread, which
//! is how the REPL maps Ctrl-C onto a wire cancel.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::{Result, SnowError};
use crate::variant::Variant;

use super::proto::{self, op, Dec, Done};

/// Outcome of one remote statement.
#[derive(Clone, Debug)]
pub enum RemoteOutcome {
    /// A query: columns, all rows (re-assembled from the streamed batches),
    /// and the completion summary.
    Rows(RemoteResult),
    /// DDL / DML / session-verb acknowledgement.
    Message(String),
}

/// A remote query result.
#[derive(Clone, Debug)]
pub struct RemoteResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Variant>>,
    pub done: Done,
}

/// One wire-protocol connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    session: u64,
    banner: String,
    max_frame: u32,
}

impl Client {
    /// Connects, handshakes, and returns a ready client.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, "", proto::DEFAULT_MAX_FRAME)
    }

    /// [`Client::connect`] with an auth token (currently a stub the server
    /// accepts verbatim) and a receive-side frame limit.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        token: &str,
        max_frame: u32,
    ) -> Result<Client> {
        let writer = TcpStream::connect(addr)
            .map_err(|e| SnowError::Protocol(format!("connect failed: {e}")))?;
        // A request is one frame in one write; nothing follows it that
        // Nagle's algorithm could usefully wait for.
        writer
            .set_nodelay(true)
            .map_err(|e| SnowError::Protocol(format!("set_nodelay failed: {e}")))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| SnowError::Protocol(format!("socket clone failed: {e}")))?,
        );
        let mut client = Client { writer, reader, session: 0, banner: String::new(), max_frame };
        proto::write_frame(&mut client.writer, &proto::hello(token))?;
        let payload = client.read_payload()?;
        let mut d = Dec::new(&payload);
        match d.u8()? {
            op::HELLO_ACK => {
                client.session = d.u64()?;
                client.banner = d.str()?;
                d.finish()?;
                Ok(client)
            }
            op::ERROR => Err(d.error()?),
            other => Err(SnowError::Protocol(format!(
                "expected HelloAck, got opcode {other:#04x}"
            ))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The server banner from the handshake.
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// A handle that can cancel this client's in-flight statement from
    /// another thread.
    pub fn canceller(&self) -> Result<Canceller> {
        Ok(Canceller {
            stream: self
                .writer
                .try_clone()
                .map_err(|e| SnowError::Protocol(format!("socket clone failed: {e}")))?,
        })
    }

    /// Bounds how long a read may block (used by shutdown-sensitive tests).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| SnowError::Protocol(format!("set_read_timeout failed: {e}")))
    }

    /// Runs one statement and blocks until its terminal frame. Server-side
    /// errors (including typed cancellations and admission rejections) come
    /// back as the original [`SnowError`], re-decoded from the error frame.
    pub fn execute(&mut self, sql: &str) -> Result<RemoteOutcome> {
        proto::write_frame(&mut self.writer, &proto::query(sql))?;
        let mut columns: Option<Vec<String>> = None;
        let mut rows: Vec<Vec<Variant>> = Vec::new();
        loop {
            let payload = self.read_payload()?;
            let mut d = Dec::new(&payload);
            match d.u8()? {
                op::RESULT_HEADER => {
                    let n = d.u32()? as usize;
                    if n > payload.len() {
                        return Err(SnowError::Protocol(format!(
                            "column count {n} exceeds frame size"
                        )));
                    }
                    let mut cols = Vec::with_capacity(n);
                    for _ in 0..n {
                        cols.push(d.str()?);
                    }
                    d.finish()?;
                    columns = Some(cols);
                }
                op::ROW_BATCH => {
                    let Some(cols) = &columns else {
                        return Err(SnowError::Protocol("RowBatch before ResultHeader".into()));
                    };
                    let n = d.u32()? as usize;
                    if n > payload.len() {
                        return Err(SnowError::Protocol(format!(
                            "row count {n} exceeds frame size"
                        )));
                    }
                    for _ in 0..n {
                        let mut row = Vec::with_capacity(cols.len());
                        for _ in 0..cols.len() {
                            row.push(d.variant()?);
                        }
                        rows.push(row);
                    }
                    d.finish()?;
                }
                op::RESULT_DONE => {
                    let done = proto::decode_done(&mut d)?;
                    let columns = columns.ok_or_else(|| {
                        SnowError::Protocol("ResultDone before ResultHeader".into())
                    })?;
                    return Ok(RemoteOutcome::Rows(RemoteResult { columns, rows, done }));
                }
                op::MESSAGE => {
                    let msg = d.str()?;
                    d.finish()?;
                    return Ok(RemoteOutcome::Message(msg));
                }
                op::ERROR => return Err(d.error()?),
                other => {
                    return Err(SnowError::Protocol(format!(
                        "unexpected opcode {other:#04x} while awaiting result"
                    )))
                }
            }
        }
    }

    /// Sends an orderly Goodbye. Dropping the client without calling this is
    /// equivalent to a disconnect (the server cancels any in-flight work).
    pub fn goodbye(mut self) {
        let _ = proto::write_frame(&mut self.writer, &[op::GOODBYE]);
    }

    fn read_payload(&mut self) -> Result<Vec<u8>> {
        proto::read_frame(&mut self.reader, self.max_frame)?
            .ok_or_else(|| SnowError::Protocol("server closed the connection".into()))
    }
}

/// Cross-thread cancel handle: writes one `Cancel` frame on the shared
/// socket. Frame writes are a single `write_all`, so a cancel issued while
/// the owning thread is blocked reading a result never interleaves bytes.
pub struct Canceller {
    stream: TcpStream,
}

impl Canceller {
    pub fn cancel(&mut self) -> Result<()> {
        proto::write_frame(&mut self.stream, &[op::CANCEL])
    }
}
