//! Per-connection protocol handling.
//!
//! Each accepted socket gets two threads:
//!
//! - the **reader** thread blocks on the socket, parses frames, and forwards
//!   commands over an in-process channel. It never writes to the socket. Two
//!   frames it handles itself, because they must act while a query is
//!   running: `Cancel` trips the in-flight statement's governor through the
//!   shared [`CancelSlot`], and EOF / an I/O error (client disconnect) does
//!   the same before telling the command loop to exit;
//! - the **command** thread (the sole socket writer) drains the channel:
//!   admits each statement through the [`AdmissionController`], arms a
//!   cancellable [`QueryGovernor`], executes on the connection's
//!   [`Session`], and streams results back chunk-by-chunk.
//!
//! A protocol violation (oversized frame, unknown opcode, handshake replay)
//! produces one typed error frame and a clean close — the reader forwards the
//! violation as a fatal command rather than writing itself.

use std::io::{BufWriter, Write as _};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use crate::engine::StatementResult;
use crate::error::{Result, SnowError};
use crate::govern::{panic_message, QueryGovernor};
use crate::session::Session;
use crate::sql::Statement;
use crate::variant::Variant;

use super::proto::{self, op, Dec, Done, Enc};
use super::ServerShared;

/// Rows per `RowBatch` frame. Small enough that cancellation latency (one
/// batch flush) stays low; large enough that framing overhead is noise.
pub(crate) const BATCH_ROWS: usize = 512;

/// Cancellation rendezvous between the reader thread and the command loop.
///
/// Two races are resolved by the statement counters:
///
/// - a `Cancel` frame can outrun the command loop (the query it targets is
///   forwarded but its governor is not armed yet). TCP ordering guarantees
///   the cancel was sent after its query, so when `forwarded > completed`
///   the cancel is latched as `Pending` and fires the moment the statement
///   arms;
/// - a `Cancel` frame can arrive *stale* — sent while a result was already
///   in flight back to the client. Then `forwarded == completed` and the
///   cancel is a no-op; it must NOT latch, or it would kill the connection's
///   next, unrelated statement.
pub(crate) struct CancelSlot {
    state: Mutex<CancelState>,
}

struct CancelState {
    /// `Query` frames the reader has forwarded to the command loop.
    forwarded: u64,
    /// Statements the command loop has finished (response written or about
    /// to be written; the governor is past the point of cancellation).
    completed: u64,
    mode: CancelMode,
}

enum CancelMode {
    Idle,
    Armed(Arc<QueryGovernor>),
    Pending,
}

impl CancelSlot {
    pub(crate) fn new() -> Arc<CancelSlot> {
        Arc::new(CancelSlot {
            state: Mutex::new(CancelState {
                forwarded: 0,
                completed: 0,
                mode: CancelMode::Idle,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CancelState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reader-side: a `Query` frame was forwarded to the command loop.
    fn note_forwarded(&self) {
        self.lock().forwarded += 1;
    }

    /// Trips the armed governor, latches for a forwarded-but-not-yet-armed
    /// statement, or no-ops when nothing is outstanding. Returns true when a
    /// running statement was actually tripped.
    pub(crate) fn trip(&self) -> bool {
        let mut st = self.lock();
        match &st.mode {
            CancelMode::Armed(gov) => {
                gov.cancel();
                true
            }
            _ if st.forwarded > st.completed => {
                st.mode = CancelMode::Pending;
                false
            }
            _ => false,
        }
    }

    fn arm(&self, gov: &Arc<QueryGovernor>) {
        let mut st = self.lock();
        if matches!(st.mode, CancelMode::Pending) {
            gov.cancel();
        }
        st.mode = CancelMode::Armed(Arc::clone(gov));
    }

    /// Command-loop side: the current statement is done (its outcome is
    /// decided). Called *before* the response is written, so a cancel the
    /// client sends on seeing the response can never latch onto it.
    fn statement_done(&self) {
        let mut st = self.lock();
        st.completed += 1;
        st.mode = CancelMode::Idle;
    }
}

/// Commands the reader forwards to the command loop.
enum Cmd {
    Query(String),
    /// Orderly `Goodbye` from the client.
    Goodbye,
    /// The socket died (EOF or I/O error); exit without writing.
    Disconnect,
    /// Protocol violation: write this error frame, then close.
    Fatal(SnowError),
}

/// Runs one connection to completion. `stream` is the accepted socket; the
/// caller (accept loop) already registered the connection in `shared`.
pub(crate) fn run(
    shared: &Arc<ServerShared>,
    mut stream: TcpStream,
    session_id: u64,
    cancel: Arc<CancelSlot>,
) {
    let max_frame = shared.config.max_frame;

    // Handshake happens inline, before the reader thread exists: exactly one
    // Hello, answered with HelloAck (or a typed error for anything else).
    match read_hello(&mut stream, max_frame) {
        Ok(()) => {
            let ack = proto::hello_ack(
                session_id,
                &format!("snowdb-server protocol {}", proto::PROTOCOL_VERSION),
            );
            if proto::write_frame(&mut stream, &ack).is_err() {
                return;
            }
        }
        Err(e) => {
            let _ = proto::write_frame(&mut stream, &proto::error_frame(&e));
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
    }

    let (tx, rx) = mpsc::channel::<Cmd>();
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reader_cancel = Arc::clone(&cancel);
    let reader_shared = Arc::clone(shared);
    let reader = std::thread::spawn(move || {
        read_loop(reader_stream, max_frame, &tx, &reader_cancel, &reader_shared);
    });

    let session = Session::new(Arc::clone(&shared.db));
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Query(sql) => {
                if !handle_statement(shared, &session, &mut stream, session_id, &cancel, &sql) {
                    break;
                }
            }
            Cmd::Goodbye | Cmd::Disconnect => break,
            Cmd::Fatal(e) => {
                let _ = proto::write_frame(&mut stream, &proto::error_frame(&e));
                break;
            }
        }
    }

    // Unblock and reap the reader: closing the socket fails its blocking read.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();
}

fn read_hello(stream: &mut TcpStream, max_frame: u32) -> Result<()> {
    let payload = proto::read_frame(stream, max_frame)?
        .ok_or_else(|| SnowError::Protocol("connection closed before Hello".into()))?;
    let mut d = Dec::new(&payload);
    match d.u8()? {
        op::HELLO => {}
        other => {
            return Err(SnowError::Protocol(format!(
                "expected Hello (0x01) as first frame, got opcode {other:#04x}"
            )))
        }
    }
    let version = d.u32()?;
    if version != proto::PROTOCOL_VERSION {
        return Err(SnowError::Protocol(format!(
            "protocol version {version} not supported (server speaks {})",
            proto::PROTOCOL_VERSION
        )));
    }
    let _token = d.str()?; // Auth stub: any token is accepted, none required.
    d.finish()
}

/// Reader-thread loop: parse frames, act on Cancel, forward the rest.
fn read_loop(
    mut stream: TcpStream,
    max_frame: u32,
    tx: &mpsc::Sender<Cmd>,
    cancel: &CancelSlot,
    shared: &ServerShared,
) {
    loop {
        match proto::read_frame(&mut stream, max_frame) {
            Ok(Some(payload)) => {
                let mut d = Dec::new(&payload);
                let opcode = d.u8().expect("read_frame rejects empty payloads");
                match opcode {
                    op::QUERY => match d.str().and_then(|s| d.finish().map(|()| s)) {
                        Ok(sql) => {
                            cancel.note_forwarded();
                            if tx.send(Cmd::Query(sql)).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Cmd::Fatal(e));
                            return;
                        }
                    },
                    op::CANCEL => {
                        cancel.trip();
                    }
                    op::GOODBYE => {
                        let _ = tx.send(Cmd::Goodbye);
                        return;
                    }
                    op::HELLO => {
                        let _ = tx.send(Cmd::Fatal(SnowError::Protocol(
                            "Hello after handshake".into(),
                        )));
                        return;
                    }
                    other => {
                        let _ = tx.send(Cmd::Fatal(SnowError::Protocol(format!(
                            "unknown opcode {other:#04x}"
                        ))));
                        return;
                    }
                }
            }
            Ok(None) => {
                // Clean EOF without Goodbye: the client vanished. Cancel any
                // in-flight statement so its slot frees within one batch.
                if cancel.trip() {
                    shared.note_disconnect_cancel();
                }
                let _ = tx.send(Cmd::Disconnect);
                return;
            }
            Err(e) => {
                if cancel.trip() {
                    shared.note_disconnect_cancel();
                }
                // A framing violation still gets its typed error frame; a raw
                // I/O failure means the socket is gone and writing is futile.
                let died = matches!(&e, SnowError::Protocol(m) if m.starts_with("read failed"));
                let _ = tx.send(if died { Cmd::Disconnect } else { Cmd::Fatal(e) });
                return;
            }
        }
    }
}

/// Executes one statement and streams its outcome. Returns false when the
/// socket is dead and the command loop should exit.
fn handle_statement(
    shared: &Arc<ServerShared>,
    session: &Session,
    stream: &mut TcpStream,
    session_id: u64,
    cancel: &CancelSlot,
    sql: &str,
) -> bool {
    // Server-side status command, answered without admission: it must work
    // even when the admission queue is saturated — that is when it matters.
    if is_show_server_status(sql) {
        cancel.statement_done();
        let (columns, rows) = shared.status_rows();
        return stream_rows(stream, &columns, &rows, Done { rows: rows.len() as u64, ..Done::default() });
    }

    let permit = match shared.admission.admit(session_id) {
        Ok(p) => p,
        Err(e) => {
            cancel.statement_done();
            return proto::write_frame(stream, &proto::error_frame(&e)).is_ok();
        }
    };
    let queued_ms = permit.queued_ms();

    let gov = Arc::new(QueryGovernor::from_params(&session.params()));
    cancel.arm(&gov);
    // Whether the frame parsed as EXPLAIN ANALYZE, kept for the footer (a
    // cached plan is a query, never that).
    let mut analyzed = false;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        session.ctx().run_text(sql, gov, |stmt| {
            analyzed = matches!(stmt, Statement::ExplainAnalyze(_));
            Ok(())
        })
    }));
    cancel.statement_done();
    drop(permit); // Slot frees before we spend time serializing the result.

    let outcome = match outcome {
        Ok(r) => r.map_err(SnowError::from),
        Err(payload) => {
            shared.note_panic();
            Err(SnowError::internal("server worker", panic_message(&*payload)))
        }
    };

    match outcome {
        Ok(StatementResult::Rows(qr)) => {
            stream_rows(stream, &qr.columns, &qr.rows, Done::of(&qr, queued_ms))
        }
        Ok(StatementResult::Message(mut msg)) => {
            // Admission annotation on EXPLAIN ANALYZE: the profile's render
            // happens engine-side, so the service layer appends its own
            // accounting the same way the governor summary is appended.
            if analyzed {
                let s = shared.admission.stats_for(session_id);
                msg.push_str(&format!(
                    "\nadmission: queued {queued_ms} ms; session {session_id}: \
                     admitted {}, rejected {}, total queued {} ms",
                    s.admitted, s.rejected, s.total_queued_ms
                ));
            }
            proto::write_frame(stream, &proto::message(&msg)).is_ok()
        }
        Err(e) => proto::write_frame(stream, &proto::error_frame(&e)).is_ok(),
    }
}

fn is_show_server_status(sql: &str) -> bool {
    let words: Vec<String> = sql
        .split_whitespace()
        .map(|w| w.trim_end_matches(';').to_ascii_uppercase())
        .filter(|w| !w.is_empty())
        .collect();
    words == ["SHOW", "SERVER", "STATUS"]
}

/// Bytes of one response buffered before they go to the socket.
const RESPONSE_BUFFER: usize = 64 * 1024;

/// Sends one response — header, row batches, completion — through one
/// buffered writer: the socket sees a write per [`RESPONSE_BUFFER`] bytes and
/// one at the end, not one per frame.
fn stream_rows(
    stream: &mut TcpStream,
    columns: &[String],
    rows: &[Vec<Variant>],
    done: Done,
) -> bool {
    let mut out = BufWriter::with_capacity(RESPONSE_BUFFER, stream);
    let mut send = || -> Result<()> {
        proto::write_frame(&mut out, &proto::result_header(columns))?;
        for chunk in rows.chunks(BATCH_ROWS) {
            let mut e = Enc::new(op::ROW_BATCH);
            e.u32(chunk.len() as u32);
            for row in chunk {
                for v in row {
                    e.variant(v);
                }
            }
            proto::write_frame(&mut out, &e.buf)?;
        }
        proto::write_frame(&mut out, &proto::result_done(done))
    };
    // Dropping a `BufWriter` swallows write errors: flush and look.
    send().is_ok() && out.flush().is_ok()
}
