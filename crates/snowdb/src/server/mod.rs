//! The network service layer: a wire-protocol server over an embedded
//! [`Database`].
//!
//! `snowdb` was embedded-only through PR 8; this module turns it into a
//! servable product. The pieces:
//!
//! - [`proto`] — the length-prefixed binary frame format (shared with the
//!   client);
//! - [`admission`] — the global admission controller: concurrency cap,
//!   bounded queue with queue-wait deadlines, per-session round-robin
//!   fairness, typed rejections;
//! - [`conn`] — per-connection protocol handling (handshake, statement
//!   execution, streamed results, end-to-end cancellation);
//! - [`client`] — a small blocking client used by `snowq-client`, the REPL's
//!   `--connect` mode, and the integration tests.
//!
//! ## Threading
//!
//! The listener is std-only thread-per-connection, bounded by
//! [`ServerConfig::max_connections`] — a connection beyond the bound is
//! answered with a typed error frame and closed, so the thread count is
//! capped without silently dropping clients. Statement concurrency is the
//! admission controller's job, not the thread pool's: connected-but-idle
//! sessions are cheap, running statements are the scarce resource.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] is graceful: stop accepting, reject queued
//! statements with typed errors, give in-flight statements a drain window,
//! then trip the governors of whatever is still running (they surface typed
//! cancellations within one batch boundary) and close every socket. No
//! committed write is ever lost — cancellation only interrupts statements
//! before their commit point, it never tears one down after it.

pub mod admission;
pub mod client;
pub mod conn;
pub mod proto;

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::Database;
use crate::error::{Result, SnowError};
use crate::variant::Variant;

use admission::{AdmissionConfig, AdmissionController};
use conn::CancelSlot;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Largest frame accepted from a client (the length prefix is validated
    /// before any allocation).
    pub max_frame: u32,
    /// Concurrent connections; one past the bound is refused with a typed
    /// error frame.
    pub max_connections: usize,
    /// Admission-control tunables (statement concurrency, queue bound,
    /// queue-wait deadline).
    pub admission: AdmissionConfig,
    /// How long [`ServerHandle::shutdown`] lets in-flight statements finish
    /// before tripping their governors.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_frame: proto::DEFAULT_MAX_FRAME,
            max_connections: 64,
            admission: AdmissionConfig::default(),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// One live connection, as seen by the registry: enough to cancel its work
/// and close its socket during shutdown.
struct ConnEntry {
    id: u64,
    stream: TcpStream,
    cancel: Arc<CancelSlot>,
}

/// State shared between the accept loop, every connection, and the handle.
pub(crate) struct ServerShared {
    pub(crate) db: Arc<Database>,
    pub(crate) config: ServerConfig,
    pub(crate) admission: Arc<AdmissionController>,
    shutting_down: AtomicBool,
    next_session: AtomicU64,
    conns: Mutex<Vec<ConnEntry>>,
    total_connections: AtomicU64,
    peak_connections: AtomicU64,
    disconnect_cancels: AtomicU64,
    panics_isolated: AtomicU64,
}

impl ServerShared {
    pub(crate) fn note_disconnect_cancel(&self) {
        self.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_panic(&self) {
        self.panics_isolated.fetch_add(1, Ordering::Relaxed);
    }

    fn lock_conns(&self) -> std::sync::MutexGuard<'_, Vec<ConnEntry>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `SHOW SERVER STATUS` rows: global counters plus a per-session
    /// admission breakdown.
    pub(crate) fn status_rows(&self) -> (Vec<String>, Vec<Vec<Variant>>) {
        let columns = vec!["METRIC".to_string(), "VALUE".to_string()];
        let a = self.admission.stats();
        let mut rows: Vec<Vec<Variant>> = vec![
            row("connections.active", self.lock_conns().len() as i64),
            row("connections.peak", self.peak_connections.load(Ordering::Relaxed) as i64),
            row("connections.total", self.total_connections.load(Ordering::Relaxed) as i64),
            row("admission.active", a.active as i64),
            row("admission.queued", a.queued as i64),
            row("admission.peak_active", a.peak_active as i64),
            row("admission.peak_queued", a.peak_queued as i64),
            row("admission.admitted", a.admitted as i64),
            row("admission.rejected", a.rejected as i64),
            row("admission.total_queued_ms", a.total_queued_ms as i64),
            row("cancel.disconnects", self.disconnect_cancels.load(Ordering::Relaxed) as i64),
            row("panics.isolated", self.panics_isolated.load(Ordering::Relaxed) as i64),
        ];
        for (session, s) in self.admission.session_stats() {
            rows.push(row(&format!("session.{session}.admitted"), s.admitted as i64));
            rows.push(row(&format!("session.{session}.rejected"), s.rejected as i64));
            rows.push(row(&format!("session.{session}.queued_ms"), s.total_queued_ms as i64));
        }
        (columns, rows)
    }
}

fn row(metric: &str, value: i64) -> Vec<Variant> {
    vec![Variant::str(metric), Variant::Int(value)]
}

/// A running server: the bound address plus the shutdown control.
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Binds `listen` and serves `db` until [`ServerHandle::shutdown`]. Bind
/// `"127.0.0.1:0"` to get an ephemeral port (see [`ServerHandle::addr`]).
pub fn serve(
    db: Arc<Database>,
    listen: impl ToSocketAddrs,
    config: ServerConfig,
) -> Result<ServerHandle> {
    let listener = TcpListener::bind(listen)
        .map_err(|e| SnowError::Protocol(format!("bind failed: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| SnowError::Protocol(format!("local_addr failed: {e}")))?;
    let shared = Arc::new(ServerShared {
        db,
        admission: AdmissionController::new(config.admission.clone()),
        config,
        shutting_down: AtomicBool::new(false),
        next_session: AtomicU64::new(1),
        conns: Mutex::new(Vec::new()),
        total_connections: AtomicU64::new(0),
        peak_connections: AtomicU64::new(0),
        disconnect_cancels: AtomicU64::new(0),
        panics_isolated: AtomicU64::new(0),
    });
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_threads = Arc::clone(&conn_threads);
    let accept_thread = std::thread::spawn(move || {
        accept_loop(&listener, &accept_shared, &accept_threads);
    });

    Ok(ServerHandle { shared, addr, accept_thread: Some(accept_thread), conn_threads })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Responses are written whole (see `conn::stream_rows`): waiting to
        // coalesce with a next write that is not coming only adds the
        // client's delayed-ACK timer to every statement.
        let _ = stream.set_nodelay(true);
        let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);

        {
            let mut conns = shared.lock_conns();
            if conns.len() >= shared.config.max_connections {
                drop(conns);
                let mut s = stream;
                let err = SnowError::Protocol(format!(
                    "connection limit {} reached",
                    shared.config.max_connections
                ));
                let _ = proto::write_frame(&mut s, &proto::error_frame(&err));
                let _ = s.shutdown(std::net::Shutdown::Both);
                continue;
            }
            let cancel = CancelSlot::new();
            if let Ok(clone) = stream.try_clone() {
                conns.push(ConnEntry { id: session_id, stream: clone, cancel: Arc::clone(&cancel) });
            }
            let n = conns.len() as u64;
            shared.peak_connections.fetch_max(n, Ordering::Relaxed);
            shared.total_connections.fetch_add(1, Ordering::Relaxed);
            drop(conns);

            let conn_shared = Arc::clone(shared);
            let handle = std::thread::spawn(move || {
                conn::run(&conn_shared, stream, session_id, cancel);
                conn_shared.lock_conns().retain(|c| c.id != session_id);
            });
            conn_threads.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
        }
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Admission / connection counters (the same numbers
    /// `SHOW SERVER STATUS` reports over the wire).
    pub fn admission_stats(&self) -> admission::AdmissionStats {
        self.shared.admission.stats()
    }

    /// Per-session admission counters.
    pub fn session_stats(&self) -> Vec<(u64, admission::SessionAdmission)> {
        self.shared.admission.session_stats()
    }

    /// Isolated worker panics observed so far (should stay zero).
    pub fn panics_isolated(&self) -> u64 {
        self.shared.panics_isolated.load(Ordering::Relaxed)
    }

    /// Cancellations triggered by client disconnects.
    pub fn disconnect_cancels(&self) -> u64 {
        self.shared.disconnect_cancels.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, reject queued statements, drain
    /// in-flight ones for [`ServerConfig::drain_timeout`], trip whatever is
    /// still running, close every socket, and join all threads. Idempotent.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: it re-checks the flag per connection, so
        // one throwaway self-connect gets it to observe the shutdown.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }

        // Queued statements abort now with typed errors; in-flight ones get
        // the drain window, then their governors are tripped.
        self.shared.admission.begin_shutdown();
        let still_active = self
            .shared
            .admission
            .wait_drained(self.shared.config.drain_timeout);
        if still_active > 0 {
            for entry in self.shared.lock_conns().iter() {
                entry.cancel.trip();
            }
            self.shared.admission.wait_drained(self.shared.config.drain_timeout);
        }

        // Close every socket; readers fail out, command loops exit.
        for entry in self.shared.lock_conns().iter() {
            let _ = entry.stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
