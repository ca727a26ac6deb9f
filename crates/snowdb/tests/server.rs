//! End-to-end tests for the network service layer: real TCP sockets, one
//! server process-equivalent (in-process `serve`), many concurrent client
//! connections.
//!
//! The acceptance bar (ISSUE 9): ≥ 8 concurrent wire clients mixing readers
//! and writers sustain the PR 8 zero-sum-ledger snapshot-isolation invariant,
//! the global concurrency cap is enforced (excess queries observably queue,
//! none starve), and the server survives client disconnects and graceful
//! shutdown with zero lost committed writes and zero panics.
//!
//! The seeded soak (`seeded_soak_admission_schedules`) replays
//! `SNOWQ_SCHEDULES` random arrival/cancel/disconnect interleavings; every
//! failure message carries its schedule seed, so CI's uploaded report is a
//! one-seed repro recipe.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{int, schedule_budget};
use snowdb::server::admission::AdmissionConfig;
use snowdb::server::client::{Client, RemoteOutcome};
use snowdb::server::proto::PROTOCOL_VERSION;
use snowdb::server::{serve, ServerConfig, ServerHandle};
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::{Database, SnowError, Variant};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn config(max_concurrent: usize, max_queued: usize, queue_timeout: Duration) -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig { max_concurrent, max_queued, queue_timeout },
        ..ServerConfig::default()
    }
}

/// Serves a fresh in-memory database on an ephemeral port.
fn serve_memory(cfg: ServerConfig) -> (Arc<Database>, ServerHandle) {
    let db = Arc::new(Database::new());
    let handle = serve(Arc::clone(&db), "127.0.0.1:0", cfg).expect("bind ephemeral port");
    (db, handle)
}

/// Loads `rows` integers into table `name` so cross joins can make a query
/// arbitrarily slow (the disconnect/cancel tests need statements that are
/// still running when the fault lands).
fn load_big(db: &Database, name: &str, rows: i64) {
    db.load_table(
        name,
        vec![ColumnDef::new("X", ColumnType::Int)],
        (0..rows).map(|i| vec![Variant::Int(i)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
}

/// A query whose runtime scales with `n`² joined rows — slow enough to be
/// mid-flight when a cancel or disconnect arrives, and checkpointed at every
/// batch boundary so cancellation frees the worker promptly.
const SLOW_SQL: &str = "SELECT count(*), sum(a.x + b.x) FROM big a JOIN big b ON 1 = 1";

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Raw-socket helper: handshake manually so tests can then misbehave at the
/// frame level (malformed frames, disconnect mid-query) in ways `Client`
/// refuses to.
fn raw_handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    // Hello: version u32 + empty token.
    let mut payload = vec![0x01u8];
    payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    write_raw_frame(&mut s, &payload);
    let ack = read_raw_frame(&mut s).expect("hello ack");
    assert_eq!(ack[0], 0x81, "expected HelloAck");
    s
}

fn write_raw_frame(s: &mut TcpStream, payload: &[u8]) {
    let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(payload);
    s.write_all(&buf).unwrap();
}

fn read_raw_frame(s: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).ok()?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut payload).ok()?;
    Some(payload)
}

fn query_scalar(client: &mut Client, sql: &str) -> i64 {
    match client.execute(sql).unwrap() {
        RemoteOutcome::Rows(r) => int(&r.rows[0][0]),
        other => panic!("expected rows, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Wire basics
// ---------------------------------------------------------------------------

#[test]
fn wire_roundtrip_ddl_dml_query_and_transactions() {
    let (_db, handle) = serve_memory(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.session() > 0);

    match c.execute("CREATE TABLE t (x INT)").unwrap() {
        RemoteOutcome::Message(m) => assert!(m.contains("created"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    match c.execute("SELECT x FROM t ORDER BY x").unwrap() {
        RemoteOutcome::Rows(r) => {
            assert_eq!(r.columns, vec!["X"]);
            let xs: Vec<i64> = r.rows.iter().map(|row| int(&row[0])).collect();
            assert_eq!(xs, vec![1, 2, 3]);
            assert_eq!(r.done.rows, 3);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Session verbs ride the same connection-pinned session.
    c.execute("SET STATEMENT_TIMEOUT_IN_SECONDS = 60").unwrap();
    c.execute("BEGIN").unwrap();
    c.execute("INSERT INTO t VALUES (4)").unwrap();
    assert_eq!(query_scalar(&mut c, "SELECT count(*) FROM t"), 4, "read-your-own-writes");
    c.execute("ROLLBACK").unwrap();
    assert_eq!(query_scalar(&mut c, "SELECT count(*) FROM t"), 3, "rollback discards");

    // Typed engine errors arrive as re-decoded SnowErrors; connection stays up.
    match c.execute("SELECT nope FROM t") {
        Err(SnowError::Plan(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(query_scalar(&mut c, "SELECT count(*) FROM t"), 3);
    c.goodbye();
    handle.shutdown();
}

#[test]
fn large_results_stream_in_batches() {
    let (db, handle) = serve_memory(ServerConfig::default());
    load_big(&db, "n", 1800); // > 3 × the 512-row batch size
    let mut c = Client::connect(handle.addr()).unwrap();
    match c.execute("SELECT x FROM n ORDER BY x").unwrap() {
        RemoteOutcome::Rows(r) => {
            assert_eq!(r.rows.len(), 1800);
            assert_eq!(int(&r.rows[1799][0]), 1799);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

/// A statement's response is header, batches and completion frame. Written
/// one by one on a socket with Nagle's algorithm on, the second write waited
/// for the client's delayed ACK: ~40 ms per statement, 2 s for this loop.
#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    let (_db, handle) = serve_memory(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(query_scalar(&mut c, "SELECT 1"), 1, "warm-up");
    let t0 = Instant::now();
    for _ in 0..50 {
        assert_eq!(query_scalar(&mut c, "SELECT 1"), 1);
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "50 round trips took {took:?}");
    c.goodbye();
    handle.shutdown();
}

#[test]
fn show_server_status_and_explain_analyze_carry_admission_stats() {
    let (db, handle) = serve_memory(ServerConfig::default());
    load_big(&db, "t", 10);
    let mut c = Client::connect(handle.addr()).unwrap();
    let session = c.session();
    c.execute("SELECT count(*) FROM t").unwrap();

    match c.execute("SHOW SERVER STATUS").unwrap() {
        RemoteOutcome::Rows(r) => {
            assert_eq!(r.columns, vec!["METRIC", "VALUE"]);
            let get = |metric: &str| -> i64 {
                r.rows
                    .iter()
                    .find(|row| matches!(&row[0], Variant::Str(s) if **s == *metric))
                    .map(|row| int(&row[1]))
                    .unwrap_or_else(|| panic!("metric {metric} missing from {:?}", r.rows))
            };
            assert!(get("admission.admitted") >= 1);
            assert_eq!(get("admission.active"), 0, "status bypasses admission");
            assert_eq!(get("panics.isolated"), 0);
            assert!(get(&format!("session.{session}.admitted")) >= 1);
            assert_eq!(get(&format!("session.{session}.rejected")), 0);
        }
        other => panic!("unexpected {other:?}"),
    }

    match c.execute("EXPLAIN ANALYZE SELECT count(*) FROM t").unwrap() {
        RemoteOutcome::Message(m) => {
            assert!(m.contains("admission: queued"), "no admission line in:\n{m}");
            assert!(m.contains(&format!("session {session}:")), "{m}");
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Malformed frames
// ---------------------------------------------------------------------------

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let (_db, handle) = serve_memory(ServerConfig::default());
    let mut s = raw_handshake(handle.addr());
    // Length prefix claims 4 GiB-ish; the server must answer with a typed
    // protocol error (it never allocates for the claimed length) and close.
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.write_all(&[0x02]).unwrap();
    let err = read_raw_frame(&mut s).expect("typed error frame");
    assert_eq!(err[0], 0x86, "expected Error frame, got {:#04x}", err[0]);
    assert!(read_raw_frame(&mut s).is_none(), "connection must close");
    handle.shutdown();
}

#[test]
fn unknown_opcode_and_handshake_replay_get_typed_errors() {
    let (_db, handle) = serve_memory(ServerConfig::default());

    let mut s = raw_handshake(handle.addr());
    write_raw_frame(&mut s, &[0x7F]); // unknown opcode
    let err = read_raw_frame(&mut s).expect("typed error frame");
    assert_eq!(err[0], 0x86);
    assert!(read_raw_frame(&mut s).is_none());

    let mut s = raw_handshake(handle.addr());
    let mut replay = vec![0x01u8];
    replay.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    replay.extend_from_slice(&0u32.to_le_bytes());
    write_raw_frame(&mut s, &replay); // second Hello
    let err = read_raw_frame(&mut s).expect("typed error frame");
    assert_eq!(err[0], 0x86);

    // Bad protocol version fails the handshake itself.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    let mut hello = vec![0x01u8];
    hello.extend_from_slice(&99u32.to_le_bytes());
    hello.extend_from_slice(&0u32.to_le_bytes());
    write_raw_frame(&mut s, &hello);
    let err = read_raw_frame(&mut s).expect("typed error frame");
    assert_eq!(err[0], 0x86);
    handle.shutdown();
}

#[test]
fn truncated_payload_is_a_typed_error_not_a_hang() {
    let (_db, handle) = serve_memory(ServerConfig::default());
    let mut s = raw_handshake(handle.addr());
    // Promise 100 bytes, deliver 3, half-close. The server must not wait
    // forever for the rest; it answers typed and closes.
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[0x02, 0x01, 0x02]).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let err = read_raw_frame(&mut s).expect("typed error frame");
    assert_eq!(err[0], 0x86);
    handle.shutdown();
}

/// Seeded byte-mangling against a live server: random garbage frames (and
/// raw garbage bytes) must never panic the server or wedge it — a fresh
/// well-behaved client must still get service afterwards.
#[test]
fn fuzzed_garbage_never_panics_the_server() {
    let (db, handle) = serve_memory(ServerConfig::default());
    load_big(&db, "t", 5);
    let mut state = 0xF00D_5EEDu64;
    for round in 0..60 {
        let mut s = if round % 2 == 0 {
            // Garbage after a valid handshake exercises the reader loop.
            raw_handshake(handle.addr())
        } else {
            // Garbage instead of a handshake exercises read_hello.
            TcpStream::connect(handle.addr()).unwrap()
        };
        state = splitmix64(state);
        let len = (state % 48) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|i| {
                state = splitmix64(state.wrapping_add(i as u64));
                (state & 0xFF) as u8
            })
            .collect();
        if state.is_multiple_of(3) {
            // Raw bytes, not even a frame.
            let _ = s.write_all(&bytes);
        } else {
            let mut framed = (bytes.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&bytes);
            let _ = s.write_all(&framed);
        }
        let _ = s.shutdown(std::net::Shutdown::Write);
        // Drain whatever the server answers (error frame or close).
        let mut sink = Vec::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.read_to_end(&mut sink);
    }
    assert_eq!(handle.panics_isolated(), 0, "fuzzing must never panic a worker");
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(query_scalar(&mut c, "SELECT count(*) FROM t"), 5, "server still serves");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Cancellation and disconnects
// ---------------------------------------------------------------------------

#[test]
fn cancel_frame_interrupts_a_running_statement() {
    let (db, handle) = serve_memory(ServerConfig::default());
    load_big(&db, "big", 4000); // 16M joined rows: comfortably in flight
    let mut c = Client::connect(handle.addr()).unwrap();

    // Every statement kind that executes a plan runs under the governor the
    // server armed for it — EXPLAIN ANALYZE included.
    for sql in [SLOW_SQL.to_string(), format!("EXPLAIN ANALYZE {SLOW_SQL}")] {
        let mut canceller = c.canceller().unwrap();
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            canceller.cancel().unwrap();
            fired2.store(true, Ordering::SeqCst);
        });
        let started = Instant::now();
        let outcome = c.execute(&sql);
        t.join().unwrap();
        match outcome {
            Err(SnowError::Cancelled { .. }) => {
                assert!(fired.load(Ordering::SeqCst));
                assert!(
                    started.elapsed() < Duration::from_secs(30),
                    "cancel must interrupt within batch granularity: {sql}"
                );
            }
            Ok(_) => panic!("finished before the cancel landed; grow the table: {sql}"),
            Err(e) => panic!("expected Cancelled, got {e:?}: {sql}"),
        }
        assert_eq!(handle.admission_stats().active, 0, "slot reclaimed: {sql}");
        // The connection survives a cancelled statement.
        assert_eq!(query_scalar(&mut c, "SELECT count(*) FROM big WHERE x < 10"), 10);
    }
    handle.shutdown();
}

#[test]
fn client_disconnect_mid_query_cancels_governor_and_reclaims_slot() {
    let (db, handle) = serve_memory(config(1, 4, Duration::from_secs(30)));
    load_big(&db, "big", 4000);

    let s = raw_handshake(handle.addr());
    let mut s = s;
    let mut q = vec![0x02u8];
    q.extend_from_slice(&(SLOW_SQL.len() as u32).to_le_bytes());
    q.extend_from_slice(SLOW_SQL.as_bytes());
    write_raw_frame(&mut s, &q);
    // Let the statement get admitted and start executing, then vanish.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.admission_stats().active == 0 {
        assert!(Instant::now() < deadline, "statement never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(s);

    // The reader observes EOF, trips the governor, and — this is the part
    // that matters with max_concurrent = 1 — the slot comes back.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.admission_stats().active != 0 {
        assert!(
            Instant::now() < deadline,
            "slot never reclaimed after disconnect: {:?}",
            handle.admission_stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.disconnect_cancels() >= 1, "disconnect must be counted as a cancel");

    // With the slot reclaimed, a new client gets service immediately.
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(query_scalar(&mut c, "SELECT count(*) FROM big WHERE x < 7"), 7);
    assert_eq!(handle.panics_isolated(), 0);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Concurrency: cap, queueing, fairness, ledger invariant
// ---------------------------------------------------------------------------

/// The acceptance test: 10 concurrent wire clients (6 writers, 4 readers)
/// against one server with a concurrency cap of 4. Writers insert (and
/// sometimes delete) zero-sum pairs; readers assert the invariant both on
/// autocommit reads and inside pinned `BEGIN` snapshots — all over TCP.
#[test]
fn eight_plus_clients_sustain_ledger_invariant_under_cap() {
    let (db, handle) = serve_memory(config(4, 128, Duration::from_secs(60)));
    {
        let mut admin = Client::connect(handle.addr()).unwrap();
        admin.execute("CREATE TABLE ledger (w INT, x INT)").unwrap();
        admin.goodbye();
    }
    // Every client also runs a cross join now and then that holds its slot
    // for milliseconds, so more than four of them want one at a time. (A
    // ledger statement takes microseconds and never blocks while it holds a
    // slot: ten clients of those alone rarely overlap at all.)
    load_big(&db, "big", 300);

    const WRITERS: usize = 6;
    const READERS: usize = 4;
    const OPS: usize = 25;
    let stop = Arc::new(AtomicBool::new(false));
    let acked_pairs = Arc::new(AtomicU64::new(0));

    let addr = handle.addr();
    let reader_handles: Vec<_> = (0..READERS)
        .map(|r| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut checks = 0usize;
                while !stop.load(Ordering::Relaxed) || checks == 0 {
                    assert_eq!(query_scalar(&mut c, SLOW_SQL), 300 * 300, "reader {r}");
                    match c.execute("SELECT sum(x), count(*) FROM ledger").unwrap() {
                        RemoteOutcome::Rows(res) => {
                            let sum = match &res.rows[0][0] {
                                Variant::Null => 0, // empty table: SUM is NULL
                                v => int(v),
                            };
                            assert_eq!(sum, 0, "reader {r}: torn zero-sum read over the wire");
                            assert_eq!(int(&res.rows[0][1]) % 2, 0, "reader {r}: odd row count");
                        }
                        other => panic!("reader {r}: {other:?}"),
                    }
                    // Repeat-read stability inside a wire-level transaction.
                    c.execute("BEGIN").unwrap();
                    let a = c.execute("SELECT count(*), sum(x) FROM ledger").unwrap();
                    let b = c.execute("SELECT count(*), sum(x) FROM ledger").unwrap();
                    match (a, b) {
                        (RemoteOutcome::Rows(a), RemoteOutcome::Rows(b)) => {
                            assert_eq!(a.rows, b.rows, "reader {r}: snapshot unstable over wire")
                        }
                        other => panic!("reader {r}: {other:?}"),
                    }
                    c.execute("ROLLBACK").unwrap();
                    checks += 1;
                }
                c.goodbye();
                checks
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let acked = Arc::clone(&acked_pairs);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for k in 0..OPS {
                    let v = (w * OPS + k + 1) as i64;
                    match c.execute(&format!(
                        "INSERT INTO ledger VALUES ({w}, {v}), ({w}, {neg})",
                        neg = -v
                    )) {
                        Ok(_) => {
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        // A lost CAS race is a typed, retriable failure; the
                        // pair is guaranteed not committed.
                        Err(SnowError::WriteConflict(_)) => {}
                        Err(e) => panic!("writer {w}: untyped failure over wire: {e:?}"),
                    }
                    if k % 3 == 2 {
                        assert_eq!(query_scalar(&mut c, SLOW_SQL), 300 * 300, "writer {w}");
                        let prev = (w * OPS + k) as i64;
                        match c.execute(&format!(
                            "DELETE FROM ledger WHERE w = {w} AND (x = {prev} OR x = {neg})",
                            neg = -prev
                        )) {
                            Ok(RemoteOutcome::Message(m)) => {
                                // The engine reports how many rows went; a
                                // deleted pair removes exactly 0 or 2 rows.
                                if m.contains("deleted 2") {
                                    acked.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            Ok(other) => panic!("writer {w}: {other:?}"),
                            Err(SnowError::WriteConflict(_)) => {}
                            Err(e) => panic!("writer {w}: untyped failure over wire: {e:?}"),
                        }
                    }
                }
                c.goodbye();
            })
        })
        .collect();

    for h in writer_handles {
        h.join().expect("writer thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for h in reader_handles {
        assert!(h.join().expect("reader thread panicked") > 0, "reader made no checks");
    }

    // Zero lost committed writes: every acked pair (minus acked deletions)
    // is present, zero-sum, in the shared database.
    let res = db.query("SELECT sum(x), count(*) FROM ledger").unwrap();
    assert_eq!(int(&res.rows[0][0]), 0, "final ledger must be zero-sum");
    assert_eq!(
        int(&res.rows[0][1]),
        acked_pairs.load(Ordering::Relaxed) as i64 * 2,
        "acked-over-the-wire pairs must all be present (zero lost committed writes)"
    );

    let stats = handle.admission_stats();
    assert!(stats.peak_active <= 4, "concurrency cap violated: {stats:?}");
    assert!(stats.peak_queued >= 1, "10 clients over cap 4 must observably queue: {stats:?}");
    assert_eq!(stats.rejected, 0, "no statement may starve into rejection: {stats:?}");
    assert_eq!(stats.active, 0);
    assert_eq!(stats.queued, 0);
    assert_eq!(handle.panics_isolated(), 0, "zero panics");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn graceful_shutdown_drains_in_flight_and_aborts_queued_typed() {
    let mut cfg = config(1, 8, Duration::from_secs(60));
    // A short drain window forces the trip-the-governors path: the slow
    // in-flight query (seconds of work) cannot finish in 300ms, so shutdown
    // must cancel it typed rather than hang on it.
    cfg.drain_timeout = Duration::from_millis(300);
    let (db, handle) = serve_memory(cfg);
    load_big(&db, "big", 4000);
    db.execute("CREATE TABLE acked (x INT)").unwrap();

    let addr = handle.addr();
    // A committed write before shutdown must survive it.
    let mut admin = Client::connect(addr).unwrap();
    admin.execute("INSERT INTO acked VALUES (42)").unwrap();
    admin.goodbye();

    // Occupy the single slot with a slow query...
    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.execute("SELECT count(*) FROM big a JOIN big b ON 1 = 1")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.admission_stats().active == 0 {
        assert!(Instant::now() < deadline, "slow query never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...and queue another statement behind it.
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.execute("SELECT count(*) FROM big")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.admission_stats().queued == 0 {
        assert!(Instant::now() < deadline, "second query never queued");
        std::thread::sleep(Duration::from_millis(5));
    }

    handle.shutdown();

    // The queued statement was aborted with a typed rejection.
    match queued.join().unwrap() {
        Err(SnowError::Rejected(t)) => assert_eq!(t.reason, "server shutting down"),
        other => panic!("queued statement: expected typed rejection, got {other:?}"),
    }
    // The in-flight one either drained to completion or was cancelled typed
    // at the drain deadline — never a panic, never a protocol tear.
    match in_flight.join().unwrap() {
        Ok(RemoteOutcome::Rows(r)) => assert_eq!(r.done.rows, 1),
        Err(SnowError::Cancelled { .. }) | Err(SnowError::Protocol(_)) => {}
        other => panic!("in-flight statement: {other:?}"),
    }

    // Zero lost committed writes: the pre-shutdown commit is still there.
    assert_eq!(
        db.query("SELECT count(*) FROM acked").unwrap().scalar(),
        Some(&Variant::Int(1)),
        "committed write lost across shutdown"
    );
}

// ---------------------------------------------------------------------------
// Seeded soak: random arrival / cancel / disconnect interleavings
// ---------------------------------------------------------------------------

#[test]
fn seeded_soak_admission_schedules() {
    // The default keeps tier-1 fast; CI soaks 200.
    let schedules = schedule_budget(4);
    for i in 0..schedules {
        let seed = 0xA_5EED_0000u64 + i as u64;
        let _repro = common::schedule("server", seed);
        run_soak_schedule(seed);
    }
}

/// One seeded schedule: 5 wire clients take seed-determined actions (insert
/// pairs, read, cancel mid-query, disconnect abruptly) against a server with
/// a tight cap. Afterwards the ledger must be zero-sum, the admission state
/// drained, and the server panic-free. Every assertion carries the seed.
fn run_soak_schedule(seed: u64) {
    let (db, handle) = serve_memory(config(2, 32, Duration::from_secs(60)));
    db.execute("CREATE TABLE ledger (w INT, x INT)").unwrap();
    load_big(&db, "big", 800);

    let addr = handle.addr();
    let clients: Vec<_> = (0..5u64)
        .map(|client_id| {
            std::thread::spawn(move || {
                let mut state = splitmix64(seed ^ (client_id.wrapping_mul(0x9E37)));
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => panic!("seed {seed:#x} client {client_id}: connect: {e}"),
                };
                for op in 0..8 {
                    state = splitmix64(state);
                    match state % 5 {
                        0 | 1 => {
                            let v = (client_id * 100 + op + 1) as i64;
                            match c.execute(&format!(
                                "INSERT INTO ledger VALUES ({client_id}, {v}), ({client_id}, {neg})",
                                neg = -v
                            )) {
                                Ok(_) | Err(SnowError::WriteConflict(_)) => {}
                                Err(SnowError::Rejected(_)) => {}
                                Err(e) => panic!(
                                    "seed {seed:#x} client {client_id} op {op}: insert: {e:?}"
                                ),
                            }
                        }
                        2 => match c.execute("SELECT sum(x) FROM ledger") {
                            Ok(RemoteOutcome::Rows(r)) => {
                                let sum = match &r.rows[0][0] {
                                    Variant::Null => 0,
                                    v => int(v),
                                };
                                assert_eq!(
                                    sum, 0,
                                    "seed {seed:#x} client {client_id}: torn read"
                                );
                            }
                            Ok(other) => {
                                panic!("seed {seed:#x} client {client_id}: {other:?}")
                            }
                            Err(SnowError::Rejected(_)) => {}
                            Err(e) => {
                                panic!("seed {seed:#x} client {client_id}: read: {e:?}")
                            }
                        },
                        3 => {
                            // Cancel a slow query mid-flight.
                            let mut canceller = c.canceller().unwrap();
                            let delay = 20 + (state % 80);
                            let t = std::thread::spawn(move || {
                                std::thread::sleep(Duration::from_millis(delay));
                                let _ = canceller.cancel();
                            });
                            match c.execute("SELECT count(*) FROM big a JOIN big b ON 1 = 1") {
                                Ok(_)
                                | Err(SnowError::Cancelled { .. })
                                | Err(SnowError::Rejected(_)) => {}
                                Err(e) => panic!(
                                    "seed {seed:#x} client {client_id} op {op}: cancel path: {e:?}"
                                ),
                            }
                            t.join().unwrap();
                        }
                        _ => {
                            // Abrupt disconnect mid-query, then reconnect.
                            let mut s = raw_handshake(addr);
                            let sql = "SELECT count(*) FROM big a JOIN big b ON 1 = 1";
                            let mut q = vec![0x02u8];
                            q.extend_from_slice(&(sql.len() as u32).to_le_bytes());
                            q.extend_from_slice(sql.as_bytes());
                            write_raw_frame(&mut s, &q);
                            std::thread::sleep(Duration::from_millis(10 + (state % 50)));
                            drop(s);
                        }
                    }
                }
                c.goodbye();
            })
        })
        .collect();

    for t in clients {
        t.join().unwrap_or_else(|_| panic!("seed {seed:#x}: client thread panicked"));
    }

    // Every slot must come back (disconnected queries free via their tripped
    // governors within one batch boundary).
    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.admission_stats().active != 0 {
        assert!(
            Instant::now() < deadline,
            "seed {seed:#x}: admission slots leaked: {:?}",
            handle.admission_stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.panics_isolated(), 0, "seed {seed:#x}: worker panicked");

    let res = db.query("SELECT sum(x), count(*) FROM ledger").unwrap();
    let sum = match &res.rows[0][0] {
        Variant::Null => 0,
        v => int(v),
    };
    assert_eq!(sum, 0, "seed {seed:#x}: final ledger not zero-sum");
    assert_eq!(int(&res.rows[0][1]) % 2, 0, "seed {seed:#x}: odd final row count");
    handle.shutdown();
}
