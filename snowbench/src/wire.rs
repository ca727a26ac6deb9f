//! `wire_churn`: the same engine used the other way round — over the wire
//! protocol, on a disk-backed database whose cache is a quarter of the main
//! table, with a compactor running, while a second connection inserts on a
//! fixed schedule.
//!
//! Connection 1 is a closed loop (a caller that waits for each reply):
//! five ADL queries translated locally and sent as SQL, three handwritten
//! scans, one aggregate over the table being written. Connection 2 is an
//! open loop (independent arrivals): one INSERT batch every 50 ms on average,
//! however long the previous one took, each timed from when it was due.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adl::AdlConfig;
use snowdb::server::client::{Client, RemoteOutcome};
use snowdb::server::proto::Done;
use snowdb::store::{CompactionPolicy, Compactor, CompactorStats};
use snowdb::{serve, Database, ServerConfig, ServerHandle, SnowError, Variant};

use crate::digest::{canon_sorted, SplitMix};
use crate::layers::{cache_metrics, ingest_metric, store_metrics, user_bytes, LayerAgg};
use crate::stats::{self, median, percentile, typical};
use crate::trace::Tracer;
use crate::workload::*;

const BATCH_ROWS: usize = 64;
/// Mean time between INSERTs. Each gap is drawn uniformly from half to one
/// and a half times this: on a fixed 50 ms beat the writer phase-locks with
/// the reader (whose statements all end on the 4 ms ticks of the delayed-ACK
/// timer), and a whole run then has every INSERT either beside a statement's
/// execution or inside its idle stall — reads 20% apart, by luck of the start.
const INTERVAL: Duration = Duration::from_millis(50);
const PARTITION_ROWS: usize = 256;

struct Env {
    db: Arc<Database>,
    dir: PathBuf,
    server: ServerHandle,
    compactor: Compactor,
    persist_us: f64,
    open_us: f64,
}

/// Generate, load, persist, reopen, shrink the cache, start the compactor
/// and the server.
fn setup(opts: &Opts, dir: PathBuf) -> Env {
    let mem = Database::new();
    let cfg = AdlConfig {
        events: opts.scaled(ADL_EVENTS),
        seed: opts.seed,
        partition_rows: PARTITION_ROWS,
    };
    adl::load_into(&mem, "hep", &cfg);
    let (db, persist_us, open_us) = persist_and_reopen(mem, &dir);
    let db = Arc::new(db);
    db.execute("CREATE TABLE ingest (K INT, G INT, X INT)")
        .expect("create the ingest table");
    let hep_bytes = db.table("HEP").expect("hep is loaded").total_bytes();
    db.store()
        .expect("opened from disk")
        .set_cache_capacity(hep_bytes / 4);
    // Every INSERT lands as one 64-row partition; the compactor keeps
    // merging whatever is still below 512 rows into partitions of up to 1024.
    let policy = CompactionPolicy {
        small_rows: 512,
        target_rows: 1024,
        min_inputs: 4,
        cluster_by: Some("K".into()),
    };
    let compactor = Compactor::spawn(db.clone(), "ingest", policy, Duration::from_millis(100));
    let server =
        serve(db.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind a loopback port");
    Env {
        db,
        dir,
        server,
        compactor,
        persist_us,
        open_us,
    }
}

impl Env {
    /// Stops the server and the compactor and releases the database.
    fn stop(self) -> (PathBuf, CompactorStats) {
        self.server.shutdown();
        let stats = self.compactor.stop();
        (self.dir, stats)
    }
}

/// The reader's statements. Indexes 0..10 are ADL q1–q5 as (JSONiq, SQL)
/// pairs — the handwritten halves only serve the gate — then the three
/// handwritten scans and the aggregate over the ingest table.
fn statements(opts: &Opts) -> Vec<Statement> {
    let events = opts.scaled(ADL_EVENTS) as u64;
    let mut rng = SplitMix(opts.seed ^ 0x5ca1ab1e);
    let a = rng.below(events - 200);
    let b = rng.below(events / 2);
    let sql = |id: &str, text: String| Statement {
        id: id.into(),
        text,
        strategy: None,
        keys: Vec::new(),
        gated: true,
    };
    let mut out: Vec<Statement> = adl_statements("hep").into_iter().take(10).collect();
    out.push(sql(
        "scan.event_slice.sql",
        format!(
            "SELECT EVENT, MET:PT FROM hep WHERE EVENT >= {a} AND EVENT < {}",
            a + 200
        ),
    ));
    out.push(sql(
        "scan.event_range_agg.sql",
        format!(
            "SELECT COUNT(*) AS N, MAX(MET:PT) AS M FROM hep WHERE EVENT BETWEEN {b} AND {}",
            b + events / 8
        ),
    ));
    out.push(sql(
        "big_result.sql",
        "SELECT EVENT, MET:PT, MET:PHI, HLT:ISOMU24, ARRAY_SIZE(MUON), ARRAY_SIZE(JET), ARRAY_SIZE(ELECTRON) FROM hep".into(),
    ));
    out.push(sql(
        "ingest.count_sum.sql",
        "SELECT COUNT(*) AS N, SUM(X) AS S FROM ingest".into(),
    ));
    // Timed, printed and behind `snowdb.server.stream_cells_per_s`, but kept
    // out of `sql_ms_geomean`: see `SPACER`.
    out[BIG].gated = false;
    out
}

/// Sent, checked and not timed, right after the big result. At the seed
/// commit the server writes a result as several small frames on a socket
/// with Nagle's algorithm on, so every statement waits ~40 ms for the
/// client's delayed ACK — except that a large response leaves the client
/// socket acknowledging at once for a moment: the big result itself takes
/// one such stall or none (48 or 88 ms, flipping between runs), and whatever
/// follows it takes 4 or 44 ms. The spacer takes that place, so that every
/// statement in the geomeans sees the connection's steady state.
const SPACER: &str = "SELECT COUNT(*) FROM ingest";

const TIMED: [usize; 9] = [0, 2, 4, 6, 8, 10, 11, 12, 13];
const BIG: usize = 12;
const INGEST: usize = 13;

/// The writer's batches, made from the seed: when each is due (from the
/// start of the churn), its INSERT text, and the sum of X over all rows up to
/// and including that batch.
fn batches(seed: u64, n: usize) -> (Vec<(Duration, String)>, Vec<i64>) {
    let mut rng = SplitMix(seed);
    let (mut texts, mut prefix) = (Vec::with_capacity(n), vec![0i64]);
    let mut due = Duration::ZERO;
    for b in 0..n {
        let mut sum = *prefix.last().expect("starts with 0");
        let rows: Vec<String> = (0..BATCH_ROWS)
            .map(|r| {
                let x = rng.below(1000) as i64;
                sum += x;
                format!("({}, {}, {x})", b * BATCH_ROWS + r, rng.below(16))
            })
            .collect();
        texts.push((
            due,
            format!("INSERT INTO ingest VALUES {}", rows.join(", ")),
        ));
        prefix.push(sum);
        due += INTERVAL / 2 + Duration::from_micros(rng.below(INTERVAL.as_micros() as u64));
    }
    (texts, prefix)
}

/// The reader's timed operation: translate locally, send the SQL, collect
/// the streamed rows.
fn wire_execute(db: &Arc<Database>, client: &mut Client, st: &Statement) -> Outcome {
    let sql = translate(db, st)?;
    wire_query(client, &sql).map(|(rows, done)| (rows, done.bytes_scanned))
}

fn wire_query(client: &mut Client, sql: &str) -> Result<(Vec<Vec<Variant>>, Done), String> {
    match client.execute(sql) {
        Ok(RemoteOutcome::Rows(r)) => Ok((r.rows, r.done)),
        Ok(RemoteOutcome::Message(m)) => Err(format!("expected rows, got message '{m}'")),
        Err(e) => Err(e.to_string()),
    }
}

fn count_rows(rows: &[Vec<Variant>]) -> Option<i64> {
    rows.first()
        .and_then(|r| r.first())
        .and_then(Variant::as_i64)
}

#[derive(Default)]
struct WriterOut {
    /// INSERT latency from due time to acknowledgement.
    ms: Vec<f64>,
    /// How late each INSERT was sent.
    late_ms: Vec<f64>,
    errors: Vec<String>,
    conflicts: u64,
}

/// Connection 2. `sent` and `acked` count batches, for the reader's check.
fn writer(
    mut client: Client,
    texts: &[(Duration, String)],
    sent: &AtomicU64,
    acked: &AtomicU64,
) -> WriterOut {
    let mut out = WriterOut::default();
    let start = Instant::now();
    for (i, (due, text)) in texts.iter().enumerate() {
        let due = start + *due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        sent.store(i as u64 + 1, Ordering::SeqCst);
        match client.execute(text) {
            Ok(_) => {
                acked.store(i as u64 + 1, Ordering::SeqCst);
            }
            Err(e) => {
                out.conflicts += u64::from(matches!(e, SnowError::WriteConflict(_)));
                out.errors.push(e.to_string());
            }
        }
        out.ms.push(due.elapsed().as_secs_f64() * 1e3);
    }
    client.goodbye();
    out
}

/// What the reader keeps per statement besides the latency.
#[derive(Default, Clone)]
struct ServerSide {
    overhead_us: Vec<f64>,
    compile_us: Vec<f64>,
    exec_us: Vec<f64>,
}

pub fn run(opts: &Opts) -> (Checker, Metrics) {
    let scratch = Scratch::new("wire_churn");
    let statements = statements(opts);
    let mut chk = Checker::new(statements.len());
    let mut out = Metrics::new();

    let (env, setup_s) = measured_setups(
        opts,
        |i| setup(opts, scratch.sub(&format!("db{i}"))),
        |old| {
            let (dir, _) = old.stop();
            let _ = std::fs::remove_dir_all(dir);
        },
    );
    let db = env.db.clone();
    let store = db.store().expect("opened from disk");
    let addr = env.server.addr();
    out.insert("setup_s", typical(&setup_s));

    let mut connect_us = Vec::new();
    let mut connect = || {
        let t = Instant::now();
        let c = Client::connect(addr).expect("connect to the in-process server");
        connect_us.push(t.elapsed().as_secs_f64() * 1e6);
        c
    };
    let mut reader = connect();
    let writer_client = connect();
    for _ in 0..3 {
        connect().goodbye();
    }

    // Gate: over the wire, generated SQL equals handwritten SQL for q1–q5;
    // the handwritten scans return over the wire what they return embedded.
    for pair in 0..5 {
        gate_pair(
            &mut chk,
            &statements,
            pair,
            &mut |st| wire_execute(&db, &mut reader, st),
            None,
        );
    }
    for idx in [10, 11, BIG] {
        let st = &statements[idx];
        chk.attempted += 1;
        match (wire_execute(&db, &mut reader, st), execute(&db, st)) {
            (Ok(w), Ok(e)) => {
                let (w, e) = (items(st, w.0), items(st, e.0));
                if canon_sorted(&w) != canon_sorted(&e) {
                    chk.fail(&format!("{}: wire and embedded results disagree", st.id));
                }
                chk.set_reference(idx, &w);
            }
            (Err(e), _) | (_, Err(e)) => chk.fail(&format!("{}: {e}", st.id)),
        }
    }

    // One cold pass over the JSONiq statements: the bytes a first reader pays.
    let mut scanned = 0u64;
    let t = Instant::now();
    for idx in TIMED.iter().copied().filter(|i| statements[*i].is_jsoniq()) {
        store.cache().clear();
        let res = wire_execute(&db, &mut reader, &statements[idx]);
        scanned += res.as_ref().map_or(0, |r| r.1);
        chk.check(idx, &statements[idx], res.map(|r| r.0));
    }
    out.insert("snowdb.store.cold_pass_ms", t.elapsed().as_secs_f64() * 1e3);
    out.insert("bytes_scanned_mb", scanned as f64 / 1e6);

    // Traced run: before the churn starts, the JSONiq statements embedded —
    // plain and through the staged path in turn — for the stage and operator
    // metrics and the cost of tracing.
    let mut tracer = Tracer::new(opts.trace);
    let mut agg = LayerAgg::new(statements.len());
    let mut plain = Samples::new(statements.len());
    if opts.trace {
        for _ in 0..3 {
            for idx in TIMED.iter().copied().filter(|i| statements[*i].is_jsoniq()) {
                let st = &statements[idx];
                let t = Instant::now();
                let res = execute(&db, st);
                plain.ms[idx].push(t.elapsed().as_secs_f64() * 1e3);
                chk.check(idx, st, res.map(|r| r.0));
                agg.run_staged(&mut tracer, &db, &mut chk, idx, st);
            }
        }
    }

    // The churn: the writer runs its schedule, the reader loops until the
    // writer is done.
    let n_batches = if opts.smoke {
        20
    } else {
        (opts.seconds / INTERVAL.as_secs_f64()).ceil() as usize
    };
    let (texts, prefix) = batches(opts.seed, n_batches);
    let (sent, acked) = (AtomicU64::new(0), AtomicU64::new(0));
    let mut samples = Samples::new(statements.len());
    let mut server_side = vec![ServerSide::default(); statements.len()];
    let cache_before = store.cache_stats();
    let mut cycles = 0;
    let wout = std::thread::scope(|scope| {
        let handle = scope.spawn(|| writer(writer_client, &texts, &sent, &acked));
        while !handle.is_finished() {
            for idx in TIMED {
                let st = &statements[idx];
                let acked_before = acked.load(Ordering::SeqCst);
                tracer.begin_statement(&st.id);
                let root = tracer.enter("statement");
                let t = Instant::now();
                let s = tracer.enter("translate");
                let sql = translate(&db, st);
                tracer.exit(s);
                let s = tracer.enter("wire.roundtrip");
                let rt = Instant::now();
                let res = sql.and_then(|sql| wire_query(&mut reader, &sql));
                let rt_us = rt.elapsed().as_secs_f64() * 1e6;
                tracer.exit(s);
                samples.ms[idx].push(t.elapsed().as_secs_f64() * 1e3);
                tracer.exit(root);
                if let Ok((_, done)) = &res {
                    let side = &mut server_side[idx];
                    let (c, e) = (done.compile_us as f64, done.exec_us as f64);
                    side.overhead_us
                        .push(rt_us - c - e - done.queued_ms as f64 * 1e3);
                    side.compile_us.push(c);
                    side.exec_us.push(e);
                }
                let rows = res.map(|(rows, _)| rows);
                if idx == BIG {
                    chk.expect(wire_query(&mut reader, SPACER).is_ok(), "spacer statement");
                }
                if idx != INGEST {
                    chk.check(idx, st, rows);
                    continue;
                }
                // A snapshot of the ingest table is a whole number of
                // batches: at least those acknowledged before the read was
                // sent, at most those sent by now, and SUM(X) is exactly the
                // sum over that prefix.
                chk.attempted += 1;
                let sent_after = sent.load(Ordering::SeqCst);
                let ok = rows.as_ref().is_ok_and(|rows| {
                    let n = count_rows(rows).unwrap_or(-1);
                    let k = n / BATCH_ROWS as i64;
                    let sum = rows[0].get(1).and_then(Variant::as_i64).unwrap_or(0);
                    n >= 0
                        && n % BATCH_ROWS as i64 == 0
                        && (acked_before as i64..=sent_after as i64).contains(&k)
                        && sum == prefix[k as usize]
                });
                if !ok {
                    chk.fail(&format!(
                        "{}: {rows:?} with {acked_before} acked before, {sent_after} sent after",
                        st.id
                    ));
                }
            }
            cycles += 1;
        }
        handle.join().expect("writer thread")
    });
    let cache_after = store.cache_stats();
    println!(
        "  {cycles} reader cycles of {} statements beside {n_batches} INSERT batches",
        TIMED.len()
    );

    // Every acknowledged row is there: live, and after a restart from the
    // directory alone.
    chk.attempted += wout.ms.len() as u64;
    for e in &wout.errors {
        chk.fail(&format!("INSERT: {e}"));
    }
    let acked_rows = (acked.load(Ordering::SeqCst) as usize * BATCH_ROWS) as i64;
    let live = wire_query(&mut reader, "SELECT COUNT(*) FROM ingest")
        .ok()
        .and_then(|(rows, _)| count_rows(&rows));
    chk.expect(
        live == Some(acked_rows),
        &format!("live COUNT(*) {live:?}, acknowledged {acked_rows}"),
    );
    reader.goodbye();

    let admission = env.server.admission_stats();
    let ingest_parts: Vec<(usize, u64)> = db
        .table("INGEST")
        .map(|t| {
            t.partitions()
                .iter()
                .map(|p| (p.row_count(), p.total_bytes()))
                .collect()
        })
        .unwrap_or_default();
    let mut user = 0;
    if opts.trace {
        user = user_bytes(&db);
        ingest_metric(&db, "HEP", &mut out);
    }
    let (persist_us, open_us) = (env.persist_us, env.open_us);
    drop((db, store));
    let (dir, compaction) = env.stop();
    if opts.trace {
        store_metrics(user, &dir, persist_us, open_us, &mut out);
    }
    let reopened = Database::open(&dir);
    let after_restart = reopened
        .as_ref()
        .ok()
        .and_then(|db| db.query("SELECT COUNT(*) FROM ingest").ok())
        .and_then(|r| count_rows(&r.rows));
    chk.expect(
        after_restart == Some(acked_rows),
        &format!("COUNT(*) after reopen {after_restart:?}, acknowledged {acked_rows}"),
    );

    latency_metrics(&statements, &samples, median, &mut out);
    out.insert("write_ms_p50", median(&wout.ms));
    out.insert("write_ms_p95", percentile(&wout.ms, 0.95));
    println!("  write_ms percentiles are over {} INSERTs", wout.ms.len());
    // What the server, the store and the compactor report costs nothing to
    // read, so an untraced run prints it too.
    let timed_sum = |pick: fn(&ServerSide) -> &Vec<f64>| -> f64 {
        TIMED.iter().map(|i| median(pick(&server_side[*i]))).sum()
    };
    out.insert("snowdb.server.connect_us", median(&connect_us));
    out.insert(
        "snowdb.server.wire_overhead_us",
        timed_sum(|s| &s.overhead_us),
    );
    out.insert("snowdb.server.compile_us", timed_sum(|s| &s.compile_us));
    out.insert("snowdb.server.exec_us", timed_sum(|s| &s.exec_us));
    out.insert("snowdb.server.queued_ms", admission.total_queued_ms as f64);
    out.insert(
        "snowdb.server.admission_rejected",
        admission.rejected as f64,
    );
    let big_cells = (opts.scaled(ADL_EVENTS) * 7) as f64;
    out.insert(
        "snowdb.server.stream_cells_per_s",
        stats::ratio(big_cells, median(&server_side[BIG].overhead_us) / 1e6),
    );
    out.insert(
        "snowdb.server.writer_late_ms_p95",
        percentile(&wout.late_ms, 0.95),
    );
    cache_metrics(cache_before, cache_after, &mut out);
    out.insert("snowdb.store.compact.merges", compaction.compactions as f64);
    out.insert(
        "snowdb.store.compact.conflicts_lost",
        compaction.conflicts_lost as f64,
    );
    // Partitions larger than one INSERT batch were written by the compactor;
    // the ones alive at the end are a lower bound on what it rewrote.
    let rewritten: u64 = ingest_parts
        .iter()
        .filter(|(rows, _)| *rows > BATCH_ROWS)
        .map(|(_, b)| b)
        .sum();
    out.insert("snowdb.store.compact.bytes_rewritten", rewritten as f64);
    out.insert("snowdb.catalog.write_conflicts", wout.conflicts as f64);
    if !opts.trace {
        return (chk, out);
    }

    agg.metrics(&statements, &mut out);
    let plain: f64 = plain.latencies(typical).iter().sum();
    let traced: f64 = agg.total_ms.iter().map(|ms| typical(ms)).sum();
    out.insert("trace.overhead_share", stats::rel_diff(plain, traced));

    // Embedded INSERTs on the reopened database: a commit without the wire.
    if let Ok(db) = &reopened {
        let (texts, _) = batches(opts.seed ^ 1, 5);
        let us: Vec<f64> = texts
            .iter()
            .map(|(_, text)| {
                let t = Instant::now();
                let res = db.execute(text);
                chk.expect(res.is_ok(), "embedded INSERT");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.insert("snowdb.catalog.insert_us", median(&us));
    }
    dump_trace(&tracer, tracer.spans().len().min(20_000), "wire_churn");
    (chk, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_repeat_for_a_seed_and_prefix_sums_add_up() {
        let (a, pa) = batches(7, 3);
        let (b, _) = batches(7, 3);
        let (c, _) = batches(8, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pa.len(), 4);
        assert_eq!(pa[0], 0);
        assert!(pa
            .windows(2)
            .all(|w| w[1] >= w[0] && w[1] - w[0] < 64 * 1000));
        assert!(a[1].1.starts_with("INSERT INTO ingest VALUES (64, "));
        assert_eq!(a[0].1.matches('(').count(), BATCH_ROWS);
        assert_eq!(a[0].0, Duration::ZERO);
        assert!(a
            .windows(2)
            .all(|w| (INTERVAL / 2..INTERVAL * 3 / 2).contains(&(w[1].0 - w[0].0))));
    }
}
