//! MVCC snapshot isolation under concurrency, chaos, and an interpreter
//! oracle.
//!
//! The contract under test, end to end:
//! - N writer threads and M reader threads share one [`Database`]: readers
//!   always observe an invariant-preserving committed version (writers only
//!   commit row groups that keep `SUM(x) = 0` and `COUNT(*)` even), and a
//!   pinned snapshot answers repeated reads identically;
//! - every writer outcome is a commit or a *typed* error
//!   ([`SnowError::WriteConflict`] after bounded retries, `Storage`/`Internal`
//!   under injected faults) — never a panic, a hang, or a torn catalog;
//! - interleaved multi-writer commit schedules under seeded
//!   `ManifestCommit/{prepare,rename,publish}` fault sites (crash-mid-CAS
//!   included) never lose a committed version: whatever a writer saw commit
//!   is present after reopening the directory;
//! - `UPDATE`/`DELETE` copy-on-write rewrites agree with a row-by-row
//!   interpreter oracle across a seeded randomized workload, and the
//!   verification lattice still agrees afterwards; over seeded random tables
//!   and predicates each statement leaves what the query it means returns
//!   over its pre-image (read through time travel), or fails with that
//!   query's error;
//! - the advisory `LOCK` file turns a second writer *process* into a typed
//!   error, breaks stale locks from dead processes, and never blocks
//!   read-only opens.
//!
//! `SNOWQ_SCHEDULES` overrides the seeded-schedule budget (default 25; the
//! CI mvcc job runs 200).

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use common::{int, msg, schedule_budget, TempDb};
use rand::{Rng, SeedableRng, StdRng};
use snowdb::govern::chaos::{quiet_injected_panics, ChaosSchedule};
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::store::{compact_table_once, CompactionPolicy};
use snowdb::verify::{default_lattice, verify_sql, DEFAULT_EPSILON};
use snowdb::{Database, Session, SnowError, Variant};

// ---------------------------------------------------------------------------
// N writers × M readers over one shared database
// ---------------------------------------------------------------------------

/// Writers insert (and sometimes delete) zero-sum row pairs in disjoint key
/// ranges; readers continuously assert the zero-sum invariant and that a
/// pinned snapshot is repeat-read stable. Every writer statement must end in
/// a commit or a typed write conflict.
fn run_writer_reader_stress(db: Arc<Database>, writers: usize, readers: usize, ops: usize) {
    db.execute("CREATE TABLE ledger (w INT, x INT)").unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut checks = 0usize;
                while !stop.load(Ordering::Relaxed) || checks == 0 {
                    // Invariant on the live catalog: committed versions only.
                    let res = db
                        .query("SELECT sum(x), count(*) FROM ledger")
                        .unwrap_or_else(|e| panic!("reader {r}: {e}"));
                    assert_eq!(int(&res.rows[0][0]), 0, "reader {r}: torn zero-sum read");
                    assert_eq!(int(&res.rows[0][1]) % 2, 0, "reader {r}: odd row count");
                    // Repeat-read stability inside a pinned snapshot.
                    let session = Session::new(db.clone());
                    session.execute("BEGIN").unwrap();
                    let a = session.query("SELECT count(*), sum(x) FROM ledger").unwrap();
                    let b = session.query("SELECT count(*), sum(x) FROM ledger").unwrap();
                    assert_eq!(a.rows, b.rows, "reader {r}: snapshot not repeat-read stable");
                    session.execute("ROLLBACK").unwrap();
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut conflicts = 0usize;
                for k in 0..ops {
                    let v = (w * ops + k + 1) as i64;
                    // A zero-sum pair commits atomically or not at all.
                    let ins = db.execute(&format!(
                        "INSERT INTO ledger VALUES ({w}, {v}), ({w}, {neg})",
                        neg = -v
                    ));
                    match ins {
                        Ok(_) => {}
                        Err(SnowError::WriteConflict(_)) => conflicts += 1,
                        Err(e) => panic!("writer {w}: untyped insert failure: {e:?}"),
                    }
                    if k % 3 == 2 {
                        // Delete one of our own pairs: removes both rows of a
                        // pair or (on conflict) nothing.
                        let prev = (w * ops + k) as i64;
                        match db.execute(&format!(
                            "DELETE FROM ledger WHERE w = {w} AND (x = {prev} OR x = {neg})",
                            neg = -prev
                        )) {
                            Ok(_) => {}
                            Err(SnowError::WriteConflict(_)) => conflicts += 1,
                            Err(e) => panic!("writer {w}: untyped delete failure: {e:?}"),
                        }
                    }
                }
                conflicts
            })
        })
        .collect();

    for h in writer_handles {
        h.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for h in reader_handles {
        let checks = h.join().expect("reader panicked");
        assert!(checks > 0, "reader made no checks");
    }

    let res = db.query("SELECT sum(x), count(*) FROM ledger").unwrap();
    assert_eq!(int(&res.rows[0][0]), 0, "final state must be zero-sum");
    assert_eq!(int(&res.rows[0][1]) % 2, 0, "final row count must be even");
}

#[test]
fn concurrent_writers_and_readers_in_memory() {
    run_writer_reader_stress(Arc::new(Database::new()), 4, 2, 12);
}

#[test]
fn concurrent_writers_and_readers_on_disk() {
    let tmp = TempDb::new("stress");
    let db = Arc::new(Database::open(tmp.path()).unwrap());
    run_writer_reader_stress(db.clone(), 3, 2, 8);
    let expect = db.query("SELECT count(*) FROM ledger").unwrap();
    drop(db);
    // Everything that committed survives a reopen, bit for bit.
    let reopened = Database::open(tmp.path()).unwrap();
    let got = reopened.query("SELECT count(*) FROM ledger").unwrap();
    assert_eq!(got.rows, expect.rows);
    assert_eq!(
        int(&reopened.query("SELECT sum(x) FROM ledger").unwrap().rows[0][0]),
        0
    );
}

// ---------------------------------------------------------------------------
// Interleaved multi-writer chaos lattice (crash-mid-CAS included)
// ---------------------------------------------------------------------------

/// Seeded schedule sweep: three writers race inserts while a deterministic
/// fault schedule strikes the manifest commit path at `prepare`, `rename`,
/// and `publish` (the crash-after-commit-point site). Every writer outcome
/// is a commit or a typed error; after the storm, a reopened database holds
/// every pair whose commit was acknowledged, the zero-sum invariant, and no
/// debris.
#[test]
fn interleaved_writer_chaos_never_loses_a_committed_version() {
    quiet_injected_panics();
    let budget = schedule_budget(25);
    for i in 0..budget {
        let seed = 0x14CC_u64 + i as u64;
        let _repro = common::schedule("mvcc", seed);
        let tmp = TempDb::new("lattice");
        let db = Arc::new(Database::open(tmp.path()).unwrap());
        db.execute("CREATE TABLE ledger (w INT, x INT)").unwrap();
        let store = db.store().unwrap();
        store.set_chaos(Some(ChaosSchedule::with_period(seed, 1 + seed % 7)));

        let handles: Vec<_> = (0..3u64)
            .map(|w| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut acked: Vec<i64> = Vec::new();
                    for k in 0..4u64 {
                        let v = (w * 100 + k + 1) as i64;
                        match db.execute(&format!(
                            "INSERT INTO ledger VALUES ({w}, {v}), ({w}, {neg})",
                            neg = -v
                        )) {
                            Ok(_) => acked.push(v),
                            Err(
                                SnowError::WriteConflict(_)
                                | SnowError::Storage(_)
                                | SnowError::Internal(_),
                            ) => {}
                            Err(e) => panic!("seed {seed}: untyped writer failure: {e:?}"),
                        }
                    }
                    acked
                })
            })
            .collect();
        let acked: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("seed panicked writer"))
            .collect();
        store.set_chaos(None);
        drop(db);

        // Crash recovery: reopen and audit.
        let reopened = Database::open(tmp.path())
            .unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e}"));
        let rows = reopened
            .query("SELECT x FROM ledger")
            .unwrap_or_else(|e| panic!("seed {seed}: read-back failed: {e}"));
        let present: std::collections::BTreeSet<i64> =
            rows.rows.iter().map(|r| int(&r[0])).collect();
        for v in &acked {
            assert!(
                present.contains(v) && present.contains(&-v),
                "seed {seed}: acknowledged commit of pair ±{v} was lost"
            );
        }
        let sum: i64 = rows.rows.iter().map(|r| int(&r[0])).sum();
        assert_eq!(sum, 0, "seed {seed}: torn pair visible after recovery");
        assert_eq!(rows.rows.len() % 2, 0, "seed {seed}: odd row count");
        assert!(
            rows.rows.len() >= acked.len() * 2,
            "seed {seed}: fewer rows than acknowledged commits"
        );
        // Every file on disk belongs to a live table (debris swept on open).
        let live: usize = reopened
            .table_names()
            .iter()
            .map(|t| reopened.table(t).unwrap().partitions().len())
            .sum();
        let on_disk = std::fs::read_dir(tmp.path().join("parts")).unwrap().count();
        assert_eq!(on_disk, live, "seed {seed}: debris visible after reopen");
    }
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE vs. an interpreter oracle
// ---------------------------------------------------------------------------

/// Seeded randomized DML workload checked against a row-by-row in-process
/// oracle: the same inserts/updates/deletes applied to a plain `Vec` model
/// must leave the table with exactly the model's multiset of rows, and the
/// verification lattice must still agree on aggregates afterwards.
#[test]
fn update_delete_agree_with_interpreter_oracle() {
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xD31_u64 + case);
        let db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        let mut model: Vec<(i64, i64)> = Vec::new();
        let mut next_k = 0i64;
        for _step in 0..40 {
            match rng.gen_range(0u32..10) {
                0..=4 => {
                    let n = rng.gen_range(1usize..5);
                    let tuples: Vec<String> = (0..n)
                        .map(|_| {
                            let k = next_k;
                            next_k += 1;
                            let v = rng.gen_range(-50i64..50);
                            model.push((k, v));
                            format!("({k}, {v})")
                        })
                        .collect();
                    let m = msg(db
                        .execute(&format!("INSERT INTO t VALUES {}", tuples.join(", ")))
                        .unwrap());
                    assert_eq!(m, format!("inserted {n} row(s)"));
                }
                5..=7 => {
                    let bound = rng.gen_range(-50i64..50);
                    let delta = rng.gen_range(1i64..10);
                    let m = msg(db
                        .execute(&format!("UPDATE t SET v = v + {delta} WHERE v < {bound}"))
                        .unwrap());
                    let mut n = 0;
                    for row in model.iter_mut() {
                        if row.1 < bound {
                            row.1 += delta;
                            n += 1;
                        }
                    }
                    assert_eq!(m, format!("updated {n} row(s)"), "case {case}");
                }
                _ => {
                    let bound = rng.gen_range(-50i64..50);
                    let m = msg(db
                        .execute(&format!("DELETE FROM t WHERE v >= {bound}"))
                        .unwrap());
                    let before = model.len();
                    model.retain(|row| row.1 < bound);
                    assert_eq!(
                        m,
                        format!("deleted {} row(s)", before - model.len()),
                        "case {case}"
                    );
                }
            }
            // Full-state comparison: the table is exactly the model.
            let got = db.query("SELECT k, v FROM t ORDER BY k").unwrap();
            let got: Vec<(i64, i64)> =
                got.rows.iter().map(|r| (int(&r[0]), int(&r[1]))).collect();
            let mut want = model.clone();
            want.sort_unstable();
            assert_eq!(got, want, "case {case}: table diverged from oracle");
        }
        // The execution-configuration lattice still agrees after rewrites.
        let report = verify_sql(
            &db,
            "SELECT count(*), sum(v), min(k), max(v) FROM t",
            &default_lattice(2),
            DEFAULT_EPSILON,
        )
        .unwrap();
        assert!(report.agrees(), "case {case}: lattice divergence:\n{}", report.render());
    }
}

/// DML refereed by the query path: on seeded random tables, a `DELETE` leaves
/// the rows `SELECT … WHERE NOT COALESCE(p, FALSE)` returns over the
/// pre-image, an `UPDATE` the rows of `SELECT CASE WHEN p THEN e ELSE c END, …`
/// — read through time travel after the statement, under either producer of
/// the query's columns — and a statement whose query fails fails with the
/// query's error and commits nothing. DML itself runs at the process default
/// (the `SNOWDB_VECTORIZE=0` CI leg turns its batch evaluator off).
#[test]
fn update_delete_mean_their_query_over_the_pre_image() {
    const COLS: [&str; 5] = ["id", "a", "s", "b", "v"];
    let colors = ["red", "green", "blue"];
    let (mut committed, mut failed) = (0, 0);
    // At least the default budget: below it no statement may happen to fail.
    for case in 0..schedule_budget(25).max(25) as u64 {
        let mut rng = StdRng::seed_from_u64(0xD17_u64 + case);
        let db = Database::new();
        let rows: Vec<Vec<Variant>> = (0..rng.gen_range(40i64..160))
            .map(|i| {
                let mut nullable = |v: Variant| if rng.gen_range(0u32..6) == 0 { Variant::Null } else { v };
                vec![
                    Variant::Int(i),
                    nullable(Variant::Int((i * 7) % 23 - 5)),
                    nullable(Variant::str(colors[(i % 3) as usize])),
                    nullable(Variant::Bool((i / 9) % 2 == 0)),
                    nullable(Variant::array(vec![Variant::Int(i), Variant::str("x")])),
                ]
            })
            .collect();
        let schema = [ColumnType::Int, ColumnType::Int, ColumnType::Str, ColumnType::Bool, ColumnType::Variant]
            .iter()
            .zip(COLS)
            .map(|(ty, name)| ColumnDef::new(name.to_ascii_uppercase(), *ty))
            .collect();
        db.load_table("t", schema, rows, rng.gen_range(7usize..50)).unwrap();

        for step in 0..8 {
            let k = rng.gen_range(-5i64..18);
            let m = rng.gen_range(2i64..6);
            let color = colors[rng.gen_range(0usize..3)];
            let pred = match rng.gen_range(0u32..14) {
                0 => format!("a > {k}"),
                1 => format!("a % {m} = 0"),
                2 => "a IS NULL".to_string(),
                3 => format!("s = '{color}'"),
                4 => "s IN ('red', 'blue')".to_string(),
                5 => "s LIKE 'g%'".to_string(),
                6 => "b".to_string(),
                7 => format!("NOT b AND a < {k}"),
                8 => format!("a > {k} OR s = '{color}'"),
                9 => format!("COALESCE(a, 0) < {k}"),
                10 => format!("id % {m} = 1"),
                11 => format!("IFF(b, a, id) > {k}"),
                12 => "v IS NULL".to_string(),
                _ => "NULL".to_string(),
            };
            // An UPDATE sets one or two columns; `a / 2` drifts the declared
            // `Int` column to boxed doubles, `FLOOR` narrows it back.
            let mut sets: Vec<(usize, String)> = Vec::new();
            for _ in 0..rng.gen_range(0u32..3) {
                let set = match rng.gen_range(0u32..14) {
                    0 => (1, format!("a + {k}")),
                    1 => (1, "a / 2".to_string()),
                    2 => (1, "FLOOR(a)".to_string()),
                    3 => (1, "IFF(b, id - a, NULL)".to_string()),
                    4 => (2, "'violet'".to_string()),
                    5 => (2, "CONCAT(s, '!')".to_string()),
                    6 => (2, "NULL".to_string()),
                    7 => (3, "NOT b".to_string()),
                    8 => (3, format!("a > {k}")),
                    9 => (4, "a".to_string()),
                    10 => (4, "ARRAY_CONSTRUCT(id, s)".to_string()),
                    11 => (4, "OBJECT_CONSTRUCT('k', v)".to_string()),
                    12 => (4, "s".to_string()),
                    _ => (1, format!("{m} / (a - {k})")),
                };
                if sets.iter().all(|(c, _)| *c != set.0) {
                    sets.push(set);
                }
            }
            let (dml, means) = if sets.is_empty() {
                (
                    format!("DELETE FROM t WHERE {pred}"),
                    format!("SELECT id, a, s, b, v FROM t AT(VERSION => $V) WHERE NOT COALESCE({pred}, FALSE)"),
                )
            } else {
                let assigns: Vec<String> =
                    sets.iter().map(|(c, e)| format!("{} = {e}", COLS[*c])).collect();
                let selects: Vec<String> = (0..COLS.len())
                    .map(|c| match sets.iter().find(|(sc, _)| *sc == c) {
                        Some((_, e)) => format!("CASE WHEN {pred} THEN {e} ELSE {} END", COLS[c]),
                        None => COLS[c].to_string(),
                    })
                    .collect();
                (
                    format!("UPDATE t SET {} WHERE {pred}", assigns.join(", ")),
                    format!("SELECT {} FROM t AT(VERSION => $V)", selects.join(", ")),
                )
            };
            let at = |sql: &str, version: u64| sql.replace("$V", &version.to_string());
            let what = format!("case {case} step {step}: {dml}");

            let before = db.schema_generation();
            let outcome = db.execute(&dml);
            match outcome {
                Ok(_) => committed += 1,
                Err(_) => failed += 1,
            }
            let hits = format!("SELECT COUNT(*) FROM t AT(VERSION => $V) WHERE {pred}");
            for vectorize in [true, false] {
                let opts = snowdb::QueryOptions { vectorize, ..Default::default() };
                let mut want = db.query_with(&at(&means, before), &opts).map(|r| r.rows);
                match (&outcome, &mut want) {
                    (Ok(m), Ok(want)) => {
                        let n = int(&db.query_with(&at(&hits, before), &opts).unwrap().rows[0][0]);
                        let verb = if sets.is_empty() { "deleted" } else { "updated" };
                        assert_eq!(msg(m.clone()), format!("{verb} {n} row(s)"), "{what}");
                        let mut got = db.query("SELECT id, a, s, b, v FROM t").unwrap().rows;
                        got.sort_by_key(|r| int(&r[0]));
                        want.sort_by_key(|r| int(&r[0]));
                        assert_eq!(&got, want, "{what} (vectorize={vectorize})");
                    }
                    (Err(e), Err(w)) => {
                        assert_eq!(e.to_string(), w.to_string(), "{what}");
                        assert_eq!(db.schema_generation(), before, "{what}: a failed statement committed");
                    }
                    (got, want) => panic!(
                        "{what}: statement error {:?}, its query's {:?}",
                        got.as_ref().err(),
                        want.as_ref().err()
                    ),
                }
            }
        }
    }
    println!("{committed} statements committed, {failed} failed");
    assert!(committed > failed && failed > 0);
}

/// The same COW rewrites, persisted: partitions rewritten by UPDATE/DELETE
/// round-trip through the manifest, and a pinned reader opened before the
/// rewrite still sees the old version (deferred unlink).
#[test]
fn persistent_update_delete_round_trip_and_pinned_readers() {
    let tmp = TempDb::new("cowdisk");
    let db = Database::open(tmp.path()).unwrap();
    db.load_table(
        "t",
        vec![ColumnDef::new("K", ColumnType::Int)],
        (0..40).map(|i| vec![Variant::Int(i)]),
        8,
    )
    .unwrap();
    let pinned = db.snapshot();
    assert_eq!(msg(db.execute("DELETE FROM t WHERE k % 4 = 0").unwrap()), "deleted 10 row(s)");
    assert_eq!(msg(db.execute("UPDATE t SET k = k * 10 WHERE k < 10").unwrap()), "updated 7 row(s)");

    // The pinned snapshot still reads the pre-rewrite files.
    let old = pinned.table("t").unwrap();
    assert_eq!(old.row_count(), 40);
    let mut sum = 0i64;
    for part in old.partitions() {
        let col = part.read_column(0).unwrap();
        for r in 0..part.row_count() {
            sum += int(&col.get(r));
        }
    }
    assert_eq!(sum, (0..40).sum::<i64>(), "pinned reader saw rewritten data");

    drop(pinned);
    drop(db);
    let reopened = Database::open(tmp.path()).unwrap();
    assert_eq!(int(&reopened.query("SELECT count(*) FROM t").unwrap().rows[0][0]), 30);
    // The pre-rewrite versions stay retained across the reopen: the old
    // files are history, not debris, and time travel still reads them.
    assert_eq!(
        int(&reopened.query("SELECT count(*) FROM t AT(VERSION => 1)").unwrap().rows[0][0]),
        40
    );
    // Shrinking retention to the current version evicts that history; only
    // then do the rewritten-away files become unreachable and get unlinked.
    reopened.execute("SET DATA_RETENTION_VERSIONS = 1").unwrap();
    let live = reopened.table("t").unwrap().partitions().len();
    let on_disk = std::fs::read_dir(tmp.path().join("parts")).unwrap().count();
    assert_eq!(on_disk, live, "evicted rewrite history must be swept");
}

// ---------------------------------------------------------------------------
// Advisory LOCK file
// ---------------------------------------------------------------------------

#[test]
fn lock_refuses_live_foreign_writer_but_allows_read_only() {
    let tmp = TempDb::new("lock");
    let schema = || vec![ColumnDef::new("A", ColumnType::Int)];
    {
        // One row per partition: five small partitions, something to compact.
        let db = Database::open(tmp.path()).unwrap();
        db.load_table("t", schema(), (0..5).map(|i| vec![Variant::Int(i)]), 1).unwrap();
    }
    // Fake a live foreign holder: PID 1 exists on any Linux box.
    std::fs::write(tmp.path().join("LOCK"), "1\n").unwrap();
    match Database::open(tmp.path()) {
        Err(SnowError::Storage(m)) => {
            assert!(m.contains("database is locked by process 1"), "{m}")
        }
        Err(other) => panic!("expected lock refusal, got {other:?}"),
        Ok(_) => panic!("expected lock refusal, got a database handle"),
    }
    // Read-only open works past the lock and answers queries.
    let ro = Database::open_read_only(tmp.path()).unwrap();
    assert_eq!(int(&ro.query("SELECT sum(a) FROM t").unwrap().rows[0][0]), 10);

    // Every writer is refused with the typed read-only error, and writes
    // nothing: `parts/` and the manifest stay as the writer left them.
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(tmp.path().join("parts"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let manifest = || std::fs::read(tmp.path().join("MANIFEST")).unwrap();
    let (parts, committed) = (listing(), manifest());
    let statement = |sql: &'static str| move |db: &Database| db.execute(sql).map(drop);
    type Writer = Box<dyn Fn(&Database) -> snowdb::Result<()>>;
    let writers: Vec<(&str, Writer)> = vec![
        ("load_table", Box::new(move |db| {
            db.load_table("u", schema(), (0..5).map(|i| vec![Variant::Int(i)]), 2)
        })),
        ("load_table of no rows", Box::new(move |db| db.load_table("u", schema(), [], 2))),
        ("load_jsonl", Box::new(|db| db.load_jsonl("u", "{\"a\": 1}\n{\"a\": 2}").map(drop))),
        ("stream_ingest", Box::new(|db| {
            let mut ingest = db.stream_ingest("t", 2)?;
            for line in ["{\"a\": 7}", "{\"a\": 8}", "{\"a\": 9}"] {
                ingest.push_json(line)?;
            }
            ingest.finish().map(drop)
        })),
        ("INSERT", Box::new(statement("INSERT INTO t VALUES (9)"))),
        ("UPDATE", Box::new(statement("UPDATE t SET a = a + 1 WHERE a < 3"))),
        ("DELETE of some rows", Box::new(statement("DELETE FROM t WHERE a = 1"))),
        ("DELETE of all rows", Box::new(statement("DELETE FROM t"))),
        ("CREATE TABLE … CLONE", Box::new(statement("CREATE TABLE c CLONE t"))),
        ("compact_table_once", Box::new(|db| {
            compact_table_once(db, "t", &CompactionPolicy::default()).map(drop)
        })),
        ("drop_table", Box::new(|db| db.drop_table("t").map(drop))),
    ];
    for (what, write) in &writers {
        match write(&ro) {
            Err(SnowError::Storage(m)) => assert!(m.contains("read-only"), "{what}: {m}"),
            other => panic!("{what}: expected read-only refusal, got {other:?}"),
        }
        assert_eq!(listing(), parts, "{what}: parts/ changed");
        assert_eq!(manifest(), committed, "{what}: MANIFEST changed");
    }
    assert_eq!(int(&ro.query("SELECT sum(a) FROM t").unwrap().rows[0][0]), 10);
}

#[test]
fn stale_lock_from_dead_process_is_broken() {
    let tmp = TempDb::new("stale");
    {
        let db = Database::open(tmp.path()).unwrap();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Int)],
            std::iter::once(vec![Variant::Int(7)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
    }
    // PIDs are capped well below this on Linux: guaranteed-dead holder.
    std::fs::write(tmp.path().join("LOCK"), "999999999\n").unwrap();
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(int(&db.query("SELECT a FROM t").unwrap().rows[0][0]), 7);
    // The broken lock was re-taken by this process.
    let holder: u32 = std::fs::read_to_string(tmp.path().join("LOCK"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(holder, std::process::id());
}

#[test]
fn same_process_reopen_is_allowed() {
    let tmp = TempDb::new("reentrant");
    let a = Database::open(tmp.path()).unwrap();
    a.execute("CREATE TABLE t (x INT)").unwrap();
    // Same-process second open handle: allowed (the lock is per-process).
    let b = Database::open(tmp.path()).unwrap();
    assert_eq!(b.table_names(), vec!["T".to_string()]);
}

// ---------------------------------------------------------------------------
// Write-conflict surface
// ---------------------------------------------------------------------------

/// A conflict that persists past the bounded retry schedule surfaces as a
/// typed `WriteConflict` carrying base/current versions and the attempt
/// count — the diagnosable form of optimistic-concurrency starvation.
#[test]
fn exhausted_retries_surface_a_typed_conflict() {
    let db = Arc::new(Database::new());
    db.load_table(
        "t",
        vec![ColumnDef::new("X", ColumnType::Int)],
        (0..4).map(|i| vec![Variant::Int(i)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    // Two sessions rewriting the same partition: exactly one COMMIT wins.
    let a = Session::new(db.clone());
    let b = Session::new(db.clone());
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("UPDATE t SET x = x + 10").unwrap();
    b.execute("UPDATE t SET x = x + 20").unwrap();
    a.execute("COMMIT").unwrap();
    match b.execute("COMMIT") {
        Err(SnowError::WriteConflict(trip)) => {
            assert_eq!(trip.table, "T");
            assert!(trip.current_version > trip.base_version, "{trip:?}");
            let rendered = format!("{}", SnowError::WriteConflict(trip));
            assert!(rendered.contains("write conflict on table 'T'"), "{rendered}");
        }
        other => panic!("expected write conflict, got {other:?}"),
    }
    // The database remains fully usable after the conflict.
    assert_eq!(int(&db.query("SELECT min(x) FROM t").unwrap().rows[0][0]), 10);
}
