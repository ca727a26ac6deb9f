//! Storage lifecycle end to end: time travel, zero-copy clones, `UNDROP`,
//! streaming micro-commit ingest, background compaction, and the
//! retention-aware GC that ties them together.
//!
//! The contract under test:
//! - `AT(VERSION => n)` / `BEFORE(VERSION => n)` read exactly the named
//!   retained version — across process restarts, because the manifest
//!   retains the last `DATA_RETENTION_VERSIONS` committed versions;
//! - a version outside the retention window is a *typed* error
//!   (`SnowError::Storage`), a version never committed a typed `Catalog`
//!   error — never a panic, never a wrong answer;
//! - `CREATE TABLE ... CLONE` writes zero partition bytes and diverges from
//!   its source copy-on-write; `UNDROP TABLE` restores a dropped table from
//!   retained history, surviving restarts;
//! - a background compactor merging streaming-ingest micro-partitions never
//!   changes query results (the verification lattice still agrees), loses
//!   commit races gracefully, and writes the partitions — representations,
//!   statistics — a row-at-a-time rebuild of the same rows writes;
//! - GC never unlinks a file any retained version or pinned snapshot still
//!   references, under seeded chaos schedules that crash commits and GC
//!   unlinks mid-flight — after reopen, every retained version is fully
//!   scannable (the lose-nothing audit).
//!
//! `SNOWQ_SCHEDULES` overrides the seeded-schedule budget (default 25; the
//! CI lifecycle job runs 200).

mod common;

use std::sync::Arc;

use common::{int, msg, schedule_budget, TempDb};
use rand::{Rng, SeedableRng, StdRng};
use snowdb::govern::chaos::{quiet_injected_panics, ChaosSchedule};
use snowdb::storage::{ColumnDef, ColumnType};
use snowdb::store::{compact_table_once, CompactionPolicy, Compactor};
use snowdb::verify::{default_lattice, verify_sql, DEFAULT_EPSILON};
use snowdb::{Database, SnowError, Variant};

fn count(db: &Database, sql: &str) -> i64 {
    int(&db.query(sql).unwrap().rows[0][0])
}

/// File count and total size of the partition directory.
fn parts_usage(dir: &std::path::Path) -> (usize, u64) {
    let mut files = 0usize;
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        files += 1;
        bytes += entry.metadata().unwrap().len();
    }
    (files, bytes)
}

/// Reads every row of every partition of every table at every retained
/// version — the lose-nothing audit. Panics on any unreadable file.
fn audit_all_retained(db: &Database) {
    let store = db.store().expect("persistent database");
    for v in store.retained_versions() {
        for name in store.table_names_at(v).unwrap() {
            let t = store
                .open_table_at(v, &name)
                .unwrap_or_else(|e| panic!("version {v} table {name}: {e}"))
                .expect("listed table must open");
            for part in t.partitions() {
                if part.row_count() == 0 {
                    continue;
                }
                let col = part.read_column(0).unwrap_or_else(|e| {
                    panic!("version {v} table {name}: unreadable partition: {e}")
                });
                for r in 0..part.row_count() {
                    let _ = col.get(r);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Time travel: AT / BEFORE
// ---------------------------------------------------------------------------

#[test]
fn time_travel_reads_retained_versions_in_memory() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k INT)").unwrap(); // v1
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap(); // v2
    db.execute("UPDATE t SET k = k * 10").unwrap(); // v3
    db.execute("DELETE FROM t WHERE k = 20").unwrap(); // v4

    assert_eq!(count(&db, "SELECT count(*) FROM t"), 1);
    assert_eq!(count(&db, "SELECT count(*) FROM t AT(VERSION => 1)"), 0);
    assert_eq!(count(&db, "SELECT sum(k) FROM t AT(VERSION => 2)"), 3);
    assert_eq!(count(&db, "SELECT sum(k) FROM t AT(VERSION => 3)"), 30);
    // BEFORE(n) is the version immediately preceding n.
    assert_eq!(count(&db, "SELECT sum(k) FROM t BEFORE(VERSION => 3)"), 3);
    // Joining a table with its own past works (both sides pin versions).
    let r = db
        .query(
            "SELECT a.k, b.k FROM t a JOIN t AT(VERSION => 2) b ON a.k = b.k * 10 ORDER BY 1",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Variant::Int(10), Variant::Int(1)]]);

    // A version that has not been committed is a typed catalog error.
    match db.query("SELECT * FROM t AT(VERSION => 99)") {
        Err(SnowError::Catalog(m)) => assert!(m.contains("not been committed"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // BEFORE(VERSION => 0) has no predecessor.
    match db.query("SELECT * FROM t BEFORE(VERSION => 0)") {
        Err(SnowError::Plan(m)) => assert!(m.contains("predecessor"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // A table that did not exist at the version is a typed catalog error.
    db.execute("CREATE TABLE late (x INT)").unwrap();
    match db.query("SELECT * FROM late AT(VERSION => 1)") {
        Err(SnowError::Catalog(m)) => assert!(m.contains("did not exist"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
}

/// The headline regression: write, rewrite, **reopen the directory**, and
/// time travel still scans the pre-rewrite files. Before retention-aware GC,
/// the reopen sweep (which compared against the newest manifest version
/// only) unlinked them.
#[test]
fn retention_preserves_time_travel_across_restart() {
    let tmp = TempDb::new("restart");
    {
        let db = Database::open(tmp.path()).unwrap();
        db.load_table(
            "t",
            vec![ColumnDef::new("K", ColumnType::Int)],
            (0..20).map(|i| vec![Variant::Int(i)]),
            4,
        )
        .unwrap(); // v1
        db.execute("UPDATE t SET k = k + 1000").unwrap(); // v2 rewrites every partition
        assert_eq!(count(&db, "SELECT sum(k) FROM t AT(VERSION => 1)"), 190);
    }
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.snapshot().version(), 2);
    // Current version reads rewritten data; version 1 the originals.
    assert_eq!(count(&db, "SELECT sum(k) FROM t"), 190 + 20 * 1000);
    assert_eq!(count(&db, "SELECT sum(k) FROM t AT(VERSION => 1)"), 190);
    assert_eq!(count(&db, "SELECT min(k) FROM t BEFORE(VERSION => 2)"), 0);
    audit_all_retained(&db);
}

#[test]
fn retention_shrink_evicts_history_with_typed_errors() {
    let tmp = TempDb::new("shrink");
    let db = Database::open(tmp.path()).unwrap();
    db.execute("CREATE TABLE t (k INT)").unwrap(); // v1
    for i in 0..4 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap(); // v2..v5
    }
    assert_eq!(count(&db, "SELECT count(*) FROM t AT(VERSION => 2)"), 1);
    // Shrink the window to 2 versions: v5 (current) + one back — the SET is
    // itself a commit, so the window becomes {v5, v6}.
    msg(db.execute("SET DATA_RETENTION_VERSIONS = 2").unwrap());
    assert_eq!(db.retention(), 2);
    match db.query("SELECT count(*) FROM t AT(VERSION => 2)") {
        Err(SnowError::Storage(m)) => {
            assert!(m.contains("retention window"), "{m}")
        }
        other => panic!("unexpected {other:?}"),
    }
    // Zero is rejected: the current version is always retained.
    match db.execute("SET DATA_RETENTION_VERSIONS = 0") {
        Err(SnowError::Catalog(m)) => assert!(m.contains("at least 1"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // The window is durable: a reopen still refuses evicted versions.
    drop(db);
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.retention(), 2);
    assert!(matches!(
        db.query("SELECT count(*) FROM t AT(VERSION => 2)"),
        Err(SnowError::Storage(_))
    ));
    audit_all_retained(&db);
}

// ---------------------------------------------------------------------------
// Zero-copy clone
// ---------------------------------------------------------------------------

#[test]
fn clone_is_zero_copy_and_diverges_copy_on_write() {
    let tmp = TempDb::new("clone");
    let db = Database::open(tmp.path()).unwrap();
    db.load_table(
        "src",
        vec![ColumnDef::new("K", ColumnType::Int)],
        (0..32).map(|i| vec![Variant::Int(i)]),
        8,
    )
    .unwrap();
    db.execute("UPDATE src SET k = k + 100 WHERE k < 8").unwrap(); // v2

    let before = parts_usage(&tmp.parts());
    msg(db.execute("CREATE TABLE snap CLONE src").unwrap());
    msg(db.execute("CREATE TABLE old CLONE src AT(VERSION => 1)").unwrap());
    let after = parts_usage(&tmp.parts());
    assert_eq!(before, after, "clones must write zero partition bytes");

    // The clones read their pinned contents...
    assert_eq!(count(&db, "SELECT sum(k) FROM snap"), count(&db, "SELECT sum(k) FROM src"));
    assert_eq!(count(&db, "SELECT sum(k) FROM old"), (0..32).sum::<i64>());
    // ...and DML on a clone never leaks into the source (copy-on-write).
    db.execute("DELETE FROM snap WHERE k >= 100").unwrap();
    db.execute("UPDATE old SET k = 0 WHERE k < 16").unwrap();
    assert_eq!(count(&db, "SELECT count(*) FROM src"), 32);
    assert_eq!(count(&db, "SELECT sum(k) FROM src WHERE k >= 100"), (100..108).sum::<i64>());
    assert_eq!(count(&db, "SELECT count(*) FROM snap"), 24);
    assert_eq!(count(&db, "SELECT sum(k) FROM old"), (16..32).sum::<i64>());

    // Cloning over an existing name is a typed error; a missing source too.
    assert!(matches!(
        db.execute("CREATE TABLE snap CLONE src"),
        Err(SnowError::Catalog(_))
    ));
    assert!(matches!(
        db.execute("CREATE TABLE x CLONE nosuch"),
        Err(SnowError::Catalog(_))
    ));

    // Clones are durable and stay divergent across a restart.
    drop(db);
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(count(&db, "SELECT count(*) FROM src"), 32);
    assert_eq!(count(&db, "SELECT count(*) FROM snap"), 24);
    assert_eq!(count(&db, "SELECT sum(k) FROM old"), (16..32).sum::<i64>());
}

// ---------------------------------------------------------------------------
// UNDROP
// ---------------------------------------------------------------------------

#[test]
fn undrop_restores_dropped_table_across_restart() {
    let tmp = TempDb::new("undrop");
    {
        let db = Database::open(tmp.path()).unwrap();
        db.execute("CREATE TABLE t (k INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.execute("DROP TABLE t").unwrap();
        assert!(db.table("t").is_none());
    }
    // The drop survived the restart — and so did the history to undo it.
    let db = Database::open(tmp.path()).unwrap();
    assert!(db.table("t").is_none());
    let m = msg(db.execute("UNDROP TABLE t").unwrap());
    assert!(m.contains("undropped"), "{m}");
    assert_eq!(count(&db, "SELECT sum(k) FROM t"), 6);

    // UNDROP of a live table is a typed error; so is one never created.
    match db.execute("UNDROP TABLE t") {
        Err(SnowError::Catalog(m)) => assert!(m.contains("already exists"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    match db.execute("UNDROP TABLE ghost") {
        Err(SnowError::Catalog(m)) => assert!(m.contains("retained"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }

    // Once retention evicts the pre-drop version, UNDROP is gone too.
    db.execute("DROP TABLE t").unwrap();
    db.execute("SET DATA_RETENTION_VERSIONS = 1").unwrap();
    assert!(matches!(db.execute("UNDROP TABLE t"), Err(SnowError::Catalog(_))));
}

#[test]
fn undrop_works_in_memory_too() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    db.execute("DROP TABLE t").unwrap();
    msg(db.execute("UNDROP TABLE t").unwrap());
    assert_eq!(count(&db, "SELECT sum(k) FROM t"), 7);
}

// ---------------------------------------------------------------------------
// Read-only readers vs. a writer's GC
// ---------------------------------------------------------------------------

#[test]
fn read_only_reader_is_never_wrong_after_writer_eviction() {
    let tmp = TempDb::new("ro");
    let writer = Database::open(tmp.path()).unwrap();
    writer
        .load_table(
            "t",
            vec![ColumnDef::new("K", ColumnType::Int)],
            (0..16).map(|i| vec![Variant::Int(i)]),
            4,
        )
        .unwrap(); // v1
    writer.execute("UPDATE t SET k = k + 100").unwrap(); // v2

    // A read-only reader sees the committed state and can time travel
    // within the retention window.
    let reader = Database::open_read_only(tmp.path()).unwrap();
    assert_eq!(count(&reader, "SELECT sum(k) FROM t AT(VERSION => 1)"), 120);

    // The writer now churns versions and shrinks retention: version 1 is
    // evicted and its files unlinked (the reader process's pins are
    // invisible across processes — retention is the cross-process contract).
    writer.execute("SET DATA_RETENTION_VERSIONS = 1").unwrap();
    for i in 0..3 {
        writer.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }

    // The stale reader either still answers from its pinned metadata (the
    // file content it already cached) or fails *typed* — never panics,
    // never returns wrong rows.
    match reader.query("SELECT sum(k) FROM t AT(VERSION => 1)") {
        Ok(r) => assert_eq!(int(&r.rows[0][0]), 120, "stale reader returned wrong rows"),
        Err(SnowError::Storage(_)) => {}
        Err(other) => panic!("eviction must surface as Storage, got {other:?}"),
    }

    // A *fresh* read-only open sees the truth: version 1 is simply outside
    // the retention window — a typed Storage error.
    let fresh = Database::open_read_only(tmp.path()).unwrap();
    match fresh.query("SELECT sum(k) FROM t AT(VERSION => 1)") {
        Err(SnowError::Storage(m)) => assert!(m.contains("retention window"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Streaming micro-commit ingest
// ---------------------------------------------------------------------------

#[test]
fn streaming_ingest_commits_consistent_prefixes() {
    let tmp = TempDb::new("ingest");
    let db = Database::open(tmp.path()).unwrap();
    db.execute("CREATE TABLE events (id INT, tag STRING)").unwrap();
    let v0 = db.snapshot().version();

    let mut ing = db.stream_ingest("events", 5).unwrap();
    for i in 0..23 {
        ing.push_json(&format!("{{\"id\": {i}, \"tag\": \"t{}\"}}", i % 3)).unwrap();
        // Mid-stream, readers only ever see whole batches.
        assert_eq!(ing.committed_rows() as i64, count(&db, "SELECT count(*) FROM events"));
    }
    let report = ing.finish().unwrap();
    assert_eq!(report.rows, 23);
    assert_eq!(report.commits, 5, "4 full batches + 1 partial");
    assert_eq!(db.snapshot().version(), v0 + 5);
    assert_eq!(count(&db, "SELECT count(*) FROM events"), 23);
    assert_eq!(count(&db, "SELECT sum(id) FROM events"), (0..23).sum::<i64>());

    // Missing keys load as NULL; unknown keys are typed errors.
    let mut ing = db.stream_ingest("events", 2).unwrap();
    ing.push_json("{\"id\": 99}").unwrap();
    match ing.push_json("{\"id\": 100, \"nope\": 1}") {
        Err(SnowError::Catalog(m)) => assert!(m.contains("unknown key 'nope'"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    let report = ing.finish().unwrap();
    assert_eq!(report.rows, 1);
    assert_eq!(count(&db, "SELECT count(*) FROM events WHERE tag IS NULL"), 1);

    // Ingest into a missing table is a typed error up front.
    assert!(matches!(db.stream_ingest("nosuch", 5), Err(SnowError::Catalog(_))));

    // Durability: all micro-commits survive a reopen.
    drop(db);
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(count(&db, "SELECT count(*) FROM events"), 24);
}

// ---------------------------------------------------------------------------
// Background compaction vs. live ingest and pinned readers
// ---------------------------------------------------------------------------

#[test]
fn compaction_preserves_results_and_pinned_readers() {
    let tmp = TempDb::new("compact");
    let db = Database::open(tmp.path()).unwrap();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    let mut ing = db.stream_ingest("t", 4).unwrap();
    for i in 0..40 {
        ing.push_json(&format!("{{\"k\": {i}}}")).unwrap();
    }
    ing.finish().unwrap();
    let parts_before = db.table("t").unwrap().partitions().len();
    assert_eq!(parts_before, 10);

    // Pin the pre-compaction snapshot, then compact with re-clustering.
    let pinned = db.snapshot();
    let policy = CompactionPolicy {
        small_rows: 64,
        target_rows: 1000,
        min_inputs: 2,
        cluster_by: Some("K".into()),
    };
    let report = compact_table_once(&db, "t", &policy).unwrap().unwrap();
    assert_eq!(report.inputs, 10);
    assert_eq!(report.outputs, 1);
    assert_eq!(count(&db, "SELECT sum(k) FROM t"), (0..40).sum::<i64>());
    assert_eq!(count(&db, "SELECT count(*) FROM t"), 40);

    // The pinned reader still scans the 10 pre-compaction partitions.
    let old = pinned.table("t").unwrap();
    assert_eq!(old.partitions().len(), 10);
    let mut sum = 0i64;
    for part in old.partitions() {
        let col = part.read_column(0).unwrap();
        for r in 0..part.row_count() {
            sum += int(&col.get(r));
        }
    }
    assert_eq!(sum, (0..40).sum::<i64>());

    // Compaction is invisible to time travel: the pre-compaction version
    // still reads identically after a restart.
    drop(pinned);
    drop(db);
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.table("t").unwrap().partitions().len(), 1);
    audit_all_retained(&db);
}

/// Compaction moves columns. The row path it replaced — read every cell
/// back, sort the boxed rows, `push_row` them — is kept here as the reference:
/// over seeded small partitions of mixed representations (typed with NULLs,
/// run-length bools, strings under a different dictionary in every partition,
/// an `Int` column that drifted to boxed variants in some of them), with and
/// without a clustering key, the rewritten partitions hold the same columns —
/// representation, dictionary order and run boundaries included — and the
/// same statistics, whose bounds and null count are what pruning reads.
#[test]
fn compaction_builds_what_the_row_path_built() {
    use snowdb::exec::ColumnVec;
    use snowdb::storage::{MemSink, TableBuilder};
    use snowdb::variant::cmp_variants;

    let mut dictionaries = 0;
    for seed in 0..6u64 {
        for cluster_by in [None, Some("K".to_string())] {
            let mut rng = StdRng::seed_from_u64(0xC0_u64 + seed);
            let db = Database::new();
            db.execute("CREATE TABLE t (k INT, s STRING, f BOOLEAN, d INT, v VARIANT)").unwrap();
            let words = ["ash", "birch", "cedar", "elm", "fir"];
            // One INSERT is one partition; the 40-row ones are no candidates.
            for p in 0..rng.gen_range(4usize..9) {
                let n = if p == 2 { 40 } else { rng.gen_range(1usize..24) };
                let drift = rng.gen_range(0..3) == 0;
                let tuples: Vec<String> = (0..n)
                    .map(|i| {
                        let k = match rng.gen_range(0i64..12) {
                            0 => "NULL".to_string(),
                            k => (k * 3 % 7).to_string(),
                        };
                        let s = match rng.gen_range(0usize..4) {
                            0 => "NULL".to_string(),
                            w => format!("'{}'", words[(w + p) % words.len()]),
                        };
                        let f = ["TRUE", "TRUE", "FALSE", "NULL"][i * 4 / n];
                        let d = if drift && i == n / 2 { "'stray'".to_string() } else { (i * p).to_string() };
                        format!("({k}, {s}, {f}, {d}, ARRAY_CONSTRUCT({i}, {s}))")
                    })
                    .collect();
                db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(", "))).unwrap();
            }
            let policy = CompactionPolicy { small_rows: 32, target_rows: 48, min_inputs: 2, cluster_by };

            let t = db.table("t").unwrap();
            let mut rows: Vec<Vec<Variant>> = Vec::new();
            for part in t.partitions().iter().filter(|p| p.row_count() < policy.small_rows) {
                let cols: Vec<_> =
                    (0..t.schema().len()).map(|i| part.read_column(i).unwrap()).collect();
                dictionaries +=
                    cols.iter().filter(|c| matches!(&***c, ColumnVec::DictStr { .. })).count();
                rows.extend((0..part.row_count()).map(|r| cols.iter().map(|c| c.get(r)).collect()));
            }
            if policy.cluster_by.is_some() {
                rows.sort_by(|a, b| cmp_variants(&a[0], &b[0]));
            }
            let schema = t.schema().to_vec();
            let mut model =
                TableBuilder::new("T", schema, policy.target_rows, Box::new(MemSink)).unwrap();
            for row in &rows {
                model.push_row(row).unwrap();
            }
            let model = model.finish().unwrap();

            let report = compact_table_once(&db, "t", &policy).unwrap().unwrap();
            assert_eq!(report.rows, rows.len());
            let after = db.table("t").unwrap();
            let built: Vec<_> = after
                .partitions()
                .iter()
                .filter(|p| !t.partitions().iter().any(|old| Arc::ptr_eq(old, p)))
                .collect();
            assert_eq!(built.len(), model.partitions().len());
            let what = format!("seed {seed}, cluster_by {:?}", policy.cluster_by);
            for (got, want) in built.iter().zip(model.partitions()) {
                for i in 0..t.schema().len() {
                    assert_eq!(
                        format!("{:?}", got.read_column(i).unwrap()),
                        format!("{:?}", want.read_column(i).unwrap()),
                        "{what}: column {i}"
                    );
                    assert_eq!(got.column_stats(i), want.column_stats(i), "{what}: stats {i}");
                }
            }
        }
    }
    assert!(dictionaries > 0, "no candidate held a dictionary");
}

#[test]
fn compactor_vs_continuous_ingest_never_changes_results() {
    let tmp = TempDb::new("race");
    let db = Arc::new(Database::open(tmp.path()).unwrap());
    db.execute("CREATE TABLE ledger (k INT, x INT)").unwrap();

    let policy = CompactionPolicy {
        small_rows: 32,
        target_rows: 256,
        min_inputs: 2,
        cluster_by: Some("K".into()),
    };
    let compactor =
        Compactor::spawn(db.clone(), "ledger", policy, std::time::Duration::from_millis(1));

    // Zero-sum pairs in micro-commits; readers must always see SUM = 0 and
    // an even row count, no matter how the compactor interleaves.
    let mut ing = db.stream_ingest("ledger", 4).unwrap();
    for i in 0..150 {
        ing.push_json(&format!("{{\"k\": {i}, \"x\": {}}}", i + 1)).unwrap();
        ing.push_json(&format!("{{\"k\": {i}, \"x\": {}}}", -(i + 1))).unwrap();
        let sum = count(&db, "SELECT sum(x) FROM ledger");
        let rows = count(&db, "SELECT count(*) FROM ledger");
        assert_eq!(sum, 0, "reader saw a torn ledger (sum {sum}, rows {rows})");
        assert_eq!(rows % 2, 0, "reader saw a torn ledger (odd row count {rows})");
    }
    ing.finish().unwrap();

    // Let the compactor catch up on the tail, then stop it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while db.table("ledger").unwrap().partitions().len() > 4
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = compactor.stop();
    assert!(stats.passes > 0);
    assert!(stats.compactions > 0, "compactor never won a pass: {stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");

    assert_eq!(count(&db, "SELECT count(*) FROM ledger"), 300);
    assert_eq!(count(&db, "SELECT sum(x) FROM ledger"), 0);
    // The verification lattice agrees on the final state across optimizer /
    // thread / vectorize / encode configurations.
    let report = verify_sql(
        &db,
        "SELECT k, sum(x) AS s, count(*) AS c FROM ledger GROUP BY k ORDER BY k",
        &default_lattice(4),
        DEFAULT_EPSILON,
    )
    .unwrap();
    assert!(report.agrees(), "{}", report.render());

    // Nothing reachable was lost along the way.
    audit_all_retained(&db);
}

// ---------------------------------------------------------------------------
// Seeded chaos: GC vs. time travel, crash-mid-sweep
// ---------------------------------------------------------------------------

/// Random writer/time-travel interleavings with fault injection on the
/// commit *and* GC-unlink paths. Every operation ends in a correct answer or
/// a typed error, and after the storm every retained version is fully
/// scannable from a fresh reopen.
#[test]
fn gc_vs_time_travel_under_seeded_chaos() {
    quiet_injected_panics();
    let budget = schedule_budget(25);
    for schedule in 0..budget {
        let seed = 0x11FE_C7C1_u64 ^ (schedule as u64).wrapping_mul(0x9E37_79B9);
        let _repro = common::schedule("lifecycle", seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let tmp = TempDb::new("gcchaos");
        {
            let db = Database::open(tmp.path()).unwrap();
            db.execute("SET DATA_RETENTION_VERSIONS = 3").unwrap();
            db.execute("CREATE TABLE t (k INT)").unwrap();
            for i in 0..3 {
                db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            }
            let store = db.store().unwrap();
            store.set_chaos(Some(ChaosSchedule::with_period(seed, 3)));
            for step in 0..14 {
                match rng.gen_range(0u32..4) {
                    0 => match db.execute(&format!("INSERT INTO t VALUES ({step})")) {
                        Ok(_)
                        | Err(SnowError::Storage(_))
                        | Err(SnowError::Internal(_))
                        | Err(SnowError::WriteConflict(_)) => {}
                        Err(other) => panic!("untyped writer failure: {other:?}"),
                    },
                    1 => match db.execute("UPDATE t SET k = k + 1 WHERE k % 3 = 0") {
                        Ok(_)
                        | Err(SnowError::Storage(_))
                        | Err(SnowError::Internal(_))
                        | Err(SnowError::WriteConflict(_)) => {}
                        Err(other) => panic!("untyped writer failure: {other:?}"),
                    },
                    _ => {
                        // Time travel to a random (possibly just-evicted)
                        // version: a count or a typed error, never a panic.
                        let vs = store.retained_versions();
                        let v = vs[rng.gen_range(0..vs.len())].saturating_sub(rng.gen_range(0..3));
                        match db.query(&format!("SELECT count(*) FROM t AT(VERSION => {v})")) {
                            Ok(r) => assert!(int(&r.rows[0][0]) >= 0),
                            Err(SnowError::Storage(_))
                            | Err(SnowError::Catalog(_))
                            | Err(SnowError::Plan(_)) => {}
                            Err(other) => panic!("untyped travel failure: {other:?}"),
                        }
                    }
                }
            }
            store.set_chaos(None);
        }
        // Lose-nothing audit from a fresh process-equivalent reopen.
        let db = Database::open(tmp.path()).unwrap();
        audit_all_retained(&db);
        let total = count(&db, "SELECT count(*) FROM t");
        assert!(total >= 3, "committed rows lost (schedule {schedule}: {total})");
    }
}

/// Crash-mid-retention-truncation: faults injected at the GC unlink site
/// defer the unlink (simulating a crash that left the file behind); the
/// next commit — or the reopen sweep — must converge to exactly the
/// retained file set without ever touching a reachable file.
#[test]
fn crash_mid_gc_unlink_converges_on_reopen() {
    quiet_injected_panics();
    let budget = schedule_budget(25).min(40);
    for schedule in 0..budget {
        let seed = 0x6C1F_E235_u64 ^ (schedule as u64).wrapping_mul(0x517C_C1B7);
        let _repro = common::schedule("lifecycle", seed);
        let tmp = TempDb::new("gccrash");
        {
            let db = Database::open(tmp.path()).unwrap();
            db.execute("SET DATA_RETENTION_VERSIONS = 2").unwrap();
            db.load_table(
                "t",
                vec![ColumnDef::new("K", ColumnType::Int)],
                (0..12).map(|i| vec![Variant::Int(i)]),
                3,
            )
            .unwrap();
            let store = db.store().unwrap();
            // Aggressive schedule: every few GC unlinks "crashes".
            store.set_chaos(Some(ChaosSchedule::with_period(seed, 2)));
            for round in 0..6 {
                // Full rewrites churn files through the retention window.
                let _ = db.execute(&format!("UPDATE t SET k = k + {}", round + 1));
            }
            store.set_chaos(None);
        }
        let db = Database::open(tmp.path()).unwrap();
        audit_all_retained(&db);
        // After the reopen sweep, parts/ holds exactly the retained files.
        let store = db.store().unwrap();
        let mut retained: std::collections::HashSet<String> = Default::default();
        for v in store.retained_versions() {
            for name in store.table_names_at(v).unwrap() {
                let t = store.open_table_at(v, &name).unwrap().unwrap();
                for part in t.partitions() {
                    if let snowdb::storage::ScanSource::Disk(d) = part.as_ref() {
                        retained.insert(d.file_name());
                    }
                }
            }
        }
        let on_disk: std::collections::HashSet<String> = std::fs::read_dir(tmp.parts())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(on_disk, retained, "schedule {schedule}: sweep did not converge");
    }
}
