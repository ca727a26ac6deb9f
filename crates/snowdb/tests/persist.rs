//! Persistence round-trip, exact-I/O accounting, corruption, and
//! crash-injection tests for the on-disk micro-partition store.
//!
//! The contract under test, end to end:
//! - a database persisted with [`Database::persist_to`] and reopened with
//!   [`Database::open`] answers every query exactly like its in-memory
//!   ancestor, across the execution-configuration lattice;
//! - `bytes_scanned` on a disk-backed scan is the *exact* number of file
//!   bytes read — pruned partitions and unprojected columns contribute zero,
//!   buffer-cache hits cost zero;
//! - corrupt partition files (truncation, bit flips, wrong version) surface
//!   as typed [`SnowError`]s, never panics;
//! - seeded `ManifestCommit`/`StoreRead` fault schedules never lose a
//!   committed catalog version, leave a partial partition visible, or
//!   poison the engine. `SNOWQ_SCHEDULES` overrides the schedule budget
//!   (default 40; the CI persistence job runs 200).

mod common;

use std::sync::Arc;

use common::{assert_agrees, msg, schedule_budget, TempDb};
use jsoniq_core::snowflake::{translate_query, NestedStrategy};
use rand::{Rng, SeedableRng, StdRng};
use snowdb::govern::chaos::{quiet_injected_panics, ChaosSchedule};
use snowdb::storage::{ColumnDef, ColumnType};
use snowdb::verify::{default_lattice, verify_sql, verify_sql_chaos, DEFAULT_EPSILON};
use snowdb::{Database, SnowError, Variant};

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

/// Seeded randomized round-trip: random JSONL corpora ingest into an
/// in-memory database, persist, reopen, and must answer a panel of queries
/// (scans, filters, aggregates, flatten) identically to the original.
#[test]
fn random_ingest_persist_reopen_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    for case in 0..8 {
        let rows = rng.gen_range(1usize..400);
        let mut text = String::new();
        for i in 0..rows {
            let mut doc = format!("{{\"id\": {i}");
            if rng.gen_bool(0.9) {
                doc.push_str(&format!(", \"v\": {:.4}", rng.gen_range(-1e3..1e3)));
            }
            if rng.gen_bool(0.8) {
                doc.push_str(&format!(", \"flag\": {}", rng.gen_bool(0.5)));
            }
            if rng.gen_bool(0.7) {
                doc.push_str(&format!(", \"name\": \"n{}\"", rng.gen_range(0..50)));
            }
            if rng.gen_bool(0.5) {
                let k = rng.gen_range(0usize..4);
                let items: Vec<String> =
                    (0..k).map(|j| format!("{{\"t\": {}}}", i + j)).collect();
                doc.push_str(&format!(", \"tags\": [{}]", items.join(", ")));
            }
            doc.push_str("}\n");
            text.push_str(&doc);
        }

        let mem = Database::new();
        mem.load_jsonl("t", &text).unwrap();
        let tmp = TempDb::new("roundtrip");
        mem.persist_to(tmp.path()).unwrap();
        let disk = Database::open(tmp.path()).unwrap();

        for sql in [
            "SELECT id, v, flag, name FROM t ORDER BY id",
            "SELECT COUNT(*), SUM(id), MIN(v), MAX(v) FROM t",
            "SELECT flag, COUNT(*) AS c FROM t GROUP BY flag ORDER BY flag",
            "SELECT id FROM t WHERE v > 0 ORDER BY id",
            "SELECT f.value:t FROM t, LATERAL FLATTEN(INPUT => tags) f ORDER BY 1",
        ] {
            let a = mem.query(sql).unwrap_or_else(|e| panic!("case {case} mem {sql}: {e}"));
            let b = disk.query(sql).unwrap_or_else(|e| panic!("case {case} disk {sql}: {e}"));
            assert_eq!(a.rows, b.rows, "case {case}: {sql}");
        }
    }
}

/// JSONL loaded *into* an already-persistent database streams straight to
/// partition files and survives a reopen; DROP TABLE commits too.
#[test]
fn ingest_into_persistent_db_survives_reopen() {
    let tmp = TempDb::new("ingest");
    {
        let db = Database::open(tmp.path()).unwrap();
        let mut text = String::new();
        for i in 0..5000 {
            text.push_str(&format!("{{\"id\": {i}, \"sq\": {}}}\n", (i as i64) * (i as i64)));
        }
        db.load_jsonl("big", &text).unwrap();
        db.load_jsonl("small", "{\"x\": 1}\n{\"x\": 2}\n").unwrap();
        db.execute("DROP TABLE small").unwrap();
        // Every partition of the committed table is disk-backed.
        let t = db.table("big").unwrap();
        assert!(t.partitions().iter().all(|p| p.is_disk()));
    }
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.table_names(), vec!["BIG".to_string()]);
    let r = db.query("SELECT COUNT(*), SUM(sq) FROM big").unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(5000));
    assert_eq!(r.rows[0][1], Variant::Int((0..5000i64).map(|i| i * i).sum()));
}

/// The full ADL + SSB corpus, translated to SQL, must agree across the
/// execution-configuration lattice when executed from a *reopened* on-disk
/// database — the acceptance gate for the persistent scan path.
#[test]
fn reopened_adl_ssb_corpus_agrees_across_lattice() {
    let tmp = TempDb::new("corpus");
    {
        let staging = Database::new();
        adl::generator::load_into(
            &staging,
            "hep",
            &adl::AdlConfig { events: 100, seed: 1234, partition_rows: 64 },
        );
        ssb::load_ssb(&staging, &ssb::SsbConfig { lineorders: 800, seed: 11, partition_rows: 256 });
        staging.persist_to(tmp.path()).unwrap();
    }
    let db = Arc::new(Database::open(tmp.path()).unwrap());
    assert!(db
        .table_names()
        .iter()
        .all(|t| db.table(t).unwrap().partitions().iter().all(|p| p.is_disk())));

    let full = default_lattice(4);
    // SSB's raw (unoptimized) plan is a literal cross product — infeasible at
    // corpus scale — so the scaled SSB corpus runs the optimized half of the
    // lattice here. The optimize=false half runs the SAME corpus from disk on
    // the tiny FK-closed generator in
    // `reopened_tiny_ssb_corpus_agrees_across_full_lattice` below, so the
    // axis is reduced in scale, never skipped.
    let optimized: Vec<_> = full.iter().copied().filter(|c| c.optimize).collect();

    for q in adl::queries::queries("hep") {
        let sql = translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
            .unwrap_or_else(|e| panic!("adl {}: {e}", q.id))
            .sql()
            .to_string();
        let report = verify_sql(&db, &sql, &full, DEFAULT_EPSILON).unwrap();
        assert!(report.agrees(), "adl {} from disk:\n{}", q.id, report.render());
    }
    for q in ssb::queries() {
        let sql = translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
            .unwrap_or_else(|e| panic!("ssb {}: {e}", q.id))
            .sql()
            .to_string();
        let report = verify_sql(&db, &sql, &optimized, DEFAULT_EPSILON).unwrap();
        assert!(report.agrees(), "ssb {} from disk:\n{}", q.id, report.render());
    }
}

/// The SSB corpus from a *reopened* on-disk database across the FULL lattice,
/// optimizer off included: the tiny FK-closed generator keeps raw cross
/// products feasible, and the disk path additionally exercises the v3 footer
/// stats (the cost model reads catalog statistics straight from SNPT footers
/// here, not from in-memory seal-time stats).
#[test]
fn reopened_tiny_ssb_corpus_agrees_across_full_lattice() {
    let tmp = TempDb::new("tinyssb");
    {
        let staging = Database::new();
        ssb::load_ssb_tiny(&staging, &ssb::SsbConfig { partition_rows: 8, ..Default::default() });
        staging.persist_to(tmp.path()).unwrap();
    }
    let db = Arc::new(Database::open(tmp.path()).unwrap());
    let full = default_lattice(4);
    for q in ssb::queries() {
        let sql = translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
            .unwrap_or_else(|e| panic!("ssb {}: {e}", q.id))
            .sql()
            .to_string();
        let report = verify_sql(&db, &sql, &full, DEFAULT_EPSILON).unwrap();
        assert!(report.agrees(), "ssb tiny {} from disk:\n{}", q.id, report.render());
    }
}

// ---------------------------------------------------------------------------
// Exact I/O accounting
// ---------------------------------------------------------------------------

/// `bytes_scanned` on a cold disk scan equals the exact encoded bytes of the
/// column blocks the scan had to read: pruned partitions contribute zero,
/// unprojected columns contribute zero. A warm re-run reads zero file bytes
/// (pure buffer-cache hits).
#[test]
fn disk_scan_bytes_scanned_is_exact_file_io() {
    let tmp = TempDb::new("exactio");
    {
        let staging = Database::new();
        staging
            .load_table(
                "t",
                vec![
                    ColumnDef::new("X", ColumnType::Int),
                    ColumnDef::new("PAD", ColumnType::Str),
                ],
                (0..1000).map(|i| vec![Variant::Int(i), Variant::str(format!("pad-{i:06}"))]),
                100,
            )
            .unwrap();
        staging.persist_to(tmp.path()).unwrap();
    }
    // Reopen: nothing cached, nothing resident.
    let db = Database::open(tmp.path()).unwrap();
    let table = db.table("t").unwrap();
    assert_eq!(table.partitions().len(), 10);

    // Expected I/O, from footer metadata alone: the X block of every
    // partition whose X record may hold a match. PAD is never projected.
    let lit = Variant::Int(950);
    let x_records = || table.partitions().iter().map(|p| &p.columns()[0]);
    let expected: u64 = x_records().filter(|x| x.may_match(">=", &lit)).map(|x| x.bytes).sum();
    let skipped_parts = x_records().filter(|x| !x.may_match(">=", &lit)).count();
    assert!(expected > 0 && skipped_parts > 0, "fixture must exercise pruning");

    let cold = db.query("SELECT x FROM t WHERE x >= 950 ORDER BY x").unwrap();
    assert_eq!(cold.rows.len(), 50);
    let stats = cold.profile.scan;
    assert_eq!(
        stats.bytes_scanned, expected,
        "cold bytes_scanned must equal the exact file bytes of the surviving X blocks"
    );
    assert_eq!(stats.partitions_pruned, skipped_parts as u64);
    assert_eq!(stats.cache_misses, stats.partitions_scanned, "one X block per scanned partition");
    assert_eq!(stats.cache_hits, 0);
    // The PAD column of every scanned partition was skipped entirely.
    assert_eq!(stats.columns_skipped, stats.partitions_scanned);
    assert!(stats.bytes_skipped > 0);

    // Warm: same query, zero file I/O, pure cache hits.
    let warm = db.query("SELECT x FROM t WHERE x >= 950 ORDER BY x").unwrap();
    assert_eq!(warm.rows, cold.rows);
    assert_eq!(warm.profile.scan.bytes_scanned, 0, "warm scan must be pure cache hits");
    assert_eq!(warm.profile.scan.cache_hits, stats.cache_misses);
    assert_eq!(warm.profile.scan.cache_misses, 0);

    // The unified accounting surfaces in EXPLAIN ANALYZE.
    let plan = msg(db.execute("EXPLAIN ANALYZE SELECT x FROM t WHERE x >= 950").unwrap());
    assert!(plan.contains("pruned:"), "{plan}");
    assert!(plan.contains("buffer cache:"), "{plan}");
}

/// A miss shows where it is paid: the read, checksum and decode of a missed
/// block count in the scan operator's busy time, and a cache smaller than
/// the scan keeps the blocks it admitted and reports the rest as not
/// admitted — in the profile, in the store's counters and on `EXPLAIN
/// ANALYZE`'s `-- buffer cache:` line.
#[test]
fn cache_misses_count_in_scan_busy_time_and_admission_is_reported() {
    let tmp = TempDb::new("admission");
    {
        let staging = Database::new();
        adl::generator::load_into(
            &staging,
            "hep",
            &adl::AdlConfig { events: 2048, seed: 7, partition_rows: 256 },
        );
        staging.persist_to(tmp.path()).unwrap();
    }
    let db = Database::open(tmp.path()).unwrap();
    // One worker: which of two concurrent misses TinyLFU admits depends on
    // which worker asks first, so at more threads the counts below are a
    // property of the schedule, not of the cache.
    db.set_threads(Some(1));
    let store = db.store().unwrap().clone();
    let sql = "SELECT COUNT(*) AS N, SUM(ARRAY_SIZE(JET)) AS J FROM hep";
    let scan_busy = |r: &snowdb::QueryResult| {
        let m = r.profile.metrics.as_ref().expect("a profile");
        let scans: Vec<_> =
            m.operators().into_iter().filter(|(_, op)| op.name.starts_with("Scan")).collect();
        assert_eq!(scans.len(), 1, "{m:?}");
        scans[0].1.busy
    };

    // Cold, then warm: the cold scan decoded eight JET blocks, the warm one
    // only slices them.
    let cold = db.query(sql).unwrap();
    assert_eq!(cold.profile.scan.cache_misses, 8);
    let warm = db.query(sql).unwrap();
    assert_eq!(warm.rows, cold.rows);
    assert_eq!((warm.profile.scan.cache_hits, warm.profile.scan.cache_misses), (8, 0));
    assert!(
        scan_busy(&cold) > scan_busy(&warm),
        "cold scan busy {:?} must include its reads (warm {:?})",
        scan_busy(&cold),
        scan_busy(&warm)
    );

    // A quarter of the blocks' bytes: the first blocks in stay, the others
    // tie with them on request counts and are refused, pass after pass.
    let resident = store.cache_stats().used_bytes;
    store.cache().clear();
    store.set_cache_capacity(resident / 4);
    let first = db.query(sql).unwrap();
    assert_eq!(first.rows, cold.rows);
    let s = first.profile.scan;
    assert_eq!((s.cache_hits, s.cache_misses), (0, 8));
    assert!(s.cache_not_admitted > 0 && s.cache_not_admitted < 8, "{s:?}");
    assert_eq!(s.cache_evictions, 0, "{s:?}");
    let kept = 8 - s.cache_not_admitted;
    let before = store.cache_stats();
    let plan = msg(db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap());
    let line = format!(
        "-- buffer cache: {kept} hit(s), {} miss(es), 0 eviction(s), {} not admitted",
        8 - kept,
        8 - kept
    );
    assert!(plan.contains(&line), "expected `{line}` in:\n{plan}");
    let after = store.cache_stats();
    assert_eq!(after.not_admitted - before.not_admitted, 8 - kept);
    assert_eq!(after.evictions, before.evictions);
}

// ---------------------------------------------------------------------------
// Corruption
// ---------------------------------------------------------------------------

/// Builds a one-table persistent db and returns the path of one partition file.
fn corruptible_db(tmp: &TempDb) -> std::path::PathBuf {
    let staging = Database::new();
    staging
        .load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..100).map(|i| vec![Variant::Int(i)]),
            1000,
        )
        .unwrap();
    staging.persist_to(tmp.path()).unwrap();
    let parts: Vec<_> = std::fs::read_dir(tmp.path().join("parts"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(parts.len(), 1);
    parts.into_iter().next().unwrap()
}

#[test]
fn truncated_partition_file_is_a_typed_error() {
    let tmp = TempDb::new("trunc");
    let part = corruptible_db(&tmp);
    let len = std::fs::metadata(&part).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&part).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);
    match Database::open(tmp.path()) {
        Err(SnowError::Storage(msg)) => assert!(!msg.is_empty()),
        Err(other) => panic!("expected Storage error, got {other:?}"),
        Ok(_) => panic!("truncated partition file must not open"),
    }
}

#[test]
fn corrupted_column_block_is_a_typed_error_at_read_time() {
    let tmp = TempDb::new("bitflip");
    let part = corruptible_db(&tmp);
    // Flip one byte inside the first column block (right after the 8-byte
    // header): the footer stays valid, so open succeeds and the CRC check
    // fires on first read.
    let mut bytes = std::fs::read(&part).unwrap();
    bytes[9] ^= 0xFF;
    std::fs::write(&part, &bytes).unwrap();
    let db = Database::open(tmp.path()).unwrap();
    match db.query("SELECT x FROM t") {
        Err(SnowError::Storage(msg)) => {
            assert!(msg.contains("checksum"), "unexpected message: {msg}")
        }
        other => panic!("expected Storage checksum error, got {other:?}"),
    }
    // The engine stays usable for other statements.
    assert!(db.query("SELECT 1").is_ok());
}

#[test]
fn wrong_format_version_is_a_typed_error() {
    let tmp = TempDb::new("version");
    let part = corruptible_db(&tmp);
    let mut bytes = std::fs::read(&part).unwrap();
    // Header: 4-byte magic, then the u16 format version.
    bytes[4] = 0xFF;
    bytes[5] = 0xFF;
    std::fs::write(&part, &bytes).unwrap();
    match Database::open(tmp.path()) {
        Err(SnowError::Storage(msg)) => {
            assert!(msg.contains("version"), "unexpected message: {msg}")
        }
        Err(other) => panic!("expected Storage version error, got {other:?}"),
        Ok(_) => panic!("wrong-version partition file must not open"),
    }
}

// ---------------------------------------------------------------------------
// Crash / fault injection
// ---------------------------------------------------------------------------

/// Deterministic crash between temp-write and rename: the commit fails with a
/// typed error, the previous catalog version stays committed, and a reopen
/// recovers it exactly — with the aborted table's partitions swept.
#[test]
fn crash_during_commit_recovers_previous_version() {
    quiet_injected_panics();
    let tmp = TempDb::new("crash");
    let db = Database::open(tmp.path()).unwrap();
    db.load_jsonl("keep", "{\"a\": 1}\n{\"a\": 2}\n").unwrap();
    let store = db.store().unwrap();
    assert_eq!(store.version(), 1);

    // Period-1 schedule: the first ManifestCommit injection point fires.
    store.set_chaos(Some(ChaosSchedule::with_period(0xDEAD, 1)));
    let err = db.load_jsonl("lost", "{\"b\": 1}\n").unwrap_err();
    assert!(
        matches!(err, SnowError::Storage(_) | SnowError::Internal(_)),
        "commit fault must be typed: {err}"
    );
    store.set_chaos(None);
    assert_eq!(store.version(), 1, "failed commit must not advance the version");
    drop(db);

    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.table_names(), vec!["KEEP".to_string()]);
    let r = db.query("SELECT SUM(a) FROM keep").unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(3));
    // No partial partitions: every file on disk belongs to a live table.
    let live: usize =
        db.table_names().iter().map(|t| db.table(t).unwrap().partitions().len()).sum();
    let on_disk = std::fs::read_dir(tmp.path().join("parts")).unwrap().count();
    assert_eq!(on_disk, live, "crash debris must be swept on reopen");
}

/// Seeded `ManifestCommit` schedule sweep: under any injected fault pattern a
/// commit either succeeds completely or changes nothing — a reopened catalog
/// never shows a lost committed version or a partial partition, and no panic
/// escapes.
#[test]
fn manifest_commit_chaos_never_loses_a_committed_version() {
    quiet_injected_panics();
    let budget = schedule_budget(40);
    for i in 0..budget {
        let seed = 0xC0117_u64 + i as u64;
        let _repro = common::schedule("persist", seed);
        let tmp = TempDb::new("commitchaos");
        let db = Database::open(tmp.path()).unwrap();
        db.load_table(
            "base",
            vec![ColumnDef::new("A", ColumnType::Int)],
            (0..40).map(|i| vec![Variant::Int(i)]),
            8,
        )
        .unwrap();
        let store = db.store().unwrap();
        let committed_version = store.version();

        // Dense deterministic schedule (period 1..=5) over the commit path.
        store.set_chaos(Some(ChaosSchedule::with_period(seed, 1 + seed % 5)));
        let second = db.load_table(
            "extra",
            vec![ColumnDef::new("B", ColumnType::Int)],
            (0..20).map(|i| vec![Variant::Int(i * 2)]),
            8,
        );
        store.set_chaos(None);
        if let Err(e) = &second {
            assert!(
                matches!(e, SnowError::Storage(_) | SnowError::Internal(_)),
                "seed {seed}: fault must be typed, got {e:?}"
            );
            assert_eq!(store.version(), committed_version, "seed {seed}");
        }
        drop(db);

        let reopened = Database::open(tmp.path())
            .unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e}"));
        let base = reopened.query("SELECT COUNT(*), SUM(a) FROM base").unwrap();
        assert_eq!(base.rows[0][0], Variant::Int(40), "seed {seed}: lost committed table");
        assert_eq!(base.rows[0][1], Variant::Int((0..40).sum::<i64>()), "seed {seed}");
        match &second {
            Ok(()) => {
                let extra = reopened.query("SELECT COUNT(*) FROM extra").unwrap();
                assert_eq!(extra.rows[0][0], Variant::Int(20), "seed {seed}: committed then lost");
            }
            Err(_) => {
                assert!(
                    reopened.table("extra").is_none(),
                    "seed {seed}: failed commit must leave no table"
                );
            }
        }
        // Partial partitions must never be visible.
        let live: usize = reopened
            .table_names()
            .iter()
            .map(|t| reopened.table(t).unwrap().partitions().len())
            .sum();
        let on_disk = std::fs::read_dir(tmp.path().join("parts")).unwrap().count();
        assert_eq!(on_disk, live, "seed {seed}: debris visible after reopen");
        assert!(!tmp.path().join("MANIFEST.tmp").exists(), "seed {seed}");
    }
}

/// Seeded `StoreRead` schedule sweep on a disk-backed database: every faulted
/// query either completes with the right answer or fails typed, and the
/// un-faulted engine keeps answering correctly afterwards.
#[test]
fn store_read_chaos_is_sound_on_disk_database() {
    quiet_injected_panics();
    let tmp = TempDb::new("readchaos");
    {
        let staging = Database::new();
        adl::generator::load_into(
            &staging,
            "hep",
            &adl::AdlConfig { events: 60, seed: 1234, partition_rows: 64 },
        );
        staging.persist_to(tmp.path()).unwrap();
    }
    let db = Arc::new(Database::open(tmp.path()).unwrap());
    // Keep the cache cold-ish so StoreRead checkpoints sit on real I/O paths.
    db.store().unwrap().set_cache_capacity(1);

    let sql = translate_query(
        db.clone(),
        "for $e in collection(\"hep\") where $e.MET.PT gt 10.0 \
         group by $b := floor($e.MET.PT div 20.0) order by $b \
         return {\"bin\": $b, \"n\": count($e)}",
        NestedStrategy::FlagColumn,
    )
    .unwrap()
    .sql()
    .to_string();

    let budget = schedule_budget(40).div_ceil(2).max(8);
    for threads in [1usize, 4] {
        let seeds: Vec<u64> = (0..budget).map(|i| 0x5704E + i as u64).collect();
        let report = verify_sql_chaos(&db, &sql, &seeds, threads, DEFAULT_EPSILON);
        assert_agrees("persist", &format!("store read threads={threads}"), &report);
    }
}
