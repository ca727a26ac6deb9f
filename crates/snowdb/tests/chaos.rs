//! Chaos harness: drives the ADL + SSB corpus through seeded fault-injection
//! schedules and checks the governance soundness property end to end.
//!
//! For every schedule the query must finish in one of exactly three ways —
//! the correct result, the injected `SnowError::Internal`, or the un-faulted
//! run's own error — and the engine must answer an un-faulted follow-up
//! identically (`verify_sql_chaos`, judged by the one referee). A hang,
//! abort, or wrong answer is a governance bug. Schedules are pure functions
//! of their seed, so every failure prints `suite=chaos seed=<n>`; replay it
//! with `ChaosSchedule::new(seed)` and `SNOWDB_THREADS=1`.
//!
//! `SNOWQ_SCHEDULES` overrides the total number of schedules spread over the
//! corpus (default 24; the CI chaos job runs 200). On failure the rendered
//! report is appended to the file named by `SNOWQ_VERIFY_REPORT` (when set)
//! so CI can upload it as an artifact.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{assert_agrees, schedule_budget};
use jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowdb::govern::chaos::{quiet_injected_panics, ChaosSchedule};
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::verify::{verify_sql_chaos, DEFAULT_EPSILON};
use snowdb::{Database, QueryGovernor, QueryOptions, SnowError, Variant};

fn adl_db(events: usize) -> Arc<Database> {
    let d = Database::new();
    adl::generator::load_into(
        &d,
        "hep",
        &adl::AdlConfig { events, seed: 1234, partition_rows: 64 },
    );
    Arc::new(d)
}

fn ssb_db(lineorders: usize) -> Arc<Database> {
    let d = Database::new();
    ssb::load_ssb(&d, &ssb::SsbConfig { lineorders, seed: 11, partition_rows: 256 });
    Arc::new(d)
}

/// Translates the corpus to SQL as `(tag, sql)` pairs.
fn corpus_sql(
    db: &Arc<Database>,
    queries: Vec<(String, String, NestedStrategy)>,
) -> Vec<(String, String)> {
    queries
        .into_iter()
        .map(|(id, jsoniq, strategy)| {
            let df = translate_query(db.clone(), &jsoniq, strategy)
                .unwrap_or_else(|e| panic!("{id} fails to translate: {e}"));
            (id, df.sql().to_string())
        })
        .collect()
}

/// The tentpole soundness sweep: the whole ADL + SSB corpus, every query
/// under a distinct slice of the seeded-schedule budget, four worker threads
/// (the racy regime). ADL Q6 is in the corpus twice: flag-column like the
/// rest, and JOIN-based as in the paper — that plan reads one shared upstream
/// from several sites, so a fault at the producing site must reach every
/// reader as the same typed error.
#[test]
fn chaos_corpus_is_sound() {
    quiet_injected_panics();
    let budget = schedule_budget(24);

    let adl = adl_db(80);
    let adl_queries = adl::queries::queries("hep")
        .into_iter()
        .flat_map(|q| {
            let join = q
                .join_based
                .then(|| (format!("{} join", q.id), q.jsoniq.clone(), NestedStrategy::JoinBased));
            std::iter::once((q.id.to_string(), q.jsoniq, NestedStrategy::FlagColumn)).chain(join)
        })
        .collect();
    let mut corpus: Vec<(Arc<Database>, String, String)> = corpus_sql(&adl, adl_queries)
        .into_iter()
        .map(|(id, sql)| (adl.clone(), format!("adl {id}"), sql))
        .collect();
    assert!(
        corpus.iter().any(|(db, _, sql)| db.explain(sql).unwrap().contains("-> shared #")),
        "the corpus must exercise shared subplans"
    );
    let ssb = ssb_db(600);
    let ssb_queries = ssb::queries()
        .into_iter()
        .map(|q| (q.id.to_string(), q.jsoniq, NestedStrategy::FlagColumn))
        .collect();
    corpus.extend(
        corpus_sql(&ssb, ssb_queries)
            .into_iter()
            .map(|(id, sql)| (ssb.clone(), format!("ssb {id}"), sql)),
    );

    let per_query = budget.div_ceil(corpus.len()).max(1);
    let mut next_seed = 0x5eed_0000u64;
    let mut total = 0usize;
    for (db, tag, sql) in &corpus {
        let seeds: Vec<u64> = (0..per_query).map(|i| next_seed + i as u64).collect();
        next_seed += 1000;
        total += seeds.len();
        let report = verify_sql_chaos(db, sql, &seeds, 4, DEFAULT_EPSILON);
        assert_agrees("chaos", tag, &report);
    }
    assert!(total >= budget, "ran {total} schedules, budget {budget}");
}

/// The engine must survive injected faults — including real panics — at both
/// the serial and the parallel thread counts, and keep answering correctly.
/// (`verify_sql_chaos` re-runs the query un-faulted after every schedule.)
#[test]
fn engine_survives_injected_failures_across_thread_counts() {
    quiet_injected_panics();
    let db = adl_db(60);
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
    for threads in [1usize, 4] {
        let seeds: Vec<u64> = (0..12).map(|i| 0xFA11 + i).collect();
        let report = verify_sql_chaos(&db, &sql, &seeds, threads, DEFAULT_EPSILON);
        assert_agrees("chaos", &format!("survival threads={threads}"), &report);
    }
}

/// A table big enough that its cross-join query runs for many seconds in any
/// build profile — the canvas for the cancellation and deadline tests.
fn heavy_db() -> (Arc<Database>, &'static str) {
    let d = Database::new();
    d.load_table(
        "n",
        vec![ColumnDef::new("ID", ColumnType::Int)],
        (0..3000).map(|i| vec![Variant::Int(i)]),
        256,
    )
    .unwrap();
    (
        Arc::new(d),
        "SELECT COUNT(*) FROM n a CROSS JOIN n b WHERE (a.ID * b.ID) % 7 < 5",
    )
}

/// Cancellation is observed at a batch boundary: a long-running query aborts
/// promptly after `cancel()` with a typed `Cancelled` error — at one worker
/// thread and at four.
#[test]
fn cancellation_is_prompt_and_typed() {
    quiet_injected_panics();
    let (db, sql) = heavy_db();
    for threads in [1usize, 4] {
        let gov = Arc::new(QueryGovernor::unbounded());
        let opts = QueryOptions { threads: Some(threads), ..Default::default() };
        let worker = {
            let (db, gov) = (db.clone(), gov.clone());
            let sql = sql.to_string();
            std::thread::spawn(move || db.query_governed(&sql, &opts, gov).map_err(Box::new))
        };
        // Let the query get in flight, then cancel.
        std::thread::sleep(Duration::from_millis(150));
        gov.cancel();
        let cancelled_at = Instant::now();
        let result = worker.join().expect("query thread must not panic");
        let latency = cancelled_at.elapsed();
        match result {
            Err(failure) => {
                assert!(
                    matches!(failure.error, SnowError::Cancelled { .. }),
                    "threads={threads}: expected Cancelled, got {:?}",
                    failure.error
                );
                assert!(failure.profile.governed.expect("a failure's record").cancelled);
            }
            Ok(_) => {
                // The query beat the cancel to the finish line; legal but the
                // fixture is sized to make it practically impossible.
                panic!("threads={threads}: heavy query finished before cancellation");
            }
        }
        // "Prompt" = a few batch boundaries, not the query's natural
        // multi-second runtime. The bound is generous for slow CI machines.
        assert!(
            latency < Duration::from_secs(5),
            "threads={threads}: cancellation took {latency:?}"
        );
        // The engine stays usable afterwards.
        let ok = db.query("SELECT COUNT(*) FROM n").unwrap();
        assert_eq!(ok.rows[0][0], Variant::Int(3000));
    }
}

/// A wall-clock deadline trips with a typed `DeadlineExceeded` carrying the
/// limit, long before the query's natural runtime.
#[test]
fn deadline_is_prompt_and_typed() {
    quiet_injected_panics();
    let (db, sql) = heavy_db();
    for threads in [1usize, 4] {
        let gov = Arc::new(QueryGovernor::unbounded().with_deadline(Duration::from_millis(100)));
        let opts = QueryOptions { threads: Some(threads), ..Default::default() };
        let started = Instant::now();
        let failure = db.query_governed(sql, &opts, gov).unwrap_err();
        let elapsed = started.elapsed();
        match failure.error {
            SnowError::DeadlineExceeded(ref t) => assert_eq!(t.limit_ms, 100),
            other => panic!("threads={threads}: expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "threads={threads}: deadline enforcement took {elapsed:?}"
        );
    }
}

/// Memory budgets account *cumulative* intermediate bytes, so an exhausted
/// budget is deterministic: the same limit trips the same way at every
/// thread count.
#[test]
fn memory_budget_trips_deterministically_across_thread_counts() {
    quiet_injected_panics();
    let (db, sql) = heavy_db();
    for threads in [1usize, 2, 4] {
        let gov = Arc::new(QueryGovernor::unbounded().with_memory_limit(64 * 1024));
        let opts = QueryOptions { threads: Some(threads), ..Default::default() };
        let failure = db.query_governed(sql, &opts, gov).unwrap_err();
        match failure.error {
            SnowError::ResourceExhausted(ref t) => {
                assert_eq!(t.resource, "memory");
                assert_eq!(t.limit, 64 * 1024);
            }
            ref other => panic!("threads={threads}: expected ResourceExhausted, got {other:?}"),
        }
        // The failure carries the partial metrics tree for post-mortems.
        assert!(failure.profile.metrics.is_some());
    }
}

/// One row whose 1000-item array is flattened against itself three times:
/// a single morsel that would take a pipeline through 10^9 rows.
fn deep_pipeline_db() -> (Arc<Database>, &'static str) {
    let d = Database::new();
    d.load_table(
        "one",
        vec![ColumnDef::new("ARR", ColumnType::Variant)],
        [vec![Variant::Array((0..1000).map(Variant::Int).collect::<Vec<_>>().into())]],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    (
        Arc::new(d),
        "SELECT COUNT(*) FROM one, LATERAL FLATTEN(INPUT => arr) a, \
         LATERAL FLATTEN(INPUT => arr) b, LATERAL FLATTEN(INPUT => arr) c \
         WHERE a.value + b.value + c.value < 0",
    )
}

/// A pipeline checks the governor once per stage and piece, not once per
/// morsel: cancelling in the middle of one morsel that never ends is prompt
/// and typed, and a memory budget trips within the piece that crosses it.
#[test]
fn a_trip_in_the_middle_of_a_long_pipeline_arrives_within_one_piece() {
    quiet_injected_panics();
    let (db, sql) = deep_pipeline_db();
    for threads in [1usize, 4] {
        let opts = QueryOptions { threads: Some(threads), ..Default::default() };
        let gov = Arc::new(QueryGovernor::unbounded());
        let worker = {
            let (db, gov) = (db.clone(), gov.clone());
            std::thread::spawn(move || db.query_governed(sql, &opts, gov).map_err(Box::new))
        };
        std::thread::sleep(Duration::from_millis(100));
        gov.cancel();
        let cancelled_at = Instant::now();
        let failure = worker
            .join()
            .expect("query thread must not panic")
            .expect_err("10^9 rows do not finish in 100 ms");
        assert!(
            matches!(failure.error, SnowError::Cancelled { .. }),
            "threads={threads}: expected Cancelled, got {:?}",
            failure.error
        );
        let latency = cancelled_at.elapsed();
        assert!(latency < Duration::from_secs(2), "threads={threads}: cancelling took {latency:?}");

        let limit = 256 << 20;
        let gov = Arc::new(QueryGovernor::unbounded().with_memory_limit(limit));
        let failure = db.query_governed(sql, &opts, gov).unwrap_err();
        match failure.error {
            SnowError::ResourceExhausted(ref t) => {
                assert_eq!((t.resource.as_str(), t.limit), ("memory", limit));
                // The charge that crossed the limit was one piece's.
                let metrics = failure.profile.metrics.as_ref().expect("partial metrics");
                let piece = metrics.operators().iter().map(|(_, m)| m.peak_mem_bytes).max().unwrap();
                assert!(t.used - limit <= piece, "threads={threads}: {} over by more than {piece}", t.used);
            }
            ref other => panic!("threads={threads}: expected ResourceExhausted, got {other:?}"),
        }
    }
}

/// Injected faults never leave the governor's accounting poisoned: after a
/// chaotic run the same database executes a governed query that stays within
/// budget.
#[test]
fn governance_state_is_per_query_not_per_engine() {
    quiet_injected_panics();
    let db = adl_db(40);
    let sql = "SELECT COUNT(*) FROM hep";
    // A run with an absurd schedule (inject on every hit).
    let gov = Arc::new(
        QueryGovernor::unbounded().with_chaos(ChaosSchedule::with_period(99, 1)),
    );
    let opts = QueryOptions::default();
    let _ = db.query_governed(sql, &opts, gov.clone());
    // Fresh governor, fresh budget: unaffected by the chaotic predecessor.
    let fresh = Arc::new(QueryGovernor::unbounded().with_memory_limit(u64::MAX));
    let ok = db.query_governed(sql, &opts, fresh.clone()).unwrap();
    assert_eq!(ok.rows[0][0], Variant::Int(40));
    assert!(fresh.summary().memory_charged > 0);
    assert!(!fresh.is_cancelled());
}
