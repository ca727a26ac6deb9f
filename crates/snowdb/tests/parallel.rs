//! Serial-vs-parallel equivalence for the morsel-parallel executor.
//!
//! The determinism contract: for any query, running with `threads = 1`
//! (fully inline, no threads spawned) and with any `threads > 1` must
//! produce byte-identical result rows *and* byte-identical scan accounting
//! (`partitions_total` / `partitions_scanned` / `bytes_scanned`). Pruning
//! decisions are made per micro-partition before any worker touches
//! its columns, so pruned partitions contribute exactly zero bytes no matter
//! how many workers race over the partition cursor.

mod common;

use snowdb::storage::{ColumnDef, ColumnType, ScanStats};
use snowdb::{Database, Variant};

const THREADS: &[usize] = &[2, 4, 8];

/// 100 int rows split into 10 micro-partitions of 10 rows each, so column
/// bounds give each partition a disjoint `[lo, hi]` range.
fn prunable_db() -> Database {
    let db = Database::new();
    db.load_table(
        "t",
        vec![ColumnDef::new("X", ColumnType::Int)],
        (0..100).map(|i| vec![Variant::Int(i)]),
        10,
    )
    .unwrap();
    db
}

fn run(db: &Database, threads: usize, sql: &str) -> (Vec<Vec<Variant>>, ScanStats) {
    db.set_threads(Some(threads));
    let r = db.query(sql).unwrap_or_else(|e| panic!("[threads={threads}] {sql}: {e}"));
    (r.rows, r.profile.scan)
}

/// Asserts rows and all three scan-stat fields are identical across thread
/// counts, returning the serial baseline for further checks.
fn assert_thread_invariant(db: &Database, sql: &str) -> (Vec<Vec<Variant>>, ScanStats) {
    let (rows1, stats1) = run(db, 1, sql);
    for &n in THREADS {
        let (rows_n, stats_n) = run(db, n, sql);
        assert_eq!(rows1, rows_n, "rows differ at threads={n} for {sql}");
        assert_eq!(
            stats1.partitions_total, stats_n.partitions_total,
            "partitions_total differs at threads={n} for {sql}"
        );
        assert_eq!(
            stats1.partitions_scanned, stats_n.partitions_scanned,
            "partitions_scanned differs at threads={n} for {sql}"
        );
        assert_eq!(
            stats1.bytes_scanned, stats_n.bytes_scanned,
            "bytes_scanned differs at threads={n} for {sql}"
        );
    }
    (rows1, stats1)
}

#[test]
fn pruned_scan_stats_identical_across_thread_counts() {
    let db = prunable_db();
    let (rows, stats) = assert_thread_invariant(&db, "SELECT x FROM t WHERE x >= 95");
    assert_eq!(rows.len(), 5);
    assert_eq!(stats.partitions_total, 10);
    assert_eq!(stats.partitions_scanned, 1);

    // Pruned partitions contribute zero bytes: the 1-partition scan reads
    // exactly one tenth of the (uniformly partitioned) full-scan volume.
    let (_, full) = assert_thread_invariant(&db, "SELECT x FROM t");
    assert_eq!(full.partitions_scanned, 10);
    assert!(stats.bytes_scanned > 0);
    assert!(
        stats.bytes_scanned < full.bytes_scanned,
        "pruned scan must read strictly less than a full scan"
    );
}

#[test]
fn fully_pruned_scan_reads_zero_bytes() {
    let db = prunable_db();
    let (rows, stats) = assert_thread_invariant(&db, "SELECT x FROM t WHERE x >= 1000");
    assert!(rows.is_empty());
    assert_eq!(stats.partitions_total, 10);
    assert_eq!(stats.partitions_scanned, 0);
    assert_eq!(stats.bytes_scanned, 0, "pruned partitions must contribute zero bytes");
}

#[test]
fn aggregates_joins_sorts_identical_across_thread_counts() {
    let db = prunable_db();
    // Group order, accumulator merge order, and float sums must all match the
    // serial reference exactly.
    assert_thread_invariant(
        &db,
        "SELECT x % 7 AS g, COUNT(*) AS c, SUM(x) AS s, MIN(x) AS lo, MAX(x) AS hi \
         FROM t GROUP BY x % 7 ORDER BY g",
    );
    assert_thread_invariant(
        &db,
        "SELECT a.x AS ax, b.x AS bx FROM t a JOIN t b ON a.x = b.x WHERE a.x < 23 ORDER BY ax",
    );
    assert_thread_invariant(&db, "SELECT x FROM t ORDER BY x % 10, x DESC");
    assert_thread_invariant(&db, "SELECT DISTINCT x % 5 AS m FROM t ORDER BY m");
    assert_thread_invariant(
        &db,
        "SELECT AVG(x) AS a FROM t WHERE x < 50 UNION ALL SELECT AVG(x) FROM t",
    );
}

#[test]
fn seq8_stream_identical_across_thread_counts() {
    let db = prunable_db();
    // SEQ8 must number rows 0..N in serial scan order even when partitions are
    // materialized by racing workers.
    let (rows, _) = assert_thread_invariant(&db, "SELECT SEQ8() AS s, x FROM t");
    assert_eq!(rows.len(), 100);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Variant::Int(i as i64), "SEQ8 gap at row {i}");
        assert_eq!(row[1], Variant::Int(i as i64));
    }
    // ...including downstream of a pruning filter (counter restarts per query).
    let (rows, _) = assert_thread_invariant(&db, "SELECT SEQ8() AS s FROM t WHERE x >= 95");
    assert_eq!(
        rows.into_iter().map(|mut r| r.remove(0)).collect::<Vec<_>>(),
        (0..5).map(Variant::Int).collect::<Vec<_>>()
    );
}

/// The `SEQ8()` kernel (an integer ramp from the batch's row base) against
/// the row loop that defines it, at 1, 2 and 8 threads: one call, two calls
/// in one row, a call inside arithmetic beside a shared pure subexpression,
/// and a guarded call, which has no kernel.
#[test]
fn seq8_projection_kernel_matches_the_row_loop_at_any_thread_count() {
    use snowdb::QueryOptions;
    let db = prunable_db();
    for sql in [
        "SELECT SEQ8() AS s, x FROM t",
        "SELECT SEQ8() AS a, x * 2 AS y, SEQ8() AS b FROM t WHERE x >= 13",
        "SELECT (SEQ8() * 1000) + (x * x) AS k, SQRT(x * x) AS r FROM t",
        "SELECT IFF(x < 50, SEQ8(), -1) AS g, x FROM t",
        "SELECT l.s, r.s FROM (SELECT SEQ8() AS s, x FROM t) l \
         JOIN (SELECT SEQ8() AS s, x FROM t WHERE x >= 40) r ON l.x = r.x",
    ] {
        let run = |threads: usize, vectorize: bool| {
            let opts = QueryOptions {
                threads: Some(threads),
                vectorize,
                ..Default::default()
            };
            db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{sql}: {e}")).rows
        };
        let reference = run(1, false);
        assert_eq!(reference.len(), if sql.contains("13") { 87 } else if sql.contains("40") { 60 } else { 100 });
        for threads in [1, 2, 8] {
            assert_eq!(run(threads, true), reference, "kernel, threads={threads}: {sql}");
            assert_eq!(run(threads, false), reference, "row loop, threads={threads}: {sql}");
        }
    }
    // Two calls in one row are consecutive; the next row restarts one up.
    let rows = db.query("SELECT SEQ8() AS a, SEQ8() AS b FROM t").unwrap().rows;
    assert_eq!(rows[7], vec![Variant::Int(7), Variant::Int(8)]);
}

#[test]
fn flatten_identical_across_thread_counts() {
    let db = Database::new();
    db.load_table(
        "events",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("V", ColumnType::Variant),
        ],
        (0..60).map(|i| {
            let arr: Vec<Variant> = (0..(i % 4)).map(|j| Variant::Int(i * 10 + j)).collect();
            vec![Variant::Int(i), Variant::Array(arr.into())]
        }),
        8,
    )
    .unwrap();
    assert_thread_invariant(
        &db,
        "SELECT id, f.seq, f.index, f.value FROM events, LATERAL FLATTEN(INPUT => v) f",
    );
    assert_thread_invariant(
        &db,
        "SELECT id, f.value FROM events, LATERAL FLATTEN(INPUT => v, OUTER => TRUE) f \
         WHERE id % 3 = 0",
    );
}

#[test]
fn explain_analyze_reports_operator_metrics() {
    let db = prunable_db();
    db.set_threads(Some(4));
    let rendered = common::msg(
        db.execute(
            "EXPLAIN ANALYZE SELECT x % 7 AS g, COUNT(*) AS c FROM t WHERE x >= 20 GROUP BY x % 7",
        )
        .unwrap(),
    );
    // Every operator line carries a measured annotation, and the footer
    // reports the same scan accounting as QueryProfile.
    assert!(rendered.contains("Aggregate"), "{rendered}");
    assert!(rendered.contains("rows="), "{rendered}");
    assert!(rendered.contains("batches="), "{rendered}");
    assert!(rendered.contains("8/10 partitions"), "{rendered}");
    // Scan, filter, projection and aggregate ran as one pipeline, which has
    // its own line: a wall clock to read the summed busy times against.
    assert_eq!(rendered.matches(" pipe=1]").count(), rendered.matches("[rows=").count(), "{rendered}");
    assert!(rendered.contains("-- pipeline 1 (Aggregate): wall="), "{rendered}");
    assert!(rendered.contains(" morsels=10 workers=4\n"), "{rendered}");

    // The metrics tree on the profile mirrors the same run.
    let r = db.query("SELECT x % 7 AS g, COUNT(*) AS c FROM t WHERE x >= 20 GROUP BY x % 7").unwrap();
    let m = r.profile.metrics.expect("profile carries operator metrics");
    assert_eq!(m.rows_out, r.rows.len() as u64);
    assert!(m.op_count() >= 3, "expected scan+filter+project+aggregate, got {}", m.op_count());
}

/// `joined=` counts the morsel-pool helpers that claimed a morsel besides
/// the calling thread: none inline, at most `workers - 1` otherwise, and
/// always printed before `morsels=`.
#[test]
fn pipeline_runs_count_the_helpers_that_joined() {
    let db = prunable_db();
    let sql = "SELECT x % 7 AS g, COUNT(*) AS c FROM t WHERE x >= 20 GROUP BY x % 7";
    for threads in [1, 2, 4, 8] {
        db.set_threads(Some(threads));
        let m = db.query(sql).unwrap().profile.metrics.expect("operator metrics");
        for (id, top, run) in m.pipelines() {
            assert!(run.workers <= threads, "pipeline {id} ({top}) at {threads}: {run:?}");
            assert!(run.joined < run.workers, "pipeline {id} ({top}) at {threads}: {run:?}");
        }
        let rendered = common::msg(db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap());
        let lines: Vec<&str> = rendered.lines().filter(|l| l.starts_with("-- pipeline")).collect();
        assert!(!lines.is_empty(), "{rendered}");
        for line in lines {
            let joined = line.find(" joined=").expect("joined= on every pipeline line");
            assert!(joined < line.find(" morsels=").unwrap(), "{line}");
            if threads == 1 {
                assert!(line.contains(" joined=0 "), "{line}");
            }
        }
    }
}

/// A sort over one batch evaluates its keys and gathers inline: its
/// pipeline reports one worker, as a scan pipeline over one morsel does.
#[test]
fn a_one_batch_sort_reports_one_worker() {
    let db = Database::new();
    let rows = (0..10).rev().map(|i| vec![Variant::Int(i)]);
    db.load_table("t", vec![ColumnDef::new("X", ColumnType::Int)], rows, 100).unwrap();
    for threads in [1, 2, 8] {
        db.set_threads(Some(threads));
        let m = db.query("SELECT X FROM t ORDER BY X").unwrap().profile.metrics.expect("metrics");
        let sorts: Vec<_> = m.pipelines().into_iter().filter(|(_, top, _)| *top == "Sort").collect();
        let [(_, _, run)] = sorts.as_slice() else { panic!("one sort pipeline: {sorts:?}") };
        assert_eq!((run.morsels, run.workers, run.joined), (1, 1, 0), "threads={threads}");
    }
}

/// 40 rows, 8-row partitions; K carries heavy ties (5 distinct values).
fn ties_db() -> Database {
    let db = Database::new();
    db.load_table(
        "ties",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("K", ColumnType::Int),
        ],
        (0..40).map(|i| vec![Variant::Int(i), Variant::Int(i % 5)]),
        8,
    )
    .unwrap();
    db
}

#[test]
fn limit_truncates_identically_across_thread_counts() {
    let db = ties_db();
    let (rows, _) = assert_thread_invariant(&db, "SELECT ID FROM ties ORDER BY ID LIMIT 7");
    let ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, (0..7).collect::<Vec<_>>());
    // LIMIT larger than the table returns every row exactly once; LIMIT 0
    // returns none — no worker may sneak an extra batch past the cutoff.
    assert_eq!(assert_thread_invariant(&db, "SELECT ID FROM ties LIMIT 1000").0.len(), 40);
    assert_eq!(assert_thread_invariant(&db, "SELECT ID FROM ties LIMIT 0").0.len(), 0);
}

#[test]
fn order_by_with_ties_is_stable_across_thread_counts() {
    // Five-way ties on K: the global merge must be a stable sort of the same
    // multiset regardless of how workers split the key evaluation, so the
    // parallel result is byte-identical to serial (already asserted by the
    // invariant helper) *and* tie groups preserve input (ID) order.
    let db = ties_db();
    let (rows, _) = assert_thread_invariant(&db, "SELECT K, ID FROM ties ORDER BY K");
    let ks: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert!(ks.windows(2).all(|w| w[0] <= w[1]), "key column not sorted");
    for group in rows.chunk_by(|a, b| a[0] == b[0]) {
        let ids: Vec<i64> = group.iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "tie group reordered: {ids:?}");
    }
}

#[test]
fn empty_partitions_are_survived_by_every_operator() {
    // The filter empties all but the last partition; aggregation, sort, and
    // limit above must not trip over empty morsels at any thread count.
    let db = ties_db();
    let (rows, _) =
        assert_thread_invariant(&db, "SELECT COUNT(*), SUM(ID) FROM ties WHERE ID >= 38");
    assert_eq!(rows, vec![vec![Variant::Int(2), Variant::Int(77)]]);
    let (rows, _) = assert_thread_invariant(&db, "SELECT ID FROM ties WHERE ID < 0 ORDER BY ID");
    assert!(rows.is_empty());
    let (rows, _) = assert_thread_invariant(&db, "SELECT ID FROM ties WHERE ID < 0 LIMIT 3");
    assert!(rows.is_empty());
}

/// ADL Q6/Q7 shape: an upstream query numbered with `SEQ8()`, left-joined on
/// that number with an aggregate over a flatten of *the same upstream*. The
/// optimizer executes the upstream once and both sites read it; rows must be
/// identical with the optimizer on and off at every thread count, `SEQ8()`
/// numbering included.
#[test]
fn shared_upstream_self_join_matches_unshared_execution() {
    use snowdb::QueryOptions;
    let db = Database::new();
    db.load_table(
        "events",
        vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("V", ColumnType::Variant)],
        (0..200).map(|i| {
            let arr: Vec<Variant> = (0..(i % 5)).map(|j| Variant::Int(i * 10 + j)).collect();
            vec![Variant::Int(i), Variant::Array(arr.into())]
        }),
        16,
    )
    .unwrap();
    let upstream = "(SELECT *, SEQ8() AS rid FROM (SELECT id, v FROM events WHERE id % 3 <> 0))";
    let sql = format!(
        "SELECT u.id, u.rid, a.n, a.top FROM {upstream} u LEFT OUTER JOIN ( \
           SELECT rid, COUNT(*) AS n, MAX(f.value) AS top \
           FROM {upstream} w, LATERAL FLATTEN(INPUT => w.v) f GROUP BY rid) a \
         ON u.rid = a.rid ORDER BY u.id"
    );
    let run = |optimize: bool, threads: usize| {
        let opts = QueryOptions { optimize, threads: Some(threads), ..Default::default() };
        db.query_with(&sql, &opts).unwrap_or_else(|e| panic!("optimize={optimize}: {e}"))
    };
    let baseline = run(false, 1);
    assert_eq!(baseline.rows.len(), 133);
    assert_eq!(baseline.rows[4][1], Variant::Int(4), "rid numbers the filtered upstream");
    for threads in [1, 2, 8] {
        let raw = run(false, threads);
        let shared = run(true, threads);
        assert_eq!(raw.rows, baseline.rows, "raw plan differs at threads={threads}");
        assert_eq!(shared.rows, baseline.rows, "shared plan differs at threads={threads}");
        // The upstream is scanned once instead of twice: a count, exact at
        // every thread count.
        assert_eq!(
            shared.profile.scan.bytes_scanned * 2,
            raw.profile.scan.bytes_scanned,
            "threads={threads}"
        );
    }
    let plan = db.explain(&sql).unwrap();
    assert!(plan.contains("[shared #1]") && plan.contains("-> shared #1"), "{plan}");
    // EXPLAIN ANALYZE prints the subtree, with its metrics, at the site that
    // executed it: the join's build side, which runs first.
    let analyzed = common::msg(db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap());
    let tagged = analyzed.lines().find(|l| l.contains("[shared #1]")).expect("a tagged site");
    assert!(tagged.contains(" pipe="), "{analyzed}");
    assert!(analyzed.contains("-> shared #1"), "{analyzed}");
}

/// One body per operator, two producers of its expression columns: the
/// compiled DAG and the row evaluator (`vectorize` on / off). Every operator
/// must return the same rows — or the same typed error, raised at the same
/// first failing row — under either producer at every thread count.
mod producers {
    use snowdb::storage::{ColumnDef, ColumnType};
    use snowdb::{Database, QueryOptions, Variant};

    const ROWS: i64 = 320;

    /// 320 rows in 64-row partitions (five batches). `E(row) = 100 / k +
    /// s::INT` divides by zero on the rows in `zero_k` and fails its cast on
    /// the rows in `bad_s`; `AVG(v)` fails in its accumulator on the rows in
    /// `bad_v`, `BOOLAND_AGG(b)` on the rows in `bad_b`.
    pub fn table(zero_k: &[i64], bad_s: &[i64], bad_v: &[i64], bad_b: &[i64]) -> Database {
        let db = Database::new();
        db.load_table(
            "t",
            vec![
                ColumnDef::new("ID", ColumnType::Int),
                ColumnDef::new("K", ColumnType::Int),
                ColumnDef::new("S", ColumnType::Str),
                ColumnDef::new("V", ColumnType::Variant),
                ColumnDef::new("B", ColumnType::Variant),
                ColumnDef::new("ARR", ColumnType::Variant),
            ],
            (0..ROWS).map(|i| {
                vec![
                    Variant::Int(i),
                    Variant::Int(if zero_k.contains(&i) { 0 } else { i + 1 }),
                    Variant::str(if bad_s.contains(&i) { "x" } else { "7" }),
                    if bad_v.contains(&i) { Variant::str("boom") } else { Variant::Int(i) },
                    if bad_b.contains(&i) { Variant::Int(1) } else { Variant::Bool(true) },
                    Variant::Array(vec![Variant::Int(i), Variant::Int(i + 1)].into()),
                ]
            }),
            64,
        )
        .unwrap();
        db
    }

    /// Runs `sql` under `vectorize` on/off x threads 1/2/8 and returns the
    /// one outcome all six agree on: `Debug`-identical rows or equal error
    /// text.
    pub fn agreed(db: &Database, sql: &str, optimize: bool) -> Result<Vec<Vec<Variant>>, String> {
        let mut outcomes = Vec::new();
        for vectorize in [true, false] {
            for threads in [1, 2, 8] {
                let opts = QueryOptions {
                    optimize,
                    threads: Some(threads),
                    vectorize,
                    ..Default::default()
                };
                let outcome = db.query_with(sql, &opts).map(|r| r.rows).map_err(|e| e.to_string());
                outcomes.push((format!("vectorize={vectorize} threads={threads}"), outcome));
            }
        }
        let (first_cfg, first) = outcomes[0].clone();
        for (cfg, outcome) in &outcomes[1..] {
            assert_eq!(
                format!("{outcome:?}"),
                format!("{first:?}"),
                "{cfg} disagrees with {first_cfg} (optimize={optimize}) on {sql}"
            );
        }
        first
    }

    const E: &str = "100 / k + s::INT";

    /// Filter, Project (fused under the scan and streaming over a LIMIT),
    /// Flatten, Sort and Join (probe key, build key, residual), each holding
    /// `E`.
    fn shapes() -> Vec<(&'static str, String)> {
        vec![
            ("fused filter", format!("SELECT id FROM t WHERE {E} > 8")),
            ("fused project", format!("SELECT id, {E} AS e FROM t")),
            (
                "streaming filter",
                format!("SELECT id FROM (SELECT * FROM t LIMIT 1000) WHERE {E} > 8"),
            ),
            (
                "streaming project",
                format!("SELECT id, {E} AS e FROM (SELECT * FROM t LIMIT 1000)"),
            ),
            (
                "flatten",
                format!(
                    "SELECT id, f.seq, f.value FROM t, \
                     LATERAL FLATTEN(INPUT => IFF({E} > 8, arr, NULL)) f"
                ),
            ),
            ("sort", format!("SELECT id, k, s FROM t ORDER BY {E} DESC, id")),
            (
                "join probe key",
                "SELECT a.id, b.id FROM t a JOIN t b ON 100 / a.k + a.s::INT - 7 = b.id".into(),
            ),
            (
                "join build key",
                "SELECT a.id, b.id FROM t a JOIN t b ON a.id = 100 / b.k + b.s::INT - 7".into(),
            ),
            (
                "join residual",
                "SELECT a.id, b.id FROM t a JOIN t b \
                 ON a.id = b.id AND 100 / a.k + b.s::INT > 8"
                    .into(),
            ),
            ("aggregate", format!("SELECT id % 5 AS g, MAX({E}) AS m FROM t GROUP BY id % 5")),
            ("global aggregate", format!("SELECT COUNT(*), MIN({E}) FROM t")),
        ]
    }

    #[test]
    fn every_operator_returns_the_same_rows_under_either_producer() {
        let db = table(&[], &[], &[], &[]);
        for (shape, sql) in shapes() {
            for optimize in [true, false] {
                let rows = agreed(&db, &sql, optimize).unwrap_or_else(|e| panic!("{shape}: {e}"));
                assert!(!rows.is_empty(), "{shape} returns rows");
            }
        }
    }

    #[test]
    fn every_operator_reports_the_first_failing_row_under_either_producer() {
        // Row 137 divides by zero; row 150 — same batch, later row — and row
        // 260 — a later batch — fail the cast. Serial row order meets the
        // division first.
        let db = table(&[137], &[150, 260], &[], &[]);
        for (shape, sql) in shapes() {
            for optimize in [true, false] {
                let err = agreed(&db, &sql, optimize).expect_err(shape);
                assert!(err.contains("division by zero"), "{shape} (optimize={optimize}): {err}");
            }
        }
        // And the other way round: the cast fails first.
        let db = table(&[150, 260], &[137], &[], &[]);
        for (shape, sql) in shapes() {
            let err = agreed(&db, &sql, true).expect_err(shape);
            assert!(!err.contains("division by zero"), "{shape}: {err}");
        }
    }

    #[test]
    fn a_filter_value_that_is_no_boolean_raises_at_its_row() {
        let pred = |odd: i64| format!("SELECT id FROM t WHERE IFF(id = {odd}, k, {E} > 8)");
        // Row 130 yields an integer where a condition is expected, row 137
        // divides by zero: the earlier row is the one reported.
        let db = table(&[137], &[], &[], &[]);
        let err = agreed(&db, &pred(130), true).unwrap_err();
        assert!(err.contains("expected a boolean condition"), "{err}");
        let err = agreed(&db, &pred(150), true).unwrap_err();
        assert!(err.contains("division by zero"), "{err}");
    }

    #[test]
    fn an_aggregate_reports_accumulator_and_expression_errors_in_row_order() {
        // AVG folds serially; BOOLAND_AGG folds per batch and merges.
        for (agg, bad_v, bad_b, acc_err) in [
            ("AVG(v)", true, false, "AVG expects numbers"),
            ("BOOLAND_AGG(b)", false, true, "BOOLAND_AGG expects booleans"),
        ] {
            let plant = |acc_at: i64, expr_at: i64| {
                let acc = [acc_at];
                table(
                    &[expr_at],
                    &[],
                    if bad_v { &acc } else { &[] },
                    if bad_b { &acc } else { &[] },
                )
            };
            for sql in [
                format!("SELECT {agg}, MAX({E}) FROM t"),
                format!("SELECT id % 5 AS g, {agg}, MAX({E}) FROM t GROUP BY id % 5"),
            ] {
                // The accumulator fails on an earlier row of the batch in
                // which the expression fails.
                let err = agreed(&plant(130, 137), &sql, true).unwrap_err();
                assert!(err.contains(acc_err), "{sql}: {err}");
                // The reverse.
                let err = agreed(&plant(150, 137), &sql, true).unwrap_err();
                assert!(err.contains("division by zero"), "{sql}: {err}");
                // Both on one row: the row's expressions are evaluated before
                // its accumulators are updated.
                let err = agreed(&plant(137, 137), &sql, true).unwrap_err();
                assert!(err.contains("division by zero"), "{sql}: {err}");
            }
        }
    }

    fn ints(rows: &[Vec<Variant>], col: usize) -> Vec<i64> {
        rows.iter().map(|r| r[col].as_i64().expect("an integer")).collect()
    }

    /// `SEQ8()` outside a projection reads one counter in serial row order,
    /// whatever the producer and the thread count. The values are those of
    /// commit a3db6e2, which ran these shapes through serial twins of the
    /// filter and the flatten and through a second join.
    #[test]
    fn volatile_expressions_outside_projections_number_rows_serially() {
        let db = table(&[], &[], &[], &[]);
        for optimize in [true, false] {
            // A filter over a flatten: the first three flattened rows.
            let rows = agreed(
                &db,
                "SELECT id, f.value FROM t, LATERAL FLATTEN(INPUT => arr) f WHERE SEQ8() < 3",
                optimize,
            )
            .unwrap();
            assert_eq!(ints(&rows, 0), [0, 0, 1]);
            assert_eq!(ints(&rows, 1), [0, 1, 1]);
            // A residual in a join's ON: every other candidate pair, in left
            // row order.
            let rows = agreed(
                &db,
                "SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.id AND SEQ8() % 2 = 0",
                optimize,
            )
            .unwrap();
            assert_eq!(ints(&rows, 0), (0..ROWS).step_by(2).collect::<Vec<_>>());
            assert_eq!(ints(&rows, 1), ints(&rows, 0));
            let rows = agreed(
                &db,
                "SELECT a.id, b.id FROM t a LEFT OUTER JOIN t b ON a.id = b.id AND SEQ8() >= 300",
                optimize,
            )
            .unwrap();
            assert_eq!(ints(&rows, 0), (0..ROWS).collect::<Vec<_>>());
            assert!(rows[..300].iter().all(|r| r[1].is_null()), "the first 300 pairs fail");
            assert_eq!(ints(&rows[300..], 1), (300..ROWS).collect::<Vec<_>>());
            // Hash keys: the right rows are numbered first, in row order,
            // then the left rows. Right row j carries 2j + 80, left row i
            // its id plus 320 + i.
            let rows = agreed(
                &db,
                "SELECT a.id, b.id FROM t a JOIN t b ON a.id + SEQ8() = b.id + SEQ8() + 80",
                optimize,
            )
            .unwrap();
            assert_eq!(ints(&rows, 0), (0..200).collect::<Vec<_>>());
            assert_eq!(ints(&rows, 1), (120..ROWS).collect::<Vec<_>>());
            // Sort keys, a flatten input and an aggregate argument.
            let rows = agreed(&db, "SELECT id FROM t ORDER BY SEQ8() DESC", optimize).unwrap();
            assert_eq!(ints(&rows, 0), (0..ROWS).rev().collect::<Vec<_>>());
            let rows = agreed(
                &db,
                "SELECT id, f.value FROM t, LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT(SEQ8())) f",
                optimize,
            )
            .unwrap();
            assert_eq!(ints(&rows, 0), (0..ROWS).collect::<Vec<_>>());
            assert_eq!(ints(&rows, 1), ints(&rows, 0));
            // A filter above that flatten stays above: all 320 rows are
            // numbered, then those from 200 up are kept.
            let rows = agreed(
                &db,
                "SELECT id, f.value FROM t, LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT(SEQ8())) f \
                 WHERE id >= 200",
                optimize,
            )
            .unwrap();
            assert_eq!(ints(&rows, 0), (200..ROWS).collect::<Vec<_>>());
            assert_eq!(ints(&rows, 1), ints(&rows, 0));
            let rows = agreed(&db, "SELECT SUM(SEQ8()), MAX(id - SEQ8()) FROM t", optimize).unwrap();
            // Two calls per row: 2r and 2r + 1.
            assert_eq!(rows, [[Variant::Int(ROWS * (ROWS - 1)), Variant::Int(-1)]]);
        }
    }
}

/// The contracts of the pipeline driver: a chain of filters, projections and
/// flattens runs to its breaker morsel by morsel, piece by piece.
mod pipelines {
    use super::producers::{agreed, table};
    use snowdb::exec::pipeline::BATCH_ROWS;
    use snowdb::storage::{ColumnDef, ColumnType};
    use snowdb::{Database, OpMetrics, QueryOptions, Variant};

    /// `FLATTEN -> FILTER -> Project(SEQ8()) -> FLATTEN(SEQ) -> GROUP BY`: two
    /// stages number rows from a prefix sum, so each starts a pipeline of its
    /// own, and the aggregate folds the last one per worker. Rows, group
    /// order and `ARRAY_AGG` order are those of one thread, optimizer on or
    /// off, under either producer.
    #[test]
    fn numbered_rows_through_two_flattens_are_identical_at_any_thread_count() {
        let db = table(&[], &[], &[], &[]);
        let sql = "SELECT g.seq % 7 AS k, COUNT(*) AS n, MIN(u.rid) AS lo, MAX(g.value + u.v) AS hi, \
                          ARRAY_AGG(g.index + u.rid) AS ix \
                   FROM (SELECT SEQ8() AS rid, id, f.value AS v, arr \
                         FROM t, LATERAL FLATTEN(INPUT => arr) f WHERE f.value % 3 <> 0) u, \
                        LATERAL FLATTEN(INPUT => u.arr) g \
                   GROUP BY g.seq % 7";
        let rows = agreed(&db, sql, true).unwrap();
        assert_eq!(agreed(&db, sql, false).unwrap(), rows);
        // 640 flattened values, 427 of them not divisible by 3, two items each.
        assert_eq!(rows.len(), 7);
        assert_eq!(rows.iter().map(|r| r[1].as_i64().unwrap()).sum::<i64>(), 854);
        // Group `k` is first seen at `rid = k`; the second flatten's SEQ is
        // that row number again.
        for (k, row) in rows.iter().enumerate() {
            assert_eq!((&row[0], &row[2]), (&Variant::Int(k as i64), &Variant::Int(k as i64)));
        }
    }

    /// `E` over the rows of a LIMIT: the morsels are its 64-row batches.
    const LIMITED: &str = "(SELECT * FROM t LIMIT 1000)";

    #[test]
    fn two_failing_stages_report_the_lowest_morsel_then_the_upstream_stage() {
        let sql = format!("SELECT id, s::INT AS n FROM {LIMITED} WHERE 100 / k > 0");
        for optimize in [true, false] {
            // The projection fails in morsel 1, the filter below it in morsel
            // 3: the lowest morsel wins, not the upstream operator.
            let err = agreed(&table(&[200], &[70], &[], &[]), &sql, optimize).unwrap_err();
            assert!(!err.contains("division by zero"), "optimize={optimize}: {err}");
            let err = agreed(&table(&[70], &[200], &[], &[]), &sql, optimize).unwrap_err();
            assert!(err.contains("division by zero"), "optimize={optimize}: {err}");
            // Both in morsel 1: the filter sees the whole batch first, so its
            // later row beats the projection's earlier one.
            let err = agreed(&table(&[100], &[70], &[], &[]), &sql, optimize).unwrap_err();
            assert!(err.contains("division by zero"), "optimize={optimize}: {err}");
        }
    }

    #[test]
    fn an_accumulator_error_in_an_earlier_morsel_beats_a_stage_error_in_a_later_one() {
        let sql = format!(
            "SELECT BOOLAND_AGG(b) FROM (SELECT b, 100 / k AS e FROM {LIMITED}) WHERE e >= 0"
        );
        for optimize in [true, false] {
            let err = agreed(&table(&[200], &[], &[], &[70]), &sql, optimize).unwrap_err();
            assert!(err.contains("BOOLAND_AGG expects booleans"), "optimize={optimize}: {err}");
            let err = agreed(&table(&[70], &[], &[], &[200]), &sql, optimize).unwrap_err();
            assert!(err.contains("division by zero"), "optimize={optimize}: {err}");
            // In one morsel the stage is upstream of the fold.
            let err = agreed(&table(&[100], &[], &[], &[70]), &sql, optimize).unwrap_err();
            assert!(err.contains("division by zero"), "optimize={optimize}: {err}");
        }
    }

    /// A group whose rows lie in several workers' morsel ranges: the 320 rows
    /// are five 64-row morsels, ranges `[0, 2) [2, 5)` at two workers and one
    /// morsel each at eight, and the groups of `id - id % 100` span the
    /// boundaries at rows 128, 192 and 256. The partials merge to the
    /// accumulators and the `ARRAY_AGG` order of one thread, and a NULL key
    /// spanning them is one group.
    #[test]
    fn a_group_split_across_workers_merges_to_the_serial_accumulators() {
        let db = table(&[], &[], &[], &[]);
        let sql = "SELECT IFF(id BETWEEN 200 AND 299, NULL, id - id % 100) AS g, COUNT(*), \
                          MIN(id), MAX(id), ANY_VALUE(id), ARRAY_AGG(id) \
                   FROM t GROUP BY IFF(id BETWEEN 200 AND 299, NULL, id - id % 100)";
        let rows = agreed(&db, sql, true).unwrap();
        assert_eq!(agreed(&db, sql, false).unwrap(), rows);
        let groups: [(Variant, i64, i64); 4] =
            [(Variant::Int(0), 0, 100), (Variant::Int(100), 100, 200), (Variant::Null, 200, 300), (Variant::Int(300), 300, 320)];
        assert_eq!(rows.len(), groups.len());
        for (row, (g, lo, hi)) in rows.iter().zip(groups) {
            let ids: Vec<Variant> = (lo..hi).map(Variant::Int).collect();
            let want =
                [g, Variant::Int(hi - lo), Variant::Int(lo), Variant::Int(hi - 1), Variant::Int(lo), Variant::array(ids)];
            assert_eq!(format!("{row:?}"), format!("{want:?}"));
        }
    }

    /// DISTINCT keeps the first occurrence of every row, in order, at any
    /// thread count: `1.0` before `1` keeps `1.0`, NULL is one row, `-0.0`
    /// and `0` are one. Four 3-row morsels, so two and eight workers each
    /// merge partial tables.
    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        let db = Database::new();
        let k = [
            Variant::Null,
            Variant::Float(1.0),
            Variant::Int(1),
            Variant::Int(2),
            Variant::Null,
            Variant::Float(2.0),
            Variant::Float(-0.0),
            Variant::Int(0),
            Variant::str("1"),
            Variant::Float(0.0),
            Variant::Int(1),
            Variant::Null,
        ];
        db.load_table(
            "t",
            vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("K", ColumnType::Variant)],
            k.iter().enumerate().map(|(i, k)| vec![Variant::Int(i as i64), k.clone()]),
            3,
        )
        .unwrap();
        let rows = agreed(&db, "SELECT DISTINCT k FROM t", true).unwrap();
        assert_eq!(format!("{rows:?}"), r#"[[null], [1.0], [2], [-0.0], ["1"]]"#);
        let rows = agreed(&db, "SELECT DISTINCT k, id % 2 = 0 FROM t", true).unwrap();
        assert_eq!(
            format!("{rows:?}"),
            r#"[[null, true], [1.0, false], [1, true], [2, false], [-0.0, true], [0, false], ["1", true], [null, false]]"#
        );
    }

    /// `t`: 192 rows in four partitions, each with `ARR` = `[0 .. 12)`, whose
    /// values are their indexes.
    fn twelve_items() -> Database {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("ARR", ColumnType::Variant)],
            (0..192).map(|i| {
                vec![Variant::Int(i), Variant::Array((0..12).map(Variant::Int).collect::<Vec<_>>().into())]
            }),
            48,
        )
        .unwrap();
        db
    }

    /// The ADL q6 shape: three flattens of one array with filters between. A
    /// partition blows up to 48 * 12^3 rows, and no stage ever holds more
    /// than one piece of it. The filters compare values, not indexes, so that
    /// no flatten is bounded and the blow-up happens.
    #[test]
    fn a_triple_self_flatten_never_holds_more_than_one_piece() {
        let db = twelve_items();
        let sql = "SELECT COUNT(*), MAX(a.value + b.value + c.value) FROM t, \
                   LATERAL FLATTEN(INPUT => arr) a, LATERAL FLATTEN(INPUT => arr) b, \
                   LATERAL FLATTEN(INPUT => arr) c WHERE a.value < b.value AND b.value < c.value";
        for threads in [1, 2, 8] {
            let opts = QueryOptions { threads: Some(threads), ..Default::default() };
            let r = db.query_with(sql, &opts).unwrap();
            // C(12, 3) triples per row.
            assert_eq!(r.rows, [[Variant::Int(192 * 220), Variant::Int(9 + 10 + 11)]]);
            let metrics = r.profile.metrics.unwrap();
            let ops: Vec<&OpMetrics> = metrics.operators().into_iter().map(|(_, m)| m).collect();
            let flattens: Vec<_> = ops.iter().filter(|m| m.name == "Flatten").collect();
            assert_eq!(flattens.len(), 3);
            assert!(flattens.iter().any(|m| m.rows_out > 20 * BATCH_ROWS as u64), "{flattens:?}");
            let pipe = flattens[0].pipeline;
            assert!(pipe > 0);
            for m in ops.iter().filter(|m| m.pipeline == pipe) {
                assert!(m.peak_rows <= BATCH_ROWS as u64, "threads={threads}: {m:?}");
            }
            // The scan, the stages and the aggregate ran as one pipeline.
            assert!(ops.iter().all(|m| m.pipeline == pipe), "threads={threads}: {metrics:?}");
            let runs = metrics.pipelines();
            assert_eq!(runs.len(), 1);
            assert_eq!((runs[0].1, runs[0].2.morsels, runs[0].2.workers), ("Aggregate", 4, threads.min(4)));
        }
    }

    /// The same triples by index: each comparison is the bound of the
    /// flatten it reads (`from=`), so the last flatten emits exactly the
    /// 192 * C(12, 3) triples, the middle one the 192 * C(12, 2) pairs, and
    /// no filter is left. The rows are the value form's, under either
    /// producer, at 1, 2 and 8 threads, optimizer on and off.
    #[test]
    fn a_triple_self_flatten_by_index_emits_only_its_triples() {
        let db = twelve_items();
        let sql = "SELECT COUNT(*), MAX(a.value + b.value + c.value) FROM t, \
                   LATERAL FLATTEN(INPUT => arr) a, LATERAL FLATTEN(INPUT => arr) b, \
                   LATERAL FLATTEN(INPUT => arr) c WHERE a.index < b.index AND b.index < c.index";
        let want = vec![vec![Variant::Int(192 * 220), Variant::Int(9 + 10 + 11)]];
        for optimize in [true, false] {
            assert_eq!(agreed(&db, sql, optimize).unwrap(), want, "optimize={optimize}");
        }
        let plan = db.explain(sql).unwrap();
        assert_eq!(plan.matches(" from=(").count(), 2, "{plan}");
        assert!(!plan.contains("Filter"), "{plan}");
        for threads in [1, 2, 8] {
            let opts = QueryOptions { threads: Some(threads), ..Default::default() };
            let metrics = db.query_with(sql, &opts).unwrap().profile.metrics.unwrap();
            let rows: Vec<u64> = metrics
                .operators()
                .into_iter()
                .filter(|(_, m)| m.name == "Flatten")
                .map(|(_, m)| m.rows_out)
                .collect();
            assert_eq!(rows, [192 * 220, 192 * 66, 192 * 12], "threads={threads}");
        }
    }

    /// A join runs its build (right) side before its probe side: when both
    /// raise, the build side's error is the one reported, wherever its row.
    #[test]
    fn a_join_whose_inputs_both_raise_reports_the_build_sides_error() {
        let sql = "SELECT a.id, a.e, b.n FROM (SELECT id, 100 / k AS e FROM t) a \
                   JOIN (SELECT id, s::INT AS n FROM t) b ON a.id = b.id";
        for optimize in [true, false] {
            for (zero_k, bad_s) in [([70], [200]), ([200], [70])] {
                let err = agreed(&table(&zero_k, &bad_s, &[], &[]), sql, optimize).unwrap_err();
                assert!(!err.contains("division by zero"), "optimize={optimize} k={zero_k:?}: {err}");
            }
        }
    }

    /// Inside a probe pipeline the lowest source morsel wins across every
    /// stage, the probe included: a residual raising on morsel 1 beats the
    /// probe-side filter below it raising on morsel 3, and the other way
    /// round.
    #[test]
    fn a_residual_and_a_probe_side_filter_report_the_lowest_morsel() {
        let sql = format!(
            "SELECT a.id, b.id FROM (SELECT * FROM {LIMITED} WHERE 100 / k > 0) a \
             JOIN t b ON a.id = b.id AND a.s::INT + b.id > 0"
        );
        for optimize in [true, false] {
            let err = agreed(&table(&[200], &[70], &[], &[]), &sql, optimize).unwrap_err();
            assert!(!err.contains("division by zero"), "optimize={optimize}: {err}");
            let err = agreed(&table(&[70], &[200], &[], &[]), &sql, optimize).unwrap_err();
            assert!(err.contains("division by zero"), "optimize={optimize}: {err}");
        }
    }

    /// Each row and each nanosecond is counted once: a join takes in its
    /// probe rows and its build rows, and the operators of a pipeline are
    /// busy at most as long as its workers were there — its wall time, which
    /// includes building the tables its probes read.
    #[test]
    fn a_pipeline_counts_each_row_and_each_nanosecond_once() {
        let db = table(&[], &[], &[], &[]);
        for sql in [
            "SELECT a.id % 5 AS g, COUNT(*) AS n, SUM(b.id) AS s FROM t a JOIN t b ON a.id = b.id \
             GROUP BY a.id % 5 ORDER BY g",
            "SELECT a.id % 5 AS g, COUNT(*) AS n, MIN(b.k) AS m FROM t a \
             LEFT OUTER JOIN (SELECT * FROM t WHERE id % 2 = 0) b ON a.id = b.id GROUP BY a.id % 5",
            "SELECT a.id, b.k FROM t a JOIN t b ON a.id = b.id ORDER BY b.k DESC, a.id",
        ] {
            for threads in [1, 2] {
                let opts = QueryOptions { threads: Some(threads), ..Default::default() };
                let metrics = db.query_with(sql, &opts).unwrap().profile.metrics.unwrap();
                let ops: Vec<&OpMetrics> = metrics.operators().into_iter().map(|(_, m)| m).collect();
                let join = ops.iter().find(|m| m.name.ends_with("Join")).expect("a join");
                let right = if sql.contains("LEFT") { 160 } else { 320 };
                assert_eq!(join.rows_in, 320 + right, "threads={threads}: {sql}");
                for (id, top, run) in metrics.pipelines() {
                    let busy: std::time::Duration =
                        ops.iter().filter(|m| m.pipeline == id).map(|m| m.busy).sum();
                    assert!(
                        busy <= run.wall * run.workers as u32,
                        "threads={threads} pipeline {id} ({top}): busy {busy:?} > {} x {:?}: {sql}",
                        run.workers,
                        run.wall
                    );
                }
            }
        }
    }

    /// ADL q6 and q7 under the JOIN-based strategy read one shared upstream
    /// on both sides of a join. The build side runs first, so it is where the upstream is
    /// produced; were the producer the probe side, the build side would
    /// find the slot empty and fail with a typed internal error.
    #[test]
    fn join_based_adl_queries_stream_over_their_shared_upstream() {
        use std::sync::Arc;

        use jsoniq_core::interp::{DatabaseCollections, Interpreter};
        use jsoniq_core::snowflake::{translate_query, NestedStrategy};
        use snowdb::variant::cmp_variants;

        let db = Database::new();
        let events = adl::AdlConfig { events: 200, seed: 1234, partition_rows: 32 };
        adl::generator::load_into(&db, "hep", &events);
        db.execute("SET STATEMENT_TIMEOUT_IN_SECONDS = 10").unwrap();
        let db = Arc::new(db);
        let sorted = |mut rows: Vec<Variant>| {
            rows.sort_by(cmp_variants);
            rows
        };
        for q in adl::queries::queries("hep").into_iter().filter(|q| q.id == "q6" || q.id == "q7") {
            let want = Interpreter::new(&DatabaseCollections { db: &db }).eval_query(&q.jsoniq).unwrap();
            let sql = translate_query(db.clone(), &q.jsoniq, NestedStrategy::JoinBased)
                .unwrap()
                .sql()
                .to_string();
            assert!(db.explain(&sql).unwrap().contains("-> shared #"), "{}: nothing shared", q.id);
            for vectorize in [true, false] {
                for threads in [1, 2, 8] {
                    let opts = QueryOptions { threads: Some(threads), vectorize, ..Default::default() };
                    let rows = db.query_with(&sql, &opts).unwrap_or_else(|e| panic!("{}: {e}", q.id)).rows;
                    let got = sorted(rows.into_iter().map(|mut r| r.remove(0)).collect());
                    let cfg = format!("{} threads={threads} vectorize={vectorize}", q.id);
                    assert_eq!(got, sorted(want.clone()), "{cfg}");
                }
            }
        }
    }
}

/// The table a join builds: indexed by value for a narrow integer key,
/// hashed otherwise — decided from the build input, the same at any thread
/// count — reported by `EXPLAIN ANALYZE` and charged to the statement's
/// memory budget with its index.
mod join_tables {
    use std::sync::Arc;

    use snowdb::exec::metrics::{JoinBuild, TableIndex};
    use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
    use snowdb::{Database, OpMetrics, QueryGovernor, QueryOptions, SnowError, Variant};

    /// The name of the first scan under `m`, depth first.
    fn scan_under(m: &OpMetrics) -> Option<&str> {
        m.operators().into_iter().map(|(_, op)| op.name.as_str()).find(|n| n.starts_with("Scan "))
    }

    /// Every join of `m` with the table its build side scans.
    fn builds(m: &OpMetrics) -> Vec<(String, JoinBuild)> {
        m.operators()
            .into_iter()
            .filter_map(|(_, op)| {
                let build = op.join_build?;
                Some((scan_under(&op.children[1])?.to_string(), build))
            })
            .collect()
    }

    /// At benchmark size, SSB q3.1 probes `SUPPLIER` (keys 1..512) and
    /// `CUSTOMER` (1..4096) by value and hashes its 1992–1997 `DDATE` keys
    /// (`yyyymmdd`, 51 130 apart over 2 190 rows); plain `EXPLAIN` says
    /// nothing of it.
    #[test]
    fn q3_1_indexes_its_dense_dimensions_and_hashes_its_dates() {
        let db = Database::new();
        ssb::load_ssb(&db, &ssb::SsbConfig { lineorders: 32_768, seed: 42, ..Default::default() });
        let q = ssb::query("q3.1");
        for threads in [1, 2] {
            let opts = QueryOptions { threads: Some(threads), ..Default::default() };
            let metrics = db.query_with(&q.sql, &opts).expect("runs").profile.metrics.expect("metrics");
            let mut found = builds(&metrics);
            found.sort_by(|a, b| a.0.cmp(&b.0));
            let shapes: Vec<(&str, bool)> = found
                .iter()
                .map(|(scan, b)| (scan.as_str(), matches!(b.index, Some(TableIndex::Dense { .. }))))
                .collect();
            assert_eq!(
                shapes,
                [("Scan CUSTOMER", true), ("Scan DDATE", false), ("Scan SUPPLIER", true)],
                "threads={threads}: {found:?}"
            );
            let (_, dates) = &found[1];
            assert_eq!(dates.rows, 6 * 365);
            for (_, b) in &found {
                if let Some(TableIndex::Dense { lo, hi }) = b.index {
                    assert!(lo >= 1 && hi <= 4096 && lo <= hi, "{b:?}");
                }
            }
        }
        let analyzed = crate::common::msg(db.execute(&format!("EXPLAIN ANALYZE {}", q.sql)).unwrap());
        assert_eq!(analyzed.matches(" table=dense[").count(), 2, "{analyzed}");
        assert_eq!(analyzed.matches(" table=hash build=2190 ").count(), 1, "{analyzed}");
        let plain = crate::common::msg(db.execute(&format!("EXPLAIN {}", q.sql)).unwrap());
        assert!(!plain.contains("table=") && !plain.contains("build="), "{plain}");
    }

    /// A 1 000-row build side keyed 0, 8, …, 7 992 — a dense table of
    /// 7 993 heads — under a memory limit between what its rows cost and
    /// what they and the index cost: the index's charge trips the budget, at
    /// the join, at any thread count.
    #[test]
    fn a_join_charges_its_index_to_the_memory_budget() {
        let db = Database::new();
        let int = |n: &str| ColumnDef::new(n, ColumnType::Int);
        let dim = (0..1000).map(|i| vec![Variant::Int(8 * i), Variant::Int(i)]);
        db.load_table("dim", vec![int("K"), int("V")], dim, DEFAULT_PARTITION_ROWS).unwrap();
        let fact = [vec![Variant::Int(16)]];
        db.load_table("fact", vec![int("K")], fact, DEFAULT_PARTITION_ROWS).unwrap();
        let sql = "SELECT f.k, d.v FROM fact f LEFT OUTER JOIN dim d ON f.k = d.k";
        let index = (7993 + 1000) * 4;
        for threads in [1, 2] {
            let opts = QueryOptions { threads: Some(threads), ..Default::default() };
            let gov = |limit| Arc::new(QueryGovernor::unbounded().with_memory_limit(limit));
            let ok = db.query_governed(sql, &opts, gov(u64::MAX)).expect("runs");
            assert_eq!(ok.rows, [[Variant::Int(16), Variant::Int(2)]]);
            let total = ok.profile.governed.expect("armed").memory_charged;
            let metrics = ok.profile.metrics.expect("metrics");
            let build = builds(&metrics)[0].1;
            assert_eq!(build, JoinBuild { rows: 1000, index: Some(TableIndex::Dense { lo: 0, hi: 7992 }) });
            let limit = total - index / 2;
            let failure = db.query_governed(sql, &opts, gov(limit)).expect_err("trips");
            let SnowError::ResourceExhausted(trip) = &failure.error else {
                panic!("threads={threads}: {:?}", failure.error)
            };
            assert_eq!((trip.resource.as_str(), trip.op.as_str()), ("memory", "Join"), "threads={threads}");
            // The rows alone fit; the rows and the index do not.
            assert!(trip.used - index <= limit && trip.used > limit, "threads={threads}: {trip:?}");
        }
    }
}

/// The `KEEP` gate's run-preserving filters (`per=` in `EXPLAIN`) pass a
/// row of every run of a row id in each batch, so where a run spans a batch
/// boundary more rows pass at one thread count than at another, and its
/// bounded `OUTER` flattens pad the rows left with no item: generated
/// ADL q7, q8 and q6 under the flag-column strategy must answer alike at 1,
/// 2 and 8 threads, under either producer, with the optimizer on and off.
mod keep_gate {
    use std::sync::Arc;

    use jsoniq_core::snowflake::{translate_query, NestedStrategy};
    use snowdb::{Database, QueryOptions};

    #[test]
    fn gated_adl_queries_answer_alike_at_every_thread_count_producer_and_optimizer() {
        let db = Database::new();
        let events = adl::AdlConfig { events: 300, seed: 7, partition_rows: 32 };
        adl::generator::load_into(&db, "hep", &events);
        let db = Arc::new(db);
        for q in adl::queries::queries("hep").into_iter().filter(|q| ["q6", "q7", "q8"].contains(&q.id)) {
            let sql = translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
                .unwrap()
                .sql()
                .to_string();
            let plan = db.explain(&sql).unwrap();
            assert!(plan.contains(" per=#") || plan.contains("Flatten OUTER input=#0 from=("), "{}: no KEEP gate", q.id);
            let mut want = None;
            for optimize in [true, false] {
                for vectorize in [true, false] {
                    for threads in [1, 2, 8] {
                        let opts =
                            QueryOptions { optimize, vectorize, threads: Some(threads), ..Default::default() };
                        let cfg = format!("{} optimize={optimize} vectorize={vectorize} threads={threads}", q.id);
                        let rows = db.query_with(&sql, &opts).unwrap_or_else(|e| panic!("{cfg}: {e}")).rows;
                        assert!(!rows.is_empty(), "{cfg}");
                        assert_eq!(&rows, want.get_or_insert_with(|| rows.clone()), "{cfg}");
                    }
                }
            }
        }
    }
}
