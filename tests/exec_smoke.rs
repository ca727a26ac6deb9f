//! Tier-1 smoke for the executor's two producers of expression columns: the
//! compiled expression DAG (`vectorize` on) and the row evaluator (off) feed
//! the same operator bodies, so a statement returns the same rows, or fails
//! with the same error, under either — and for the pipeline driver under
//! them: a chain of streaming operators, join probes included, runs morsel
//! by morsel, the same rows and the same error at any thread count. The deep
//! suites (the 24-configuration lattice, `tests/parallel.rs::{producers,
//! pipelines}`, the join- and key-table property tests, the DAG
//! differential) live in `crates/snowdb/tests` and run with `cargo test
//! --workspace`. Grouped aggregates and DISTINCT keep their first-seen
//! groups, in order, at any thread count. A join on a dense integer key
//! matches by value — `3.0` meets `3`, a key outside the range meets
//! nothing — and a filter of three typed conjuncts keeps the rows the row
//! evaluator keeps. Every door a query comes in by ends in one executor and
//! one record: a query id, the plan, stage times taken inside the program,
//! the metrics — on success and on failure alike.

use std::sync::Arc;
use std::time::{Duration, Instant};

use snowq::adl::{self, generator::AdlConfig};
use snowq::snowdb::server::client::{Client, RemoteOutcome};
use snowq::snowdb::server::proto::Done;
use snowq::snowdb::StatementResult;
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::storage::{ColumnDef, ColumnType};
use snowq::snowdb::{
    serve, Database, QueryOptions, QueryProfile, QueryResult, ServerConfig, Session, SnowError,
    Variant,
};

fn run(db: &Database, sql: &str, vectorize: bool) -> Result<QueryResult, SnowError> {
    let opts = QueryOptions { vectorize, threads: Some(2), ..Default::default() };
    db.query_with(sql, &opts)
}

#[test]
fn generated_q6_returns_the_same_rows_under_either_producer() {
    let db = Database::new();
    adl::generator::load_into(&db, "hep", &AdlConfig { events: 64, seed: 1234, partition_rows: 16 });
    let db = Arc::new(db);
    let q6 = adl::queries::queries("hep").into_iter().find(|q| q.id == "q6").expect("q6");
    assert!(q6.join_based, "q6 is the JOIN-based query: SEQ8() stamps, joins, FLATTEN, ARRAY_AGG");
    let sql = translate_query(db.clone(), &q6.jsoniq, NestedStrategy::JoinBased)
        .expect("translates")
        .sql()
        .to_string();
    let by_dag = run(&db, &sql, true).expect("runs vectorized").rows;
    let by_rows = run(&db, &sql, false).expect("runs row by row").rows;
    assert!(!by_dag.is_empty());
    assert_eq!(format!("{by_dag:?}"), format!("{by_rows:?}"));
}

#[test]
fn a_raising_statement_reports_the_same_error_under_either_producer() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT, k INT)").expect("creates");
    db.execute("INSERT INTO t VALUES (1, 4), (2, 0), (3, 5)").expect("inserts");
    let sql = "SELECT id, SUM(100 / k) FROM t WHERE id > 0 GROUP BY id ORDER BY id";
    let by_dag = run(&db, sql, true).expect_err("divides by zero").to_string();
    let by_rows = run(&db, sql, false).expect_err("divides by zero").to_string();
    assert!(by_dag.contains("division by zero"), "{by_dag}");
    assert_eq!(by_dag, by_rows);
}

/// 96 rows in 16-row partitions; `100 / k` fails on row 20, `s::INT` on row 70.
fn six_morsels() -> Database {
    let db = Database::new();
    db.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("K", ColumnType::Int),
            ColumnDef::new("S", ColumnType::Str),
            ColumnDef::new("ARR", ColumnType::Variant),
        ],
        (0..96).map(|i| {
            vec![
                Variant::Int(i),
                Variant::Int(if i == 20 { 0 } else { i + 1 }),
                Variant::str(if i == 70 { "x" } else { "7" }),
                Variant::Array(vec![Variant::Int(i), Variant::Int(i + 1)].into()),
            ]
        }),
        16,
    )
    .expect("loads");
    db
}

#[test]
fn a_pipeline_returns_the_same_rows_at_any_thread_count() {
    let db = six_morsels();
    // Flatten, filter, a projection and a flatten that number rows, group by.
    let sql = "SELECT g.seq % 5 AS k, COUNT(*) AS n, MIN(u.rid) AS lo, ARRAY_AGG(g.index + u.rid) AS ix \
               FROM (SELECT SEQ8() AS rid, f.value AS v, arr \
                     FROM t, LATERAL FLATTEN(INPUT => arr) f WHERE f.value % 3 <> 0) u, \
                    LATERAL FLATTEN(INPUT => u.arr) g \
               GROUP BY g.seq % 5";
    let run = |threads, optimize| {
        let opts = QueryOptions { threads: Some(threads), optimize, ..Default::default() };
        format!("{:?}", db.query_with(sql, &opts).expect("runs").rows)
    };
    let serial = run(1, true);
    // Group `k` is first seen at `rid = k`: 52 rows of it, the lowest 0.
    assert!(serial.starts_with("[[0, 52, 0, [0,1,5,6,"), "{serial}");
    for threads in [1, 2, 8] {
        assert_eq!(run(threads, true), serial, "threads={threads}");
        assert_eq!(run(threads, false), serial, "threads={threads}, unoptimized");
    }
}

#[test]
fn two_failing_stages_of_a_pipeline_report_the_lowest_morsel() {
    let db = six_morsels();
    // The filter fails in the fifth batch of the LIMIT's output, the
    // projection above it in the second.
    let sql = "SELECT id, 100 / k FROM (SELECT * FROM t LIMIT 1000) WHERE s::INT > 0";
    for vectorize in [true, false] {
        for threads in [1, 2, 8] {
            let opts =
                QueryOptions { threads: Some(threads), vectorize, ..Default::default() };
            let err = db.query_with(sql, &opts).expect_err("fails").to_string();
            assert!(err.contains("division by zero"), "vectorize={vectorize} threads={threads}: {err}");
        }
    }
}

/// A star join is one pipeline from the fact scan up: SSB q3.1's
/// `LINEORDER` scan, its three join probes and the projection above them
/// share one `pipe=` id; each dimension is built by a pipeline of its own
/// before it.
#[test]
fn a_star_join_probes_its_dimensions_in_the_fact_tables_pipeline() {
    let db = Database::new();
    snowq::ssb::load_ssb_tiny(&db, &snowq::ssb::SsbConfig { partition_rows: 8, ..Default::default() });
    db.set_threads(Some(2));
    let q = snowq::ssb::query("q3.1");
    let analyzed = db.execute(&format!("EXPLAIN ANALYZE {}", q.sql)).expect("runs");
    let StatementResult::Message(plan) = analyzed else { panic!("EXPLAIN ANALYZE renders a message") };
    let pipe = |line: &str| {
        line.rsplit(" pipe=").next().and_then(|p| p.strip_suffix(']')).map(str::to_owned)
    };
    let lines: Vec<&str> = plan.lines().map(str::trim_start).collect();
    let scan = lines.iter().find(|l| l.starts_with("Scan LINEORDER")).expect("the fact scan");
    let joins: Vec<&&str> = lines.iter().filter(|l| l.starts_with("InnerJoin")).collect();
    let project = lines.iter().find(|l| l.starts_with("Project")).expect("a projection");
    assert_eq!(joins.len(), 3, "{plan}");
    let fact = pipe(scan).expect("the scan ran in a pipeline");
    for line in joins.iter().map(|l| **l).chain([*project]) {
        assert_eq!(pipe(line).as_ref(), Some(&fact), "{line}\n{plan}");
    }
    // The pipeline is named after the projection it ends at.
    assert!(plan.contains(&format!("-- pipeline {fact} (Project)")), "{plan}");
}

/// A join executes its build (right) side first: when both inputs raise,
/// the build side's error is reported, even where the probe side fails on
/// an earlier row.
#[test]
fn a_join_whose_inputs_both_raise_reports_the_build_sides_error() {
    let db = six_morsels();
    let sql = "SELECT a.id, a.e, b.n FROM (SELECT id, 100 / k AS e FROM t) a \
               JOIN (SELECT id, s::INT AS n FROM t) b ON a.id = b.id";
    for vectorize in [true, false] {
        for threads in [1, 2, 8] {
            let opts =
                QueryOptions { threads: Some(threads), vectorize, ..Default::default() };
            let err = db.query_with(sql, &opts).expect_err("fails").to_string();
            assert!(!err.contains("division by zero"), "vectorize={vectorize} threads={threads}: {err}");
        }
    }
}

/// Two 6-row partitions, each sealed with its own string dictionary; `K`
/// holds NULLs, `1` and `1.0` boxed. Group keys and DISTINCT rows come out
/// in first-seen order with their first-seen cells.
fn two_dictionaries() -> Database {
    let k = [
        Variant::Int(1),
        Variant::Null,
        Variant::Float(1.0),
        Variant::Int(2),
        Variant::Null,
        Variant::Int(1),
        Variant::Float(1.0),
        Variant::Null,
        Variant::Float(2.0),
        Variant::Int(1),
        Variant::Null,
        Variant::Int(3),
    ];
    let s = ["north", "south", "north", "south", "south", "north", "south", "south", "east", "north", "south", "east"];
    let db = Database::new();
    db.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("K", ColumnType::Variant),
            ColumnDef::new("S", ColumnType::Str),
        ],
        (0..12).map(|i| vec![Variant::Int(i as i64), k[i].clone(), Variant::str(format!("{}-bound", s[i]))]),
        6,
    )
    .expect("loads");
    let table = db.table("t").expect("the table");
    for part in table.partitions() {
        let coded = part.read_column(2).expect("reads");
        assert!(matches!(*coded, snowq::snowdb::column::ColumnVec::DictStr { .. }), "sealed plain");
    }
    db
}

/// Runs `sql` at 1 and 2 threads under either producer and returns the one
/// `Debug` text all four agree on.
fn agreed_rows(db: &Database, sql: &str) -> String {
    let mut seen: Option<String> = None;
    for threads in [1, 2] {
        for vectorize in [true, false] {
            let opts = QueryOptions { threads: Some(threads), vectorize, ..Default::default() };
            let rows = format!("{:?}", db.query_with(sql, &opts).expect("runs").rows);
            match &seen {
                None => seen = Some(rows),
                Some(first) => assert_eq!(&rows, first, "threads={threads} vectorize={vectorize}: {sql}"),
            }
        }
    }
    seen.expect("ran")
}

#[test]
fn a_grouped_aggregate_over_two_dictionaries_returns_its_first_seen_groups() {
    let db = two_dictionaries();
    assert_eq!(
        agreed_rows(&db, "SELECT k, COUNT(*), ARRAY_AGG(id), ANY_VALUE(s) FROM t GROUP BY k"),
        r#"[[1, 5, [0,2,5,6,9], "north-bound"], [null, 4, [1,4,7,10], "south-bound"], [2, 2, [3,8], "south-bound"], [3, 1, [11], "east-bound"]]"#
    );
    assert_eq!(
        agreed_rows(&db, "SELECT s, k, COUNT(*) FROM t GROUP BY s, k"),
        r#"[["north-bound", 1, 4], ["south-bound", null, 4], ["south-bound", 2, 1], ["south-bound", 1.0, 1], ["east-bound", 2.0, 1], ["east-bound", 3, 1]]"#
    );
}

#[test]
fn distinct_returns_first_occurrences_in_order() {
    let db = two_dictionaries();
    assert_eq!(agreed_rows(&db, "SELECT DISTINCT k FROM t"), "[[1], [null], [2], [3]]");
    assert_eq!(
        agreed_rows(&db, "SELECT DISTINCT s, k FROM t"),
        r#"[["north-bound", 1], ["south-bound", null], ["south-bound", 2], ["south-bound", 1.0], ["east-bound", 2.0], ["east-bound", 3]]"#
    );
}

/// Group keys of 96 rows in 16-row partitions, by the order they arrive
/// in, beside a records column `R` (NULL every fifth row).
const KEY_SHAPES: [(&str, ColumnType); 8] = [
    ("ASC", ColumnType::Int),
    ("DESC", ColumnType::Int),
    ("MOD7", ColumnType::Int),
    ("REPEAT", ColumnType::Int),
    ("NULLS", ColumnType::Variant),
    ("FLOATS", ColumnType::Float),
    ("ONE_SORTED", ColumnType::Int),
    ("STRADDLE", ColumnType::Int),
];

fn key_shapes_row(i: i64) -> Vec<Variant> {
    let record = match i % 5 {
        0 => Variant::Null,
        _ => {
            let mut o = snowq::snowdb::variant::Object::new();
            o.insert("Q", Variant::Int(i));
            o.insert("PT", Variant::Float(i as f64 / 4.0));
            Variant::object(o)
        }
    };
    vec![
        Variant::Int(i),
        Variant::Int(i / 3),
        Variant::Int(100 - i / 3),
        Variant::Int(i % 7),
        // 1, 2, 1, 2, … in runs of four.
        Variant::Int((i / 4) % 2 + 1),
        if i % 6 < 2 {
            Variant::Null
        } else {
            Variant::Int(i / 6)
        },
        Variant::Float((i / 3) as f64),
        // Ascending in the first partition only, then descending through it.
        Variant::Int(if i < 16 { i / 2 } else { 50 - i / 2 }),
        // One group across three partitions.
        Variant::Int(i64::from(i >= 40)),
        record,
    ]
}

/// Whichever order its key arrives in, a grouped aggregate returns its
/// groups in first-seen order with each group's first record and its
/// records in row order — the rows computed here — at 1, 2 and 8 threads.
/// Keys that ascend group by runs, the others in the key table.
#[test]
fn a_grouped_aggregate_returns_first_seen_groups_whatever_order_its_key_arrives_in() {
    use snowq::snowdb::exec::metrics::Grouping;
    let mut schema = vec![ColumnDef::new("ID", ColumnType::Int)];
    schema.extend(
        KEY_SHAPES
            .iter()
            .map(|&(name, ty)| ColumnDef::new(name, ty)),
    );
    schema.push(ColumnDef::new("R", ColumnType::Variant));
    let table: Vec<Vec<Variant>> = (0..96).map(key_shapes_row).collect();
    let db = Database::new();
    db.load_table("t", schema, table.clone(), 16)
        .expect("loads");
    for (k, (key, _)) in KEY_SHAPES.iter().enumerate() {
        // (key, count, first record, non-NULL records, lowest id) by first sight.
        let mut want: Vec<(Variant, i64, Variant, Vec<Variant>, i64)> = Vec::new();
        for row in &table {
            let (id, kv, r) = (row[0].as_i64().expect("an id"), &row[k + 1], &row[9]);
            let at = match want.iter().position(|g| &g.0 == kv) {
                Some(at) => at,
                None => {
                    want.push((kv.clone(), 0, r.clone(), Vec::new(), id));
                    want.len() - 1
                }
            };
            want[at].1 += 1;
            if !r.is_null() {
                want[at].3.push(r.clone());
            }
        }
        let want: Vec<Vec<Variant>> = want
            .into_iter()
            .map(|(kv, n, first, items, id)| {
                vec![
                    kv,
                    Variant::Int(n),
                    first,
                    Variant::array(items),
                    Variant::Int(id),
                ]
            })
            .collect();
        let sql = format!(
            "SELECT {key}, COUNT(*), ANY_VALUE(R), ARRAY_AGG(R), MIN(ID) FROM t GROUP BY {key}"
        );
        for threads in [1, 2, 8] {
            let result = db
                .query_with(
                    &sql,
                    &QueryOptions {
                        threads: Some(threads),
                        ..Default::default()
                    },
                )
                .expect("runs");
            assert_eq!(
                format!("{:?}", result.rows),
                format!("{want:?}"),
                "{key} at {threads} threads"
            );
            let metrics = result.profile.metrics.expect("operator metrics");
            let grouping = metrics
                .operators()
                .into_iter()
                .find_map(|(_, m)| m.grouping);
            let runs = matches!(*key, "ASC" | "STRADDLE");
            let expected = if runs {
                Grouping::Runs
            } else {
                Grouping::Hashed
            };
            assert_eq!(grouping, Some(expected), "{key} at {threads} threads");
        }
    }
}

/// A left-outer join on a dense integer key: the build side holds a
/// duplicate, a NULL and a negative key, the probe side a key past the range,
/// a NULL, and `Float` keys that equal an integer (`3.0`, `-0.0`) or none
/// (`2.5`). Matches come in build-row order, every probe row once at least.
#[test]
fn a_left_outer_join_on_a_dense_key_matches_by_value() {
    let db = Database::new();
    let names = ["three", "none", "minus two", "three again", "zero"];
    let keys = [Some(3), None, Some(-2), Some(3), Some(0)];
    db.load_table(
        "dim",
        vec![ColumnDef::new("K", ColumnType::Int), ColumnDef::new("NAME", ColumnType::Str)],
        keys.iter().zip(names).map(|(k, n)| vec![k.map_or(Variant::Null, Variant::Int), Variant::str(n)]),
        5,
    )
    .expect("loads");
    let fact = [(Some(3), Some(3.0)), (Some(40), Some(-0.0)), (None, Some(2.5)), (Some(-2), None), (Some(0), Some(99.0)), (Some(-7), Some(3.0))];
    db.load_table(
        "fact",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("K", ColumnType::Int),
            ColumnDef::new("F", ColumnType::Float),
        ],
        fact.iter().enumerate().map(|(id, (k, f))| {
            vec![Variant::Int(id as i64), k.map_or(Variant::Null, Variant::Int), f.map_or(Variant::Null, Variant::Float)]
        }),
        2,
    )
    .expect("loads");
    let on_int = "SELECT f.id, d.name FROM fact f LEFT OUTER JOIN dim d ON f.k = d.k";
    assert_eq!(
        agreed_rows(&db, on_int),
        r#"[[0, "three"], [0, "three again"], [1, null], [2, null], [3, "minus two"], [4, "zero"], [5, null]]"#
    );
    assert_eq!(
        agreed_rows(&db, "SELECT f.id, d.name FROM fact f LEFT OUTER JOIN dim d ON f.f = d.k"),
        r#"[[0, "three"], [0, "three again"], [1, "zero"], [2, null], [3, null], [4, null], [5, "three"], [5, "three again"]]"#
    );
    let analyzed = db.execute(&format!("EXPLAIN ANALYZE {on_int}")).expect("runs");
    let StatementResult::Message(plan) = analyzed else { panic!("EXPLAIN ANALYZE renders a message") };
    assert!(plan.contains(" table=dense[-2..3] build=5"), "{plan}");
}

/// q1.1's three-conjunct filter over typed columns with NULLs in both: a
/// NULL conjunct drops its row, in either producer.
#[test]
fn a_three_conjunct_filter_over_typed_columns_keeps_its_rows() {
    let db = Database::new();
    let d = [Some(1), Some(3), None, Some(4), Some(0), Some(2), Some(2), Some(3), Some(1), None];
    let q = [Some(10.0), Some(30.0), Some(5.0), Some(1.0), Some(24.5), None, Some(24.9), Some(25.0), Some(-0.0), Some(1.0)];
    db.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("D", ColumnType::Int),
            ColumnDef::new("Q", ColumnType::Float),
        ],
        (0..10).map(|i| {
            vec![Variant::Int(i as i64), d[i].map_or(Variant::Null, Variant::Int), q[i].map_or(Variant::Null, Variant::Float)]
        }),
        4,
    )
    .expect("loads");
    assert_eq!(agreed_rows(&db, "SELECT id FROM t WHERE d >= 1 AND d <= 3 AND q < 25"), "[[0], [6], [8]]");
    assert_eq!(agreed_rows(&db, "SELECT id FROM t WHERE d IS NULL OR (d > 2 AND q < 25)"), "[[2], [3], [9]]");
}

/// The sum of a record's stages: they do not overlap, so it is at most the
/// wall clock of whoever waited for the statement.
fn stages_sum(p: &QueryProfile) -> Duration {
    let s = p.stages;
    s.parse + s.lookup + s.bind + s.optimize + s.lower + s.execute + s.into_rows
}

/// The id on `EXPLAIN ANALYZE`'s `-- query <id>: compile …` line.
fn analyzed_id(text: &str) -> u64 {
    let line = text.lines().find_map(|l| l.strip_prefix("-- query ")).expect(text);
    line.split(':').next().and_then(|id| id.parse().ok()).expect(line)
}

/// One statement through each door — `Database::query`, `Session::execute`,
/// `Session::submit`, `EXPLAIN ANALYZE` and the wire — each described by one
/// record: ids distinct and increasing, stages within the caller's own wall
/// clock, `Done` reading its times from the record, and a budget trip
/// failing with a record that carries the id, the plan and the partial
/// metrics.
#[test]
fn every_door_ends_in_one_executor_and_one_record() {
    let db = Arc::new(Database::new());
    let rows = (0..64).map(|i| vec![Variant::Int(i)]);
    db.load_table("t", vec![ColumnDef::new("X", ColumnType::Int)], rows, 16).expect("loads");
    let sql = "SELECT SUM(x) FROM t WHERE x >= 8";
    let session = Arc::new(Session::new(db.clone()));
    let timed = |run: &dyn Fn() -> QueryResult| {
        let t = Instant::now();
        let r = run();
        (r, t.elapsed())
    };
    let rows_of = |r| match r {
        StatementResult::Rows(r) => r,
        StatementResult::Message(m) => panic!("expected rows, got {m}"),
    };

    let (query, wall) = timed(&|| db.query(sql).expect("runs"));
    assert!(stages_sum(&query.profile) <= wall, "{:?} > {wall:?}", query.profile.stages);
    assert!(!query.profile.plan_cached && query.profile.plan.is_some() && query.profile.metrics.is_some());
    let (executed, wall) = timed(&|| rows_of(session.execute(sql).expect("runs")));
    assert!(stages_sum(&executed.profile) <= wall, "{:?} > {wall:?}", executed.profile.stages);
    assert!(executed.profile.plan_cached, "one text door, one plan cache");
    assert_eq!(executed.profile.stages.bind, Duration::ZERO, "a hit binds nothing");
    let (submitted, wall) = timed(&|| session.submit(sql).join().expect("runs"));
    assert!(stages_sum(&submitted.profile) <= wall, "{:?} > {wall:?}", submitted.profile.stages);
    let StatementResult::Message(analyzed) = session.execute(&format!("EXPLAIN ANALYZE {sql}")).expect("runs")
    else {
        panic!("EXPLAIN ANALYZE renders a message")
    };
    assert!(analyzed.contains("-- 1 row(s) in"), "{analyzed}");

    let server = serve(db.clone(), "127.0.0.1:0", ServerConfig::default()).expect("serves");
    let mut client = Client::connect(server.addr()).expect("connects");
    let t = Instant::now();
    let RemoteOutcome::Rows(remote) = client.execute(sql).expect("runs") else { panic!("rows") };
    let wall = t.elapsed().as_micros() as u64;
    assert_eq!(remote.rows, query.rows);
    assert!(remote.done.compile_us + remote.done.exec_us <= wall, "{:?} > {wall} µs", remote.done);
    let RemoteOutcome::Message(remote_analyzed) =
        client.execute(&format!("EXPLAIN ANALYZE {sql}")).expect("runs")
    else {
        panic!("EXPLAIN ANALYZE renders a message")
    };
    client.goodbye();
    server.shutdown();

    // The server's `Done` is the record's, not a clock of its own.
    let done = Done::of(&query, 7);
    assert_eq!(done.compile_us, query.profile.compile_time().as_micros() as u64);
    assert_eq!(done.exec_us, query.profile.exec_time().as_micros() as u64);
    assert_eq!((done.rows, done.bytes_scanned, done.queued_ms), (1, query.profile.scan.bytes_scanned, 7));

    let ids = [
        query.profile.query_id,
        executed.profile.query_id,
        submitted.profile.query_id,
        analyzed_id(&analyzed),
        analyzed_id(&remote_analyzed),
    ];
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids {ids:?}");

    session.execute("SET MAX_BYTES_SCANNED = 1").expect("sets");
    let failure = session.submit(sql).join().expect_err("trips the budget");
    assert!(
        matches!(&failure.error, SnowError::ResourceExhausted(t) if t.resource == "bytes_scanned"),
        "{:?}",
        failure.error
    );
    let record = &failure.profile;
    assert!(record.query_id > ids[4], "{} after {ids:?}", record.query_id);
    assert!(record.plan.is_some(), "the plan was compiled before the trip");
    let metrics = record.metrics.as_ref().expect("the partial metrics tree");
    assert!(metrics.operators().iter().any(|(_, op)| op.name.starts_with("Scan")), "{metrics:?}");
    assert_eq!(record.governed.expect("the governor's accounting").scan_limit, Some(1));
}
