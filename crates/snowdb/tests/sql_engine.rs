//! End-to-end SQL tests over the embedded engine, focusing on the features the
//! JSONiq translation layer relies on: variant paths, `LATERAL FLATTEN`, nested
//! subqueries, reaggregation, and joins.

use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::variant::{parse_json, Object};
use snowdb::{Database, Variant};

/// Events table shaped like a miniature ADL dataset: typed EVENT column plus a
/// VARIANT column holding an array of jet objects.
fn events_db() -> Database {
    let db = Database::new();
    let rows = vec![
        (1i64, r#"[{"PT": 10.0, "ETA": 0.5}, {"PT": 50.0, "ETA": -2.0}]"#),
        (2, r#"[]"#),
        (3, r#"[{"PT": 30.0, "ETA": 0.1}]"#),
        (4, r#"[{"PT": 5.0, "ETA": 3.0}, {"PT": 7.5, "ETA": -0.2}, {"PT": 90.0, "ETA": 0.0}]"#),
    ];
    db.load_table(
        "events",
        vec![
            ColumnDef::new("EVENT", ColumnType::Int),
            ColumnDef::new("JET", ColumnType::Variant),
        ],
        rows.into_iter()
            .map(|(id, jets)| vec![Variant::Int(id), parse_json(jets).unwrap()]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    db
}

#[test]
fn flatten_unboxes_arrays() {
    let db = events_db();
    let r = db
        .query("SELECT event, f.value:PT AS pt FROM events, LATERAL FLATTEN(INPUT => jet) f ORDER BY pt")
        .unwrap();
    assert_eq!(r.rows.len(), 6);
    assert_eq!(r.rows[0], vec![Variant::Int(4), Variant::Float(5.0)]);
    assert_eq!(r.rows[5], vec![Variant::Int(4), Variant::Float(90.0)]);
}

#[test]
fn outer_flatten_keeps_empty_arrays() {
    let db = events_db();
    let r = db
        .query(
            "SELECT event, f.value FROM events, LATERAL FLATTEN(INPUT => jet, OUTER => TRUE) f \
             ORDER BY event",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 7);
    // Event 2 has an empty array: one row with NULL value.
    let ev2: Vec<_> = r.rows.iter().filter(|r| r[0] == Variant::Int(2)).collect();
    assert_eq!(ev2.len(), 1);
    assert!(ev2[0][1].is_null());
}

#[test]
fn non_outer_flatten_drops_empty_arrays() {
    let db = events_db();
    let r = db
        .query("SELECT DISTINCT event FROM events, LATERAL FLATTEN(INPUT => jet) f ORDER BY event")
        .unwrap();
    let ids: Vec<_> = r.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(ids, vec![Variant::Int(1), Variant::Int(3), Variant::Int(4)]);
}

#[test]
fn flatten_exposes_index_and_seq() {
    let db = events_db();
    let r = db
        .query(
            "SELECT f.index, f.seq FROM events, LATERAL FLATTEN(INPUT => jet) f \
             WHERE event = 4 ORDER BY f.index",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][0], Variant::Int(0));
    assert_eq!(r.rows[2][0], Variant::Int(2));
    // All three rows stem from the same input row => same SEQ.
    assert_eq!(r.rows[0][1], r.rows[1][1]);
    assert_eq!(r.rows[1][1], r.rows[2][1]);
}

#[test]
fn flatten_over_object_iterates_fields() {
    let db = Database::new();
    let mut o = Object::new();
    o.insert("A", Variant::Int(1));
    o.insert("B", Variant::Int(2));
    db.load_table(
        "t",
        vec![ColumnDef::new("V", ColumnType::Variant)],
        vec![vec![Variant::object(o)]],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let r = db
        .query("SELECT f.key, f.value FROM t, LATERAL FLATTEN(INPUT => v) f ORDER BY f.key")
        .unwrap();
    assert_eq!(r.rows[0], vec![Variant::str("A"), Variant::Int(1)]);
    assert_eq!(r.rows[1], vec![Variant::str("B"), Variant::Int(2)]);
}

#[test]
fn nested_query_reaggregation_pattern() {
    // The core pattern of paper §IV-B: flatten, filter, group by row id,
    // reaggregate with ARRAY_AGG, reconstruct other columns with ANY_VALUE.
    let db = events_db();
    let r = db
        .query(
            "SELECT any_value(event) AS event, array_agg(f.value:PT) AS pts \
             FROM events, LATERAL FLATTEN(INPUT => jet) f \
             WHERE f.value:PT > 8 \
             GROUP BY event ORDER BY 1",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(
        r.rows[0][1],
        Variant::array(vec![Variant::Float(10.0), Variant::Float(50.0)])
    );
    assert_eq!(r.rows[2][1], Variant::array(vec![Variant::Float(90.0)]));
}

#[test]
fn left_outer_join_null_extends() {
    let db = events_db();
    // Count jets per event via join of base table against flattened counts.
    let r = db
        .query(
            "SELECT e.event, nvl(c.n, 0) AS n FROM events e \
             LEFT OUTER JOIN ( \
                SELECT event AS ev, count(*) AS n \
                FROM events, LATERAL FLATTEN(INPUT => jet) f GROUP BY event \
             ) c ON e.event = c.ev \
             ORDER BY e.event",
        )
        .unwrap();
    let ns: Vec<_> = r.rows.iter().map(|row| row[1].clone()).collect();
    assert_eq!(ns, vec![Variant::Int(2), Variant::Int(0), Variant::Int(1), Variant::Int(3)]);
}

#[test]
fn seq8_assigns_unique_row_ids() {
    let db = events_db();
    let r = db
        .query("SELECT count(DISTINCT rid) FROM (SELECT seq8() AS rid, event FROM events)")
        .unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(4));
}

#[test]
fn fig2_tpch_like_roundtrip() {
    // The paper's Fig. 2b text, nested SELECTs and `FROM (orders)` included,
    // on a tiny orders table. The dataframe layer now emits the flat form
    // (`crates/snowpark/tests/dataframe_exec.rs`); the engine still takes
    // this one.
    let db = Database::new();
    db.load_table(
        "orders",
        vec![
            ColumnDef::new("O_TOTALPRICE", ColumnType::Float),
            ColumnDef::new("O_CLERK", ColumnType::Str),
        ],
        vec![
            vec![Variant::Float(95000.0), Variant::str("clerk1")],
            vec![Variant::Float(100000.0), Variant::str("clerk1")],
            vec![Variant::Float(110000.0), Variant::str("clerk2")],
            vec![Variant::Float(50000.0), Variant::str("clerk3")],
        ],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let r = db
        .query(
            r#"SELECT count(DISTINCT "O_CLERK") FROM (
                 SELECT * FROM (SELECT * FROM (orders))
                 WHERE (("O_TOTALPRICE" >= 90000 :: int) AND ("O_TOTALPRICE" <= 120000 :: int)))"#,
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(2));
}

#[test]
fn union_all_concatenates() {
    let db = events_db();
    let r = db
        .query(
            "SELECT event FROM events WHERE event <= 2 \
             UNION ALL SELECT event FROM events WHERE event >= 3 ORDER BY event",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4);
}

#[test]
fn bytes_scanned_reflects_column_pruning() {
    let db = events_db();
    let narrow = db.query("SELECT event FROM events").unwrap();
    let wide = db.query("SELECT event, jet FROM events").unwrap();
    assert!(wide.profile.scan.bytes_scanned > narrow.profile.scan.bytes_scanned);
}

#[test]
fn filter_pushdown_through_derived_table_prunes_partitions() {
    let db = Database::new();
    db.load_table(
        "seq",
        vec![ColumnDef::new("X", ColumnType::Int)],
        (0..1000).map(|i| vec![Variant::Int(i)]),
        100,
    )
    .unwrap();
    let r = db
        .query("SELECT x2 FROM (SELECT x * 1 AS x2, x FROM seq) WHERE x < 100")
        .unwrap();
    assert_eq!(r.rows.len(), 100);
    assert_eq!(r.profile.scan.partitions_scanned, 1);
    assert_eq!(r.profile.scan.partitions_total, 10);
}

#[test]
fn variant_null_inside_json_behaves_as_sql_null() {
    let db = Database::new();
    db.load_table(
        "t",
        vec![ColumnDef::new("V", ColumnType::Variant)],
        vec![
            vec![parse_json(r#"{"A": null}"#).unwrap()],
            vec![parse_json(r#"{"A": 5}"#).unwrap()],
        ],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let r = db.query("SELECT count(v:A) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(1));
}

#[test]
fn having_filters_groups() {
    let db = events_db();
    let r = db
        .query(
            "SELECT event, count(*) AS n FROM events, LATERAL FLATTEN(INPUT => jet) f \
             GROUP BY event HAVING count(*) >= 2 ORDER BY event",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Variant::Int(1));
    assert_eq!(r.rows[1][0], Variant::Int(4));
}

#[test]
fn object_construct_and_get_roundtrip() {
    let db = events_db();
    let r = db
        .query(
            "SELECT get(o, 'E') FROM (SELECT object_construct('E', event, 'X', 1) AS o FROM events) \
             ORDER BY 1",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(1));
    assert_eq!(r.rows[3][0], Variant::Int(4));
}

#[test]
fn cross_join_produces_product() {
    let db = events_db();
    let r = db
        .query("SELECT a.event, b.event FROM events a CROSS JOIN events b")
        .unwrap();
    assert_eq!(r.rows.len(), 16);
}

#[test]
fn error_on_unknown_column_mentions_name() {
    let db = events_db();
    let err = db.query("SELECT nosuch FROM events").unwrap_err();
    assert!(err.to_string().contains("NOSUCH"), "{err}");
}

#[test]
fn ambiguous_column_is_rejected() {
    let db = events_db();
    let err = db
        .query("SELECT value FROM events, LATERAL FLATTEN(INPUT => jet) f, LATERAL FLATTEN(INPUT => jet) g")
        .unwrap_err();
    assert!(err.to_string().to_lowercase().contains("ambiguous"), "{err}");
}
