//! Executes dataframe pipelines end to end against an embedded engine,
//! including the paper's Fig. 2 example.

use std::sync::Arc;

use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::variant::parse_json;
use snowdb::{Database, Variant};
use snowpark::functions as f;
use snowpark::{JoinType, Session, SortOrder};

fn orders_db() -> Arc<Database> {
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
    Arc::new(db)
}

fn orders_session() -> Session {
    Session::new(orders_db())
}

#[test]
fn fig2_snowpark_example() {
    // The paper's Fig. 2a pipeline, expressed with this crate's API.
    let session = orders_session();
    let df = session.table("orders");
    let lower = f::lit(90000);
    let upper = f::lit(120000);
    let total_price = f::col("O_TOTALPRICE");
    let clerks = f::col("O_CLERK");
    let df = df.where_(&total_price.between(&lower, &upper)).select([f::count_distinct(&clerks)]);
    // One flat SELECT, not Fig. 2b's nesting: the filter and the projection
    // merge into the table's open SELECT in SQL's evaluation order.
    assert_eq!(
        df.sql(),
        r#"SELECT COUNT(DISTINCT "O_CLERK") FROM "ORDERS" WHERE ("O_TOTALPRICE" BETWEEN 90000 AND 120000)"#
    );
    assert_eq!(df.collect().unwrap().rows[0][0], Variant::Int(2));
}

/// Whether a `:` path has started is recorded in the column, not read off its
/// text: a column whose name contains `:` gets a path like any other.
#[test]
fn field_of_a_column_whose_name_has_a_colon() {
    let db = Database::new();
    db.load_table(
        "t",
        vec![ColumnDef::new("A:B", ColumnType::Variant), ColumnDef::new("AB", ColumnType::Variant)],
        vec![vec![parse_json(r#"{"X": 1}"#).unwrap(), parse_json(r#"{"X": 2}"#).unwrap()]],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let session = Session::new(Arc::new(db));
    let df = session.table("t").select([
        f::col("A:B").subfield("X").alias("P"),
        f::col("AB").subfield("X").alias("Q"),
    ]);
    assert_eq!(df.sql(), r#"SELECT "A:B":"X" AS "P", "AB":"X" AS "Q" FROM "T""#);
    assert_eq!(df.collect().unwrap().rows, vec![vec![Variant::Int(1), Variant::Int(2)]]);
}

#[test]
fn lazy_composition_is_a_single_query() {
    let session = orders_session();
    let df = session
        .table("orders")
        .where_(&f::col("O_TOTALPRICE").gt(&f::lit(60000)))
        .select([f::col("O_CLERK").alias("C")])
        .distinct()
        .sort(&[(f::col("C"), SortOrder::Asc)]);
    // Still no execution; the SQL is one self-contained statement.
    assert!(df.sql().starts_with("SELECT"));
    let res = df.collect().unwrap();
    assert_eq!(res.rows.len(), 2);
    assert_eq!(res.rows[0][0], Variant::str("clerk1"));
}

#[test]
fn flatten_group_by_reaggregate() {
    let db = Database::new();
    db.load_table(
        "events",
        vec![
            ColumnDef::new("EVENT", ColumnType::Int),
            ColumnDef::new("JET", ColumnType::Variant),
        ],
        vec![
            vec![Variant::Int(1), parse_json(r#"[{"PT": 10.0}, {"PT": 50.0}]"#).unwrap()],
            vec![Variant::Int(2), parse_json(r#"[]"#).unwrap()],
        ],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let session = Session::new(Arc::new(db));
    let df = session
        .table("events")
        .with_column("RID", &f::seq8())
        .flatten(&f::col("JET"), "F", true)
        .group_by(&[f::col("RID")])
        .agg([
            f::any_value(&f::col("EVENT")).alias("EVENT"),
            f::array_agg(&f::col_of("F", "VALUE").subfield("PT")).alias("PTS"),
        ])
        .sort(&[(f::col("EVENT"), SortOrder::Asc)]);
    let res = df.collect().unwrap();
    assert_eq!(res.rows.len(), 2);
    // Event 1 keeps both jets; event 2 (empty array, outer flatten) gets [].
    assert_eq!(
        res.rows[0][2],
        Variant::array(vec![Variant::Float(10.0), Variant::Float(50.0)])
    );
    assert_eq!(res.rows[1][2], Variant::array(vec![]));
}

#[test]
fn join_with_aliases() {
    let session = orders_session();
    let left = session.table("orders").select([
        f::col("O_CLERK").alias("CK"),
        f::col("O_TOTALPRICE").alias("P"),
    ]);
    let right = session
        .table("orders")
        .group_by(&[f::col("O_CLERK")])
        .agg([f::sum(&f::col("O_TOTALPRICE")).alias("TOTAL")]);
    let joined = left.join(
        &right,
        JoinType::Inner,
        "L",
        "R",
        Some(&f::col_of("L", "CK").eq(&f::col_of("R", "O_CLERK"))),
    );
    let res = joined.collect().unwrap();
    assert_eq!(res.rows.len(), 4);
}

#[test]
fn union_all_and_limit() {
    let session = orders_session();
    let a = session.table("orders").select([f::col("O_CLERK")]);
    let b = session.table("orders").select([f::col("O_CLERK")]);
    let res = a.union_all(&b).limit(5).collect().unwrap();
    assert_eq!(res.rows.len(), 5);
}

#[test]
fn count_convenience() {
    let session = orders_session();
    assert_eq!(session.table("orders").count().unwrap(), 4);
}

#[test]
fn drop_columns_excludes() {
    let session = orders_session();
    let res = session.table("orders").drop_columns(&["O_TOTALPRICE"]).collect().unwrap();
    assert_eq!(res.columns, vec!["O_CLERK"]);
}

#[test]
fn session_parameters_govern_dataframe_execution() {
    let session = orders_session();
    // An impossibly small memory budget must trip a typed ResourceExhausted
    // on the next collect; clearing it restores execution.
    session.set_parameter("STATEMENT_MEMORY_LIMIT", 1).unwrap();
    let err = session.table("orders").count().unwrap_err();
    assert!(
        matches!(err, snowdb::SnowError::ResourceExhausted { .. }),
        "expected ResourceExhausted, got {err:?}"
    );
    session.unset_parameter("STATEMENT_MEMORY_LIMIT").unwrap();
    assert_eq!(session.table("orders").count().unwrap(), 4);
    // Unknown parameters are rejected, mirroring Snowflake.
    assert!(session.set_parameter("NOT_A_PARAMETER", 1).is_err());
}

#[test]
fn session_async_execution_returns_a_cancellable_handle() {
    let session = orders_session();
    let handle = session.execute_async("SELECT COUNT(*) FROM orders");
    let result = handle.join().unwrap();
    assert_eq!(result.rows[0][0], Variant::Int(4));
}

/// Parameters belong to the session that set them: two sessions over one
/// database do not see each other's limits, and `execute_async` runs under
/// its own session's.
#[test]
fn session_parameters_are_per_session() {
    let db = orders_db();
    let limited = Session::new(db.clone());
    let free = Session::new(db.clone());
    limited.set_parameter("STATEMENT_MEMORY_LIMIT", 1).unwrap();

    assert_eq!(free.table("orders").count().unwrap(), 4, "limit leaked across sessions");
    assert_eq!(free.table("orders").collect().unwrap().rows.len(), 4);
    assert!(db.session_params().is_unbounded(), "limit leaked into the database defaults");
    let err = limited.table("orders").collect().unwrap_err();
    assert!(matches!(err, snowdb::SnowError::ResourceExhausted { .. }), "{err:?}");

    let failure = limited.execute_async("SELECT COUNT(*) FROM orders").join().unwrap_err();
    assert!(
        matches!(failure.error, snowdb::SnowError::ResourceExhausted { .. }),
        "execute_async must honour its session's limit, got {:?}",
        failure.error
    );
    let ok = free.execute_async("SELECT COUNT(*) FROM orders").join().unwrap();
    assert_eq!(ok.rows[0][0], Variant::Int(4));
}
