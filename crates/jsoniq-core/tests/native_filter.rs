//! Tests for the §VII-B future-work feature: the native `ARRAY_FILTER` fast
//! path must produce identical results to the flatten/reaggregate machinery
//! while avoiding `LATERAL FLATTEN` and row-id bookkeeping entirely.

use std::sync::Arc;

use jsoniq_core::snowflake::{NestedStrategy, Translator};
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::variant::{cmp_variants, parse_json};
use snowdb::{Database, Variant};
use snowpark::Session;

fn db() -> Arc<Database> {
    let db = Database::new();
    let rows = [
        (1i64, r#"[{"PT": 12.0, "Q": 1}, {"PT": 45.0, "Q": -1}, {"PT": 3.0, "Q": 1}]"#),
        (2, r#"[]"#),
        (3, r#"[{"PT": 30.0, "Q": -1}]"#),
        (4, r#"[{"PT": 7.0, "Q": 1}, {"PT": 8.0, "Q": -1}]"#),
    ];
    db.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("XS", ColumnType::Variant),
        ],
        rows.iter().map(|(id, xs)| vec![Variant::Int(*id), parse_json(xs).unwrap()]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    Arc::new(db)
}

const QUERY: &str = r#"
    for $t in collection("t")
    let $hot := (for $x in $t.XS[] where $x.PT gt 10 return $x)
    return {"id": $t.ID, "n": count(for $x in $t.XS[] where $x.PT gt 5 and $x.Q eq 1 return $x),
            "hot": [ $hot ]}
"#;

fn run(native: bool) -> (Vec<Variant>, String) {
    let db = db();
    let mut t = Translator::new(Session::new(db.clone()), NestedStrategy::FlagColumn)
        .with_native_array_filter(native);
    let df = t.translate(QUERY).expect("translates");
    let sql = df.sql().to_string();
    let mut rows: Vec<Variant> = df
        .collect()
        .unwrap_or_else(|e| panic!("failed: {e}\n{sql}"))
        .rows
        .into_iter()
        .map(|mut r| r.remove(0))
        .collect();
    rows.sort_by(cmp_variants);
    (rows, sql)
}

#[test]
fn native_filter_matches_machinery() {
    let (baseline, baseline_sql) = run(false);
    let (native, native_sql) = run(true);
    assert_eq!(baseline, native);
    // The fast path removes the flatten/reaggregate plumbing.
    assert!(baseline_sql.contains("LATERAL FLATTEN"));
    assert!(!native_sql.contains("LATERAL FLATTEN"), "{native_sql}");
    assert!(native_sql.contains("ARRAY_FILTER"), "{native_sql}");
    assert!(native_sql.len() < baseline_sql.len() / 2, "fast path should shrink the SQL");
}

#[test]
fn fast_path_declines_complex_nested_queries() {
    // A return expression other than the loop variable falls back to the
    // general machinery — and must still run.
    let db = db();
    let mut t = Translator::new(Session::new(db.clone()), NestedStrategy::FlagColumn)
        .with_native_array_filter(true);
    let df = t
        .translate(
            r#"for $t in collection("t")
               return count(for $x in $t.XS[] where $x.PT gt 5 return $x.PT * 2)"#,
        )
        .unwrap();
    assert!(df.sql().contains("LATERAL FLATTEN"), "{}", df.sql());
    assert_eq!(df.collect().unwrap().rows.len(), 4);
}

#[test]
fn fast_path_handles_flipped_and_bare_comparisons() {
    let db = db();
    let mut t = Translator::new(Session::new(db.clone()), NestedStrategy::FlagColumn)
        .with_native_array_filter(true);
    // `10 lt $x.PT` (flipped) and a bare element comparison.
    let df = t
        .translate(
            r#"for $t in collection("t")
               return count(for $x in $t.XS[] where 10 lt $x.PT return $x)"#,
        )
        .unwrap();
    assert!(df.sql().contains("ARRAY_FILTER"), "{}", df.sql());
    let counts: Vec<Variant> =
        df.collect().unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect();
    let total: i64 = counts.iter().map(|v| v.as_i64().unwrap()).sum();
    assert_eq!(total, 3); // PT in {12, 45, 30}
}

#[test]
fn order_preservation_returns_input_order() {
    // Without preservation the engine may reorder (it happens to keep scan
    // order today); with preservation the order is *guaranteed* by an explicit
    // sort over the injected order column — verify it survives nested queries.
    let db = db();
    let q = r#"for $t in collection("t")
               let $hot := (for $x in $t.XS[] where $x.PT gt 10 return $x.PT)
               return {"id": $t.ID, "n": count($hot)}"#;
    let mut t = Translator::new(Session::new(db.clone()), NestedStrategy::FlagColumn)
        .with_order_preservation(true);
    let df = t.translate(q).unwrap();
    assert!(df.sql().contains("ORDER BY"), "{}", df.sql());
    let ids: Vec<i64> = df
        .collect()
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].get_field("id").as_i64().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3, 4]);
}
