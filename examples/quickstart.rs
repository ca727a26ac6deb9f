//! Quickstart: load nested JSON into the engine, run a JSONiq query through
//! the translation layer, and inspect the single SQL query it produces.
//!
//! Run with: `cargo run --example quickstart`
#![deny(unsafe_code)]

use std::sync::Arc;

use snowq::jsoniq_core::interp::{DatabaseCollections, Interpreter};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowq::snowdb::variant::parse_json;
use snowq::snowdb::{Database, Variant};

fn main() {
    // 1. Stage nested data: one typed column plus one VARIANT column, the
    //    multi-column staging of the paper's §III-C.
    let db = Database::new();
    let events = [
        (1i64, r#"[{"PT": 12.3, "ETA": 0.4}, {"PT": 45.1, "ETA": -2.0}]"#),
        (2, r#"[]"#),
        (3, r#"[{"PT": 31.9, "ETA": 0.8}]"#),
    ];
    db.load_table(
        "events",
        vec![
            ColumnDef::new("EVENT", ColumnType::Int),
            ColumnDef::new("JET", ColumnType::Variant),
        ],
        events
            .iter()
            .map(|(id, jets)| vec![Variant::Int(*id), parse_json(jets).unwrap()]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();

    // 2. A JSONiq query — the paper's Listing 1.
    let jsoniq = r#"
        for $jet in collection("events").JET[]
        where abs($jet.ETA) lt 1
        return $jet.PT
    "#;

    // 3. Translate it: one native SQL query, no UDFs.
    let db = Arc::new(db);
    let df = translate_query(db.clone(), jsoniq, NestedStrategy::FlagColumn)
        .expect("query translates");
    println!("Generated SQL:\n{}\n", df.sql());

    // 4. Execute lazily via collect(), exactly like Snowpark.
    let result = df.collect().expect("query runs");
    println!("Results ({} rows):", result.rows.len());
    for row in &result.rows {
        println!("  {}", row[0]);
    }
    println!(
        "\nEngine profile: compile {:?}, execute {:?}, {} bytes scanned",
        result.profile.compile_time(),
        result.profile.exec_time(),
        result.profile.scan.bytes_scanned
    );

    // 5. Cross-check against the reference interpreter (the semantics oracle).
    let provider = DatabaseCollections { db: &db };
    let reference = Interpreter::new(&provider).eval_query(jsoniq).expect("interpreter runs");
    let mut translated: Vec<Variant> =
        result.rows.into_iter().map(|mut r| r.remove(0)).collect();
    let mut reference = reference;
    translated.sort_by(snowq::snowdb::variant::cmp_variants);
    reference.sort_by(snowq::snowdb::variant::cmp_variants);
    assert_eq!(translated, reference);
    println!("\nTranslated results match the JSONiq interpreter. ✓");
}
