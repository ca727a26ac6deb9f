//! Nested queries and the erroneous-object-elimination problem (paper §IV-C),
//! on an e-commerce dataset: orders with nested line-item arrays.
//!
//! The query keeps *every* order and pairs it with the array of its expensive
//! items — including orders with no items at all. A naive unbox-filter-
//! reaggregate SQL pipeline would drop those orders; the two strategies of the
//! paper (flag column / JOIN-based) both preserve them, and this example runs
//! both and shows the SQL they generate.
//!
//! Run with: `cargo run --example nested_shop`
#![deny(unsafe_code)]

use std::sync::Arc;

use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowq::snowdb::variant::parse_json;
use snowq::snowdb::{Database, Variant};

fn main() {
    let db = Database::new();
    let orders = [
        (101i64, r#"[{"SKU": "apple", "PRICE": 3.5}, {"SKU": "vacuum", "PRICE": 120.0}]"#),
        (102, r#"[]"#), // an order with no items must survive the nested query
        (103, r#"[{"SKU": "pen", "PRICE": 1.2}]"#),
        (104, r#"[{"SKU": "laptop", "PRICE": 999.0}, {"SKU": "cable", "PRICE": 9.0}, {"SKU": "monitor", "PRICE": 250.0}]"#),
    ];
    db.load_table(
        "orders",
        vec![
            ColumnDef::new("ORDER_ID", ColumnType::Int),
            ColumnDef::new("ITEMS", ColumnType::Variant),
        ],
        orders
            .iter()
            .map(|(id, items)| vec![Variant::Int(*id), parse_json(items).unwrap()]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let db = Arc::new(db);

    // The paper's Listing 4 pattern: a nested FLWOR inside a `let`. JSONiq
    // semantics guarantee the nested query never removes parent objects.
    let jsoniq = r#"
        for $order in collection("orders")
        let $expensive := (
            for $item in $order.ITEMS[]
            where $item.PRICE gt 100
            return $item.SKU
        )
        return {"order": $order.ORDER_ID,
                "expensive": [ $expensive ],
                "n": count($expensive)}
    "#;

    for (name, strategy) in [
        ("flag-column (§IV-C1)", NestedStrategy::FlagColumn),
        ("JOIN-based (§IV-C2)", NestedStrategy::JoinBased),
    ] {
        println!("== {name} ==");
        let df = translate_query(db.clone(), jsoniq, strategy).expect("translates");
        let result = df.collect().expect("runs");
        for row in &result.rows {
            println!("  {}", row[0]);
        }
        println!(
            "  ({} rows out of {} orders — no order was lost; bytes scanned: {})\n",
            result.rows.len(),
            orders.len(),
            result.profile.scan.bytes_scanned
        );
    }

    println!("Generated SQL (flag-column strategy):");
    let df = translate_query(db, jsoniq, NestedStrategy::FlagColumn).unwrap();
    println!("{}", df.sql());
}
