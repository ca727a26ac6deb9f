//! High-energy-physics analysis: generate a synthetic CMS-like dataset, run
//! two of the ADL benchmark queries end to end, and render the histograms the
//! benchmark plots — including the Z-boson mass peak that query Q5 selects.
//!
//! Run with: `cargo run --release --example hep_analysis`
#![deny(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::Database;

fn main() {
    let events = 16_384;
    println!("generating {events} synthetic CMS-like events...");
    let db = Database::new();
    adl::generator::load_into(&db, "hep", &AdlConfig::with_events(events));
    let db = Arc::new(db);
    let table = db.table("HEP").unwrap();
    println!(
        "loaded {} events across {} micro-partitions ({} KiB)\n",
        table.row_count(),
        table.partitions().len(),
        table.total_bytes() / 1024
    );

    for q in [adl::queries::q1("hep"), adl::queries::q5("hep")] {
        println!("== {} — {} ==", q.id, q.title);
        let strategy = if q.join_based {
            NestedStrategy::JoinBased
        } else {
            NestedStrategy::FlagColumn
        };
        let t0 = Instant::now();
        let df = translate_query(db.clone(), &q.jsoniq, strategy).expect("translates");
        let translation = t0.elapsed();
        let result = df.collect().expect("runs");
        println!(
            "translation {:?}, engine compile {:?}, execute {:?}",
            translation, result.profile.compile_time(), result.profile.exec_time()
        );

        // Render the {"value", "count"} histogram rows as ASCII bars.
        let max = result
            .rows
            .iter()
            .map(|r| r[0].get_field("count").as_i64().unwrap_or(0))
            .max()
            .unwrap_or(1)
            .max(1);
        for row in result.rows.iter().step_by(5) {
            let value = row[0].get_field("value").as_f64().unwrap_or(0.0);
            let count = row[0].get_field("count").as_i64().unwrap_or(0);
            let bar = "#".repeat(((count * 50) / max) as usize);
            println!("{value:>8.1} | {bar} {count}");
        }
        println!();
    }
    println!("Q5's histogram is populated only by events with an opposite-charge");
    println!("di-muon pair in the 60-120 GeV window — the synthetic Z peak.");
}
