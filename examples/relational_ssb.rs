//! Relational workloads through JSONiq: the Star Schema Benchmark.
//!
//! Demonstrates the paper's §V-G claim: JSONiq expresses classic relational
//! star joins (successive `for` clauses + `where` predicates) and the
//! translation runs them as ordinary hash joins, on par with handwritten SQL.
//!
//! Run with: `cargo run --release --example relational_ssb`
#![deny(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use snowq::jsoniq_core::snowflake::{NestedStrategy, Translator};
use snowq::snowdb::Database;
use snowq::snowpark::Session;
use snowq::ssb::{self, SsbConfig};

fn main() {
    let db = Database::new();
    ssb::load_ssb(&db, &SsbConfig { lineorders: 16_384, ..Default::default() });
    let db = Arc::new(db);
    println!("loaded SSB tables: {:?}\n", db.table_names());

    for id in ["q1.1", "q2.1", "q3.1", "q4.1"] {
        let q = ssb::query(id);
        let mut translator =
            Translator::new(Session::new(db.clone()), NestedStrategy::FlagColumn);
        let df = translator.translate(&q.jsoniq).expect("translates");

        let t0 = Instant::now();
        let translated = df.collect().expect("translated runs");
        let t_gen = t0.elapsed();

        let t1 = Instant::now();
        let handwritten = db.query(&q.sql).expect("handwritten runs");
        let t_hand = t1.elapsed();

        println!(
            "{id}: translated {:?} ({} rows) vs handwritten {:?} ({} rows)",
            t_gen,
            translated.rows.len(),
            t_hand,
            handwritten.rows.len()
        );
        if let Some(first) = translated.rows.first() {
            println!("   first row: {}", first[0]);
        }
    }
    println!("\nThe translated queries run the same hash-join plans; the only");
    println!("overhead is the OBJECT_CONSTRUCT wrapping each output row (§V-G).");
}
