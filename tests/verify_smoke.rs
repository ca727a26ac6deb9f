//! Tier-1 slice of the verification lattice: one generated ADL query and the
//! handwritten SSB q3.1 star join run through `verify_sql` under every point
//! of `default_lattice(2)` — optimizer on/off × 1 and 2 threads × kernels
//! on/off × encoded/decoded execution, 16 `QueryOptions` — and every point
//! returns the baseline's rows. The full corpus, the JSONiq-level axes
//! (nested strategy, interpreter) and the random query streams run in
//! `crates/snowdb/tests/verify.rs` with `cargo test --workspace`.

use std::sync::Arc;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::verify::{default_lattice, verify_sql, DEFAULT_EPSILON};
use snowq::snowdb::Database;
use snowq::ssb::{self, SsbConfig};

/// Runs `sql` over the 16-point lattice: no divergence, no error, rows, and
/// both values of every axis among the labels.
fn agrees_everywhere(db: &Database, tag: &str, sql: &str) {
    let lattice = default_lattice(2);
    assert_eq!(lattice.len(), 16);
    let report = verify_sql(db, sql, &lattice, DEFAULT_EPSILON).expect("the lattice runs");
    assert!(report.divergences.is_empty(), "{tag}:\n{}", report.render());
    assert_eq!(report.outcomes.len(), 16, "{tag}");
    for o in &report.outcomes {
        assert!(
            o.agrees && o.error().is_none(),
            "{tag} {}: {:?}",
            o.label,
            o.error()
        );
        assert!(o.rows().is_some_and(|n| n > 0), "{tag} {}: no rows", o.label);
    }
    let axes = [
        ["optimized/", "raw/"],
        ["/threads=1/", "/threads=2/"],
        ["/vec/", "/row/"],
        ["/enc", "/dec"],
    ];
    for values in axes {
        for value in values {
            let n = report
                .outcomes
                .iter()
                .filter(|o| o.label.contains(value))
                .count();
            assert_eq!(n, 8, "{tag}: {n} labels carry {value}");
        }
    }
}

#[test]
fn a_generated_adl_query_agrees_across_the_lattice() {
    let db = Database::new();
    adl::generator::load_into(
        &db,
        "hep",
        &AdlConfig {
            events: 64,
            seed: 1234,
            partition_rows: 16,
        },
    );
    let db = Arc::new(db);
    let q = adl::queries::queries("hep")
        .into_iter()
        .find(|q| q.id == "q6")
        .expect("q6");
    let sql = translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
        .expect("translates")
        .sql()
        .to_string();
    agrees_everywhere(&db, "adl q6", &sql);
}

#[test]
fn an_ssb_star_join_agrees_across_the_lattice() {
    // The FK-closed tiny tables keep the raw plan's cross product small.
    let db = Database::new();
    ssb::load_ssb_tiny(
        &db,
        &SsbConfig {
            partition_rows: 8,
            ..Default::default()
        },
    );
    agrees_everywhere(&db, "ssb q3.1", &ssb::query("q3.1").sql);
}
