//! No silent fallback: every operator of every ADL and SSB query, generated
//! and handwritten, evaluates all its batches through its compiled expression
//! DAG. An expression shape or a function added without a kernel — or a
//! kernel that declines data these workloads hold — fails here instead of
//! quietly sending batches back to the row loop.

use std::sync::Arc;

use jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowdb::exec::metrics::Grouping;
use snowdb::{Database, OpMetrics, QueryOptions, StatementResult};

/// Operators that sent rows to the row loop, as `name (rows)`.
fn fallbacks(m: &OpMetrics, out: &mut Vec<String>) {
    if m.rows_fallback > 0 {
        out.push(format!("{} ({} rows)", m.name, m.rows_fallback));
    }
    for c in &m.children {
        fallbacks(c, out);
    }
}

fn explain_analyze(db: &Database, sql: &str) -> String {
    match db.execute(&format!("EXPLAIN ANALYZE {sql}")) {
        Ok(StatementResult::Message(text)) => text,
        other => panic!("EXPLAIN ANALYZE answered {other:?}"),
    }
}

fn assert_no_fallback(db: &Database, tag: &str, sql: &str) {
    for threads in [1, 2] {
        // Vectorization is asked for explicitly: the CI leg that turns it off
        // through the environment must not turn this test into a no-op.
        let opts = QueryOptions {
            threads: Some(threads),
            vectorize: true,
            ..Default::default()
        };
        let result = db
            .query_with(sql, &opts)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        let metrics = result
            .profile
            .metrics
            .expect("a query reports its operators");
        let mut slow = Vec::new();
        fallbacks(&metrics, &mut slow);
        assert!(
            slow.is_empty(),
            "{tag} (threads {threads}): row-loop fallback in {slow:?}\n{}",
            explain_analyze(db, sql)
        );
    }
}

fn generated(db: &Arc<Database>, jsoniq: &str, strategy: NestedStrategy) -> String {
    translate_query(db.clone(), jsoniq, strategy)
        .expect("translates")
        .sql()
        .to_string()
}

#[test]
fn adl_queries_never_fall_back_to_the_row_loop() {
    let db = Database::new();
    adl::generator::load_into(
        &db,
        "hep",
        &adl::AdlConfig {
            events: 600,
            seed: 42,
            partition_rows: 128,
        },
    );
    let db = Arc::new(db);
    for q in adl::queries::queries("hep") {
        assert_no_fallback(
            &db,
            &format!("adl {} handwritten", q.id),
            &q.handwritten_sql,
        );
        // Both nested-query strategies stamp row ids with SEQ8() projections.
        for strategy in [NestedStrategy::FlagColumn, NestedStrategy::JoinBased] {
            let sql = generated(&db, &q.jsoniq, strategy);
            assert_no_fallback(&db, &format!("adl {} generated ({strategy:?})", q.id), &sql);
        }
    }
}

/// Operators that boxed rows of an encoded or shredded column, as
/// `name (rows)`.
fn materialized(m: &OpMetrics, out: &mut Vec<String>) {
    if m.rows_materialized > 0 {
        out.push(format!("{} ({} rows)", m.name, m.rows_materialized));
    }
    for c in &m.children {
        materialized(c, out);
    }
}

/// ADL's particle arrays seal shredded: the flattens of q2, q3 and q5 expand
/// the stored offsets and their `VALUE:PT` picks take the field's column, so
/// with encoded execution no operator boxes a row, in either formulation.
/// In generated q4-q8 every aggregate below the histogram's groups on a row
/// id stamped before a flatten: it groups by runs, and its `ANY_VALUE` and
/// records-valued `ARRAY_AGG` outputs are gathers and ranges, so none of
/// those aggregates boxes a row either.
#[test]
fn adl_flattens_and_field_picks_never_box_shredded_rows() {
    let db = Database::new();
    adl::generator::load_into(
        &db,
        "hep",
        &adl::AdlConfig {
            events: 600,
            seed: 42,
            partition_rows: 128,
        },
    );
    let db = Arc::new(db);
    let opts = QueryOptions {
        threads: Some(2),
        vectorize: true,
        encode: true,
        ..Default::default()
    };
    for q in adl::queries::queries("hep") {
        let translated = generated(&db, &q.jsoniq, NestedStrategy::FlagColumn);
        if q.id >= "q4" {
            let result = db
                .query_with(&translated, &opts)
                .unwrap_or_else(|e| panic!("{e}"));
            let metrics = result
                .profile
                .metrics
                .expect("a query reports its operators");
            let row_id_aggs = metrics
                .operators()
                .into_iter()
                .filter(|(_, m)| m.name.starts_with("Aggregate"))
                .skip(1);
            for (_, m) in row_id_aggs {
                assert!(
                    m.grouping == Some(Grouping::Runs) && m.rows_materialized == 0,
                    "adl {} generated: {} grouped {:?}, boxed {} rows\n{}",
                    q.id,
                    m.name,
                    m.grouping,
                    m.rows_materialized,
                    explain_analyze(&db, &translated)
                );
            }
        }
        if !["q2", "q3", "q5"].contains(&q.id) {
            continue;
        }
        for (form, sql) in [
            ("handwritten", &q.handwritten_sql),
            ("generated", &translated),
        ] {
            let result = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{e}"));
            let metrics = result
                .profile
                .metrics
                .expect("a query reports its operators");
            let mut boxed = Vec::new();
            materialized(&metrics, &mut boxed);
            assert!(
                boxed.is_empty(),
                "adl {} {form}: shredded rows boxed in {boxed:?}\n{}",
                q.id,
                explain_analyze(&db, sql)
            );
        }
    }
}

#[test]
fn ssb_queries_never_fall_back_to_the_row_loop() {
    let db = Database::new();
    ssb::load_ssb(
        &db,
        &ssb::SsbConfig {
            lineorders: 3000,
            seed: 42,
            partition_rows: 512,
        },
    );
    let db = Arc::new(db);
    for q in ssb::queries() {
        assert_no_fallback(&db, &format!("ssb {} handwritten", q.id), &q.sql);
        let sql = generated(&db, &q.jsoniq, NestedStrategy::FlagColumn);
        assert_no_fallback(&db, &format!("ssb {} generated", q.id), &sql);
    }
}

/// `EXPLAIN ANALYZE` prints the size of each operator's DAG beside the tree
/// it came from, next to `vec=`.
#[test]
fn explain_analyze_reports_expression_sharing() {
    let db = Database::new();
    adl::generator::load_into(
        &db,
        "hep",
        &adl::AdlConfig {
            events: 64,
            seed: 42,
            partition_rows: 64,
        },
    );
    let q6 = adl::queries::q6("hep");
    let text = explain_analyze(&db, &q6.handwritten_sql);
    let agg = text
        .lines()
        .find(|l| l.contains("MIN_BY"))
        .unwrap_or_else(|| panic!("no MIN_BY aggregate in\n{text}"));
    let (dag, tree) = agg
        .split("expr=")
        .nth(1)
        .and_then(|s| s.split([' ', ']']).next())
        .and_then(|s| s.split_once('/'))
        .map(|(d, t)| (d.parse::<u64>().unwrap(), t.parse::<u64>().unwrap()))
        .unwrap_or_else(|| panic!("no expr= on {agg}"));
    // The three-jet mass repeats pT·cos(φ) and friends dozens of times.
    assert!(dag * 4 < tree, "expr={dag}/{tree}");
    assert!(agg.contains(" vec="), "{agg}");
}
