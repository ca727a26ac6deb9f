//! Corpus runner for the differential verification oracle.
//!
//! Every ADL and SSB query — plus a seeded stream of random queries — executes
//! across the full configuration lattice ({optimizer on/off} × {threads} ×
//! {nested strategy} × {interpreter vs. translated SQL}) and must agree under
//! canonical ordering with epsilon-aware equality. The satellite regression
//! cases at the bottom are divergences this oracle caught; each failed before
//! its fix.
//!
//! On failure the full divergence report is appended to the file named by
//! `SNOWQ_VERIFY_REPORT` (when set) before panicking, so CI can upload it as
//! an artifact. `SNOWQ_SCHEDULES` overrides the number of random queries per
//! stream (default 40; CI runs 200); each query is its own seed, and a
//! failing one prints `suite=<stream> seed=<n>`.

mod common;

use std::sync::Arc;

use jsoniq_core::verify::gen::{adl_schema, random_query};
use jsoniq_core::verify::{verify_jsoniq, JsoniqLattice};
use rand::{Rng, SeedableRng, StdRng};
use snowdb::storage::{ColumnDef, ColumnType};
use common::{assert_agrees, schedule, schedule_budget};
use snowdb::verify::{default_lattice, verify_sql, DEFAULT_EPSILON};
use snowdb::{Database, Variant};

fn adl_db(events: usize) -> Arc<Database> {
    let d = Database::new();
    adl::generator::load_into(
        &d,
        "hep",
        &adl::AdlConfig { events, seed: 1234, partition_rows: 64 },
    );
    Arc::new(d)
}

fn ssb_db(lineorders: usize) -> Arc<Database> {
    let d = Database::new();
    ssb::load_ssb(&d, &ssb::SsbConfig { lineorders, seed: 11, partition_rows: 256 });
    Arc::new(d)
}

#[test]
fn verify_adl_corpus_full_lattice() {
    let db = adl_db(150);
    let lattice = JsoniqLattice::full(4);
    for q in adl::queries::queries("hep") {
        let report = verify_jsoniq(&db, &q.jsoniq, &lattice);
        assert_agrees("verify", &format!("adl {}", q.id), &report);
    }
}

#[test]
fn verify_ssb_corpus_sql_lattice() {
    // SSB expresses joins as successive `for` clauses, so the *unoptimized*
    // plan is a literal cross product — quadratic-plus in data size and
    // infeasible at this scale. This scaled run covers {strategies} ×
    // {optimized, threads 1/2/4}; the optimizer-off and interpreter axes run
    // the SAME full corpus at tiny scale in
    // `verify_ssb_tiny_corpus_full_lattice` below, so no lattice axis is
    // skipped — only run at reduced scale.
    let db = ssb_db(2000);
    let mut lattice = JsoniqLattice::full(4).without_interpreter();
    lattice.sql.retain(|c| c.optimize);
    for q in ssb::queries() {
        let report = verify_jsoniq(&db, &q.jsoniq, &lattice);
        assert_agrees("verify", &format!("ssb {}", q.id), &report);
    }
}

/// The full 13-query SSB corpus across the COMPLETE lattice — optimizer off,
/// interpreter, every strategy and thread count. Runs on the FK-closed tiny
/// generator whose worst-case cross product (~69 k intermediate rows) stays
/// feasible for the raw nested-loop plans, so the optimize=false axis is
/// genuinely executed rather than silently dropped.
#[test]
fn verify_ssb_tiny_corpus_full_lattice() {
    let d = Database::new();
    ssb::load_ssb_tiny(&d, &ssb::SsbConfig { partition_rows: 8, ..Default::default() });
    let db = Arc::new(d);
    let lattice = JsoniqLattice::full(4);
    for q in ssb::queries() {
        let report = verify_jsoniq(&db, &q.jsoniq, &lattice);
        assert_agrees("verify", &format!("ssb tiny {}", q.id), &report);
    }
}

#[test]
fn verify_ssb_q1_1_against_interpreter() {
    let db = ssb_db(200);
    let q = ssb::query("q1.1");
    let report = verify_jsoniq(&db, &q.jsoniq, &JsoniqLattice::full(2));
    assert_agrees("verify", "ssb q1.1 (interpreted)", &report);
}

/// The ADL table and the irregular table both random streams share.
fn random_db() -> Arc<Database> {
    let db = adl_db(120);
    snowdb::verify::gen::load_irregular(&db, "IRR", 40, 0x1dd).unwrap();
    db
}

#[test]
fn verify_random_queries_across_lattice() {
    let db = random_db();
    let schema = adl_schema("hep");
    let lattice = JsoniqLattice::full(4);
    for seed in 0x5eed..0x5eed + schedule_budget(40) as u64 {
        let _repro = schedule("verify_random", seed);
        let q = random_query(&mut StdRng::seed_from_u64(seed), &schema);
        let report = verify_jsoniq(&db, &q, &lattice);
        assert_agrees("verify_random", &format!("random jsoniq seed={seed}"), &report);
    }
}

/// The SQL generator's stream — math functions over paths, `IFF`/`CASE`
/// guards around `/`, `NVL`/`GET`/`ARRAY_SIZE`, `MIN_BY`/`MAX_BY`, `SEQ8()`
/// row ids joined back, row-naming and type-raising operands, the irregular
/// table — across all 24 configurations. With a tolerance of zero: nothing
/// here accumulates floats, so the batch evaluator and the row loop must
/// agree bit for bit, and on errors value for value. Every error is one the
/// generator can raise ([`snowdb::verify::gen::RAISED`]).
#[test]
fn verify_random_sql_across_lattice() {
    use snowdb::verify::gen::{adl_schema as sql_schema, SqlGen, RAISED};
    use snowdb::verify::Failure;
    use snowdb::SnowError;
    let n = schedule_budget(40);
    let db = random_db();
    let schema = sql_schema("hep");
    let lattice = default_lattice(4);
    let (mut answered, mut failed) = (0, 0);
    for seed in 0x5eed..0x5eed + n as u64 {
        let _repro = schedule("verify_random_sql", seed);
        let sql = SqlGen::new(seed).random_sql(&schema);
        let report = verify_sql(&db, &sql, &lattice, 0.0).expect("no governance limit is set");
        assert_agrees("verify_random_sql", &format!("random sql seed={seed}"), &report);
        match report.baseline().error() {
            None => answered += 1,
            Some(Failure::Engine(SnowError::Exec(e)))
                if RAISED.iter().any(|r| e.starts_with(r)) =>
            {
                failed += 1
            }
            Some(e) => panic!("{sql}: {e:?}"),
        }
    }
    // The stream reaches both outcomes: answers, and the raising operands.
    assert!(answered > failed && (failed > 0 || n < 40), "{answered} answered, {failed} failed");
}

// ---------------------------------------------------------------------------
// Known divergence: one `NULL` for SQL `NULL`, JSON `null` and a missing
// member (EXPERIMENTS.md, known divergence 4). The interpreter's answers are
// JSONiq's; every SQL point answers otherwise under both strategies.
// ---------------------------------------------------------------------------

/// JSON `null` is a value to the interpreter: it equals `null` and sorts
/// below every number. To SQL it is `NULL`, which compares to nothing.
#[test]
#[ignore = "one Variant::Null for SQL NULL, JSON null and a missing member"]
fn one_null_json_null_compares_as_a_value() {
    let db = random_db();
    let nulls = db.query("SELECT COUNT(*) FROM IRR WHERE OPT IS NULL").unwrap().rows[0][0].clone();
    for q in [
        r#"for $t in collection("IRR") where $t.OPT eq null return $t.ID"#,
        r#"for $t in collection("IRR") where exists(for $x in $t.XS[] where $x.PT lt 50 return 1) return $t.ID"#,
    ] {
        let report = verify_jsoniq(&db, q, &JsoniqLattice::full(2));
        if q.contains("eq null") {
            assert_eq!(Variant::Int(report.baseline().rows().unwrap() as i64), nulls);
        }
        assert_agrees("verify", q, &report);
    }
}

/// A `null` member is an item to the interpreter and a missing one is not;
/// an aggregate of nothing is the empty sequence. SQL's `ARRAY_AGG` skips the
/// `NULL` that stands for all three, and `MAX` of no rows is a `NULL` row.
#[test]
#[ignore = "one Variant::Null for SQL NULL, JSON null and a missing member"]
fn one_null_null_members_are_collected_and_empty_aggregates_vanish() {
    let db = random_db();
    for q in [
        r#"for $t in collection("IRR") return [ for $x in $t.XS[] return $x.PT ]"#,
        r#"for $t in collection("IRR") return max(for $x in $t.XS[] where $x.PT gt 10 return $x.ETA)"#,
    ] {
        let report = verify_jsoniq(&db, q, &JsoniqLattice::full(2));
        assert_agrees("verify", q, &report);
    }
}

// ---------------------------------------------------------------------------
// Satellite regressions: oracle cases that diverged before their fixes.
// ---------------------------------------------------------------------------

/// ADL Q7 under the JOIN-based strategy: before the optimizer stopped pushing
/// filters below volatile (SEQ8) projections, the optimized configurations
/// renumbered the left join keys after the jet-pT filter while the correlated
/// right side kept the unfiltered numbering — the histogram gained a row
/// (36 vs. 35) and bin 4.0 counted 69 instead of 70.
#[test]
fn verify_adl_q7_join_strategy_seq8_regression() {
    let db = adl_db(150);
    let q = adl::queries::queries("hep").into_iter().find(|q| q.id == "q7").unwrap();
    let report = verify_jsoniq(&db, &q.jsoniq, &JsoniqLattice::full(4));
    assert_agrees("verify", "adl q7 (SEQ8 pushdown regression)", &report);
}

/// Minimal SQL-level form of the same bug: a filter above a projection that
/// computes `SEQ8()` must not move below it — pushing it renumbers the rows,
/// so the optimized plan returned RIDs 0,1,2,... where the raw plan returned
/// 0,2,4,...
#[test]
fn verify_seq8_numbering_survives_filter_pushdown() {
    let d = Database::new();
    d.load_table(
        "t",
        vec![ColumnDef::new("ID", ColumnType::Int)],
        (0..32).map(|i| vec![Variant::Int(i)]),
        8,
    )
    .unwrap();
    let report = verify_sql(
        &d,
        "SELECT RID FROM (SELECT *, SEQ8() AS RID FROM t) WHERE ID % 2 = 0",
        &default_lattice(4),
        DEFAULT_EPSILON,
    )
    .unwrap();
    assert_agrees("verify", "SEQ8 below filter", &report);
}

/// A predicate that can raise a runtime error must not move below a non-outer
/// flatten: the flatten drops rows whose array is empty, so the unpushed plan
/// never evaluates the predicate on them. Row ID = 0 carries an empty array —
/// unpushed, `10 / ID` is never computed for it; pushed, the whole query dies
/// with a division-by-zero error only under the optimized configurations.
#[test]
fn verify_error_predicate_stays_above_flatten() {
    let d = Database::new();
    d.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("XS", ColumnType::Variant),
        ],
        (0..16).map(|i| {
            let xs: Vec<Variant> = if i == 0 {
                Vec::new()
            } else {
                (0..(i % 3 + 1)).map(Variant::Int).collect()
            };
            vec![Variant::Int(i), Variant::array(xs)]
        }),
        4,
    )
    .unwrap();
    let report = verify_sql(
        &d,
        "SELECT F.VALUE FROM t, LATERAL FLATTEN(INPUT => XS) AS F WHERE 10 / ID > 0",
        &default_lattice(2),
        DEFAULT_EPSILON,
    )
    .unwrap();
    assert_agrees("verify", "error predicate below flatten", &report);
}

/// NULL-sensitive predicates and outer flattens: `IFF`/`IS NULL` conjuncts
/// must observe the post-flatten row. The lattice must agree both when the
/// predicate touches the NULL-extended flatten output (never pushable) and
/// when a NULL-sensitive predicate over input columns meets an OUTER flatten
/// (the conservative gate keeps it above).
#[test]
fn verify_null_sensitive_predicates_and_outer_flatten() {
    let d = Database::new();
    d.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("XS", ColumnType::Variant),
        ],
        (0..12).map(|i| {
            let xs: Vec<Variant> = (0..(i % 3)).map(Variant::Int).collect();
            vec![Variant::Int(i), Variant::array(xs)]
        }),
        3,
    )
    .unwrap();
    for sql in [
        // Counts the NULL-extended rows the outer flatten preserves.
        "SELECT COUNT(*) FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F \
         WHERE F.VALUE IS NULL",
        // NULL-sensitive over input columns, above an outer flatten.
        "SELECT ID FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F \
         WHERE IFF(ID IS NULL, FALSE, ID % 2 = 0)",
    ] {
        let report = verify_sql(&d, sql, &default_lattice(2), DEFAULT_EPSILON).unwrap();
        assert_agrees("verify", sql, &report);
    }
}

/// NaN coherence across the lattice: NaN equals itself and sorts after every
/// number (Snowflake semantics), and the pruning/filter/aggregate paths must
/// apply the same total order whether or not pruning runs.
#[test]
fn verify_nan_agrees_across_lattice() {
    let d = Database::new();
    // One partition is entirely NaN so pruning sees NaN min/max.
    d.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("X", ColumnType::Float),
        ],
        (0..24).map(|i| {
            let x = if (8..16).contains(&i) { f64::NAN } else { i as f64 / 2.0 };
            vec![Variant::Int(i), Variant::Float(x)]
        }),
        8,
    )
    .unwrap();
    for sql in [
        "SELECT X FROM t ORDER BY X",
        "SELECT MIN(X), MAX(X), COUNT(*) FROM t WHERE X > 3.0",
        "SELECT X, COUNT(*) FROM t GROUP BY X",
        "SELECT COUNT(*) FROM t WHERE X = X",
    ] {
        let report = verify_sql(&d, sql, &default_lattice(4), DEFAULT_EPSILON).unwrap();
        assert_agrees("verify", sql, &report);
    }
}

/// Integer/float comparison is exact beyond 2^53: before `cmp_i64_f64`, the
/// compare path coerced `i64 as f64`, so 2^53 and 2^53+1 compared equal —
/// filters, DISTINCT and GROUP BY all disagreed with exact integer semantics
/// around the mantissa boundary. Every value here straddles that boundary.
#[test]
fn verify_large_int_float_comparison_is_exact() {
    const P53: i64 = 1 << 53;
    let d = Database::new();
    d.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("N", ColumnType::Variant),
        ],
        [
            Variant::Int(P53),
            Variant::Int(P53 + 1),
            Variant::Float(P53 as f64),
            Variant::Int(i64::MAX),
            Variant::Float(9.007199254740993e15),
            Variant::Int(-P53 - 1),
            Variant::Float(-(P53 as f64)),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, n)| vec![Variant::Int(i as i64), n]),
        2,
    )
    .unwrap();
    for sql in [
        format!("SELECT ID FROM t WHERE N = {}.0", P53),
        format!("SELECT ID FROM t WHERE N > {}", P53),
        "SELECT COUNT(DISTINCT N) FROM t".to_string(),
        "SELECT N, COUNT(*) FROM t GROUP BY N".to_string(),
        "SELECT ID FROM t ORDER BY N, ID".to_string(),
    ] {
        let report = verify_sql(&d, &sql, &default_lattice(4), DEFAULT_EPSILON).unwrap();
        assert_agrees("verify", &sql, &report);
    }
    // The exact-compare fix itself (not just lattice agreement): Int(2^53+1)
    // must not equal the float 2^53. Matching rows are Int(2^53), Float(2^53),
    // and the 9.007199254740993e15 literal (which rounds to 2^53 as an f64).
    let r = d
        .query(&format!("SELECT COUNT(*) FROM t WHERE N = {}.0", P53))
        .unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(3), "Int(2^53+1) must not match Float(2^53)");
}

/// Float group keys at the 2^63 boundary: the old guard `f <= i64::MAX as f64`
/// admitted 9223372036854775808.0 (which rounds to 2^63), so `f as i64`
/// saturated and the float silently shared a group with `Int(i64::MAX)` —
/// while `=` said they differ. The fixed `Key::of_f64` keeps eq ⇔ same key,
/// including -0.0/0.0 unification and NaN self-equality.
#[test]
fn verify_float_group_keys_at_i64_boundary() {
    let d = Database::new();
    d.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("K", ColumnType::Variant),
        ],
        [
            Variant::Int(i64::MAX),
            Variant::Float(9.223372036854776e18), // 2^63 as a float
            Variant::Int(i64::MIN),
            Variant::Float(-9.223372036854776e18), // exactly -2^63: unifies
            Variant::Float(0.0),
            Variant::Float(-0.0),
            Variant::Int(0),
            Variant::Float(f64::NAN),
            Variant::Float(f64::NAN),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| vec![Variant::Int(i as i64), k]),
        3,
    )
    .unwrap();
    for sql in [
        "SELECT K, COUNT(*) FROM t GROUP BY K",
        "SELECT COUNT(DISTINCT K) FROM t",
        "SELECT COUNT(*) FROM t a, t b WHERE a.K = b.K",
    ] {
        let report = verify_sql(&d, sql, &default_lattice(4), DEFAULT_EPSILON).unwrap();
        assert_agrees("verify", sql, &report);
    }
    // 2^63-as-float must NOT group with Int(i64::MAX); -2^63 must unify with
    // Int(i64::MIN); ±0.0 and Int(0) share one group; the two NaNs share one.
    let r = d.query("SELECT COUNT(DISTINCT K) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(5));
}

/// Drifting ingest: a column declared Int that later receives fractional,
/// out-of-range, or non-numeric values must promote to Variant and preserve
/// every value exactly — ingest once silently truncated 7.5 to
/// 7 and stored strings as NULL, so results depended on partition layout.
#[test]
fn verify_drifting_column_ingest_promotes_not_truncates() {
    let d = Database::new();
    d.load_table(
        "t",
        vec![ColumnDef::new("X", ColumnType::Int)],
        [
            Variant::Int(1),
            Variant::Float(7.5),
            Variant::Int(3),
            Variant::Float(9.223372036854776e18),
            Variant::from("drift"),
            Variant::Float(4.0), // integral: stays lossless in an Int column
            Variant::Null,
        ]
        .into_iter()
        .map(|x| vec![x]),
        2,
    )
    .unwrap();
    for sql in [
        "SELECT X FROM t",
        "SELECT COUNT(*) FROM t WHERE X = 7.5",
        "SELECT SUM(X) FROM t WHERE X < 100",
        "SELECT X, COUNT(*) FROM t GROUP BY X",
    ] {
        let report = verify_sql(&d, sql, &default_lattice(4), DEFAULT_EPSILON).unwrap();
        assert_agrees("verify", sql, &report);
    }
    // The exact values survive ingest: 7.5 is still 7.5, the string is still
    // a string, and nothing collapsed to NULL.
    let r = d.query("SELECT X FROM t").unwrap();
    let got: Vec<&Variant> = r.rows.iter().map(|row| &row[0]).collect();
    assert!(got.iter().any(|v| matches!(v, Variant::Float(f) if *f == 7.5)));
    assert!(got.iter().any(|v| matches!(v, Variant::Str(s) if &**s == "drift")));
    assert_eq!(got.iter().filter(|v| v.is_null()).count(), 1);
}

/// Random generation is reproducible: the corpus CI job and a local repro with
/// the same seed must see identical queries.
#[test]
fn verify_random_generator_deterministic() {
    let schema = adl_schema("hep");
    let mut a = StdRng::seed_from_u64(9);
    let mut b = StdRng::seed_from_u64(9);
    for _ in 0..20 {
        assert_eq!(random_query(&mut a, &schema), random_query(&mut b, &schema));
    }
    // And the stream actually varies.
    let mut c = StdRng::seed_from_u64(9);
    let qs: Vec<String> = (0..20).map(|_| random_query(&mut c, &schema)).collect();
    assert!(qs.iter().any(|q| q != &qs[0]));
    // Sanity: gen_range stays in bounds for the shapes used above.
    let mut r = StdRng::seed_from_u64(1);
    for _ in 0..100 {
        let k = r.gen_range(2..8u32);
        assert!((2..8).contains(&k));
    }
}
