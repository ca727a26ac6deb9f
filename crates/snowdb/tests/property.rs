//! Property-based tests for the engine's core data structures and invariants.

use proptest::prelude::*;

use snowdb::storage::{ColumnDef, ColumnType};
use snowdb::variant::{cmp_variants, parse_json, to_json, Key, Object};
use snowdb::verify::canonical_rows;
use snowdb::{Database, QueryOptions, Variant};

/// Strategy producing arbitrary JSON-representable variants.
fn arb_variant() -> impl Strategy<Value = Variant> {
    let leaf = prop_oneof![
        Just(Variant::Null),
        any::<bool>().prop_map(Variant::Bool),
        any::<i64>().prop_map(Variant::Int),
        // Finite doubles only: JSON cannot carry NaN/inf.
        (-1e15f64..1e15).prop_map(Variant::Float),
        "[a-zA-Z0-9 _\\-\\.\"\\\\/\u{e9}\u{4e16}]{0,12}".prop_map(|s| Variant::str(&s)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Variant::array),
            prop::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,6}", inner), 0..4).prop_map(
                |pairs| {
                    let mut o = Object::new();
                    for (k, v) in pairs {
                        o.insert(k.as_str(), v);
                    }
                    Variant::object(o)
                }
            ),
        ]
    })
}

/// Strategy producing scalar cells weighted toward the shapes that stress the
/// typed kernels: homogeneous typed runs, nulls dense enough to exercise
/// validity bitmaps, numeric boundary values (±2^53, near ±2^63), and the
/// occasional string or boolean that forces a column to promote to Variant.
fn arb_cell() -> impl Strategy<Value = Variant> {
    // The vendored proptest has no weighted arms; duplicated arms approximate
    // the intended skew toward small ints/floats and nulls.
    prop_oneof![
        Just(Variant::Null),
        Just(Variant::Null),
        (-100i64..100).prop_map(Variant::Int),
        (-100i64..100).prop_map(Variant::Int),
        (-100i64..100).prop_map(Variant::Int),
        prop_oneof![
            Just(Variant::Int((1 << 53) - 1)),
            Just(Variant::Int(1 << 53)),
            Just(Variant::Int((1 << 53) + 1)),
            Just(Variant::Int(i64::MAX)),
            Just(Variant::Int(i64::MIN)),
            any::<i64>().prop_map(Variant::Int),
        ],
        (-100.0f64..100.0).prop_map(Variant::Float),
        (-100.0f64..100.0).prop_map(Variant::Float),
        prop_oneof![
            Just(Variant::Float((1u64 << 53) as f64)),
            Just(Variant::Float(9.223372036854776e18)),
            Just(Variant::Float(-9.223372036854776e18)),
            Just(Variant::Float(-0.0)),
            Just(Variant::Float(0.5)),
        ],
        any::<bool>().prop_map(Variant::Bool),
        "[a-z]{0,4}".prop_map(|s| Variant::str(&s)),
    ]
}

/// Strategy producing string-or-null cells spanning the encoding spectrum:
/// heavy repetition from a two-token alphabet (dictionary- and run-friendly),
/// a wider alphabet (high cardinality, where encode-if-smaller declines), and
/// enough nulls to exercise the NULL code paths.
fn arb_str_cell() -> impl Strategy<Value = Variant> {
    prop_oneof![
        Just(Variant::Null),
        Just(Variant::str("a")),
        Just(Variant::str("a")),
        Just(Variant::str("aa")),
        Just(Variant::str("bb")),
        "[a-z]{0,6}".prop_map(|s| Variant::str(&s)),
    ]
}

/// Renders an execution outcome so that comparison is *stricter* than Variant
/// equality: `Variant::PartialEq` unifies `Int(1)` with `Float(1.0)`, which
/// would mask exactly the type drift the typed kernels could introduce.
fn outcome_repr(r: Result<Vec<Vec<Variant>>, String>) -> String {
    match r {
        Ok(rows) => format!("{:?}", canonical_rows(rows)),
        Err(e) => format!("error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Vectorized execution is indistinguishable from the row-at-a-time path:
    /// same rows (down to the numeric type), same errors, on random
    /// typed/mixed/null-dense tables across partition layouts.
    #[test]
    fn vectorized_matches_row_path(
        rows in prop::collection::vec((arb_cell(), arb_cell()), 1..50),
        part in 1usize..9,
    ) {
        let db = Database::new();
        db.load_table_with_partition_rows(
            "t",
            vec![
                ColumnDef::new("A", ColumnType::Variant),
                ColumnDef::new("B", ColumnType::Variant),
            ],
            rows.iter().map(|(a, b)| vec![a.clone(), b.clone()]),
            part,
        ).unwrap();
        let queries = [
            "SELECT a, b FROM t WHERE a < b",
            "SELECT a FROM t WHERE a = b",
            "SELECT a + b FROM t",
            "SELECT a * 2 - b FROM t WHERE b >= 0 AND NOT a = 3",
            "SELECT a, COUNT(*), SUM(b), MIN(b), MAX(b) FROM t GROUP BY a",
            "SELECT DISTINCT a FROM t",
            "SELECT a, b FROM t ORDER BY a, b",
            "SELECT SUM(a), AVG(a), COUNT(b), COUNT(DISTINCT a), ANY_VALUE(b) FROM t",
            "SELECT BOOLAND_AGG(a), ARRAY_AGG(b) FROM t",
            "SELECT l.a, r.b FROM t l JOIN t r ON l.a = r.a WHERE l.b > r.b",
        ];
        for sql in queries {
            let run = |vectorize: bool| {
                let opts = QueryOptions {
                    optimize: true,
                    threads: Some(1),
                    vectorize: Some(vectorize),
                    encode: None,
                };
                outcome_repr(
                    db.query_with(sql, &opts)
                        .map(|r| r.rows)
                        .map_err(|e| e.to_string()),
                )
            };
            let vec_out = run(true);
            let row_out = run(false);
            prop_assert_eq!(&vec_out, &row_out, "query diverged: {}", sql);
        }
    }

    /// Compressed execution is indistinguishable from the decoded
    /// row-at-a-time path: same rows (down to the numeric type), same errors,
    /// on random low-cardinality, high-cardinality and null-dense string
    /// tables across partition layouts. Ingest encoding is forced on so the
    /// encoded side really exercises dictionary and run-length blocks.
    #[test]
    fn encoded_matches_decoded(
        rows in prop::collection::vec((arb_str_cell(), -5i64..5), 1..60),
        part in 1usize..9,
    ) {
        snowdb::storage::set_ingest_encoding(Some(true));
        let db = Database::new();
        let loaded = db.load_table_with_partition_rows(
            "t",
            vec![
                ColumnDef::new("S", ColumnType::Str),
                ColumnDef::new("N", ColumnType::Int),
            ],
            rows.iter().map(|(s, n)| vec![s.clone(), Variant::Int(*n)]),
            part,
        );
        snowdb::storage::set_ingest_encoding(None);
        loaded.unwrap();
        let queries = [
            "SELECT s, n FROM t WHERE s = 'aa'",
            "SELECT n FROM t WHERE s IN ('a', 'bb', 'zq')",
            "SELECT n FROM t WHERE s NOT IN ('b', NULL)",
            "SELECT s, COUNT(*), SUM(n) FROM t GROUP BY s",
            "SELECT DISTINCT s FROM t",
            "SELECT s || '!' FROM t ORDER BY s, n",
            "SELECT MIN(s), MAX(s), COUNT(s), COUNT(DISTINCT s), ANY_VALUE(s) FROM t",
            "SELECT l.s, r.n FROM t l JOIN t r ON l.s = r.s WHERE l.n > r.n",
        ];
        for sql in queries {
            let run = |encode: bool| {
                let opts = QueryOptions {
                    optimize: true,
                    threads: Some(1),
                    vectorize: Some(encode),
                    encode: Some(encode),
                };
                outcome_repr(
                    db.query_with(sql, &opts)
                        .map(|r| r.rows)
                        .map_err(|e| e.to_string()),
                )
            };
            let enc_out = run(true);
            let dec_out = run(false);
            prop_assert_eq!(&enc_out, &dec_out, "query diverged: {}", sql);
        }
    }

    /// One column type from ingest to scan: cells pushed through
    /// `TableBuilder` — NULL-dense, all-NULL, with lossless Int↔Float drift
    /// or with drift that breaks the declared type — sealed with encoding on
    /// and off and written to an SNPT file come back from `read_column`
    /// equal to the input, and every `slice(lo, hi)` of the column read
    /// (empty and non-64-aligned ranges included) holds those cells, encoded
    /// or decoded.
    #[test]
    fn stored_columns_slice_back_to_the_input_cells(
        cells in prop::collection::vec((arb_cell(), arb_str_cell()), 1..200),
        drift in 0usize..4,
        run_len in 1usize..40,
        cuts in prop::collection::vec((0usize..201, 0usize..201), 1..6),
    ) {
        use snowdb::storage::TableBuilder;
        use snowdb::store::format;
        // What the two numeric columns are fed: only ints and NULLs, ints
        // and integral doubles (each shreds into the other's column while it
        // is exactly representable there), anything at all, or only NULLs.
        let tame = |v: &Variant| match (drift, v) {
            (0, Variant::Int(_)) | (1, Variant::Int(_)) | (2, _) => v.clone(),
            (1, Variant::Float(f)) => Variant::Float(f.trunc()),
            _ => Variant::Null,
        };
        let schema = vec![
            ColumnDef::new("I", ColumnType::Int),
            ColumnDef::new("F", ColumnType::Float),
            ColumnDef::new("S", ColumnType::Str),
            ColumnDef::new("R", ColumnType::Int),
            ColumnDef::new("B", ColumnType::Bool),
            ColumnDef::new("V", ColumnType::Variant),
        ];
        let rows: Vec<Vec<Variant>> = cells
            .iter()
            .enumerate()
            .map(|(i, (c, s))| {
                // Runs of `run_len` rows cycling NULL, 1, 2 (NULL, true, false).
                let r = (i / run_len % 3) as i64;
                let run = if r == 0 { Variant::Null } else { Variant::Int(r) };
                let flag = if r == 0 { Variant::Null } else { Variant::Bool(r == 1) };
                vec![tame(c), tame(c), s.clone(), run, flag, c.clone()]
            })
            .collect();
        let n = rows.len();
        for encode in [true, false] {
            snowdb::storage::set_ingest_encoding(Some(encode));
            let mut b = TableBuilder::with_partition_rows("t", schema.clone(), n);
            for row in &rows {
                b.push_row(row).unwrap();
            }
            let table = b.finish().unwrap();
            snowdb::storage::set_ingest_encoding(None);
            let path = std::env::temp_dir()
                .join(format!("snowdb-property-{}-slice.part", std::process::id()));
            format::write_partition(&path, &schema, table.partitions()[0].as_mem().unwrap())
                .unwrap();
            let footer = format::read_footer(&path).unwrap();
            for (c, meta) in footer.columns.iter().enumerate() {
                let col = format::read_column(&path, meta, footer.row_count).unwrap();
                prop_assert_eq!(col.len(), n);
                for (r, row) in rows.iter().enumerate() {
                    prop_assert_eq!(&col.get(r), &row[c], "column {} row {}", c, r);
                }
                let plain = col.decoded();
                for &(x, y) in &cuts {
                    let (lo, hi) = (x.min(y).min(n), x.max(y).min(n));
                    let slice = col.slice(lo, hi);
                    let decoded = plain.slice(lo, hi);
                    prop_assert_eq!(slice.len(), hi - lo);
                    prop_assert_eq!(decoded.len(), hi - lo);
                    prop_assert_eq!(decoded.is_encoded(), false);
                    for i in 0..hi - lo {
                        let cell = slice.get(i);
                        prop_assert_eq!(&cell, &rows[lo + i][c], "column {} {}..{} row {}", c, lo, hi, i);
                        // Encoded or not, down to the numeric type.
                        prop_assert_eq!(format!("{cell:?}"), format!("{:?}", decoded.get(i)));
                        prop_assert_eq!(format!("{cell:?}"), format!("{:?}", slice.decoded().get(i)));
                        prop_assert_eq!(slice.is_null_at(i), cell.is_null());
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// JSON serialization round-trips every representable value.
    #[test]
    fn json_roundtrip(v in arb_variant()) {
        let text = to_json(&v);
        let back = parse_json(&text).expect("serialized JSON re-parses");
        prop_assert_eq!(&v, &back);
        // And serialization is stable across one round trip.
        prop_assert_eq!(to_json(&back), text);
    }

    /// `cmp_variants` is a total order: antisymmetric and transitive on samples.
    #[test]
    fn cmp_is_total_order(a in arb_variant(), b in arb_variant(), c in arb_variant()) {
        use std::cmp::Ordering::*;
        let ab = cmp_variants(&a, &b);
        let ba = cmp_variants(&b, &a);
        prop_assert_eq!(ab, ba.reverse());
        if cmp_variants(&a, &b) != Greater && cmp_variants(&b, &c) != Greater {
            prop_assert_ne!(cmp_variants(&a, &c), Greater);
        }
    }

    /// Canonical keys agree with equality: equal variants hash-key equally.
    #[test]
    fn key_respects_equality(v in arb_variant()) {
        prop_assert_eq!(Key::of(&v), Key::of(&v.clone()));
        // Int/Float unification.
        if let Variant::Int(i) = &v {
            if i.unsigned_abs() < (1u64 << 52) {
                prop_assert_eq!(Key::of(&v), Key::of(&Variant::Float(*i as f64)));
            }
        }
    }

    /// Storage round-trip: values written to a VARIANT column come back equal,
    /// regardless of partitioning.
    #[test]
    fn table_roundtrip(values in prop::collection::vec(arb_variant(), 1..40),
                       part in 1usize..8) {
        let db = Database::new();
        db.load_table_with_partition_rows(
            "t",
            vec![ColumnDef::new("V", ColumnType::Variant)],
            values.iter().cloned().map(|v| vec![v]),
            part,
        ).unwrap();
        let r = db.query("SELECT v FROM t").unwrap();
        prop_assert_eq!(r.rows.len(), values.len());
        for (row, v) in r.rows.iter().zip(&values) {
            prop_assert_eq!(&row[0], v);
        }
    }

    /// The SQL lexer never panics, whatever the input.
    #[test]
    fn lexer_never_panics(s in "\\PC*") {
        let _ = snowdb::sql::lexer::tokenize(&s);
    }

    /// The SQL parser never panics on arbitrary token soup.
    #[test]
    fn parser_never_panics(s in "[a-zA-Z0-9_ ,.()*'\"<>=:\\[\\]+-]*") {
        let _ = snowdb::sql::parse_query(&s);
    }

    /// Zone-map pruning never changes results: a partitioned table filtered by
    /// a range predicate returns the same rows as an unpartitioned one.
    #[test]
    fn pruning_preserves_results(values in prop::collection::vec(-1000i64..1000, 1..60),
                                 lo in -1000i64..1000) {
        let mk = |part: usize| {
            let db = Database::new();
            db.load_table_with_partition_rows(
                "t",
                vec![ColumnDef::new("X", ColumnType::Int)],
                values.iter().map(|&v| vec![Variant::Int(v)]),
                part,
            ).unwrap();
            let mut rows = db
                .query(&format!("SELECT x FROM t WHERE x >= {lo}"))
                .unwrap()
                .rows;
            rows.sort_by(|a, b| cmp_variants(&a[0], &b[0]));
            rows
        };
        prop_assert_eq!(mk(4), mk(1000));
    }

    /// Aggregation invariant: COUNT(*) equals the sum of per-group COUNTs.
    #[test]
    fn group_counts_partition_the_table(values in prop::collection::vec(0i64..10, 1..60)) {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            values.iter().map(|&v| vec![Variant::Int(v)]),
        ).unwrap();
        let total = db.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0]
            .as_i64().unwrap();
        let per_group: i64 = db
            .query("SELECT x, COUNT(*) AS c FROM t GROUP BY x")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[1].as_i64().unwrap())
            .sum();
        prop_assert_eq!(total, per_group);
        prop_assert_eq!(total, values.len() as i64);
    }

    /// Flatten/reaggregate round-trip: unboxing an array column and
    /// ARRAY_AGGing it back per row id reproduces the original arrays.
    #[test]
    fn flatten_reaggregate_roundtrip(
        arrays in prop::collection::vec(prop::collection::vec(-100i64..100, 0..6), 1..20)
    ) {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Variant)],
            arrays.iter().map(|a| {
                vec![Variant::array(a.iter().map(|&i| Variant::Int(i)).collect())]
            }),
        ).unwrap();
        let r = db.query(
            "SELECT any_value(a) AS orig, array_agg(f.value) AS rebuilt \
             FROM (SELECT seq8() AS rid, a FROM t), \
                  LATERAL FLATTEN(INPUT => a, OUTER => TRUE) f \
             GROUP BY rid",
        ).unwrap();
        prop_assert_eq!(r.rows.len(), arrays.len());
        for row in &r.rows {
            prop_assert_eq!(&row[0], &row[1]);
        }
    }
}
