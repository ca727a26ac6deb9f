//! Property-based tests for the engine's core data structures and invariants.

mod common;

use proptest::prelude::*;

use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
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

/// Strategy producing well-formed SQL expression *texts*: literals, columns,
/// arithmetic, comparisons, `CASE`, `IN`, `BETWEEN`, casts, variant paths and
/// calls, over strings and quoted identifiers that contain quotes,
/// parentheses, commas, comment openers and the words a statement is cut at.
fn arb_expr_text() -> impl Strategy<Value = String> {
    arb_expr_text_over(&["a", "b", "t.a", "\"a'b\"", "\"SET\"", "values_log", "where_"])
}

/// As [`arb_expr_text`], naming these columns (and the variant column `v`).
fn arb_expr_text_over(names: &'static [&'static str]) -> impl Strategy<Value = String> {
    let fixed = |texts: &'static [&'static str]| {
        (0..texts.len()).prop_map(move |i| texts[i].to_string())
    };
    let leaf = prop_oneof![
        (0i64..1000).prop_map(|i| i.to_string()),
        fixed(&["2.5", "1e3", "NULL", "TRUE", "FALSE"]),
        fixed(names),
        fixed(&["v:a.b[0]", "v:\"k ) , (\"", "v['where'][b]"]),
        fixed(&[
            "'it''s'", "'(1), (2'", "') -- x'", "' VALUES (SET) WHERE '", "'/* ;'", "'\"'",
            "'a,b'",
        ]),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        let e = move || inner.clone();
        prop_oneof![
            (e(), fixed(&["+", "-", "*", "/", "%", "||"]), e())
                .prop_map(|(a, op, b)| format!("({a}) {op} ({b})")),
            (e(), fixed(&["=", "<>", "!=", "<", "<=", ">", ">="]), e())
                .prop_map(|(a, op, b)| format!("({a}) {op} ({b})")),
            (e(), fixed(&["AND", "OR"]), e()).prop_map(|(a, op, b)| format!("({a}) {op} {b}")),
            e().prop_map(|a| format!("NOT ({a})")),
            e().prop_map(|a| format!("- ({a})")),
            e().prop_map(|a| format!("({a}) IS NOT NULL")),
            (e(), e(), e()).prop_map(|(a, b, c)| format!("CASE WHEN {a} THEN {b} ELSE {c} END")),
            (e(), e(), e()).prop_map(|(a, b, c)| format!("CASE {a} WHEN {b} THEN {c} END")),
            (e(), e(), e()).prop_map(|(a, b, c)| format!("({a}) NOT IN ({b}, {c})")),
            (e(), e(), e()).prop_map(|(a, b, c)| format!("({a}) BETWEEN ({b}) AND ({c})")),
            e().prop_map(|a| format!("({a})::NUMBER(38, 0)")),
            e().prop_map(|a| format!("CAST({a} AS VARCHAR)")),
            (e(), e()).prop_map(|(a, b)| format!("COALESCE({a}, {b})")),
            (e(), e()).prop_map(|(a, b)| format!("({a})[{b}].f")),
        ]
    })
}

/// The trees `SELECT e1, …, en` builds for its items.
fn select_items(exprs: &[String]) -> Vec<snowdb::sql::Expr> {
    use snowdb::sql::{SelectItem, SetExpr};
    let sql = format!("SELECT {}", exprs.join(", "));
    let query = snowdb::sql::parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let SetExpr::Select(select) = query.body else { panic!("{sql}: not a plain select") };
    let item = |it| match it {
        SelectItem::Expr { expr, alias: None } => expr,
        other => panic!("{sql}: {other:?}"),
    };
    select.items.into_iter().map(item).collect()
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
        db.load_table(
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
            // Functions, guards, casts, LIKE, / and %: a kernel each, and the
            // row path's errors when one fails.
            "SELECT SQRT(ABS(a)), COS(b), FLOOR(a / 2), SIGN(b), POWER(a, 2) FROM t",
            "SELECT IFF(b = 0, NULL, a / b) FROM t",
            "SELECT a / b FROM t",
            "SELECT a % b, MOD(a, b), DIV0(a, b) FROM t",
            "SELECT CASE WHEN a > b THEN a ELSE b END, NVL(a, b), COALESCE(b, a, 0) FROM t",
            "SELECT a::DOUBLE, b::INT, a::VARCHAR, TYPEOF(a + b) FROM t",
            "SELECT a FROM t WHERE a::VARCHAR LIKE '1%' OR b IS NULL",
            "SELECT SEQ8(), a, SEQ8() FROM t",
            "SELECT a, MIN_BY(b, a), MAX_BY(a, b) FROM t GROUP BY a",
            "SELECT MIN_BY(a, b), COUNT(*) FROM t",
            "SELECT OBJECT_CONSTRUCT('a', a, 'b', ARRAY_CONSTRUCT(a, b)), \
                    GET(ARRAY_CONSTRUCT(a, b), 1), ARRAY_SIZE(ARRAY_CAT(ARRAY_CONSTRUCT(a), ARRAY_CONSTRUCT(b))) FROM t",
            "SELECT a, b FROM t ORDER BY IFF(b > 0, a / b, 0), a",
        ];
        for sql in queries {
            let run = |vectorize: bool| {
                let opts = QueryOptions { threads: Some(1), vectorize, ..Default::default() };
                outcome_repr(
                    db.query_with(sql, &opts)
                        .map(|r| r.rows)
                        .map_err(|e| e.to_string()),
                )
            };
            let vec_out = run(true);
            let row_out = run(false);
            prop_assert_eq!(&vec_out, &row_out, "query diverged: {}", sql);
            // Both sides rejecting the text would agree too, and test nothing.
            for front_end in ["lex error", "parse error", "plan error"] {
                prop_assert!(!row_out.contains(front_end), "{}: {}", sql, row_out);
            }
        }
    }

    /// Compressed execution is indistinguishable from the decoded
    /// row-at-a-time path: same rows (down to the numeric type), same errors,
    /// on random low-cardinality, high-cardinality and null-dense string
    /// tables across partition layouts. Every seal encodes if smaller, so the
    /// encoded side really exercises dictionary and run-length blocks.
    #[test]
    fn encoded_matches_decoded(
        rows in prop::collection::vec((arb_str_cell(), -5i64..5), 1..60),
        part in 1usize..9,
    ) {
        let db = Database::new();
        db.load_table(
            "t",
            vec![
                ColumnDef::new("S", ColumnType::Str),
                ColumnDef::new("N", ColumnType::Int),
            ],
            rows.iter().map(|(s, n)| vec![s.clone(), Variant::Int(*n)]),
            part,
        )
        .unwrap();
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
                    vectorize: encode,
                    encode,
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
    /// or with drift that breaks the declared type — sealed (encoded if
    /// smaller) or as plain columns and written to an SNPT file come back from `read_column`
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
        use snowdb::storage::{MemSink, MicroPartition, TableBuilder};
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
        let mut b = TableBuilder::new("t", schema.clone(), n, Box::new(MemSink)).unwrap();
        for row in &rows {
            b.push_row(row).unwrap();
        }
        let table = b.finish().unwrap();
        let sealed = table.partitions()[0].as_mem().unwrap().clone();
        let plain = MicroPartition::from_arc_columns(
            (0..schema.len()).map(|c| std::sync::Arc::new(sealed.column(c).decoded())).collect(),
        );
        for part in [&sealed, &plain] {
            let path = std::env::temp_dir()
                .join(format!("snowdb-property-{}-slice.part", std::process::id()));
            std::fs::write(&path, format::encode_partition(&schema, part).0).unwrap();
            let footer = format::read_footer(&path).unwrap();
            for c in 0..footer.columns.len() {
                let col = format::read_column(&path, &footer, c).unwrap();
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
        db.load_table(
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

    /// The SQL parser never panics on arbitrary token soup, as a query or
    /// behind any statement's opening words.
    #[test]
    fn parser_never_panics(s in "[a-zA-Z0-9_ ,.()*'\"<>=:;/\\[\\]+-]*") {
        let _ = snowdb::sql::parse_query(&s);
        for opening in [
            "", "EXPLAIN ", "EXPLAIN ANALYZE ", "VERIFY ", "CREATE ", "CREATE TABLE t (",
            "CREATE TABLE t CLONE u ", "INSERT ", "INSERT INTO t VALUES ", "UPDATE ",
            "UPDATE t SET ", "DELETE ", "DELETE FROM t WHERE ", "DROP ", "UNDROP ", "SET ",
            "UNSET ", "BEGIN ", "START ", "COMMIT ", "ROLLBACK ",
        ] {
            let _ = snowdb::sql::parse_statement(&format!("{opening}{s}"));
        }
    }

    /// `INSERT`/`UPDATE`/`DELETE` parse their expressions where they stand,
    /// to the trees the query grammar builds for the same texts — the old
    /// implementation (cut the text, re-parse `SELECT <text>`) kept as the
    /// reference.
    #[test]
    fn dml_expressions_parse_as_select_items(
        tuples in prop::collection::vec(prop::collection::vec(arb_expr_text(), 1..4), 1..3),
        pred in arb_expr_text(),
    ) {
        use snowdb::sql::{parse_statement, Statement};

        let rows: Vec<Vec<_>> = tuples.iter().map(|t| select_items(t)).collect();
        let pred_tree = select_items(std::slice::from_ref(&pred)).remove(0);
        let values: Vec<String> = tuples.iter().map(|t| format!("({})", t.join(", "))).collect();
        prop_assert_eq!(
            parse_statement(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap(),
            Statement::Insert { table: "T".into(), rows: rows.clone() }
        );
        let assigns: Vec<String> =
            tuples[0].iter().enumerate().map(|(i, e)| format!("c{i} = {e}")).collect();
        let sets: Vec<_> =
            rows[0].iter().enumerate().map(|(i, e)| (format!("C{i}"), e.clone())).collect();
        prop_assert_eq!(
            parse_statement(&format!("UPDATE t SET {} WHERE {pred}", assigns.join(", "))).unwrap(),
            Statement::Update { table: "T".into(), sets, predicate: Some(pred_tree.clone()) }
        );
        prop_assert_eq!(
            parse_statement(&format!("DELETE FROM t WHERE {pred}")).unwrap(),
            Statement::Delete { table: "T".into(), predicate: Some(pred_tree) }
        );
    }

    /// The binder's two scopes agree wherever both apply. Grouped by every
    /// column, in column order, group position is column position: the select
    /// list binds to the expressions it binds to with no GROUP BY at all, or
    /// fails with the same text. And a column that is not grouped is the same
    /// error from the select list and from `HAVING`.
    #[test]
    fn grouped_and_plain_scopes_bind_alike(
        items in prop::collection::vec(arb_expr_text_over(&["a", "b", "v"]), 1..4),
        one in arb_expr_text_over(&["a", "b", "v"]),
    ) {
        use snowdb::plan::{bind_query, NodeKind};

        let db = Database::new();
        db.execute("CREATE TABLE t (a INT, b INT, v VARIANT)").unwrap();
        let snapshot = db.snapshot();
        // The top projection's expressions, rendered strictly (`1` is not `1.0`).
        let bound = |sql: &str| -> Result<String, String> {
            let query = snowdb::sql::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            match bind_query(&query, &*snapshot).map(|plan| plan.kind) {
                Ok(NodeKind::Project { exprs, .. }) => Ok(format!("{exprs:?}")),
                Ok(other) => panic!("{sql}: {other:?}"),
                Err(e) => Err(e.to_string()),
            }
        };
        let list = items.join(", ");
        prop_assert_eq!(
            bound(&format!("SELECT {list} FROM t GROUP BY a, b, v")),
            bound(&format!("SELECT {list} FROM t"))
        );
        prop_assert_eq!(
            bound(&format!("SELECT a FROM t GROUP BY a HAVING {one}")).err(),
            bound(&format!("SELECT {one} FROM t GROUP BY a")).err()
        );
    }

    /// Partition pruning never changes results: a partitioned table filtered by
    /// a range predicate returns the same rows as an unpartitioned one.
    #[test]
    fn pruning_preserves_results(values in prop::collection::vec(-1000i64..1000, 1..60),
                                 lo in -1000i64..1000) {
        let mk = |part: usize| {
            let db = Database::new();
            db.load_table(
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
            DEFAULT_PARTITION_ROWS,
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
            DEFAULT_PARTITION_ROWS,
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

// ---------------------------------------------------------------------------
// The batch evaluator against the row evaluator, expression by expression
// ---------------------------------------------------------------------------

mod dag_differential {
    use std::sync::Arc;

    use rand::{Rng, SeedableRng, StdRng};
    use snowdb::column::{ColumnVec, NULL_CODE};
    use snowdb::exec::dag::{ExprDag, Seq8Calls};
    use snowdb::exec::pipeline::eval_rows;
    use snowdb::exec::{Chunk, ExecCtx};
    use snowdb::plan::{CastType, FuncId, PExpr, PStep};
    use snowdb::sql::{BinOp, UnaryOp};
    use snowdb::variant::Object;
    use snowdb::Variant;

    const FUNCS: [FuncId; 45] = [
        FuncId::Abs,
        FuncId::Sqrt,
        FuncId::Power,
        FuncId::Exp,
        FuncId::Ln,
        FuncId::Log,
        FuncId::Floor,
        FuncId::Ceil,
        FuncId::Round,
        FuncId::Sign,
        FuncId::Mod,
        FuncId::Atan,
        FuncId::Atan2,
        FuncId::Asin,
        FuncId::Acos,
        FuncId::Sin,
        FuncId::Cos,
        FuncId::Tan,
        FuncId::Sinh,
        FuncId::Cosh,
        FuncId::Tanh,
        FuncId::Pi,
        FuncId::Greatest,
        FuncId::Least,
        FuncId::Coalesce,
        FuncId::Nvl,
        FuncId::NullIf,
        FuncId::Iff,
        FuncId::Div0,
        FuncId::ObjectConstruct,
        FuncId::ArrayConstruct,
        FuncId::ArraySize,
        FuncId::ArrayCat,
        FuncId::ArrayContains,
        FuncId::ArrayFilter,
        FuncId::Get,
        FuncId::TypeOf,
        FuncId::ToDouble,
        FuncId::Upper,
        FuncId::Lower,
        FuncId::Substr,
        FuncId::Length,
        FuncId::Concat,
        FuncId::Seq8,
        // Listed twice on purpose: the guard every translated query uses.
        FuncId::Iff,
    ];

    const BINOPS: [BinOp; 14] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::And,
        BinOp::Or,
        BinOp::Concat,
    ];

    const CASTS: [CastType; 5] =
        [CastType::Int, CastType::Float, CastType::Bool, CastType::Str, CastType::Variant];

    const N_COLS: usize = 10;

    fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
        xs[rng.gen_range(0..xs.len())]
    }

    fn int_cell(rng: &mut StdRng) -> Variant {
        match rng.gen_range(0..10) {
            0 => Variant::Null,
            1 => Variant::Int(0),
            2 => Variant::Int(pick(rng, &[i64::MAX, i64::MIN, i64::MIN + 1, -1, 1 << 53])),
            _ => Variant::Int(rng.gen_range(-4i64..5)),
        }
    }

    fn float_cell(rng: &mut StdRng) -> Variant {
        match rng.gen_range(0..10) {
            0 => Variant::Null,
            1 => Variant::Float(pick(rng, &[0.0, -0.0, f64::NAN, f64::INFINITY, -1e300])),
            2 => Variant::Float(rng.gen_range(-4i64..5) as f64),
            _ => Variant::Float(rng.gen_range(-3.0f64..3.0)),
        }
    }

    fn str_cell(rng: &mut StdRng) -> Variant {
        match rng.gen_range(0..6) {
            0 => Variant::Null,
            _ => Variant::str(pick(rng, &["a", "ab", "b%", "", " 12 ", "true", "1.5"])),
        }
    }

    fn nested_cell(rng: &mut StdRng) -> Variant {
        if rng.gen_bool(0.5) {
            let n = rng.gen_range(0..4);
            Variant::array((0..n).map(|_| any_cell(rng, 1)).collect())
        } else {
            let mut o = Object::new();
            for key in ["A", "B", "PT"] {
                if rng.gen_bool(0.7) {
                    o.insert(key, any_cell(rng, 1));
                }
            }
            Variant::object(o)
        }
    }

    fn any_cell(rng: &mut StdRng, depth: u32) -> Variant {
        match rng.gen_range(0..7) {
            0 => int_cell(rng),
            1 => float_cell(rng),
            2 => str_cell(rng),
            3 => Variant::Bool(rng.gen_bool(0.5)),
            4 | 5 if depth == 0 => nested_cell(rng),
            _ => Variant::Null,
        }
    }

    /// A batch with every column representation: typed, boxed and mixed,
    /// dictionary and run-length encoded, untyped NULLs.
    fn batch(rng: &mut StdRng) -> Chunk {
        let n = rng.gen_range(0..24usize);
        let col = |rng: &mut StdRng, f: fn(&mut StdRng) -> Variant| {
            ColumnVec::from_variants((0..n).map(|_| f(rng)).collect())
        };
        let dict: Arc<Vec<Arc<str>>> =
            Arc::new(["a", "ab", "b%"].iter().map(|s| Arc::from(*s)).collect());
        let codes = (0..n)
            .map(|_| if rng.gen_bool(0.2) { NULL_CODE } else { rng.gen_range(0..3u32) })
            .collect();
        // Runs of 1-4 rows over a small integer domain, NULL runs included.
        let (mut ends, mut run_vals, mut at) = (Vec::new(), Vec::new(), 0usize);
        while at < n {
            at = (at + rng.gen_range(1..5usize)).min(n);
            ends.push(at as u32);
            run_vals.push(int_cell(rng));
        }
        let cols = vec![
            col(rng, int_cell),
            col(rng, float_cell),
            col(rng, |r| if r.gen_bool(0.2) { Variant::Null } else { Variant::Bool(r.gen_bool(0.5)) }),
            col(rng, str_cell),
            col(rng, |r| any_cell(r, 0)),
            ColumnVec::DictStr { codes, dict },
            ColumnVec::Runs { ends, values: Box::new(ColumnVec::from_variants(run_vals)) },
            ColumnVec::Var((0..n).map(|_| nested_cell(rng)).collect()),
            ColumnVec::Null(n),
            // Mixed Int/Float: what a JSON number field shreds to.
            ColumnVec::Var(
                (0..n)
                    .map(|_| if rng.gen_bool(0.5) { int_cell(rng) } else { float_cell(rng) })
                    .collect(),
            ),
        ];
        assert_eq!(cols.len(), N_COLS);
        Chunk { cols, rows: n }
    }

    fn lit(rng: &mut StdRng) -> PExpr {
        PExpr::Lit(match rng.gen_range(0..8) {
            0 => Variant::Null,
            1 => Variant::Int(0),
            2 => Variant::Float(0.0),
            3 => Variant::Bool(rng.gen_bool(0.5)),
            4 => Variant::str(pick(rng, &["a", "a%", "_b", "A", "="])),
            5 => int_cell(rng),
            6 => float_cell(rng),
            _ => Variant::Int(rng.gen_range(0i64..3)),
        })
    }

    fn func(f: FuncId, args: Vec<PExpr>) -> PExpr {
        PExpr::Func { f, args }
    }

    fn bin(l: PExpr, op: BinOp, r: PExpr) -> PExpr {
        PExpr::Binary { left: Box::new(l), op, right: Box::new(r) }
    }

    /// The usual arity of a function, sometimes off by one: a malformed call
    /// must fail the same way on both paths.
    fn arity(rng: &mut StdRng, f: FuncId) -> usize {
        let usual = match f {
            FuncId::Pi | FuncId::Seq8 => 0,
            FuncId::Power
            | FuncId::Log
            | FuncId::Mod
            | FuncId::Atan2
            | FuncId::Nvl
            | FuncId::NullIf
            | FuncId::Div0
            | FuncId::ArrayCat
            | FuncId::ArrayContains
            | FuncId::Get => 2,
            FuncId::Iff => 3,
            FuncId::ArrayFilter => 4,
            FuncId::Round => rng.gen_range(1..3),
            FuncId::Substr => rng.gen_range(2..4),
            FuncId::Greatest
            | FuncId::Least
            | FuncId::Coalesce
            | FuncId::ArrayConstruct
            | FuncId::Concat => rng.gen_range(1..4),
            FuncId::ObjectConstruct => 2 * rng.gen_range(0..7usize),
            _ => 1,
        };
        if rng.gen_range(0..40) == 0 {
            usual + 1
        } else {
            usual
        }
    }

    /// A random expression over the batch's columns. `pool` holds subtrees
    /// generated so far; reusing one is what gives the DAG something to share.
    fn expr(rng: &mut StdRng, depth: u32, pool: &mut Vec<PExpr>) -> PExpr {
        if !pool.is_empty() && rng.gen_range(0..6) == 0 {
            return pool[rng.gen_range(0..pool.len())].clone();
        }
        if depth == 0 || rng.gen_range(0..5) == 0 {
            return if rng.gen_bool(0.7) {
                PExpr::Col(rng.gen_range(0..N_COLS + 1)) // one past the end, rarely
            } else {
                lit(rng)
            };
        }
        let sub = |rng: &mut StdRng, pool: &mut Vec<PExpr>| Box::new(expr(rng, depth - 1, pool));
        let e = match rng.gen_range(0..14) {
            0 => PExpr::Unary {
                op: if rng.gen_bool(0.8) { UnaryOp::Neg } else { UnaryOp::Plus },
                expr: sub(rng, pool),
            },
            1 => PExpr::Not(sub(rng, pool)),
            2 => PExpr::IsNull { expr: sub(rng, pool), negated: rng.gen_bool(0.5) },
            3..=5 => {
                let op = pick(rng, &BINOPS);
                bin(*sub(rng, pool), op, *sub(rng, pool))
            }
            6 => PExpr::InList {
                expr: sub(rng, pool),
                list: (0..rng.gen_range(0..4))
                    .map(|_| if rng.gen_bool(0.6) { lit(rng) } else { *sub(rng, pool) })
                    .collect(),
                negated: rng.gen_bool(0.5),
            },
            7 => PExpr::Case {
                operand: rng.gen_bool(0.4).then(|| sub(rng, pool)),
                branches: (0..rng.gen_range(1..3))
                    .map(|_| (*sub(rng, pool), *sub(rng, pool)))
                    .collect(),
                else_expr: rng.gen_bool(0.6).then(|| sub(rng, pool)),
            },
            8..=10 => {
                let f = pick(rng, &FUNCS);
                let n = arity(rng, f);
                func(f, (0..n).map(|_| *sub(rng, pool)).collect())
            }
            11 => PExpr::Cast { expr: sub(rng, pool), ty: pick(rng, &CASTS) },
            12 => PExpr::Path {
                base: sub(rng, pool),
                steps: (0..rng.gen_range(1..3))
                    .map(|_| match rng.gen_range(0..4) {
                        0 => PStep::Index(rng.gen_range(-1i64..3)),
                        1 => PStep::IndexExpr(sub(rng, pool)),
                        _ => PStep::Field(pick(rng, &["A", "B", "PT", "none"]).into()),
                    })
                    .collect(),
            },
            _ => PExpr::Like {
                expr: sub(rng, pool),
                pattern: sub(rng, pool),
                negated: rng.gen_bool(0.5),
            },
        };
        pool.push(e.clone());
        e
    }

    /// The shapes the translator and the handwritten queries lean on, which
    /// uniform sampling would rarely assemble.
    fn idiom(rng: &mut StdRng, pool: &mut Vec<PExpr>) -> PExpr {
        let num = |rng: &mut StdRng| PExpr::Col(pick(rng, &[0usize, 1, 6, 9]));
        let (x, y) = (num(rng), num(rng));
        let zero = PExpr::Lit(Variant::Int(0));
        let div = bin(y.clone(), pick(rng, &[BinOp::Div, BinOp::Mod]), x.clone());
        let seq = || func(FuncId::Seq8, vec![]);
        match rng.gen_range(0..8) {
            // A guarded division, and the same division with no guard.
            0 => func(
                FuncId::Iff,
                vec![bin(x, BinOp::Eq, zero), PExpr::Lit(Variant::Null), div],
            ),
            1 => div,
            2 => bin(bin(x.clone(), BinOp::NotEq, zero), BinOp::And, bin(div, BinOp::Gt, y)),
            // SEQ8: once, twice, and behind a guard (no kernel).
            3 => seq(),
            4 => bin(seq(), BinOp::Mul, seq()),
            5 => func(FuncId::Coalesce, vec![x, seq()]),
            // The pT·cos(φ) family: one subtree, many readers.
            6 => {
                let px = bin(x.clone(), BinOp::Mul, func(FuncId::Cos, vec![y.clone()]));
                let py = bin(x, BinOp::Mul, func(FuncId::Sin, vec![y]));
                let sum = bin(bin(px.clone(), BinOp::Mul, px), BinOp::Add, bin(py.clone(), BinOp::Mul, py));
                func(FuncId::Sqrt, vec![sum])
            }
            _ => func(
                FuncId::ObjectConstruct,
                vec![
                    PExpr::Lit(Variant::str("k")),
                    PExpr::Path { base: Box::new(PExpr::Col(7)), steps: vec![PStep::Field("PT".into())] },
                    PExpr::Lit(Variant::str("n")),
                    func(FuncId::ArraySize, vec![expr(rng, 1, pool)]),
                ],
            ),
        }
    }

    /// The executor's row producer, as a projection runs it: row-major, the
    /// counter restarted at `base + r` for every row.
    fn row_loop(dag: &ExprDag<'_>, inp: &Chunk, base: i64) -> Result<Vec<Vec<Variant>>, String> {
        let cols = eval_rows(dag, inp, &mut ExecCtx::default(), Some(base));
        match cols.complete() {
            Ok(cols) => Ok(cols.into_iter().map(|c| c.into_owned().into_variants()).collect()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Seeded random projection lists over every expression shape and every
    /// function: the DAG either reproduces the row loop cell for cell — down
    /// to `Int` against `Float` and the sign of zero — or declines, which it
    /// must do whenever the row loop fails and, two stated cases aside, only
    /// then.
    #[test]
    fn batch_evaluator_equals_the_row_loop_or_declines() {
        let (mut agreed, mut failed, mut shared) = (0u32, 0u32, 0u32);
        for seed in 0..6000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inp = batch(&mut rng);
            let mut pool = Vec::new();
            let exprs: Vec<PExpr> = (0..rng.gen_range(1..4))
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        idiom(&mut rng, &mut pool)
                    } else {
                        expr(&mut rng, 4, &mut pool)
                    }
                })
                .collect();
            let base = rng.gen_range(0i64..1000);
            let dag = ExprDag::compile(&exprs);
            shared += u32::from(dag.dag_nodes() < dag.tree_nodes());
            let rows = row_loop(&dag, &inp, base);
            let cols = dag.eval(&inp, base, None);
            match (rows, cols) {
                (Ok(rows), Some(cols)) => {
                    for (k, (want, got)) in rows.iter().zip(&cols).enumerate() {
                        assert_eq!(got.len(), inp.rows, "seed {seed}: column {k} length");
                        for (r, w) in want.iter().enumerate() {
                            assert_eq!(
                                format!("{:?}", got.get(r)),
                                format!("{w:?}"),
                                "seed {seed}: row {r} of {:?}",
                                exprs[k]
                            );
                        }
                    }
                    agreed += 1;
                }
                (Err(e), Some(_)) => {
                    panic!("seed {seed}: the row loop fails ({e}) where the DAG answered: {exprs:?}")
                }
                (Err(_), None) => failed += 1,
                // Legal, and expected of a guarded SEQ8() (its calls have no
                // kernel) and of an empty batch (a constant that fails is
                // left to the row loop, which has no row to fail on).
                (Ok(_), None) if dag.seq8() == Seq8Calls::Guarded || inp.rows == 0 => {}
                (Ok(_), None) => {
                    panic!("seed {seed}: the DAG declined a batch the row loop evaluates: {exprs:?}")
                }
            }
        }
        // The generator reaches all three outcomes, and repeats subtrees.
        assert!(agreed > 2000 && failed > 300 && shared > 1000, "{agreed} {failed} {shared}");
    }

    /// The DAG's answer to `e` over `inp` against the row loop's: the same
    /// cells, or a decline exactly where the row loop fails. Returns whether
    /// the row loop evaluated the batch.
    fn agrees(seed: u64, inp: &Chunk, e: &PExpr) -> bool {
        let dag = ExprDag::compile([e]);
        match (row_loop(&dag, inp, 0), dag.eval(inp, 0, None)) {
            (Ok(rows), Some(cols)) => {
                for (r, want) in rows[0].iter().enumerate() {
                    assert_eq!(format!("{:?}", cols[0].get(r)), format!("{want:?}"), "seed {seed}: row {r} of {e:?}");
                }
                true
            }
            (Err(err), Some(_)) => panic!("seed {seed}: the row loop fails ({err}) where the DAG answered: {e:?}"),
            (Err(_), None) => false,
            // A constant that fails is left to the row loop, which has no row
            // to fail on in an empty batch.
            (Ok(_), None) if inp.rows == 0 => false,
            (Ok(_), None) => panic!("seed {seed}: the DAG declined a batch the row loop evaluates: {e:?}"),
        }
    }

    const CMPS: [BinOp; 6] = [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq];

    /// Every comparison operator over every pair of operand representations
    /// — typed, boxed, dictionary, run-length and NULL columns, and scalars
    /// of every type, on either side — and `AND`/`OR` trees of such
    /// comparisons, whose right operands the kernels run unnarrowed when they
    /// cannot fail: the DAG equals the row loop cell for cell, and declines
    /// exactly where the row loop fails.
    #[test]
    fn comparisons_of_every_representation_pair_equal_the_row_loop() {
        let scalars = [
            Variant::Null,
            Variant::Int(0),
            Variant::Int(-3),
            Variant::Int(i64::MAX),
            Variant::Int((1 << 53) + 1),
            Variant::Float(-0.0),
            Variant::Float(2.5),
            Variant::Float(f64::NAN),
            Variant::Float(f64::NEG_INFINITY),
            Variant::Float((1i64 << 53) as f64),
            Variant::Bool(false),
            Variant::str("a"),
            Variant::str(" 12 "),
        ];
        let operands: Vec<PExpr> = (0..N_COLS)
            .map(PExpr::Col)
            .chain(scalars.iter().cloned().map(PExpr::Lit))
            .collect();
        let (mut answered, mut failed) = (0u32, 0u32);
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inp = batch(&mut rng);
            for l in &operands {
                for r in &operands {
                    for op in CMPS {
                        match agrees(seed, &inp, &bin(l.clone(), op, r.clone())) {
                            true => answered += 1,
                            false => failed += 1,
                        }
                    }
                }
            }
            for _ in 0..300 {
                let mut cmp = || {
                    let pick = |rng: &mut StdRng| operands[rng.gen_range(0..operands.len())].clone();
                    let (l, r) = (pick(&mut rng), pick(&mut rng));
                    bin(l, CMPS[rng.gen_range(0..CMPS.len())], r)
                };
                let (a, b, c) = (cmp(), cmp(), cmp());
                let logic = [BinOp::And, BinOp::Or];
                let (op1, op2) = (logic[rng.gen_range(0..2usize)], logic[rng.gen_range(0..2usize)]);
                let tree = match rng.gen_range(0..3) {
                    0 => bin(a, op1, b),
                    1 => bin(a, op1, bin(b, op2, c)),
                    _ => bin(bin(a, op1, PExpr::Not(Box::new(b))), op2, PExpr::IsNull { expr: Box::new(c), negated: true }),
                };
                match agrees(seed, &inp, &tree) {
                    true => answered += 1,
                    false => failed += 1,
                }
            }
        }
        assert!(answered > 50_000 && failed > 5_000, "{answered} {failed}");
    }

    /// `AND`/`OR` whose right operand fails only on rows the left one
    /// decides — `x <> 0 AND 10 / x > 1` over integers with zeros, `v = 'a'
    /// OR v < 3` over boxed strings and numbers — are answered, as the row
    /// loop answers them; with the guard moved off the failing rows, both
    /// fail.
    #[test]
    fn guards_keep_a_failing_right_operand_off_the_rows_they_decide() {
        for seed in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..24usize);
            let x: Vec<Variant> = (0..n).map(|_| int_cell(&mut rng)).collect();
            let v: Vec<Variant> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => Variant::str("a"),
                    1 => Variant::Null,
                    2 => Variant::Float(rng.gen_range(-4.0f64..4.0)),
                    _ => Variant::Int(rng.gen_range(-4i64..5)),
                })
                .collect();
            let has_zero = x.iter().any(|c| matches!(c, Variant::Int(0)));
            let has_a = v.iter().any(|c| c.as_str() == Some("a"));
            let inp = Chunk { cols: vec![ColumnVec::from_variants(x), ColumnVec::Var(v)], rows: n };
            let (x, v) = (PExpr::Col(0), PExpr::Col(1));
            let lit = PExpr::Lit;
            let div = bin(bin(lit(Variant::Int(10)), BinOp::Div, x.clone()), BinOp::Gt, lit(Variant::Int(1)));
            let less = bin(v.clone(), BinOp::Lt, lit(Variant::Int(3)));
            let guarded = [
                bin(bin(x.clone(), BinOp::NotEq, lit(Variant::Int(0))), BinOp::And, div.clone()),
                bin(bin(x.clone(), BinOp::Eq, lit(Variant::Int(0))), BinOp::Or, div.clone()),
                bin(bin(v.clone(), BinOp::Eq, lit(Variant::str("a"))), BinOp::Or, less.clone()),
                bin(bin(v.clone(), BinOp::NotEq, lit(Variant::str("a"))), BinOp::And, less.clone()),
            ];
            for e in &guarded {
                assert!(agrees(seed, &inp, e), "seed {seed}: {e:?}");
            }
            let unguarded = bin(bin(x, BinOp::Eq, lit(Variant::Int(0))), BinOp::And, div);
            assert_eq!(agrees(seed, &inp, &unguarded), !has_zero, "seed {seed}: {unguarded:?}");
            let unguarded = bin(bin(v, BinOp::Eq, lit(Variant::str("b"))), BinOp::Or, less);
            assert_eq!(agrees(seed, &inp, &unguarded), !has_a, "seed {seed}: {unguarded:?}");
        }
    }

    /// Column renumbering is a functor over the expression: the identity map
    /// changes nothing, maps compose, a substitution table of bare columns is
    /// the same map, and the columns read are the mapped columns, in order.
    /// Compared as rendered text, which tells `1` from `1.0` and `0.0` from
    /// `-0.0` where `PExpr`'s `==` does not.
    #[test]
    fn column_maps_compose() {
        let f = |c: usize| (c * 3 + 1) % 17;
        let g = |c: usize| c + 5;
        let cols = |e: &PExpr| {
            let mut out = Vec::new();
            e.collect_cols(&mut out);
            out
        };
        let subs: Vec<PExpr> = (0..=N_COLS).map(|c| PExpr::Col(f(c))).collect();
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let e = expr(&mut rng, 4, &mut Vec::new());
            let mapped = e.clone().map_cols(&f);
            assert_eq!(format!("{:?}", e.clone().map_cols(&|c| c)), format!("{e:?}"), "seed {seed}");
            assert_eq!(
                format!("{:?}", mapped.clone().map_cols(&g)),
                format!("{:?}", e.clone().map_cols(&|c| g(f(c)))),
                "seed {seed}"
            );
            assert_eq!(format!("{:?}", e.clone().substitute(&subs)), format!("{mapped:?}"), "seed {seed}");
            assert_eq!(cols(&mapped), cols(&e).into_iter().map(f).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    /// Everything a `Hasher` is fed, in order.
    #[derive(Default)]
    struct Tape(Vec<u8>);

    impl std::hash::Hasher for Tape {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    /// Strict literal identity has one definition: two literals are
    /// `Variant::identical` iff they hash from the same input, iff the
    /// expression DAG keeps one node for both, iff subplan sharing puts
    /// `SELECT x FROM t` and `SELECT y FROM t` in one class.
    #[test]
    fn literal_identity_is_one_definition() {
        use snowdb::plan::{Field, Node, NodeKind};
        use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};

        let db = snowdb::Database::new();
        let schema = vec![ColumnDef::new("A", ColumnType::Int)];
        db.load_table("t", schema, [vec![Variant::Int(1)]], DEFAULT_PARTITION_ROWS).unwrap();
        let table = db.table("T").unwrap();
        let select = |v: &Variant| {
            let scan = NodeKind::Scan { table: table.clone(), pushed: Vec::new(), materialize: vec![false] };
            let input = Box::new(Node::new(scan, vec![Field::bare("A")]));
            let exprs = vec![PExpr::Lit(v.clone())];
            Box::new(Node::new(NodeKind::Project { input, exprs }, vec![Field::bare("C")]))
        };
        let tape = |v: &Variant| {
            let mut t = Tape::default();
            v.hash_identical(&mut t);
            t.0
        };
        let nested = |x: Variant| {
            let mut o = Object::new();
            o.insert("k", Variant::array(vec![x, Variant::Null]));
            Variant::array(vec![Variant::object(o)])
        };
        let (one, one_f) = (Variant::Int(1), Variant::Float(1.0));
        let (zero, neg_zero) = (Variant::Float(0.0), Variant::Float(-0.0));
        let mut pairs = vec![
            (one.clone(), one_f.clone()),
            (one.clone(), one.clone()),
            (zero.clone(), neg_zero.clone()),
            (Variant::Float(f64::NAN), Variant::Float(f64::NAN)),
            (nested(one.clone()), nested(one_f)),
            (nested(zero.clone()), nested(zero)),
            (nested(neg_zero.clone()), nested(neg_zero)),
            // The same leaves, nested differently.
            (
                Variant::array(vec![Variant::array(vec![one.clone()]), one.clone()]),
                Variant::array(vec![Variant::array(vec![one.clone(), one])]),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..300 {
            let x = any_cell(&mut rng, 0);
            let y = if rng.gen_bool(0.5) { x.clone() } else { any_cell(&mut rng, 0) };
            pairs.push((x, y));
        }
        let mut identical = 0;
        for (x, y) in &pairs {
            let same = x.identical(y);
            identical += u32::from(same);
            assert_eq!(tape(x) == tape(y), same, "hash input of {x:?} and {y:?}");
            let lits = [PExpr::Lit(x.clone()), PExpr::Lit(y.clone())];
            assert_eq!(ExprDag::compile(&lits).dag_nodes() == 1, same, "DAG nodes of {x:?} and {y:?}");
            let fields = vec![Field::bare("C")];
            let mut plan = Node::new(NodeKind::UnionAll { left: select(x), right: select(y) }, fields);
            snowdb::optimize::share::mark_shared(&mut plan);
            let NodeKind::UnionAll { left, right } = &plan.kind else { unreachable!() };
            assert_eq!(
                left.share.is_some() && left.share == right.share,
                same,
                "share classes of {x:?} and {y:?}"
            );
        }
        assert!(identical > 100 && identical < pairs.len() as u32 - 100, "{identical}");
    }
}

// ---------------------------------------------------------------------------
// The hash join's table against a nested loop over boxed values
// ---------------------------------------------------------------------------

mod join_table {
    use rand::{Rng, SeedableRng, StdRng};
    use snowdb::column::ColumnVec;
    use snowdb::exec::pipeline::BATCH_ROWS;
    use snowdb::storage::{ColumnDef, ColumnType};
    use snowdb::variant::{Key, Object};
    use snowdb::{Database, QueryOptions, Variant};

    use crate::common;

    /// Key columns, their declared types and how each represents its cells:
    /// `I` an `Int` column, `F` a `Float` one holding integral doubles,
    /// `-0.0` and NaN, `S` a dictionary of long strings, `R` run-length
    /// integers, `V` boxed arrays, objects and scalars of every type. Every
    /// column has NULLs.
    const KEYS: [(&str, ColumnType); 5] = [
        ("I", ColumnType::Int),
        ("F", ColumnType::Float),
        ("S", ColumnType::Str),
        ("R", ColumnType::Int),
        ("V", ColumnType::Variant),
    ];

    /// The key columns of the equi-conjuncts of each join, left = right.
    const CONDITIONS: [&[(&str, &str)]; 13] = [
        &[("i", "i")],
        &[("f", "f")],
        &[("i", "f")],
        &[("s", "s")],
        &[("r", "r")],
        &[("r", "i")],
        &[("v", "v")],
        &[("v", "i")],
        &[("v", "f")],
        &[("v", "s")],
        &[("i", "i"), ("s", "s")],
        &[("r", "f"), ("v", "v")],
        &[("f", "i"), ("s", "s")],
    ];

    /// Holds for a pair of rows besides the keys: `(a.id + b.id) % 3 <> 0`.
    const RESIDUAL: &str = "(a.id + b.id) % 3 <> 0";

    fn int_key(rng: &mut StdRng) -> Variant {
        match rng.gen_range(0..7) {
            0 => Variant::Null,
            _ => Variant::Int(rng.gen_range(0i64..4)),
        }
    }

    fn float_key(rng: &mut StdRng) -> Variant {
        match rng.gen_range(0..10) {
            0 => Variant::Null,
            1 => Variant::Float(-0.0),
            2 => Variant::Float(f64::NAN),
            3 => Variant::Float(0.5),
            _ => Variant::Float(rng.gen_range(0i64..4) as f64),
        }
    }

    fn str_key(rng: &mut StdRng) -> Variant {
        match rng.gen_range(0..7) {
            0 => Variant::Null,
            _ => Variant::str(["alphabet", "brassica", "charlie0"][rng.gen_range(0..3usize)]),
        }
    }

    fn var_key(rng: &mut StdRng) -> Variant {
        let k = rng.gen_range(0i64..3);
        match rng.gen_range(0..8) {
            0 => Variant::Null,
            1 => Variant::Int(k),
            2 => Variant::Float(k as f64),
            3 => str_key(rng),
            4 => Variant::array(vec![Variant::Int(k), Variant::Null]),
            5 => Variant::array(vec![Variant::Float(k as f64), Variant::Null]),
            6 => {
                let mut o = Object::new();
                o.insert("k", if rng.gen_bool(0.5) { Variant::Int(k) } else { Variant::Float(k as f64) });
                Variant::object(o)
            }
            _ => Variant::Bool(k == 0),
        }
    }

    /// `n` rows: an id, then one cell per key column. `R` holds runs of
    /// four to nine rows.
    pub(super) fn rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Variant>> {
        let mut run = (0usize, Variant::Null);
        (0..n)
            .map(|id| {
                if run.0 == 0 {
                    run = (rng.gen_range(4..10usize), int_key(rng));
                }
                run.0 -= 1;
                vec![
                    Variant::Int(id as i64),
                    int_key(rng),
                    float_key(rng),
                    str_key(rng),
                    run.1.clone(),
                    var_key(rng),
                ]
            })
            .collect()
    }

    /// Which encodings the first partitions of a run's tables sealed.
    #[derive(Default)]
    pub(super) struct Sealed {
        dict: bool,
        runs: bool,
    }

    impl Sealed {
        /// Asserts that some table of the run sealed its string key as a
        /// dictionary and some its run key as runs. Storage encodes a column
        /// only when that is smaller, so one seed's partition may keep plain
        /// strings (many NULLs in few rows); across a run's seeds both
        /// encodings must be met.
        pub(super) fn assert_both(&self, suite: &str) {
            assert!(self.dict, "{suite}: no table sealed a dictionary");
            assert!(self.runs, "{suite}: no table sealed runs");
        }
    }

    /// Loads `rows` as `name` in partitions of `part` rows, noting in
    /// `sealed` whether the first partition sealed its string key as a
    /// dictionary and its run key as runs.
    pub(super) fn load(db: &Database, name: &str, rows: &[Vec<Variant>], part: usize, sealed: &mut Sealed) {
        let mut schema = vec![ColumnDef::new("ID", ColumnType::Int)];
        schema.extend(KEYS.iter().map(|(c, ty)| ColumnDef::new(*c, *ty)));
        db.load_table(name, schema, rows.iter().cloned(), part).unwrap();
        let table = db.table(name).unwrap();
        let first = &table.partitions()[0];
        sealed.dict |= matches!(*first.read_column(3).unwrap(), ColumnVec::DictStr { .. });
        sealed.runs |= matches!(*first.read_column(4).unwrap(), ColumnVec::Runs { .. });
    }

    /// What the join returns as `(a.id, b.id)` pairs: per left row in
    /// order, its matches in right-row order — every key equal under `Key`
    /// equality, no NULL, the residual true — and for a left-outer join an
    /// unmatched left row once, with a NULL.
    fn nested_loop(
        l: &[Vec<Variant>],
        r: &[Vec<Variant>],
        keys: &[(usize, usize)],
        outer: bool,
        residual: bool,
    ) -> Vec<Vec<Variant>> {
        let mut out = Vec::new();
        for a in l {
            let before = out.len();
            for b in r {
                let equal = keys.iter().all(|&(lk, rk)| {
                    !a[lk].is_null() && !b[rk].is_null() && Key::of(&a[lk]) == Key::of(&b[rk])
                });
                let id = |row: &[Variant]| row[0].as_i64().unwrap();
                if equal && (!residual || (id(a) + id(b)) % 3 != 0) {
                    out.push(vec![a[0].clone(), b[0].clone()]);
                }
            }
            if outer && out.len() == before {
                out.push(vec![a[0].clone(), Variant::Null]);
            }
        }
        out
    }

    /// The join's rows at 1, 2 and 8 threads with vectorize on and off, all
    /// the same, or a panic naming the configuration that differs.
    fn run(db: &Database, sql: &str) -> (Vec<Vec<Variant>>, Vec<snowdb::OpMetrics>) {
        let mut seen: Option<(String, Vec<Vec<Variant>>)> = None;
        let mut joins = Vec::new();
        for threads in [1, 2, 8] {
            for vectorize in [true, false] {
                let opts = QueryOptions {
                    threads: Some(threads),
                    vectorize,
                    encode: true,
                    ..Default::default()
                };
                let r = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{sql}: {e}"));
                let metrics = r.profile.metrics.expect("operator metrics");
                let ops = metrics.operators().into_iter().map(|(_, m)| m);
                joins.extend(ops.filter(|m| m.name.ends_with("Join")).cloned());
                match &seen {
                    None => seen = Some((format!("{:?}", r.rows), r.rows)),
                    Some((text, _)) => assert_eq!(
                        &format!("{:?}", r.rows),
                        text,
                        "threads={threads} vectorize={vectorize}: {sql}"
                    ),
                }
            }
        }
        (seen.expect("ran").1, joins)
    }

    /// Seeded tables with key columns in every representation, joined on
    /// one and two columns of every pairing, inner and left outer, with and
    /// without a residual, against a nested loop over boxed values — rows in
    /// order, at every thread count under either producer. The left table
    /// comes in many partitions, each with its own dictionary; the right one
    /// in one partition (its dictionary survives the build) or many, and
    /// joined with itself to meet its own dictionary.
    #[test]
    fn the_join_table_returns_the_nested_loops_rows() {
        let column = |c: &str| 1 + KEYS.iter().position(|(k, _)| k.eq_ignore_ascii_case(c)).unwrap();
        let mut sealed = Sealed::default();
        for seed in 0..common::schedule_budget(6) as u64 {
            let _repro = common::schedule("join_table", seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let db = Database::new();
            let (nl, nr) = (rng.gen_range(40..80), rng.gen_range(20..50));
            let (l, r) = (rows(&mut rng, nl), rows(&mut rng, nr));
            load(&db, "L", &l, rng.gen_range(10..20), &mut sealed);
            let r_part = if seed % 2 == 0 { r.len() } else { rng.gen_range(10..20) };
            load(&db, "R", &r, r_part, &mut sealed);
            let mut matched = 0;
            for (left, lrows, rrows) in [("L", &l, &r), ("R", &r, &r)] {
                for cond in CONDITIONS {
                    let on: Vec<String> = cond.iter().map(|(a, b)| format!("a.{a} = b.{b}")).collect();
                    let keys: Vec<(usize, usize)> =
                        cond.iter().map(|(a, b)| (column(a), column(b))).collect();
                    for (join, outer) in [("JOIN", false), ("LEFT OUTER JOIN", true)] {
                        for residual in [false, true] {
                            let mut on = on.join(" AND ");
                            if residual {
                                on = format!("{on} AND {RESIDUAL}");
                            }
                            let sql = format!("SELECT a.id, b.id FROM {left} a {join} R b ON {on}");
                            let (got, _) = run(&db, &sql);
                            let want = nested_loop(lrows, rrows, &keys, outer, residual);
                            assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed}: {sql}");
                            matched += want.iter().filter(|row| !row[1].is_null()).count();
                        }
                    }
                }
            }
            assert!(matched > 1000, "seed {seed}: only {matched} pairs matched");
        }
        sealed.assert_both("join_table");
    }

    /// Build-side keys whose non-NULL values span exactly 8 slots per build
    /// row (dense), one more (hashed), negative keys, keys at either end of
    /// `i64` with a narrow span (dense) and both ends at once (hashed, and the
    /// span must not overflow) — each with duplicates and NULLs — probed by
    /// an `Int` column, a `Float` one holding `3.0`, `-0.0`, `2.5` and NaN, a
    /// dictionary of padded digit strings, run-length integers and boxed values,
    /// inner and left outer, against a nested loop, at every thread count
    /// under either producer; each join reports the table it built.
    #[test]
    fn a_dense_key_table_returns_the_nested_loops_rows() {
        use snowdb::exec::metrics::TableIndex;
        let mut sealed = Sealed::default();
        for seed in 0..common::schedule_budget(4) as u64 {
            let _repro = common::schedule("dense_join_table", seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let nr = rng.gen_range(8..16usize);
            let span = 8 * nr as i64;
            let lo = rng.gen_range(-40i64..40);
            let shapes: [(&str, i64, i64, bool); 6] = [
                ("8x", lo, lo + span - 1, true),
                ("8x+1", lo, lo + span, false),
                ("negative", -3 * nr as i64, -1, true),
                ("top", i64::MAX - 20, i64::MAX, true),
                ("bottom", i64::MIN, i64::MIN + 20, true),
                ("extremes", i64::MIN, i64::MAX, false),
            ];
            for (shape, a, b, dense) in shapes {
                // Both ends, 0 and 3 where they are in range, then keys in
                // between, duplicates and NULLs.
                let mut keys = vec![Variant::Int(a), Variant::Int(b)];
                keys.extend([0, 3].into_iter().filter(|k| (a..=b).contains(k)).map(Variant::Int));
                while keys.len() < nr {
                    keys.push(match rng.gen_range(0..5) {
                        0 => Variant::Null,
                        1 => keys[rng.gen_range(0..keys.len())].clone(),
                        _ => Variant::Int(rng.gen_range(a..=b)),
                    });
                }
                let ints: Vec<i64> = keys.iter().filter_map(Variant::as_i64).collect();
                let build: Vec<Vec<Variant>> = keys
                    .iter()
                    .enumerate()
                    .map(|(id, k)| {
                        let filler = [Variant::Float(1.0), Variant::str("filler"), Variant::Int(1), Variant::Null];
                        [vec![Variant::Int(id as i64), k.clone()], filler.to_vec()].concat()
                    })
                    .collect();
                let pick = |rng: &mut StdRng| ints[rng.gen_range(0..ints.len())];
                let mut runs = (0usize, Variant::Null);
                let probe: Vec<Vec<Variant>> = (0..rng.gen_range(60..100))
                    .map(|id| {
                        let i = match rng.gen_range(0..8) {
                            0 => Variant::Null,
                            1 => Variant::Int(a.saturating_sub(1)),
                            2 => Variant::Int(b.saturating_add(1)),
                            _ => Variant::Int(pick(&mut rng)),
                        };
                        let f = match rng.gen_range(0..8) {
                            0 => Variant::Float(3.0),
                            1 => Variant::Float(-0.0),
                            2 => Variant::Float(2.5),
                            3 => Variant::Float(f64::NAN),
                            4 => Variant::Null,
                            _ => Variant::Float(pick(&mut rng) as f64),
                        };
                        let s = Variant::str(format!("{:>12}", ints[rng.gen_range(0..3.min(ints.len()))]));
                        if runs.0 == 0 {
                            runs = (rng.gen_range(4..10usize), Variant::Int(pick(&mut rng)));
                        }
                        runs.0 -= 1;
                        let k = pick(&mut rng);
                        let v = match rng.gen_range(0..6) {
                            0 => Variant::Int(k),
                            1 => Variant::Float(k as f64),
                            2 => Variant::str(k.to_string()),
                            3 => Variant::array(vec![Variant::Int(k)]),
                            4 => Variant::Null,
                            _ => Variant::Float(0.5),
                        };
                        vec![Variant::Int(id), i, f, s, runs.1.clone(), v]
                    })
                    .collect();
                let db = Database::new();
                load(&db, "A", &probe, rng.gen_range(10..20), &mut sealed);
                load(&db, "B", &build, build.len(), &mut sealed);
                let mut matched = 0;
                for (col, probe_col) in [("i", 1), ("f", 2), ("s", 3), ("r", 4), ("v", 5)] {
                    for (join, outer) in [("JOIN", false), ("LEFT OUTER JOIN", true)] {
                        let sql = format!("SELECT a.id, b.id FROM A a {join} B b ON a.{col} = b.i");
                        let (got, joins) = run(&db, &sql);
                        let want = nested_loop(&probe, &build, &[(probe_col, 1)], outer, false);
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed} {shape}: {sql}");
                        matched += want.iter().filter(|row| !row[1].is_null()).count();
                        for m in joins {
                            let build = m.join_build.expect("a join reports its build");
                            assert_eq!(build.rows, nr as u64, "seed {seed} {shape}: {sql}");
                            let index = build.index.expect("an equi-join has a key table");
                            assert_eq!(
                                matches!(index, TableIndex::Dense { .. }),
                                dense,
                                "seed {seed} {shape}: {sql}: {index:?}"
                            );
                        }
                    }
                }
                assert!(matched > 200, "seed {seed} {shape}: only {matched} pairs matched");
            }
        }
        sealed.assert_both("dense_join_table");
    }

    /// One left batch that matches more than [`BATCH_ROWS`] rows: the
    /// output comes in pieces, none larger than a batch, in pair order.
    #[test]
    fn a_probe_batch_with_more_matches_than_a_batch_holds_comes_in_pieces() {
        let db = Database::new();
        let schema = |ty| vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("K", ty)];
        let (nl, nr) = (90usize, 70usize);
        db.load_table(
            "bl",
            schema(ColumnType::Int),
            (0..nl).map(|i| vec![Variant::Int(i as i64), Variant::Int(1)]),
            nl,
        )
        .unwrap();
        db.load_table(
            "br",
            schema(ColumnType::Float),
            (0..nr).map(|i| vec![Variant::Int(i as i64), Variant::Float(1.0)]),
            nr,
        )
        .unwrap();
        assert!(nl * nr > BATCH_ROWS);
        for join in ["JOIN", "LEFT OUTER JOIN"] {
            let sql = format!("SELECT a.id, b.id FROM bl a {join} br b ON a.k = b.k");
            let (got, joins) = run(&db, &sql);
            let want: Vec<Vec<Variant>> = (0..nl)
                .flat_map(|a| (0..nr).map(move |b| vec![Variant::Int(a as i64), Variant::Int(b as i64)]))
                .collect();
            assert_eq!(got, want, "{sql}");
            assert_eq!(joins.len(), 6);
            for m in joins {
                assert_eq!(m.rows_out, (nl * nr) as u64);
                assert_eq!(m.rows_in, (nl + nr) as u64, "{m:?}");
                assert!(m.peak_rows <= BATCH_ROWS as u64 && m.batches >= 2, "{sql}: {m:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The aggregate's and DISTINCT's key table against a linear scan over keys
// ---------------------------------------------------------------------------

mod key_table {
    use rand::{Rng, SeedableRng, StdRng};
    use snowdb::exec::metrics::Grouping;
    use snowdb::variant::Key;
    use snowdb::{Database, QueryOptions, Variant};

    use super::join_table::{load, rows, Sealed};
    use crate::common;

    /// Group keys, each as SQL and as the cell it takes from a row `[id, i,
    /// f, s, r, v, m]`: an `Int` column, a `Float` one (integral values,
    /// `-0.0`, NaN), a `Bool` and a plain `Str` the kernels compute, a
    /// dictionary column (one dictionary per partition), run-length
    /// integers, boxed values (arrays, objects, mixed `Int`/`Float`), and
    /// `m`, which is `i` in the first half of the rows and `f` in the second,
    /// so that `1` and `1.0` meet in one group across batches; then an `Int`
    /// key in ascending runs of three rows, which groups by runs, and one
    /// that does so for the first 30 rows and then leaves run mode with
    /// every aggregate's state open.
    type Cell = fn(&[Variant]) -> Variant;

    fn id(row: &[Variant]) -> i64 {
        row[0].as_i64().expect("an id")
    }

    const KEYS: [(&str, Cell); 10] = [
        ("i", |row| row[1].clone()),
        ("f", |row| row[2].clone()),
        ("i > 1", |row| row[1].as_i64().map_or(Variant::Null, |i| Variant::Bool(i > 1))),
        ("s", |row| row[3].clone()),
        ("s || '!'", |row| match &row[3] {
            Variant::Str(s) => Variant::str(format!("{s}!")),
            _ => Variant::Null,
        }),
        ("r", |row| row[4].clone()),
        ("v", |row| row[5].clone()),
        ("m", |row| row[6].clone()),
        ("id - id % 3", |row| Variant::Int(id(row) - id(row) % 3)),
        ("IFF(id < 30, id - id % 3, id % 4)", |row| {
            let id = id(row);
            Variant::Int(if id < 30 { id - id % 3 } else { id % 4 })
        }),
    ];

    /// The index in [`KEYS`] of the run-ordered key and of the key that
    /// leaves run mode.
    const RUN_KEY: usize = 8;
    const LEAVING_KEY: usize = 9;

    /// A cell as compared: its `Debug` text, which tells `1` from `1.0`,
    /// and its type, which tells NaN from NULL.
    fn cell(v: &Variant) -> String {
        format!("{v:?}:{}", v.type_name())
    }

    fn render(rows: &[Vec<Variant>]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(cell).collect()).collect()
    }

    /// One group of the reference: its first-seen key cells and what the
    /// aggregates fold.
    struct Group {
        key: Vec<Key>,
        cells: Vec<Variant>,
        rows: Vec<usize>,
    }

    /// Groups of `data` under `keys` in first-seen order, found by a linear
    /// scan over `Vec<Key>`.
    fn groups(data: &[Vec<Variant>], keys: &[usize]) -> Vec<Group> {
        let mut out: Vec<Group> = Vec::new();
        for (r, row) in data.iter().enumerate() {
            let cells: Vec<Variant> = keys.iter().map(|&k| KEYS[k].1(row)).collect();
            let key: Vec<Key> = cells.iter().map(Key::of).collect();
            match out.iter_mut().find(|g| g.key == key) {
                Some(g) => g.rows.push(r),
                None => out.push(Group { key, cells, rows: vec![r] }),
            }
        }
        out
    }

    /// The aggregates that merge per worker, as SQL.
    const MERGED: &str = "COUNT(*), COUNT(v), ANY_VALUE(v), ARRAY_AGG(id), MAX(i), MIN(s), \
                          MIN(f), MAX(f), BOOLAND_AGG(i > 1), BOOLOR_AGG(i > 1), COUNT(IFF(i > 1, 1, NULL))";

    /// The extreme of the non-NULL doubles of `vals`: NaN above every
    /// number, `-0.0` equal to `0.0`, the first of equal values kept.
    fn extreme<'v>(vals: impl Iterator<Item = &'v Variant>, max: bool) -> Variant {
        let want = if max { std::cmp::Ordering::Greater } else { std::cmp::Ordering::Less };
        let mut best: Option<f64> = None;
        for x in vals.filter_map(|v| match v {
            Variant::Float(x) => Some(*x),
            _ => None,
        }) {
            if best.is_none_or(|b| snowdb::variant::cmp_f64(x, b) == want) {
                best = Some(x);
            }
        }
        best.map_or(Variant::Null, Variant::Float)
    }

    /// [`MERGED`] of one group.
    fn folded(data: &[Vec<Variant>], g: &Group) -> Vec<Variant> {
        let col = |c: usize| g.rows.iter().map(move |&r| &data[r][c]);
        let max_i = col(1).filter_map(Variant::as_i64).max();
        let min_s = col(3).filter_map(|v| v.as_str()).min();
        let big: Vec<bool> = col(1).filter_map(Variant::as_i64).map(|i| i > 1).collect();
        let all_big = (!big.is_empty()).then(|| big.iter().all(|&b| b));
        let any_big = (!big.is_empty()).then(|| big.iter().any(|&b| b));
        vec![
            Variant::Int(g.rows.len() as i64),
            Variant::Int(col(5).filter(|v| !v.is_null()).count() as i64),
            data[g.rows[0]][5].clone(),
            Variant::array(col(0).cloned().collect()),
            max_i.map_or(Variant::Null, Variant::Int),
            min_s.map_or(Variant::Null, Variant::str),
            extreme(col(2), false),
            extreme(col(2), true),
            all_big.map_or(Variant::Null, Variant::Bool),
            any_big.map_or(Variant::Null, Variant::Bool),
            Variant::Int(big.iter().filter(|&&b| b).count() as i64),
        ]
    }

    /// The aggregates that fold serially, as SQL: an integer sum, one that
    /// overflows within a group, and a sum and an average of doubles.
    const SUMMED: &str = "SUM(id), SUM(IFF(i > 1, 9223372036854775807, i)), SUM(f), AVG(f)";

    /// A running sum as the engine keeps one: integers checked and promoted
    /// to a double on overflow, doubles added in row order.
    fn running_sum<'v>(vals: impl Iterator<Item = &'v Variant>) -> Variant {
        vals.filter(|v| !v.is_null()).fold(Variant::Null, |acc, v| match (acc, v) {
            (Variant::Null, v) => v.clone(),
            (Variant::Int(a), Variant::Int(b)) => {
                a.checked_add(*b).map_or(Variant::Float(a as f64 + *b as f64), Variant::Int)
            }
            (Variant::Int(a), Variant::Float(b)) => Variant::Float(a as f64 + b),
            (Variant::Float(a), Variant::Int(b)) => Variant::Float(a + *b as f64),
            (Variant::Float(a), Variant::Float(b)) => Variant::Float(a + b),
            (a, b) => panic!("no sum of {a:?} and {b:?}"),
        })
    }

    /// [`SUMMED`] of one group.
    fn summed(data: &[Vec<Variant>], g: &Group) -> Vec<Variant> {
        let col = |c: usize| g.rows.iter().map(move |&r| &data[r][c]);
        let big: Vec<Variant> = col(1)
            .map(|v| match v.as_i64() {
                Some(i) if i > 1 => Variant::Int(i64::MAX),
                _ => v.clone(),
            })
            .collect();
        let floats: Vec<f64> = col(2).filter_map(Variant::as_f64).collect();
        // An average's sum starts at `0.0`, so `-0.0` alone averages to `0.0`.
        let avg = (!floats.is_empty()).then(|| floats.iter().fold(0.0, |a, x| a + x) / floats.len() as f64);
        vec![
            running_sum(col(0)),
            running_sum(big.iter()),
            running_sum(col(2)),
            avg.map_or(Variant::Null, Variant::Float),
        ]
    }

    /// The rows of `sql` at 1, 2 and 8 threads with vectorize on and off,
    /// all `cell`-identical, or a panic naming the configuration that
    /// differs.
    fn run(db: &Database, sql: &str) -> Vec<Vec<String>> {
        run_or_fail(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    /// [`run`], where every configuration may instead fail with the same
    /// error text.
    fn run_or_fail(db: &Database, sql: &str) -> Result<Vec<Vec<String>>, String> {
        let mut seen: Option<Result<Vec<Vec<String>>, String>> = None;
        for threads in [1, 2, 8] {
            for vectorize in [true, false] {
                let opts = QueryOptions {
                    threads: Some(threads),
                    vectorize,
                    encode: true,
                    ..Default::default()
                };
                let got = db.query_with(sql, &opts).map(|r| render(&r.rows)).map_err(|e| e.to_string());
                match &seen {
                    None => seen = Some(got),
                    Some(first) => {
                        assert_eq!(&got, first, "threads={threads} vectorize={vectorize}: {sql}")
                    }
                }
            }
        }
        seen.expect("ran")
    }

    /// How the one aggregate of `sql` grouped on one thread.
    fn grouping(db: &Database, sql: &str) -> Option<snowdb::exec::metrics::Grouping> {
        let opts = QueryOptions { threads: Some(1), ..Default::default() };
        let r = db.query_with(sql, &opts).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let metrics = r.profile.metrics.expect("operator metrics");
        let ops = metrics.operators();
        ops.into_iter().find(|(_, m)| m.name.starts_with("Aggregate")).and_then(|(_, m)| m.grouping)
    }

    /// Seeded tables in partitions of 10–19 rows, each with its own
    /// dictionary, grouped by one to three keys of every representation —
    /// NULLs in every one, keys in runs and a key that leaves them — and the
    /// same keys under DISTINCT, against a linear scan: groups in first-seen
    /// order, each keeping its first-seen cells, and every aggregate a typed
    /// state folds (counts, sums that overflow, extremes and averages of
    /// NaN, `-0.0` and integral doubles, boolean aggregates) beside ones
    /// only accumulators fold, at every thread count under either producer
    /// and either fold. `SUM(s)` raises one error everywhere, exactly when a
    /// group meets a second string.
    #[test]
    fn the_key_table_groups_as_a_linear_scan_over_keys() {
        let mut sealed = Sealed::default();
        for seed in 0..common::schedule_budget(6) as u64 {
            let _repro = common::schedule("key_table", seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let db = Database::new();
            let n = rng.gen_range(60..120);
            let mut data = rows(&mut rng, n);
            load(&db, "T", &data, rng.gen_range(10..20), &mut sealed);
            let half = n as i64 / 2;
            for row in &mut data {
                let m = if row[0].as_i64().unwrap() < half { row[1].clone() } else { row[2].clone() };
                row.push(m);
            }
            let mut key_sets: Vec<Vec<usize>> = (0..KEYS.len()).map(|k| vec![k]).collect();
            for _ in 0..12 {
                let width = rng.gen_range(2..4);
                let mut set: Vec<usize> = Vec::new();
                while set.len() < width {
                    let k = rng.gen_range(0..KEYS.len());
                    if !set.contains(&k) {
                        set.push(k);
                    }
                }
                key_sets.push(set);
            }
            let mut merged_across_types = false;
            for keys in &key_sets {
                let exprs: Vec<&str> = keys.iter().map(|&k| KEYS[k].0).collect();
                let list = exprs.join(", ");
                let from = match exprs.contains(&"m") {
                    false => "t".to_string(),
                    true => format!(
                        "(SELECT id, i, f, s, r, v, i AS m FROM t WHERE id < {half} \
                         UNION ALL SELECT id, i, f, s, r, v, f AS m FROM t WHERE id >= {half})"
                    ),
                };
                let want = groups(&data, keys);
                merged_across_types |= keys == &[7]
                    && want.iter().any(|g| {
                        g.rows.iter().any(|&r| data[r][0].as_i64() < Some(half))
                            && g.rows.iter().any(|&r| data[r][0].as_i64() >= Some(half))
                    });
                let expect = |more: &dyn Fn(&Group) -> Vec<Variant>| {
                    let rows: Vec<Vec<Variant>> =
                        want.iter().map(|g| g.cells.iter().cloned().chain(more(g)).collect()).collect();
                    render(&rows)
                };
                let sql = format!("SELECT {list}, {MERGED} FROM {from} GROUP BY {list}");
                assert_eq!(run(&db, &sql), expect(&|g| folded(&data, g)), "seed {seed}: {sql}");
                let sql = format!("SELECT {list}, {SUMMED} FROM {from} GROUP BY {list}");
                assert_eq!(run(&db, &sql), expect(&|g| summed(&data, g)), "seed {seed}: {sql}");
                let sql = format!("SELECT {list}, SUM(s) FROM {from} GROUP BY {list}");
                let strings = |g: &Group| g.rows.iter().filter(|&&r| !data[r][3].is_null()).count();
                match run_or_fail(&db, &sql) {
                    Ok(got) => {
                        assert!(want.iter().all(|g| strings(g) < 2), "seed {seed}: {sql} added strings");
                        let first = |g: &Group| g.rows.iter().map(|&r| data[r][3].clone()).find(|v| !v.is_null());
                        assert_eq!(got, expect(&|g| vec![first(g).unwrap_or(Variant::Null)]), "seed {seed}: {sql}");
                    }
                    Err(e) => {
                        assert!(want.iter().any(|g| strings(g) >= 2), "seed {seed}: {sql}: {e}");
                        assert!(e.contains("SUM expects numbers"), "seed {seed}: {sql}: {e}");
                    }
                }
                if keys == &[RUN_KEY] || keys == &[LEAVING_KEY] {
                    let sql = format!("SELECT {list}, {MERGED} FROM {from} GROUP BY {list}");
                    let want = if keys == &[RUN_KEY] { Grouping::Runs } else { Grouping::Hashed };
                    assert_eq!(grouping(&db, &sql), Some(want), "seed {seed}: {sql}");
                }
                let sql = format!("SELECT DISTINCT {list} FROM {from}");
                assert_eq!(run(&db, &sql), expect(&|_| Vec::new()), "seed {seed}: {sql}");
            }
            assert!(merged_across_types, "seed {seed}: no group of `m` holds an Int and a Float row");
        }
        sealed.assert_both("key_table");
    }
}
