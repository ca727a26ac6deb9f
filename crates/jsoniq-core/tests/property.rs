//! Property-based tests for the JSONiq front-end and the translation layer.

use std::sync::Arc;

use proptest::prelude::*;

use jsoniq_core::interp::{DatabaseCollections, Interpreter, MemoryCollections};
use jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::variant::{cmp_variants, Object};
use snowdb::{Database, Variant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The JSONiq lexer and parser never panic on arbitrary input.
    #[test]
    fn frontend_never_panics(s in "\\PC*") {
        let _ = jsoniq_core::parser::parse(&s);
    }

    #[test]
    fn frontend_never_panics_on_queryish_text(
        s in "(for|let|where|return|\\$[a-z]+|[0-9]+|\\(|\\)|\\[|\\]|\\.|,|:=| )*"
    ) {
        let _ = jsoniq_core::parser::parse(&s);
    }

    /// Interpreter arithmetic respects the engine's numeric semantics.
    #[test]
    fn interp_arithmetic_matches_rust(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        let mem = MemoryCollections::default();
        let it = Interpreter::new(&mem);
        let r = it.eval_query(&format!("{a} + {b}")).unwrap();
        prop_assert_eq!(r, vec![Variant::Int(a + b)]);
        let r = it.eval_query(&format!("{a} * {b}")).unwrap();
        prop_assert_eq!(r, vec![Variant::Int(a * b)]);
        if b != 0 {
            let r = it.eval_query(&format!("({a}) idiv ({b})")).unwrap();
            prop_assert_eq!(r, vec![Variant::Int(a / b)]);
            let r = it.eval_query(&format!("({a}) mod ({b})")).unwrap();
            prop_assert_eq!(r, vec![Variant::Int(a % b)]);
        }
    }

    /// FLWOR filtering agrees with a plain Rust filter.
    #[test]
    fn flwor_filter_matches_rust(xs in prop::collection::vec(-100i64..100, 0..30),
                                 bound in -100i64..100) {
        let mut mem = MemoryCollections::default();
        mem.collections.insert("xs".into(), xs.iter().map(|&i| Variant::Int(i)).collect());
        let it = Interpreter::new(&mem);
        let got = it
            .eval_query(&format!(
                r#"for $x in collection("xs") where $x ge {bound} return $x"#
            ))
            .unwrap();
        let want: Vec<Variant> =
            xs.iter().filter(|&&x| x >= bound).map(|&x| Variant::Int(x)).collect();
        prop_assert_eq!(got, want);
    }

    /// Differential property: for random datasets, the translated SQL agrees
    /// with the interpreter on a nested-query template, under both strategies.
    #[test]
    fn translation_matches_interpreter_on_random_data(
        rows in prop::collection::vec(
            (any::<i64>(), prop::collection::vec(-50i64..50, 0..5)),
            1..15
        ),
        threshold in -50i64..50,
    ) {
        let db = Database::new();
        db.load_table(
            "t",
            vec![
                ColumnDef::new("ID", ColumnType::Int),
                ColumnDef::new("XS", ColumnType::Variant),
            ],
            rows.iter().map(|(id, xs)| {
                vec![
                    Variant::Int(*id),
                    Variant::array(xs.iter().map(|&x| Variant::Int(x)).collect()),
                ]
            }),
            DEFAULT_PARTITION_ROWS,
        ).unwrap();
        let db = Arc::new(db);
        let src = format!(
            r#"for $t in collection("t")
               let $big := (for $x in $t.XS[] where $x gt {threshold} return $x)
               return {{"n": count($big), "s": sum($big), "all": [ $big ]}}"#
        );
        let provider = DatabaseCollections { db: &db };
        let mut expected = Interpreter::new(&provider).eval_query(&src).unwrap();
        expected.sort_by(cmp_variants);
        for strategy in [NestedStrategy::FlagColumn, NestedStrategy::JoinBased] {
            let df = translate_query(db.clone(), &src, strategy).unwrap();
            let mut got: Vec<Variant> = df
                .collect()
                .unwrap()
                .rows
                .into_iter()
                .map(|mut r| r.remove(0))
                .collect();
            got.sort_by(cmp_variants);
            prop_assert_eq!(&expected, &got, "strategy {:?}", strategy);
        }
    }

    /// Group-by counts partition the input on both execution paths.
    #[test]
    fn group_by_partition_property(xs in prop::collection::vec(0i64..6, 1..40)) {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            xs.iter().map(|&x| vec![Variant::Int(x)]),
            DEFAULT_PARTITION_ROWS,
        ).unwrap();
        let db = Arc::new(db);
        let src = r#"for $t in collection("t")
                     group by $k := $t.X
                     return {"k": $k, "n": count($t)}"#;
        let df = translate_query(db.clone(), src, NestedStrategy::FlagColumn).unwrap();
        let total: i64 = df
            .collect()
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].get_field("n").as_i64().unwrap())
            .sum();
        prop_assert_eq!(total, xs.len() as i64);
    }
}

/// Non-random companion: objects survive the whole pipeline intact.
#[test]
fn object_identity_through_translation() {
    let db = Database::new();
    let mut o = Object::new();
    o.insert("A", Variant::Int(1));
    o.insert("B", Variant::array(vec![Variant::str("x"), Variant::Null]));
    db.load_table(
        "t",
        vec![ColumnDef::new("V", ColumnType::Variant)],
        vec![vec![Variant::object(o.clone())]],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let df = translate_query(
        Arc::new(db),
        r#"for $t in collection("t") return $t.V"#,
        NestedStrategy::FlagColumn,
    )
    .unwrap();
    let rows = df.collect().unwrap().rows;
    assert_eq!(rows[0][0], Variant::object(o));
}
