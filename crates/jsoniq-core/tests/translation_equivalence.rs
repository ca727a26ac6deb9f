//! Differential tests: for each query, the translated single SQL query must
//! produce the same multiset of results as the JSONiq interpreter — the
//! correctness property the paper's translation claims (§III-B: "identical
//! behavior and semantics as the original JSONiq query").

use std::sync::Arc;

use jsoniq_core::interp::{DatabaseCollections, Interpreter};
use jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::variant::{cmp_variants, parse_json};
use snowdb::{Database, Variant};

/// Builds a small physics-flavoured database: typed EVENT/MET columns plus
/// VARIANT arrays for particles — the paper's multi-column staging (§III-C).
fn db() -> Arc<Database> {
    let db = Database::new();
    let rows = [
        (1i64, 27.5, r#"[{"PT": 12.0, "ETA": 0.5, "CHARGE": 1}, {"PT": 45.0, "ETA": -2.1, "CHARGE": -1}]"#,
            r#"[{"PT": 31.0, "ETA": 0.2}]"#),
        (2, 14.0, r#"[]"#, r#"[{"PT": 11.0, "ETA": 1.4}, {"PT": 52.0, "ETA": 0.9}]"#),
        (3, 99.9, r#"[{"PT": 7.0, "ETA": 3.0, "CHARGE": 1}]"#, r#"[]"#),
        (4, 55.5, r#"[{"PT": 60.0, "ETA": -0.4, "CHARGE": -1}, {"PT": 8.5, "ETA": 0.1, "CHARGE": 1}, {"PT": 19.0, "ETA": 2.2, "CHARGE": -1}]"#,
            r#"[{"PT": 42.0, "ETA": -1.0}, {"PT": 13.5, "ETA": 0.0}]"#),
        (5, 3.25, r#"[{"PT": 22.0, "ETA": 1.0, "CHARGE": 1}]"#, r#"[{"PT": 5.0, "ETA": 2.5}]"#),
    ];
    db.load_table(
        "hep",
        vec![
            ColumnDef::new("EVENT", ColumnType::Int),
            ColumnDef::new("MET", ColumnType::Float),
            ColumnDef::new("MUON", ColumnType::Variant),
            ColumnDef::new("JET", ColumnType::Variant),
        ],
        rows.iter().map(|(id, met, muon, jet)| {
            vec![
                Variant::Int(*id),
                Variant::Float(*met),
                parse_json(muon).unwrap(),
                parse_json(jet).unwrap(),
            ]
        }),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    Arc::new(db)
}

/// Runs a query through both paths and asserts multiset equality.
fn check(src: &str, strategy: NestedStrategy) {
    let db = db();
    // Ground truth: interpreter.
    let provider = DatabaseCollections { db: &db };
    let mut expected = Interpreter::new(&provider).eval_query(src).unwrap();
    // Translation: one SQL query.
    let df = translate_query(db.clone(), src, strategy).unwrap();
    let res = df.collect().unwrap_or_else(|e| panic!("SQL failed for:\n{}\n{e}", df.sql()));
    let mut actual: Vec<Variant> =
        res.rows.into_iter().map(|mut r| r.remove(0)).collect();
    // The translation does not preserve input order (paper §IV-E); compare as
    // multisets via canonical sort.
    expected.sort_by(cmp_variants);
    actual.sort_by(cmp_variants);
    assert_eq!(
        expected,
        actual,
        "mismatch for query:\n{src}\nSQL:\n{}",
        translate_query(db, src, strategy).unwrap().sql()
    );
}

fn check_both(src: &str) {
    check(src, NestedStrategy::FlagColumn);
    check(src, NestedStrategy::JoinBased);
}

#[test]
fn projection() {
    check_both(r#"for $e in collection("hep") return $e.MET"#);
}

#[test]
fn filter_on_scalar_column() {
    check_both(
        r#"for $e in collection("hep")
           where $e.MET gt 20
           return $e.EVENT"#,
    );
}

#[test]
fn unbox_and_filter() {
    // The paper's Listing 1 shape.
    check_both(
        r#"for $jet in collection("hep").JET[]
           where abs($jet.ETA) lt 1
           return $jet.PT"#,
    );
}

#[test]
fn let_with_arithmetic() {
    check_both(
        r#"for $e in collection("hep")
           let $double := $e.MET * 2
           where $double le 60
           return $double + 1"#,
    );
}

#[test]
fn group_by_histogram() {
    check_both(
        r#"for $e in collection("hep")
           group by $bin := floor($e.MET div 25)
           return {"bin": $bin, "n": count($e)}"#,
    );
}

#[test]
fn group_by_with_sum_over_grouped_expression() {
    check_both(
        r#"for $e in collection("hep")
           group by $k := $e.EVENT mod 2
           return {"k": $k, "total": sum($e.MET), "hi": max($e.MET)}"#,
    );
}

#[test]
fn nested_query_in_let_count() {
    // Paper Listing 4: nested query must not remove parents.
    check_both(
        r#"for $e in collection("hep")
           let $fast := (
             for $m in $e.MUON[]
             where $m.PT gt 10
             return $m.PT
           )
           return count($fast)"#,
    );
}

#[test]
fn nested_query_sum_aggregation() {
    check_both(
        r#"for $e in collection("hep")
           return sum(
             for $j in $e.JET[]
             where $j.PT gt 12
             return $j.PT
           )"#,
    );
}

#[test]
fn nested_query_in_where() {
    check_both(
        r#"for $e in collection("hep")
           where count(for $j in $e.JET[] where $j.PT gt 10 return $j) ge 1
           return $e.EVENT"#,
    );
}

#[test]
fn exists_over_nested_query() {
    check_both(
        r#"for $e in collection("hep")
           where exists(for $m in $e.MUON[] where $m.CHARGE eq 1 return $m)
           return $e.EVENT"#,
    );
}

#[test]
fn quantified_some() {
    check_both(
        r#"for $e in collection("hep")
           where some $m in $e.MUON[] satisfies $m.PT gt 40
           return $e.EVENT"#,
    );
}

#[test]
fn positional_at_variables_pairs() {
    // Pair generation within an event via double unboxing + index comparison.
    check_both(
        r#"for $e in collection("hep")
           for $m1 at $i1 in $e.MUON[]
           for $m2 at $i2 in $e.MUON[]
           where $i1 lt $i2
           return $m1.PT + $m2.PT"#,
    );
}

#[test]
fn object_construction() {
    check_both(
        r#"for $e in collection("hep")
           where $e.MET lt 50
           return {"id": $e.EVENT, "met": $e.MET, "njet": size($e.JET)}"#,
    );
}

#[test]
fn order_by_translates() {
    // Order must match exactly here (not just as multiset); check manually.
    let db = db();
    let src = r#"for $e in collection("hep")
                 order by $e.MET descending
                 return $e.EVENT"#;
    let provider = DatabaseCollections { db: &db };
    let expected = Interpreter::new(&provider).eval_query(src).unwrap();
    let df = translate_query(db, src, NestedStrategy::FlagColumn).unwrap();
    let actual: Vec<Variant> =
        df.collect().unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect();
    assert_eq!(expected, actual);
}

#[test]
fn min_max_over_nested_query() {
    check_both(
        r#"for $e in collection("hep")
           let $m := max(for $j in $e.JET[] return $j.PT)
           where $m gt 0
           return $m"#,
    );
}

#[test]
fn min_filter_first_pattern() {
    // The argmin pattern used by ADL Q6/Q8: min + equality filter + first.
    check_both(
        r#"for $e in collection("hep")
           where size($e.JET) ge 1
           let $best := min(for $j in $e.JET[] return abs($j.ETA - 0.5))
           let $chosen := (for $j in $e.JET[] where abs($j.ETA - 0.5) eq $best return $j.PT)[1]
           return $chosen"#,
    );
}

#[test]
fn array_concatenation_of_unboxes() {
    check_both(
        r#"for $e in collection("hep")
           let $parts := [ $e.MUON[], $e.JET[] ]
           return size($parts)"#,
    );
}

#[test]
fn nested_query_array_roundtrip() {
    check_both(
        r#"for $e in collection("hep")
           let $pts := (for $m in $e.MUON[] where $m.PT ge 10 return $m.PT)
           return {"event": $e.EVENT, "pts": [ $pts ]}"#,
    );
}

#[test]
fn if_then_else() {
    check_both(
        r#"for $e in collection("hep")
           return if ($e.MET gt 50) then "high" else "low""#,
    );
}

#[test]
fn function_inlining_through_translation() {
    check_both(
        r#"declare function dphi($a, $b) { abs($a - $b) };
           for $e in collection("hep")
           for $j in $e.JET[]
           return dphi($j.ETA, 0.5)"#,
    );
}

#[test]
fn whole_row_reference_reconstructs_object() {
    let db = db();
    let src = r#"for $e in collection("hep") where $e.EVENT eq 1 return $e"#;
    let df = translate_query(db, src, NestedStrategy::FlagColumn).unwrap();
    let res = df.collect().unwrap();
    let obj = res.rows[0][0].as_object().unwrap();
    assert_eq!(obj.get("EVENT"), Some(&Variant::Int(1)));
    assert!(obj.get("MUON").unwrap().as_array().is_some());
}

#[test]
fn two_collection_join() {
    // Successive for clauses over collections express a join (paper §II-E).
    let db = db();
    db.load_table(
        "names",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("NAME", ColumnType::Str),
        ],
        vec![
            vec![Variant::Int(1), Variant::str("one")],
            vec![Variant::Int(3), Variant::str("three")],
        ],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let src = r#"for $e in collection("hep")
                 for $n in collection("names")
                 where $e.EVENT eq $n.ID
                 return $n.NAME"#;
    let provider = DatabaseCollections { db: &db };
    let mut expected = Interpreter::new(&provider).eval_query(src).unwrap();
    let df = translate_query(db.clone(), src, NestedStrategy::FlagColumn).unwrap();
    let mut actual: Vec<Variant> =
        df.collect().unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect();
    expected.sort_by(cmp_variants);
    actual.sort_by(cmp_variants);
    assert_eq!(expected, actual);
}

#[test]
fn translation_is_a_single_sql_statement() {
    let db = db();
    let df = translate_query(
        db,
        r#"for $e in collection("hep")
           let $n := count(for $m in $e.MUON[] where $m.PT gt 10 return $m)
           where $n ge 1
           return $e.EVENT"#,
        NestedStrategy::FlagColumn,
    )
    .unwrap();
    let sql = df.sql();
    // One statement, no UDFs, parseable by the engine's SQL front-end.
    assert!(!sql.contains(';'));
    assert!(snowdb::sql::parse_query(sql).is_ok());
}

/// `t` with `X` = 1, 2, 3 and `m` with one row, `X` = `i64::MIN`.
fn int_db() -> Arc<Database> {
    let db = Database::new();
    for (name, xs) in [("t", vec![1, 2, 3]), ("m", vec![i64::MIN])] {
        let rows = xs.into_iter().map(|x| vec![Variant::Int(x)]);
        let schema = vec![ColumnDef::new("X", ColumnType::Int)];
        db.load_table(name, schema, rows, DEFAULT_PARTITION_ROWS).unwrap();
    }
    Arc::new(db)
}

/// Asserts that the interpreter answers `want` and, when the query
/// `translates`, that both strategies do too (as multisets). Unlike `check`,
/// this holds the shared rewrite to a hand-computed answer: the interpreter
/// and the translation consume the same rewritten tree, so they can agree on
/// a wrong one.
fn answers(src: &str, want: &[Variant], translates: bool) {
    let db = int_db();
    let mut want = want.to_vec();
    want.sort_by(cmp_variants);
    let provider = DatabaseCollections { db: &db };
    let mut got = Interpreter::new(&provider).eval_query(src).unwrap();
    got.sort_by(cmp_variants);
    assert_eq!(got, want, "interpreter, for:\n{src}");
    if !translates {
        return;
    }
    for strategy in [NestedStrategy::FlagColumn, NestedStrategy::JoinBased] {
        let df = translate_query(db.clone(), src, strategy).unwrap();
        let res = df.collect().unwrap_or_else(|e| panic!("SQL failed for:\n{}\n{e}", df.sql()));
        let mut got: Vec<Variant> = res.rows.into_iter().map(|mut r| r.remove(0)).collect();
        got.sort_by(cmp_variants);
        assert_eq!(got, want, "{strategy:?}, for:\n{src}\nSQL:\n{}", df.sql());
    }
}

fn ints(xs: &[i64]) -> Vec<Variant> {
    xs.iter().map(|x| Variant::Int(*x)).collect()
}

#[test]
fn a_let_rebinding_a_literal_let_hides_it() {
    answers("let $x := 1 let $x := $x + 1 return $x", &ints(&[2]), false);
    answers(
        r#"for $e in collection("t") let $x := 1 let $x := $e.X + $x return $x"#,
        &ints(&[2, 3, 4]),
        true,
    );
}

#[test]
fn a_for_rebinding_a_literal_let_hides_it() {
    answers("let $x := 1 for $x in (5, 6) return $x", &ints(&[5, 6]), false);
}

#[test]
fn a_nested_flwor_rebinding_a_literal_let_hides_it() {
    answers("let $x := 1 return for $x in (5, 6) return $x", &ints(&[5, 6]), false);
}

#[test]
fn a_count_clause_rebinding_a_literal_let_hides_it() {
    answers("let $x := 1 for $y in (1, 2) count $x return $x", &ints(&[1, 2]), false);
}

/// `i64::MIN` has no integer negation: the interpreter answers what the
/// engine's `-`, `ABS`, `FLOOR(x / y)::INT` and `%` answer for it.
#[test]
fn integer_operations_at_i64_min_agree_with_the_translation() {
    let two_pow_63 = [Variant::Float(9.223372036854776e18)];
    answers(r#"for $r in collection("m") return -$r.X"#, &two_pow_63, true);
    answers(r#"for $r in collection("m") return abs($r.X)"#, &two_pow_63, true);
    answers(r#"for $r in collection("m") return $r.X idiv -1"#, &ints(&[i64::MAX]), true);
    answers(r#"for $r in collection("m") return $r.X mod -1"#, &ints(&[0]), true);
}

#[test]
fn folding_the_negation_of_an_i64_min_literal_does_not_overflow() {
    answers("-(0 - 9223372036854775807 - 1)", &[Variant::Float(9.223372036854776e18)], true);
}

/// α-renaming an inlined body keeps what each `group by` key sees: every key
/// expression is evaluated before the clause binds any key, in a function
/// body as in the main module.
#[test]
fn an_inlined_group_by_key_sees_the_scope_before_the_clause() {
    let body = "for $e in (1, 2) group by $a := $e, $b := $a return $b";
    answers(&format!("let $a := 10 {body}"), &ints(&[10, 10]), false);
    answers(&format!("declare function f($a) {{ {body} }}; f(10)"), &ints(&[10, 10]), false);
}

/// A top-level FLWOR may start with `let`: it binds on the one-row frame a
/// query that is no FLWOR runs on, and a later `for` joins a collection to it.
#[test]
fn a_flwor_may_start_with_let() {
    answers("let $x := abs(-1) return $x + 1", &ints(&[2]), true);
    answers("let $x := 1 let $x := $x + 1 return $x", &ints(&[2]), true);
    answers(
        r#"let $k := 2 for $r in collection("t") where $r.X ge $k return $r.X * $k"#,
        &ints(&[4, 6]),
        true,
    );
}
