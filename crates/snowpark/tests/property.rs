//! Property tests for the dataframe layer: every SQL string the API composes
//! must be accepted by the engine's parser, and identifier/string quoting must
//! round-trip arbitrary content.

use proptest::prelude::*;
use snowpark::functions as f;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Identifier quoting survives embedded quotes and unicode.
    #[test]
    fn column_references_always_parse(name in "[a-zA-Z\"'%_ \u{e9}]{1,12}") {
        let sql = format!("SELECT {} FROM T", f::col(&name).sql());
        // The reference must lex as exactly one identifier token.
        let toks = snowdb::sql::lexer::tokenize(&f::col(&name).sql()).unwrap();
        prop_assert_eq!(toks.len(), 2, "ident + EOF for {:?}", name);
        let _ = sql;
    }

    /// String literals survive arbitrary content.
    #[test]
    fn string_literals_always_lex(value in "\\PC{0,20}") {
        let toks = snowdb::sql::lexer::tokenize(&f::lit_s(&value).sql());
        // Characters the SQL lexer cannot represent outside strings are fine
        // inside one; the literal must come back intact.
        let toks = toks.unwrap();
        match &toks[0] {
            snowdb::sql::lexer::Token::Str(s) => prop_assert_eq!(s, &value),
            other => prop_assert!(false, "expected string, got {:?}", other),
        }
    }

    /// Composed float literals parse back to the same value.
    #[test]
    fn float_literals_roundtrip(v in -1e12f64..1e12) {
        let sql = f::lit_f(v).sql().to_string();
        let toks = snowdb::sql::lexer::tokenize(&sql).unwrap();
        match &toks[..2] {
            [snowdb::sql::lexer::Token::Float(x), _] => {
                prop_assert_eq!(*x, v);
            }
            // Negative values lex as '-' + number.
            [snowdb::sql::lexer::Token::Sym("-"), snowdb::sql::lexer::Token::Float(x)] => {
                prop_assert_eq!(-*x, v);
            }
            other => prop_assert!(false, "unexpected tokens {:?} for {}", other, sql),
        }
    }

    /// Arbitrary nesting of column operators still yields parseable SQL.
    #[test]
    fn operator_compositions_parse(depth in 1usize..6, seed in 0u64..1000) {
        let mut c = f::col("A");
        let mut x = seed;
        for _ in 0..depth {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            c = match x % 7 {
                0 => c.add(&f::lit((x % 100) as i64)),
                1 => c.mul(&f::col("B")),
                2 => c.gt(&f::lit(5)).and(&f::col("C").is_not_null()),
                3 => f::iff(&c.eq(&f::lit(1)), &f::lit(2), &c),
                4 => c.subfield("F"),
                5 => f::abs(&c),
                _ => c.cast("DOUBLE"),
            };
        }
        let sql = format!("SELECT {} FROM T", c.sql());
        snowdb::sql::parse_query(&sql).unwrap();
    }
}
