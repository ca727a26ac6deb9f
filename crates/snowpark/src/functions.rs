//! Static column constructors, mirroring Snowpark's `Functions` class (Table I
//! of the paper).

use crate::column::Col;

/// Reference to a column by name.
pub fn col(name: &str) -> Col {
    Col::reference(None, name)
}

/// Reference to a column qualified by a relation alias (`t."X"`).
pub fn col_of(relation: &str, name: &str) -> Col {
    Col::reference(Some(relation), name)
}

/// Integer literal.
pub fn lit(v: i64) -> Col {
    Col::int(v)
}

/// Double literal: a whole number keeps one decimal (`2.0`).
pub fn lit_f(v: f64) -> Col {
    Col::float(v)
}

/// String literal.
pub fn lit_s(v: &str) -> Col {
    Col::string(v)
}

/// Boolean literal.
pub fn lit_b(v: bool) -> Col {
    Col::text(if v { "TRUE" } else { "FALSE" })
}

/// SQL NULL.
pub fn null() -> Col {
    Col::text("NULL")
}

macro_rules! fn1 {
    ($(#[$doc:meta])* $rust:ident, $sql:literal) => {
        $(#[$doc])*
        pub fn $rust(x: &Col) -> Col {
            Col::call($sql, &[x])
        }
    };
}

macro_rules! agg1 {
    ($rust:ident, $sql:literal) => {
        pub fn $rust(x: &Col) -> Col {
            Col::aggregate($sql, "", Some(x))
        }
    };
}

macro_rules! fn2 {
    ($(#[$doc:meta])* $rust:ident, $sql:literal) => {
        $(#[$doc])*
        pub fn $rust(a: &Col, b: &Col) -> Col {
            Col::call($sql, &[a, b])
        }
    };
}

// ---- scalar functions ----
fn1!(abs, "ABS");
fn1!(sqrt, "SQRT");
fn1!(exp, "EXP");
fn1!(ln, "LN");
fn1!(floor, "FLOOR");
fn1!(ceil, "CEIL");
fn1!(round, "ROUND");
fn1!(sign, "SIGN");
fn1!(sin, "SIN");
fn1!(cos, "COS");
fn1!(tan, "TAN");
fn1!(asin, "ASIN");
fn1!(acos, "ACOS");
fn1!(atan, "ATAN");
fn1!(sinh, "SINH");
fn1!(cosh, "COSH");
fn1!(tanh, "TANH");
fn1!(to_double, "TO_DOUBLE");
fn1!(upper, "UPPER");
fn1!(lower, "LOWER");
fn1!(length, "LENGTH");
fn1!(typeof_, "TYPEOF");
fn2!(pow, "POWER");
fn2!(atan2, "ATAN2");
fn2!(nvl, "NVL");
fn2!(nullif, "NULLIF");
fn2!(
    /// `ARRAY_CAT(a, b)` — array concatenation.
    array_cat,
    "ARRAY_CAT"
);
fn2!(
    /// `ARRAY_CONTAINS(value, array)`.
    array_contains,
    "ARRAY_CONTAINS"
);
fn2!(get, "GET");
fn1!(array_size, "ARRAY_SIZE");

/// `ARRAY_FILTER(arr, field_or_null, op, literal)` — the engine's restricted
/// native array filter (paper §VII-B future work).
pub fn array_filter(arr: &Col, field: &Col, op: &Col, literal: &Col) -> Col {
    Col::call("ARRAY_FILTER", &[arr, field, op, literal])
}

/// `PI()`
pub fn pi() -> Col {
    Col::text("PI()")
}

/// `SEQ8()` — per-query unique row number; the translation layer uses it to tag
/// rows with identifiers before entering nested queries (paper §IV-B).
pub fn seq8() -> Col {
    Col::seq8()
}

/// `IFF(cond, then, else)`
pub fn iff(cond: &Col, then: &Col, otherwise: &Col) -> Col {
    Col::call("IFF", &[cond, then, otherwise])
}

/// `COALESCE(...)`
pub fn coalesce(args: &[&Col]) -> Col {
    Col::call("COALESCE", args)
}

/// `GREATEST(...)`
pub fn greatest(args: &[&Col]) -> Col {
    Col::call("GREATEST", args)
}

/// `LEAST(...)`
pub fn least(args: &[&Col]) -> Col {
    Col::call("LEAST", args)
}

/// `OBJECT_CONSTRUCT('k1', v1, 'k2', v2, ...)` with keep-null semantics.
pub fn object_construct(pairs: &[(&str, Col)]) -> Col {
    Col::object(pairs)
}

/// `ARRAY_CONSTRUCT(...)`
pub fn array_construct(items: &[&Col]) -> Col {
    Col::call("ARRAY_CONSTRUCT", items)
}

// ---- aggregates ----
agg1!(sum, "SUM");
agg1!(min, "MIN");
agg1!(max, "MAX");
agg1!(avg, "AVG");
agg1!(array_agg, "ARRAY_AGG");
agg1!(any_value, "ANY_VALUE");
agg1!(booland_agg, "BOOLAND_AGG");
agg1!(boolor_agg, "BOOLOR_AGG");
agg1!(count, "COUNT");

/// `COUNT(*)`
pub fn count_star() -> Col {
    Col::aggregate("COUNT(*)", "", None)
}

/// `COUNT(DISTINCT x)`
pub fn count_distinct(x: &Col) -> Col {
    Col::aggregate("COUNT", "DISTINCT ", Some(x))
}

/// `CONCAT(a, b)`
pub fn concat2(a: &Col, b: &Col) -> Col {
    Col::call("CONCAT", &[a, b])
}

/// `SUBSTR(s, start)` (1-based).
pub fn substr2(s: &Col, start: &Col) -> Col {
    Col::call("SUBSTR", &[s, start])
}

/// `SUBSTR(s, start, len)` (1-based).
pub fn substr3(s: &Col, start: &Col, len: &Col) -> Col {
    Col::call("SUBSTR", &[s, start, len])
}

/// Reference to the `VALUE` column produced by a flatten with the given alias.
pub fn flatten_value(alias: &str) -> Col {
    col_of(alias, "VALUE")
}

/// Reference to the `INDEX` column produced by a flatten with the given alias.
pub fn flatten_index(alias: &str) -> Col {
    col_of(alias, "INDEX")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_calls() {
        assert_eq!(abs(&col("X")).sql(), r#"ABS("X")"#);
        assert_eq!(count_star().sql(), "COUNT(*)");
        assert_eq!(count_distinct(&col("C")).sql(), r#"COUNT(DISTINCT "C")"#);
        assert_eq!(
            object_construct(&[("A", lit(1)), ("B", lit_s("x"))]).sql(),
            "OBJECT_CONSTRUCT('A', 1, 'B', 'x')"
        );
    }

    #[test]
    fn literals_render() {
        assert_eq!(lit_f(2.0).sql(), "2.0");
        assert_eq!(lit_f(2.5).sql(), "2.5");
        assert_eq!(lit_s("it's").sql(), "'it''s'");
        assert_eq!(lit_b(false).sql(), "FALSE");
    }
}
