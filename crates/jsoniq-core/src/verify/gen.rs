//! Grammar-directed random JSONiq query generator.
//!
//! Produces small FLWOR queries over a declared collection schema, drawing
//! every choice from a seeded RNG so a corpus of random queries is exactly
//! reproducible offline (the `rand` shim is deterministic). The grammar stays
//! inside the translator's supported dialect — each shape mirrors one of the
//! ADL query skeletons (scalar filter-project, array iteration, group-by
//! histogram, nested count / sum / existential / `empty` sub-FLWOR, a
//! `let`-bound nested sequence read twice) so a divergence flagged by the
//! oracle is an engine bug, not a dialect gap. Scalars and predicates draw
//! on what the batch
//! evaluator has kernels for — math builtins over paths, `if`/`then`/`else`
//! guards (translated to `IFF`) around `div`, `size()` (`ARRAY_SIZE`),
//! positional lookup (`GET`) — so the lattice's {vectorized, row} axis
//! referees them. Some divisions go unguarded, over an event's fields or an
//! array element's: the interpreter and every SQL point must then fail
//! together. The nested shapes draw bounds on both sides of what an empty
//! nested query yields (`count(…) ge 0`, `sum(…) gt -3` hold for it), the
//! boundary of the optimizer's empty-group elimination. The two-argument
//! aggregates have no JSONiq spelling the translator maps to them;
//! `snowdb::verify::gen` writes those in SQL.
//!
//! Positional variables (`for $a at $i in … for $b at $j in … where $i lt
//! $j`, every order comparison) pair the elements of an ADL array, as Q5
//! and Q8 do, and of the irregular table's arrays.
//!
//! One shape in eight reads the irregular table `snowdb::verify::gen`
//! loads (`load_irregular`): an optional member in a nested FLWOR's
//! predicate, a `let` over a nested FLWOR that filters out every item used
//! in the outer `where`, nested queries whose every item is filtered out,
//! order comparisons on a field that mixes numbers and strings, nested
//! queries over its arrays of flat records, which the engine stores
//! shredded, and position pairs over a column that is an object in some
//! rows, where `[]` yields nothing and a flatten yields members. Two
//! things it never does, because the engine has one `NULL` for SQL `NULL`,
//! JSON `null` and a missing member (`Variant::Null`) while the interpreter
//! keeps them apart: it compares nothing with a `null` literal or with
//! `lt`/`le` against a member that may be `null` (JSON `null` sorts below
//! every number; SQL `NULL` compares to nothing), and it never collects a
//! member that may be `null` or missing — or an aggregate that may be
//! empty — into a result (the interpreter keeps the `null` and drops the
//! empty sequence; SQL drops the one and keeps the other as `NULL`). The
//! ignored `one_null_*` tests in `crates/snowdb/tests/verify.rs` pin both.

use rand::{Rng, StdRng};

/// Shape of one collection for generation purposes.
#[derive(Clone, Debug)]
pub struct GenSchema {
    /// Collection name as used in `collection("...")`.
    pub collection: String,
    /// Integer event-id field, used for deterministic `mod` predicates.
    pub event_field: &'static str,
    /// Float-valued paths on the row object (e.g. `MET.PT`).
    pub float_paths: Vec<&'static str>,
    /// Arrays of objects: `(array field, float member fields)`.
    pub arrays: Vec<(&'static str, Vec<&'static str>)>,
    /// The collection `snowdb::verify::gen::load_irregular` wrote.
    pub irregular: String,
}

/// The ADL HEP schema (see `adl::generator::schema`) and the irregular
/// collection `IRR`.
pub fn adl_schema(table: &str) -> GenSchema {
    GenSchema {
        collection: table.to_string(),
        event_field: "EVENT",
        float_paths: vec!["MET.PT", "MET.PHI"],
        arrays: vec![
            ("JET", vec!["PT", "ETA", "PHI", "MASS"]),
            ("MUON", vec!["PT", "ETA", "PHI", "MASS"]),
            ("ELECTRON", vec!["PT", "ETA", "PHI", "MASS"]),
            ("PHOTON", vec!["PT", "ETA", "PHI", "MASS"]),
        ],
        irregular: "IRR".to_string(),
    }
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

fn cmp_op(rng: &mut StdRng) -> &'static str {
    const OPS: [&str; 4] = ["lt", "le", "gt", "ge"];
    OPS[rng.gen_range(0..OPS.len())]
}

/// A predicate over the row variable `$e`.
fn event_pred(rng: &mut StdRng, s: &GenSchema) -> String {
    match rng.gen_range(0..4u32) {
        0 => {
            let path = pick(rng, &s.float_paths);
            format!("$e.{path} {} {}", cmp_op(rng), rng.gen_range(5..80))
        }
        1 => {
            let k = rng.gen_range(2..7);
            format!("$e.{} mod {} eq {}", s.event_field, k, rng.gen_range(0..k))
        }
        2 => {
            let (arr, _) = pick(rng, &s.arrays);
            format!("size($e.{arr}) ge {}", rng.gen_range(1..4))
        }
        _ => {
            let path = pick(rng, &s.float_paths);
            format!(
                "$e.{path} {} {} and $e.{} mod {} eq 0",
                cmp_op(rng),
                rng.gen_range(5..80),
                s.event_field,
                rng.gen_range(2..5),
            )
        }
    }
}

/// A predicate over an array-element variable `$x` with the given members.
fn element_pred(rng: &mut StdRng, members: &[&'static str]) -> String {
    let field = pick(rng, members);
    match rng.gen_range(0..5u32) {
        0 if *field == "ETA" => format!("abs($x.ETA) lt {}", rng.gen_range(1..4)),
        1 => format!("sqrt($x.PT) {} {}", cmp_op(rng), rng.gen_range(2..8)),
        2 => format!("$x.PT * cos($x.PHI) {} {}", cmp_op(rng), rng.gen_range(-20..40)),
        // A division by zero on some elements (a lepton of charge -1; a jet
        // has no charge, so it divides by nothing): unguarded, every point
        // fails together; guarded, it answers, but the optimizer still sees
        // a division and must evaluate it on the same flattened rows.
        3 => {
            let division = "$x.PT div ($x.CHARGE + 1)";
            let op = cmp_op(rng);
            let c = rng.gen_range(1..40);
            if rng.gen_bool(0.5) {
                format!("{division} {op} {c}")
            } else {
                format!("(if ($x.CHARGE + 1 eq 0) then 0 else {division}) {op} {c}")
            }
        }
        _ => format!("$x.{field} {} {}", cmp_op(rng), rng.gen_range(5..60)),
    }
}

/// A scalar returned for the row variable `$e`.
fn event_scalar(rng: &mut StdRng, s: &GenSchema) -> String {
    match rng.gen_range(0..8u32) {
        0 => format!("$e.{}", pick(rng, &s.float_paths)),
        1 => format!("$e.{}", s.event_field),
        2 => {
            let a = pick(rng, &s.float_paths);
            let b = pick(rng, &s.float_paths);
            format!("$e.{a} + abs($e.{b})")
        }
        3 => {
            let a = pick(rng, &s.float_paths);
            let b = pick(rng, &s.float_paths);
            format!("sqrt(abs($e.{a})) + $e.{a} * cos($e.{b})")
        }
        // The guard keeps the division off its zero divisors; without it,
        // every point fails on the first event that divides by zero.
        4 => {
            let a = pick(rng, &s.float_paths);
            let k = rng.gen_range(2..6);
            let id = s.event_field;
            let division = format!("$e.{a} div ($e.{id} mod {k})");
            if rng.gen_bool(0.5) {
                division
            } else {
                format!("if ($e.{id} mod {k} eq 0) then 0 else {division}")
            }
        }
        5 => {
            let (arr, _) = pick(rng, &s.arrays);
            let a = pick(rng, &s.float_paths);
            format!("size($e.{arr}) + floor($e.{a} div {})", rng.gen_range(2..9))
        }
        6 => {
            let (arr, members) = pick(rng, &s.arrays);
            let field = pick(rng, members);
            format!(
                r#"{{"id": $e.{}, "first": if (size($e.{arr}) ge 1) then $e.{arr}[[1]].{field} else -1}}"#,
                s.event_field
            )
        }
        _ => {
            let path = pick(rng, &s.float_paths);
            format!(r#"{{"id": $e.{}, "v": $e.{path}}}"#, s.event_field)
        }
    }
}

/// A query over the irregular collection (see the module docs for what it
/// leaves out and why).
fn irregular_query(rng: &mut StdRng, c: &str) -> String {
    // `gt`/`ge` only: a `null` member fails them in both semantics.
    let op = if rng.gen_bool(0.5) { "gt" } else { "ge" };
    let pt = rng.gen_range(0..150);
    // High enough to filter out every item, or not.
    let eta = if rng.gen_bool(0.5) { 1000 } else { rng.gen_range(-2..3) };
    match rng.gen_range(0..8u32) {
        // A `let`-bound aggregate of pairs by position that no predicate
        // rejects — every row keeps its group, the KEEP gate's shape — over
        // `OA` (empty arrays, objects whose `[]` is empty) or `XS` (empty
        // arrays), a selective conjunct and, before or after the others, a
        // division by zero on some items.
        7 => {
            let (col, item) = if rng.gen_bool(0.5) { ("OA", "$b") } else { ("XS", "$b.PT") };
            let mut conjuncts = vec![
                format!("$i {} $j", cmp_op(rng)),
                format!("{item} {op} {}", rng.gen_range(0..if col == "OA" { 8 } else { 120 })),
            ];
            if rng.gen_bool(0.5) {
                let division = format!("10 div ({item} - {}) gt 0", rng.gen_range(0..6));
                let at = if rng.gen_bool(0.5) { 0 } else { conjuncts.len() };
                conjuncts.insert(at, division);
            }
            let agg = pick(rng, &["count", "sum", "max"]);
            format!(
                r#"for $t in collection("{c}") let $m := {agg}(for $a at $i in $t.{col}[] for $b at $j in $t.{col}[] where {} return {item}) return {{"id": $t.ID, "m": $m}}"#,
                conjuncts.join(" and "),
            )
        }
        0 => format!(
            r#"for $t in collection("{c}") where count(for $x in $t.XS[] where $x.PT {op} {pt} return $x) ge {} return $t.ID"#,
            rng.gen_range(1..3),
        ),
        1 => format!(
            r#"for $t in collection("{c}") where exists(for $x in $t.XS[] where $x.PT {op} {pt} return 1) return {{"id": $t.ID, "n": size($t.XS)}}"#,
        ),
        2 => format!(
            r#"for $t in collection("{c}") let $ys := (for $x in $t.XS[] where $x.ETA gt {eta} return $x.ETA) where count(for $y in $ys return $y) eq 0 and $t.ID mod {} eq 0 return $t.ID"#,
            rng.gen_range(1..4),
        ),
        3 => format!(
            r#"for $t in collection("{c}") return {{"id": $t.ID, "n": count(for $x in $t.XS[] where $x.ETA gt {eta} return $x), "s": sum(for $x in $t.XS[] where $x.ETA gt {eta} return $x.ETA), "xs": [ for $x in $t.XS[] where $x.ETA gt {eta} return $x.ETA ]}}"#,
        ),
        // The regular arrays of records, which seal shredded.
        4 => format!(
            r#"for $t in collection("{c}") return {{"id": $t.ID, "n": count(for $r in $t.RS[] where $r.Q {op} {} return $r), "qs": [ for $r in $t.RS[] where $r.Q {op} {} return $r.Q ]}}"#,
            rng.gen_range(0..20),
            rng.gen_range(0..20),
        ),
        // Pairs by position over a column that holds an array in some rows
        // and an object in others (`[]` of an object is empty), over the
        // irregular arrays and over the shredded lists.
        6 => {
            let col = pick(rng, &["OA", "OA", "XS", "RS"]);
            format!(
                r#"for $t in collection("{c}") return {{"id": $t.ID, "n": count(for $a at $i in $t.{col}[] for $b at $j in $t.{col}[] where $i {} $j return $b)}}"#,
                cmp_op(rng),
            )
        }
        // Strings against a number fail in both; the ID filter may keep only
        // numbers.
        _ => format!(
            r#"for $t in collection("{c}") where $t.ID mod {} eq 0 and $t.MIX {op} {} return {{"id": $t.ID, "m": $t.MIX}}"#,
            rng.gen_range(1..12),
            rng.gen_range(0..100),
        ),
    }
}

/// Generates one random query: eight shapes drawn from the ADL skeletons,
/// and one over the irregular collection.
pub fn random_query(rng: &mut StdRng, s: &GenSchema) -> String {
    let c = &s.collection;
    match rng.gen_range(0..9u32) {
        6 => irregular_query(rng, &s.irregular),
        // A `let`-bound aggregate over pairs by position that no outer
        // predicate rejects (ADL Q7 and Q8 under the flag-column strategy:
        // the KEEP gate copies the positional and the selective conjuncts
        // below the row-id aggregate), the element predicate — which may
        // divide by zero — before or after the positional one.
        8 => {
            let (arr, members) = pick(rng, &s.arrays);
            let field = pick(rng, members);
            let (positional, pred) = (format!("$i {} $j", cmp_op(rng)), element_pred(rng, members));
            let conjuncts = if rng.gen_bool(0.5) {
                format!("{positional} and {pred}")
            } else {
                format!("{pred} and {positional}")
            };
            let agg = pick(rng, &["count", "sum", "min"]);
            format!(
                r#"for $e in collection("{c}") let $m := {agg}(for $a at $i in $e.{arr}[] for $x at $j in $e.{arr}[] where {conjuncts} return $x.{field}) return {{"id": $e.{}, "m": $m}}"#,
                s.event_field,
            )
        }
        // Pairs of one event's elements selected by position (ADL Q5 and Q8
        // skeleton), with an element predicate on the second: the
        // optimizer may make `$i lt $j` the second flatten's bound.
        7 => {
            let (arr, members) = pick(rng, &s.arrays);
            let (op, pred) = (cmp_op(rng), element_pred(rng, members));
            format!(
                r#"for $e in collection("{c}") where count(for $a at $i in $e.{arr}[] for $x at $j in $e.{arr}[] where $i {op} $j and {pred} return 1) ge {} return $e.{}"#,
                rng.gen_range(1..3),
                s.event_field,
            )
        }
        // Scalar filter + project over whole events.
        0 => format!(
            r#"for $e in collection("{c}") where {} return {}"#,
            event_pred(rng, s),
            event_scalar(rng, s),
        ),
        // Iterate one nested array, filter on element fields.
        1 => {
            let (arr, members) = pick(rng, &s.arrays);
            let field = pick(rng, members);
            format!(
                r#"for $x in collection("{c}").{arr}[] where {} return $x.{field}"#,
                element_pred(rng, members),
            )
        }
        // Group-by histogram with a count aggregate.
        2 => {
            let k = rng.gen_range(2..8);
            format!(
                r#"for $e in collection("{c}") where {} group by $g := $e.{} mod {k} order by $g return {{"g": $g, "n": count($e)}}"#,
                event_pred(rng, s),
                s.event_field,
            )
        }
        // Nested count or sum over a sub-FLWOR (ADL Q4 skeleton). `ge 0`
        // and a sum above a negative bound hold for an event whose nested
        // query is empty; the other bounds do not.
        3 => {
            let (arr, members) = pick(rng, &s.arrays);
            let pred = element_pred(rng, members);
            let nested = if rng.gen_bool(0.5) {
                format!(
                    "count(for $x in $e.{arr}[] where {pred} return $x) ge {}",
                    rng.gen_range(0..3)
                )
            } else {
                let field = pick(rng, members);
                let bound =
                    if rng.gen_bool(0.5) { -rng.gen_range(1..30) } else { rng.gen_range(0..60) };
                format!("sum(for $x in $e.{arr}[] where {pred} return $x.{field}) gt {bound}")
            };
            format!(r#"for $e in collection("{c}") where {nested} return $e.{}"#, s.event_field)
        }
        // A `let`-bound nested sequence read by two sub-FLWORs (ADL Q6
        // skeleton): the JOIN-based strategy repeats the upstream query once
        // per read, so the plan has duplicate subtrees for the engine to share.
        4 => {
            let (arr, members) = pick(rng, &s.arrays);
            let field = pick(rng, members);
            let agg = if rng.gen_bool(0.5) { "max" } else { "min" };
            format!(
                r#"for $e in collection("{c}") let $xs := (for $x in $e.{arr}[] where {} return $x.{field}) let $m := {agg}(for $y in $xs return $y) where count(for $y in $xs return $y) ge {} return {{"id": $e.{}, "m": $m}}"#,
                element_pred(rng, members),
                rng.gen_range(1..3),
                s.event_field,
            )
        }
        // Existential sub-FLWOR (ADL Q5 skeleton), or its negation.
        _ => {
            let (arr, members) = pick(rng, &s.arrays);
            let quantifier = if rng.gen_bool(0.5) { "exists" } else { "empty" };
            format!(
                r#"for $e in collection("{c}") where {quantifier}(for $x in $e.{arr}[] where {} return 1) return {}"#,
                element_pred(rng, members),
                event_scalar(rng, s),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = adl_schema("hep");
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| random_query(&mut rng, &s)).collect::<Vec<_>>()
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    #[test]
    fn generated_queries_parse() {
        let s = adl_schema("hep");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let q = random_query(&mut rng, &s);
            crate::parse(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
