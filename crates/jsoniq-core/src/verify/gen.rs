//! Grammar-directed random JSONiq query generator.
//!
//! Produces small FLWOR queries over a declared collection schema, drawing
//! every choice from a seeded RNG so a corpus of random queries is exactly
//! reproducible offline (the `rand` shim is deterministic). The grammar stays
//! inside the translator's supported dialect — each shape mirrors one of the
//! ADL query skeletons (scalar filter-project, array iteration, group-by
//! histogram, nested count / existential sub-FLWOR, a `let`-bound nested
//! sequence read twice) so a divergence flagged by the oracle is an engine
//! bug, not a dialect gap. Scalars and predicates draw on what the batch
//! evaluator has kernels for — math builtins over paths, `if`/`then`/`else`
//! guards (translated to `IFF`) around `div`, `size()` (`ARRAY_SIZE`),
//! positional lookup (`GET`) — so the lattice's {vectorized, row} axis
//! referees them. The two-argument aggregates have no JSONiq spelling the
//! translator maps to them; `snowdb::verify::gen` writes those in SQL.

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
}

/// The ADL HEP schema (see `adl::generator::schema`).
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
    match rng.gen_range(0..4u32) {
        0 if *field == "ETA" => format!("abs($x.ETA) lt {}", rng.gen_range(1..4)),
        1 => format!("sqrt($x.PT) {} {}", cmp_op(rng), rng.gen_range(2..8)),
        2 => format!("$x.PT * cos($x.PHI) {} {}", cmp_op(rng), rng.gen_range(-20..40)),
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
        // The guard keeps the division off its zero divisors.
        4 => {
            let a = pick(rng, &s.float_paths);
            let k = rng.gen_range(2..6);
            let id = s.event_field;
            format!("if ($e.{id} mod {k} eq 0) then 0 else $e.{a} div ($e.{id} mod {k})")
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

/// Generates one random query. Six shapes, all drawn from the ADL skeletons.
pub fn random_query(rng: &mut StdRng, s: &GenSchema) -> String {
    let c = &s.collection;
    match rng.gen_range(0..6u32) {
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
        // Nested count over a sub-FLWOR (ADL Q4 skeleton).
        3 => {
            let (arr, members) = pick(rng, &s.arrays);
            format!(
                r#"for $e in collection("{c}") where count(for $x in $e.{arr}[] where {} return $x) ge {} return $e.{}"#,
                element_pred(rng, members),
                rng.gen_range(1..3),
                s.event_field,
            )
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
        // Existential sub-FLWOR (ADL Q5 skeleton).
        _ => {
            let (arr, members) = pick(rng, &s.arrays);
            format!(
                r#"for $e in collection("{c}") where exists(for $x in $e.{arr}[] where {} return 1) return {}"#,
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
