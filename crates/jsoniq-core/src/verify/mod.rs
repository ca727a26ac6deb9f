//! JSONiq-level verification lattice.
//!
//! Extends the SQL-side oracle (`snowdb::verify`) with the two axes only the
//! front-end knows about: the nested-query strategy the translator uses
//! (flag-column vs. JOIN-based, paper §IV-C) and the JSONiq interpreter as an
//! engine-independent ground truth. One logical query therefore executes as
//!
//! ```text
//! {interpreter}  ∪  {FlagColumn, JoinBased} × {optimizer on/off} × {threads}
//! ```
//!
//! and every point must agree under canonical ordering with epsilon-aware
//! equality. The interpreter materializes cross products row by row, so it is
//! only feasible at small scales — corpus tests keep interpreter-checked data
//! sets tiny and run the SQL-only lattice at scale.

pub mod gen;

use std::sync::Arc;

use snowdb::verify::{
    canonical_rows, verify_sql, ConfigOutcome, Failure, Rule, VerifyReport, DEFAULT_EPSILON,
};
use snowdb::{Database, QueryOptions};

use crate::interp::{DatabaseCollections, Interpreter};
use crate::snowflake::{translate_query, NestedStrategy};

/// The full JSONiq-level configuration lattice.
#[derive(Clone, Debug)]
pub struct JsoniqLattice {
    /// SQL-side execution configurations applied to every translation.
    pub sql: Vec<QueryOptions>,
    /// Translator strategies to cover.
    pub strategies: Vec<NestedStrategy>,
    /// Whether to run the JSONiq interpreter as the ground-truth baseline.
    pub interpreter: bool,
    /// Relative epsilon for float comparison.
    pub epsilon: f64,
}

impl JsoniqLattice {
    /// Everything: interpreter baseline, both strategies, the default SQL
    /// lattice up to `max_threads`.
    pub fn full(max_threads: usize) -> JsoniqLattice {
        JsoniqLattice {
            sql: snowdb::verify::default_lattice(max_threads),
            strategies: vec![NestedStrategy::FlagColumn, NestedStrategy::JoinBased],
            interpreter: true,
            epsilon: DEFAULT_EPSILON,
        }
    }

    /// Drops the interpreter baseline (for data sets too large to interpret);
    /// the first SQL configuration of the first strategy becomes the baseline.
    pub fn without_interpreter(mut self) -> JsoniqLattice {
        self.interpreter = false;
        self
    }
}

/// Verifies one JSONiq query across the lattice: the interpreter point, then
/// per strategy one translation and one [`verify_sql`] over `lattice.sql`,
/// labels prefixed `flag/` or `join/`. Each strategy's baseline is judged
/// against the previous strategy's (under [`Rule::Same`] when both ran on
/// the engine), the first against the interpreter; whenever a front end —
/// the interpreter or a failed translation — is on either side, the rule is
/// [`Rule::FrontEnd`]. The first point is the report's baseline.
///
/// # Panics
/// On a lattice with neither the interpreter nor a strategy.
pub fn verify_jsoniq(db: &Arc<Database>, src: &str, lattice: &JsoniqLattice) -> VerifyReport {
    let mut report = lattice.interpreter.then(|| {
        let provider = DatabaseCollections { db: db.as_ref() };
        // The interpreter yields a sequence of items; the translated SQL
        // yields single-column rows, so compare in that shape.
        let result = Interpreter::new(&provider)
            .eval_query(src)
            .map(|seq| canonical_rows(seq.into_iter().map(|v| vec![v]).collect()))
            .map_err(Failure::front_end);
        let plan = "<JSONiq interpreter (reference semantics)>".to_string();
        VerifyReport::new(src, ConfigOutcome { plan, ..ConfigOutcome::new("interpreter", result) })
    });
    // The point the next strategy's baseline is judged against, and whether
    // it ran on the engine.
    let mut head = report.as_ref().map(|_| (0, false));
    for &strategy in &lattice.strategies {
        let tag = match strategy {
            NestedStrategy::FlagColumn => "flag",
            NestedStrategy::JoinBased => "join",
        };
        let failed =
            |what: &str, failure| VerifyReport::new(src, ConfigOutcome::new(what, Err(failure)));
        let (mut sub, engine) = match translate_query(db.clone(), src, strategy) {
            Ok(df) => match verify_sql(db, df.sql(), &lattice.sql, lattice.epsilon) {
                Ok(sub) => (sub, true),
                Err(e) => (failed("lattice", Failure::Engine(e)), true),
            },
            Err(e) => (failed("translate", Failure::front_end(e)), false),
        };
        for o in &mut sub.outcomes {
            o.label = format!("{tag}/{}", o.label);
        }
        let at = match (&mut report, head) {
            (Some(report), Some((against, ran))) => {
                let rule = if ran && engine { Rule::Same } else { Rule::FrontEnd };
                report.merge(sub, against, rule, lattice.epsilon)
            }
            _ => {
                report = Some(VerifyReport { query: src.to_string(), ..sub });
                0
            }
        };
        head = Some((at, engine));
    }
    report.expect("the lattice has a point")
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowdb::storage::{ColumnDef, ColumnType};
    use snowdb::Variant;

    fn db() -> Arc<Database> {
        let d = Database::new();
        d.load_table(
            "t",
            vec![
                ColumnDef::new("ID", ColumnType::Int),
                ColumnDef::new("XS", ColumnType::Variant),
            ],
            (0..20).map(|i| {
                vec![
                    Variant::Int(i),
                    Variant::array((0..(i % 4)).map(Variant::Int).collect::<Vec<_>>()),
                ]
            }),
            4,
        )
        .unwrap();
        Arc::new(d)
    }

    #[test]
    fn full_lattice_agrees_on_nested_count() {
        let db = db();
        let q = r#"for $t in collection("t") where $t.ID mod 2 eq 0 return count($t.XS[])"#;
        let report = verify_jsoniq(&db, q, &JsoniqLattice::full(4));
        assert!(report.agrees(), "{}", report.render());
        assert_eq!(report.baseline().label, "interpreter");
        // interpreter + 2 strategies × 24 SQL configs
        assert_eq!(report.outcomes.len(), 49);
    }

    #[test]
    fn translation_failure_is_reported_not_fatal() {
        let db = db();
        let report = verify_jsoniq(
            &db,
            r#"for $t in collection("no_such_table") return $t.ID"#,
            &JsoniqLattice::full(2),
        );
        // The interpreter fails with a dynamic error, both translations with
        // a translation error: front ends on both sides of every verdict, so
        // the lattice agrees — on failing.
        assert!(report.agrees(), "{}", report.render());
        let labels: Vec<&str> = report.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["interpreter", "flag/translate", "join/translate"]);
        assert!(report.outcomes.iter().all(|o| matches!(o.error(), Some(Failure::FrontEnd(_)))));
    }

    #[test]
    fn a_raising_query_agrees_on_the_error() {
        let db = db();
        // Row ID = 0 divides by zero: the interpreter fails, and every SQL
        // point fails with the same engine error.
        let report = verify_jsoniq(
            &db,
            r#"for $t in collection("t") return $t.ID div ($t.ID mod 5)"#,
            &JsoniqLattice::full(2),
        );
        assert!(report.agrees(), "{}", report.render());
        assert_eq!(report.outcomes.len(), 33);
        let e = snowdb::SnowError::Exec("division by zero".into());
        assert!(report.outcomes[1..]
            .iter()
            .all(|o| matches!(o.error(), Some(Failure::Engine(x)) if *x == e)));
    }
}
