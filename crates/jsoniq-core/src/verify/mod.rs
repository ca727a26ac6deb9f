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
    canonical_rows, first_diff, render_row, ConfigOutcome, Divergence, DivergenceDetail,
    VerifyReport, DEFAULT_EPSILON,
};
use snowdb::{Database, QueryOptions, Variant};

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

struct Run {
    label: String,
    rows: Option<Vec<Vec<Variant>>>,
    error: Option<String>,
    /// `EXPLAIN` (or a placeholder for the interpreter).
    plan: String,
    /// Plan annotated with measured per-operator metrics, when available.
    metrics: String,
}

/// Verifies one JSONiq query across the lattice. The first point (the
/// interpreter when enabled) is the baseline.
pub fn verify_jsoniq(db: &Arc<Database>, src: &str, lattice: &JsoniqLattice) -> VerifyReport {
    let mut runs: Vec<Run> = Vec::new();

    if lattice.interpreter {
        let provider = DatabaseCollections { db: db.as_ref() };
        let interp = Interpreter::new(&provider);
        let (rows, error) = match interp.eval_query(src) {
            // The interpreter yields a sequence of items; the translated SQL
            // yields single-column rows, so compare in that shape.
            Ok(seq) => (Some(canonical_rows(seq.into_iter().map(|v| vec![v]).collect())), None),
            Err(e) => (None, Some(e.to_string())),
        };
        runs.push(Run {
            label: "interpreter".into(),
            rows,
            error,
            plan: "<JSONiq interpreter (reference semantics)>".into(),
            metrics: String::new(),
        });
    }

    for &strategy in &lattice.strategies {
        let tag = match strategy {
            NestedStrategy::FlagColumn => "flag",
            NestedStrategy::JoinBased => "join",
        };
        let sql = match translate_query(db.clone(), src, strategy) {
            Ok(df) => df.sql().to_string(),
            Err(e) => {
                runs.push(Run {
                    label: format!("{tag}/translate"),
                    rows: None,
                    error: Some(e.to_string()),
                    plan: String::new(),
                    metrics: String::new(),
                });
                continue;
            }
        };
        for cfg in &lattice.sql {
            let label = format!("{tag}/{}", cfg.label());
            let plan = db
                .explain_with(&sql, cfg.optimize)
                .unwrap_or_else(|e| format!("<explain failed: {e}>"));
            match db.query_with(&sql, cfg) {
                Ok(result) => {
                    let metrics =
                        match (&result.profile.metrics, db.compile_with(&sql, cfg.optimize)) {
                            (Some(m), Ok(p)) => snowdb::plan::explain_analyze(&p, m),
                            _ => String::new(),
                        };
                    runs.push(Run {
                        label,
                        rows: Some(canonical_rows(result.rows)),
                        error: None,
                        plan,
                        metrics,
                    });
                }
                Err(e) => runs.push(Run {
                    label,
                    rows: None,
                    error: Some(e.to_string()),
                    plan,
                    metrics: String::new(),
                }),
            }
        }
    }

    build_report(src, runs, lattice.epsilon)
}

fn build_report(query: &str, runs: Vec<Run>, epsilon: f64) -> VerifyReport {
    let baseline = &runs[0];
    let mut outcomes = Vec::with_capacity(runs.len());
    let mut divergences = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let (agrees, detail) = if i == 0 {
            (true, None)
        } else {
            match (&baseline.rows, &run.rows) {
                (Some(b), Some(c)) => match first_diff(b, c, epsilon) {
                    None => (true, None),
                    Some((index, br, cr)) => (
                        false,
                        Some(DivergenceDetail::Row {
                            index,
                            baseline_row: br.map(render_row),
                            candidate_row: cr.map(render_row),
                        }),
                    ),
                },
                _ if baseline.error.is_some() && baseline.error == run.error => (true, None),
                _ => (
                    false,
                    Some(DivergenceDetail::Error {
                        baseline_error: baseline.error.clone(),
                        candidate_error: run.error.clone(),
                    }),
                ),
            }
        };
        outcomes.push(ConfigOutcome {
            label: run.label.clone(),
            rows: run.rows.as_ref().map(Vec::len),
            error: run.error.clone(),
            agrees,
        });
        if let Some(detail) = detail {
            divergences.push(Divergence {
                candidate: run.label.clone(),
                detail,
                baseline_plan: baseline.plan.clone(),
                candidate_plan: run.plan.clone(),
                baseline_metrics: baseline.metrics.clone(),
                candidate_metrics: run.metrics.clone(),
            });
        }
    }
    VerifyReport { query: query.to_string(), baseline: baseline.label.clone(), outcomes, divergences }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowdb::storage::{ColumnDef, ColumnType};

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
        assert_eq!(report.baseline, "interpreter");
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
        // The interpreter and both translations fail with the same unknown-
        // collection error, so the lattice still "agrees" — on the error.
        assert!(report.outcomes.iter().all(|o| o.error.is_some()), "{}", report.render());
    }
}
