//! Differential correctness oracle over the SQL execution-configuration
//! lattice.
//!
//! The paper's central claim is semantic equivalence under translation: a
//! query must return the same answer no matter which of the engine's execution
//! configurations runs it. This module executes one query across
//! {optimizer on/off} × {thread counts} × {vectorized, row} × {encoded,
//! decoded} and compares the results under a canonical ordering with
//! epsilon-aware equality ([`compare`]). One referee ([`Rule::judge`])
//! decides every agreement, on rows or typed errors, and one
//! [`VerifyReport`] carries every verdict with a minimized repro: the first
//! differing row or the two outcomes, `EXPLAIN` of both plans, and both
//! per-operator metrics trees.
//!
//! The JSONiq-level axes of the lattice (nested strategy, interpreter ground
//! truth) live in `jsoniq-core::verify`, which merges one [`verify_sql`]
//! report per strategy — `snowdb` cannot depend on its own front-ends.
//! [`verify_sql_chaos`] referees fault schedules the same way. [`gen`] is the
//! seeded random-SQL stream and irregular table for the lattice.

pub mod compare;
pub mod gen;
pub mod report;

pub use compare::{canonical_rows, first_diff};
pub use report::{ConfigOutcome, Divergence, DivergenceDetail, Failure, Rows, Rule, VerifyReport};

use std::sync::Arc;

use crate::catalog::CatalogSnapshot;
use crate::engine::{Database, PlanSource, QueryOptions, QueryProfile};
use crate::error::{Result, SnowError};
use crate::govern::chaos::ChaosSchedule;
use crate::govern::{QueryGovernor, QueryOutcome};
use crate::sql::ast::Query;
use crate::sql::parse_query;
use crate::variant::Variant;

/// Default relative epsilon for float comparison: wide enough to absorb
/// accumulation-order differences between plans, far too narrow to hide a
/// wrong answer.
pub const DEFAULT_EPSILON: f64 = 1e-9;

/// The default lattice: {optimized, raw} × {1, 2, `max_threads`} ×
/// {vectorized, row-at-a-time} × {encoded, decoded} with duplicate thread
/// counts collapsed. The optimized serial vectorized encoded configuration
/// comes first and acts as the baseline.
pub fn default_lattice(max_threads: usize) -> Vec<QueryOptions> {
    let mut threads = vec![1usize, 2, max_threads.max(1)];
    threads.sort_unstable();
    threads.dedup();
    let mut out = Vec::with_capacity(threads.len() * 8);
    for optimize in [true, false] {
        for &t in &threads {
            for vectorize in [true, false] {
                for encode in [true, false] {
                    out.push(QueryOptions { optimize, threads: Some(t), vectorize, encode });
                }
            }
        }
    }
    out
}

/// Runs `sql` under every configuration and judges each against the first
/// (the baseline) under [`Rule::Same`]: equal canonical rows, or equal
/// [`SnowError`] values. The lattice runs against the current catalog
/// version under the database-level parameters.
pub fn verify_sql(
    db: &Database,
    sql: &str,
    configs: &[QueryOptions],
    epsilon: f64,
) -> Result<VerifyReport> {
    let gov = Arc::new(QueryGovernor::from_params(&db.session_params()));
    // Unparseable text is an outcome, not an oracle failure: it fails
    // identically under every configuration.
    verify_query(db, &db.snapshot(), parse_query(sql).as_ref(), sql, configs, epsilon, &gov)
}

/// [`verify_sql`] for an already-parsed query (`text` is what the report
/// quotes; a parse error stands for a query that fails identically under
/// every configuration). `VERIFY` is one statement: every lattice run reads the same
/// pinned `cat` and shares `gov` — one deadline, one cancel flag, cumulative
/// budgets — and a governance trip ([`SnowError::is_governance`]) aborts it
/// with the typed error instead of being scored as a disagreement. Each point
/// compiles once, cold, and takes its plan and metrics from its record.
pub(crate) fn verify_query(
    db: &Database,
    cat: &CatalogSnapshot,
    query: std::result::Result<&Query, &SnowError>,
    text: &str,
    configs: &[QueryOptions],
    epsilon: f64,
    gov: &Arc<QueryGovernor>,
) -> Result<VerifyReport> {
    let mut report: Option<VerifyReport> = None;
    for cfg in configs {
        let ran = match query {
            Ok(q) => db.run_plan(cat, PlanSource::Parsed(q), cfg, gov.clone(), QueryProfile::new(gov)),
            Err(e) => Err(QueryProfile::new(gov).failed(e.clone(), gov)),
        };
        if let Some(f) = ran.as_ref().err().filter(|f| f.error.is_governance()) {
            return Err(f.error.clone());
        }
        let point = point(cfg.label(), ran);
        match &mut report {
            Some(r) => r.record(Rule::Same, 0, point, epsilon),
            None => report = Some(VerifyReport::new(text, point)),
        }
    }
    report.ok_or_else(|| SnowError::Exec("verify: empty configuration lattice".into()))
}

/// One point of a lattice, from its run's record: the canonical rows or the
/// typed error, `EXPLAIN` of the plan and, when it ran, its (partial)
/// metrics.
fn point(label: String, ran: QueryOutcome) -> ConfigOutcome {
    let (result, profile) = match ran {
        Ok(r) => (Ok(canonical_rows(r.rows)), r.profile),
        Err(f) => (Err(Failure::Engine(f.error)), *f.profile),
    };
    let (plan, metrics) = match (&profile.plan, &result) {
        (Some(p), _) => (
            crate::plan::explain(p),
            profile.metrics.as_ref().map_or_else(String::new, |m| crate::plan::explain_analyze(p, m)),
        ),
        (None, Err(e)) => (format!("<explain failed: {e}>"), String::new()),
        (None, Ok(_)) => unreachable!("rows come from a plan"),
    };
    ConfigOutcome { plan, metrics, ..ConfigOutcome::new(label, result) }
}

/// Drives `sql` through seeded fault-injection schedules at `threads`
/// workers. The baseline is one un-faulted run; each seed adds two points:
///
/// 1. the run under `ChaosSchedule::new(seed)`, judged under
///    [`Rule::Faulted`] — the injected panics must have been isolated into
///    typed errors by then (an unisolated panic would abort the test
///    process, which is itself a detection);
/// 2. the un-faulted re-run right after it, judged under [`Rule::Same`] —
///    injected faults must not poison engine state.
///
/// Both points carry the seed, so a divergence replays with
/// `ChaosSchedule::new(seed)` under `QueryOptions { threads: Some(1), .. }`.
/// Every point's plan is its own run's: nothing is compiled outside them.
pub fn verify_sql_chaos(
    db: &Database,
    sql: &str,
    seeds: &[u64],
    threads: usize,
    epsilon: f64,
) -> VerifyReport {
    let opts = QueryOptions { threads: Some(threads), ..QueryOptions::default() };
    let run = |label: String, gov: QueryGovernor| point(label, db.query_governed(sql, &opts, Arc::new(gov)));
    let un_faulted = || QueryGovernor::from_params(&db.session_params());
    let mut report = VerifyReport::new(sql, run(format!("un-faulted/threads={threads}"), un_faulted()));
    for &seed in seeds {
        let chaos = QueryGovernor::unbounded().with_chaos(ChaosSchedule::new(seed));
        let faulted = ConfigOutcome { seed: Some(seed), ..run(format!("seed={seed}"), chaos) };
        report.record(Rule::Faulted, 0, faulted, epsilon);
        let recovery =
            ConfigOutcome { seed: Some(seed), ..run(format!("seed={seed}/recovery"), un_faulted()) };
        report.record(Rule::Same, 0, recovery, epsilon);
    }
    report
}

/// Renders one row for a report: `[v1, v2, ...]` with strings quoted.
fn render_row(row: &[Variant]) -> String {
    let mut out = String::from("[");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            Variant::Str(s) => {
                out.push('\'');
                out.push_str(s);
                out.push('\'');
            }
            other => out.push_str(&other.to_string()),
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnDef, ColumnType};

    fn db() -> Database {
        let d = Database::new();
        d.load_table(
            "t",
            vec![
                ColumnDef::new("ID", ColumnType::Int),
                ColumnDef::new("X", ColumnType::Float),
            ],
            (0..40).map(|i| vec![Variant::Int(i), Variant::Float(i as f64 / 4.0)]),
            8,
        )
        .unwrap();
        d
    }

    #[test]
    fn default_lattice_covers_both_optimizer_modes() {
        let l = default_lattice(4);
        assert_eq!(l.len(), 24);
        assert!(l.iter().any(|c| c.optimize && c.threads == Some(4) && c.vectorize && c.encode));
        assert!(l.iter().any(|c| !c.optimize && c.threads == Some(1) && !c.vectorize && !c.encode));
        // Duplicate thread counts collapse.
        assert_eq!(default_lattice(1).len(), 16);
        assert_eq!(
            l[0],
            QueryOptions { optimize: true, threads: Some(1), vectorize: true, encode: true }
        );
    }

    #[test]
    fn verify_agreement_on_plain_aggregate() {
        let d = db();
        let report = verify_sql(
            &d,
            "SELECT ID % 3 AS g, SUM(X) AS s FROM t GROUP BY ID % 3",
            &default_lattice(4),
            DEFAULT_EPSILON,
        )
        .unwrap();
        assert!(report.agrees(), "{}", report.render());
        assert!(report.outcomes.iter().all(|o| o.rows() == Some(3)));
    }

    #[test]
    fn verify_agreement_on_matching_errors() {
        let d = db();
        // Division by zero fails identically under every configuration.
        let report = verify_sql(
            &d,
            "SELECT 1 / (ID - ID) FROM t",
            &default_lattice(2),
            DEFAULT_EPSILON,
        )
        .unwrap();
        assert!(report.agrees(), "{}", report.render());
        let e = SnowError::Exec("division by zero".into());
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o.error(), Some(Failure::Engine(x)) if *x == e)));
    }

    #[test]
    fn chaos_schedules_agree_on_aggregate() {
        crate::govern::chaos::quiet_injected_panics();
        let report = verify_sql_chaos(
            &db(),
            "SELECT ID % 3 AS g, SUM(X) AS s FROM t GROUP BY ID % 3",
            &(0..8).collect::<Vec<u64>>(),
            2,
            DEFAULT_EPSILON,
        );
        // The baseline, then a faulted and a recovery point per seed.
        assert_eq!(report.outcomes.len(), 17);
        assert!(report.agrees(), "{}", report.render());
        assert!(report.outcomes[1..].iter().all(|o| o.seed.is_some()));
    }

    #[test]
    fn verify_statement_surfaces_report() {
        let d = db();
        match d.execute("VERIFY SELECT COUNT(*) FROM t WHERE X > 2.0").unwrap() {
            crate::engine::StatementResult::Message(m) => {
                assert!(m.contains("all configurations agree"), "{m}");
            }
            other => panic!("expected message, got {other:?}"),
        }
    }
}
