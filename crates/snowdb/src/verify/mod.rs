//! Differential correctness oracle over the SQL execution-configuration
//! lattice.
//!
//! The paper's central claim is semantic equivalence under translation: a
//! query must return the same answer no matter which of the engine's execution
//! configurations runs it. This module executes one query across
//! {optimizer on/off} × {thread counts} and compares the results under a
//! canonical ordering with epsilon-aware equality ([`compare`]); on
//! disagreement it emits a minimized repro ([`report`]) carrying the query
//! text, `EXPLAIN` of both plans, the first differing row, and both
//! per-operator metrics trees.
//!
//! The JSONiq-level axes of the lattice (nested strategy, interpreter ground
//! truth) live in `jsoniq-core::verify`, which layers on top of the
//! primitives here — `snowdb` cannot depend on its own front-ends. [`gen`]
//! is this crate's seeded random-SQL stream for the lattice.

pub mod compare;
pub mod gen;
pub mod report;

pub use compare::{canonical_rows, cmp_rows, first_diff, rows_eq_eps, variant_eq_eps};
pub use report::{ConfigOutcome, Divergence, DivergenceDetail, VerifyReport};

use std::sync::Arc;

use crate::catalog::CatalogSnapshot;
use crate::engine::{Database, QueryOptions};
use crate::error::{Result, SnowError};
use crate::govern::chaos::ChaosSchedule;
use crate::govern::QueryGovernor;
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

/// Runs `sql` under every configuration and compares each result to the
/// first configuration's (the baseline). A configuration agrees when both
/// produce equal canonicalized results, or both fail with the same error;
/// anything else records a [`Divergence`] with a full repro. The lattice runs
/// against the current catalog version under the database-level parameters.
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
/// with the typed error instead of being scored as a disagreement.
pub(crate) fn verify_query(
    db: &Database,
    cat: &CatalogSnapshot,
    query: std::result::Result<&Query, &SnowError>,
    text: &str,
    configs: &[QueryOptions],
    epsilon: f64,
    gov: &Arc<QueryGovernor>,
) -> Result<VerifyReport> {
    if configs.is_empty() {
        return Err(SnowError::Exec("verify: empty configuration lattice".into()));
    }

    struct Run {
        config: QueryOptions,
        rows: Option<Vec<Vec<Variant>>>,
        error: Option<String>,
        metrics: String,
    }

    let query = query.map_err(SnowError::clone);
    let compile = |optimize: bool| query.clone().and_then(|q| db.compile_on(cat, q, optimize));
    let explain_with = |optimize: bool| match compile(optimize) {
        Ok(plan) => crate::plan::explain(&plan),
        Err(e) => format!("<explain failed: {e}>"),
    };

    let mut runs = Vec::with_capacity(configs.len());
    for cfg in configs {
        let ran = query.clone().and_then(|q| {
            db.query_on(cat, q, cfg, gov.clone()).map_err(SnowError::from)
        });
        match ran {
            Ok(result) => {
                // Annotate the plan with the measured metrics now, while both
                // are in hand; the repro only needs the rendered text.
                let metrics = match (&result.profile.metrics, compile(cfg.optimize)) {
                    (Some(m), Ok(plan)) => crate::plan::explain_analyze(&plan, m),
                    _ => String::new(),
                };
                runs.push(Run {
                    config: *cfg,
                    rows: Some(canonical_rows(result.rows)),
                    error: None,
                    metrics,
                });
            }
            Err(e) if e.is_governance() => return Err(e),
            Err(e) => runs.push(Run {
                config: *cfg,
                rows: None,
                error: Some(e.to_string()),
                metrics: String::new(),
            }),
        }
    }

    let baseline = &runs[0];
    let baseline_plan = explain_with(baseline.config.optimize);

    let mut outcomes = Vec::with_capacity(runs.len());
    let mut divergences = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let (agrees, detail) = if i == 0 {
            (true, None)
        } else {
            diff_runs(
                baseline.rows.as_deref(),
                baseline.error.as_deref(),
                run.rows.as_deref(),
                run.error.as_deref(),
                epsilon,
            )
        };
        outcomes.push(ConfigOutcome {
            label: run.config.label(),
            rows: run.rows.as_ref().map(Vec::len),
            error: run.error.clone(),
            agrees,
        });
        if let Some(detail) = detail {
            divergences.push(Divergence {
                candidate: run.config.label(),
                detail,
                baseline_plan: baseline_plan.clone(),
                candidate_plan: explain_with(run.config.optimize),
                baseline_metrics: baseline.metrics.clone(),
                candidate_metrics: run.metrics.clone(),
            });
        }
    }

    Ok(VerifyReport {
        query: text.to_string(),
        baseline: baseline.config.label(),
        outcomes,
        divergences,
    })
}

/// Outcome of one seeded fault schedule in [`verify_sql_chaos`].
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The schedule's seed; re-running with `ChaosSchedule::new(seed)` and
    /// one thread reproduces the exact injection decisions.
    pub seed: u64,
    /// One-line description: `completed, agrees` or the typed error.
    pub outcome: String,
    /// False when this seed violated the soundness property.
    pub sound: bool,
}

/// Result of driving one query through [`verify_sql_chaos`].
#[derive(Clone, Debug)]
pub struct ChaosReport {
    pub query: String,
    pub threads: usize,
    pub outcomes: Vec<ChaosOutcome>,
    /// Full repro text for every unsound seed.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// True when every schedule ended in the correct result or a typed error
    /// *and* the engine answered the un-faulted re-run correctly afterwards.
    pub fn sound(&self) -> bool {
        self.failures.is_empty()
    }

    /// Seeds under which the query still completed with the right answer.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.outcome.starts_with("completed")).count()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "==== chaos: {} schedule(s), threads={} ====\n{}\n",
            self.outcomes.len(),
            self.threads,
            self.query.trim()
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "  seed {:<6} {} {}\n",
                o.seed,
                if o.sound { "ok:" } else { "UNSOUND:" },
                o.outcome
            ));
        }
        for f in &self.failures {
            out.push('\n');
            out.push_str(f);
            out.push('\n');
        }
        out
    }
}

/// Drives `sql` through a list of seeded fault-injection schedules and checks
/// the governance soundness property for each:
///
/// 1. the faulted run must either complete with the baseline's answer or
///    fail with a typed [`SnowError`] — the chaos panics a schedule injects
///    must have been isolated into typed errors by then (an unisolated panic
///    would abort the test process, which is itself a detection);
/// 2. immediately afterwards the *un-faulted* engine must produce the
///    baseline answer again — injected faults must not poison engine state.
///
/// The baseline is one un-faulted run under the same `threads`/optimizer
/// configuration. Each failure carries the seed, so a CI failure replays with
/// `ChaosSchedule::new(seed)` under `QueryOptions { threads: Some(1), .. }`.
pub fn verify_sql_chaos(
    db: &Database,
    sql: &str,
    seeds: &[u64],
    threads: usize,
    epsilon: f64,
) -> Result<ChaosReport> {
    let opts = QueryOptions { threads: Some(threads), ..QueryOptions::default() };
    let baseline = match db.query_with(sql, &opts) {
        Ok(r) => Ok(canonical_rows(r.rows)),
        Err(e) => Err(e.to_string()),
    };

    let mut outcomes = Vec::with_capacity(seeds.len());
    let mut failures = Vec::new();
    for &seed in seeds {
        let gov =
            Arc::new(QueryGovernor::unbounded().with_chaos(ChaosSchedule::new(seed)));
        let faulted = match db.query_governed(sql, &opts, gov) {
            Ok(r) => Ok(canonical_rows(r.rows)),
            Err(f) => Err(f.error.to_string()),
        };

        let (sound, outcome) = match (&baseline, &faulted) {
            // A faulted run that completes must have the right answer.
            (Ok(b), Ok(c)) => match first_diff(b, c, epsilon) {
                None => (true, "completed, agrees".to_string()),
                Some((index, br, cr)) => (
                    false,
                    format!(
                        "completed with WRONG ANSWER at row {index}: baseline {:?}, \
                         faulted {:?}",
                        br.map(render_row),
                        cr.map(render_row)
                    ),
                ),
            },
            // Any typed error is a sound outcome under injected faults.
            (_, Err(e)) => (true, format!("typed error: {e}")),
            (Err(b), Ok(_)) => (
                false,
                format!("completed but the un-faulted baseline fails with: {b}"),
            ),
        };
        if !sound {
            failures.push(format!(
                "chaos divergence (seed {seed}, threads {threads})\n  query: {}\n  {}",
                sql.trim(),
                outcome
            ));
        }
        // Recovery: the engine must answer the same query un-faulted,
        // identically to the baseline, after every schedule.
        let recovered = match db.query_with(sql, &opts) {
            Ok(r) => Ok(canonical_rows(r.rows)),
            Err(e) => Err(e.to_string()),
        };
        let recovery_ok = match (&baseline, &recovered) {
            (Ok(b), Ok(c)) => first_diff(b, c, epsilon).is_none(),
            (Err(b), Err(c)) => b == c,
            _ => false,
        };
        if !recovery_ok {
            failures.push(format!(
                "engine failed to recover after chaos seed {seed} (threads \
                 {threads})\n  query: {}\n  baseline: {}\n  after-chaos: {}",
                sql.trim(),
                describe(&baseline),
                describe(&recovered)
            ));
        }
        outcomes.push(ChaosOutcome { seed, outcome, sound: sound && recovery_ok });
    }

    Ok(ChaosReport { query: sql.to_string(), threads, outcomes, failures })
}

fn describe(r: &std::result::Result<Vec<Vec<Variant>>, String>) -> String {
    match r {
        Ok(rows) => format!("{} row(s)", rows.len()),
        Err(e) => format!("error: {e}"),
    }
}

/// Compares one run against the baseline; on disagreement returns the repro
/// detail.
fn diff_runs(
    baseline_rows: Option<&[Vec<Variant>]>,
    baseline_err: Option<&str>,
    candidate_rows: Option<&[Vec<Variant>]>,
    candidate_err: Option<&str>,
    epsilon: f64,
) -> (bool, Option<DivergenceDetail>) {
    match (baseline_rows, candidate_rows) {
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
        // At least one side errored: agreement requires both to fail the same
        // way — a plan that errors only under one configuration is a real
        // divergence (e.g. a predicate pushed onto rows the unpushed plan
        // never evaluates).
        _ if baseline_err.is_some() && baseline_err == candidate_err => (true, None),
        _ => (
            false,
            Some(DivergenceDetail::Error {
                baseline_error: baseline_err.map(str::to_string),
                candidate_error: candidate_err.map(str::to_string),
            }),
        ),
    }
}

/// Renders one row for a report: `[v1, v2, ...]` with strings quoted. Public
/// so the JSONiq-level lattice (`jsoniq-core::verify`) renders rows the same
/// way.
pub fn render_row(row: &[Variant]) -> String {
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
        assert!(report.outcomes.iter().all(|o| o.rows == Some(3)));
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
        assert!(report.outcomes.iter().all(|o| o.error.is_some()));
    }

    #[test]
    fn chaos_schedules_are_sound_on_aggregate() {
        let d = db();
        // Quiet the default hook for injected chaos panics only; everything
        // else keeps printing.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains(crate::govern::chaos::CHAOS_PANIC_MARKER) {
                eprintln!("panic: {msg}");
            }
        }));
        let report = verify_sql_chaos(
            &d,
            "SELECT ID % 3 AS g, SUM(X) AS s FROM t GROUP BY ID % 3",
            &(0..8).collect::<Vec<u64>>(),
            2,
            DEFAULT_EPSILON,
        );
        std::panic::set_hook(prev);
        let report = report.unwrap();
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.sound(), "{}", report.render());
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
