//! The referee and its report: one function decides whether a point of a
//! lattice agrees with the point it is judged against ([`Rule::judge`]), and
//! one [`VerifyReport`] carries every verdict with its repro.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use super::{first_diff, render_row};
use crate::error::SnowError;
use crate::variant::Variant;

/// Canonically ordered result rows ([`super::canonical_rows`]).
pub type Rows = Vec<Vec<Variant>>;

/// How a point failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// The engine's typed error.
    Engine(SnowError),
    /// A front end's error: the JSONiq interpreter's or translator's. It
    /// shares no taxonomy with [`SnowError`] — an unknown collection is a
    /// dynamic error to the interpreter and a translation error to the
    /// translator — so the referee never compares it by value.
    FrontEnd(Arc<dyn std::error::Error + Send + Sync>),
}

impl Failure {
    pub fn front_end(e: impl std::error::Error + Send + Sync + 'static) -> Failure {
        Failure::FrontEnd(Arc::new(e))
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Engine(e) => e.fmt(f),
            Failure::FrontEnd(e) => e.fmt(f),
        }
    }
}

/// The referee's three cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Two engine runs — two lattice configurations, the JOIN-based
    /// strategy's baseline against the flag-column one's, the un-faulted
    /// re-run after a fault schedule against the un-faulted baseline: equal
    /// rows, or equal [`SnowError`] values.
    Same,
    /// A run under an injected fault schedule against the un-faulted
    /// baseline: equal rows, [`SnowError::Internal`] (the only error
    /// injection produces), or the baseline's own error.
    Faulted,
    /// A front end (interpreter or translator) on either side: equal rows, or
    /// both fail.
    FrontEnd,
}

impl Rule {
    /// The referee: `None` when `candidate` agrees with `baseline` under this
    /// rule, otherwise how it diverged.
    pub fn judge(
        self,
        baseline: &Result<Rows, Failure>,
        candidate: &Result<Rows, Failure>,
        epsilon: f64,
    ) -> Option<DivergenceDetail> {
        let accepted = match (self, baseline, candidate) {
            (_, Ok(b), Ok(c)) => {
                return first_diff(b, c, epsilon).map(|(index, b, c)| DivergenceDetail::Row {
                    index,
                    baseline_row: b.map(render_row),
                    candidate_row: c.map(render_row),
                })
            }
            (Rule::Faulted, _, Err(Failure::Engine(SnowError::Internal(_)))) => true,
            (Rule::Same | Rule::Faulted, Err(Failure::Engine(b)), Err(Failure::Engine(c))) => {
                b == c
            }
            (Rule::FrontEnd, Err(_), Err(_)) => true,
            _ => false,
        };
        (!accepted).then_some(DivergenceDetail::Outcome)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::Same => "equal rows or equal errors",
            Rule::Faulted => "equal rows, an internal error or the baseline's error",
            Rule::FrontEnd => "equal rows or both fail",
        })
    }
}

/// What one point of a lattice produced, and how to explain it in a repro.
#[derive(Clone, Debug)]
pub struct ConfigOutcome {
    pub label: String,
    /// Canonically ordered rows, or how the point failed.
    pub result: Result<Rows, Failure>,
    /// The fault schedule the point ran under or right after, if any.
    pub seed: Option<u64>,
    /// `EXPLAIN` of its plan, or what stands in for one.
    pub plan: String,
    /// The plan annotated with measured per-operator metrics, when it ran.
    pub metrics: String,
    /// Whether the referee accepted it; the baseline always is.
    pub agrees: bool,
}

impl ConfigOutcome {
    pub fn new(label: impl Into<String>, result: Result<Rows, Failure>) -> ConfigOutcome {
        ConfigOutcome {
            label: label.into(),
            result,
            seed: None,
            plan: String::new(),
            metrics: String::new(),
            agrees: true,
        }
    }

    /// Result cardinality; `None` when the point failed.
    pub fn rows(&self) -> Option<usize> {
        self.result.as_ref().ok().map(Vec::len)
    }

    pub fn error(&self) -> Option<&Failure> {
        self.result.as_ref().err()
    }
}

/// One point the referee did not accept; the indices are into
/// [`VerifyReport::outcomes`].
#[derive(Clone, Debug)]
pub struct Divergence {
    pub baseline: usize,
    pub candidate: usize,
    pub rule: Rule,
    pub detail: DivergenceDetail,
}

/// How the candidate disagreed.
#[derive(Clone, Debug)]
pub enum DivergenceDetail {
    /// Result sets differ; rows are pre-rendered, `None` marks the shorter
    /// side running out of rows.
    Row { index: usize, baseline_row: Option<String>, candidate_row: Option<String> },
    /// One side failed, or both did in a way the rule does not accept.
    Outcome,
}

/// Every verdict of one verification run.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The verified query text.
    pub query: String,
    /// Every point in lattice order; the first is the baseline.
    pub outcomes: Vec<ConfigOutcome>,
    /// One entry per point the referee did not accept.
    pub divergences: Vec<Divergence>,
}

impl VerifyReport {
    pub fn new(query: &str, baseline: ConfigOutcome) -> VerifyReport {
        VerifyReport { query: query.to_string(), outcomes: vec![baseline], divergences: Vec::new() }
    }

    pub fn baseline(&self) -> &ConfigOutcome {
        &self.outcomes[0]
    }

    /// True when the referee accepted every point.
    pub fn agrees(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Judges `point` against the point at index `baseline` under `rule` and
    /// records the verdict.
    pub fn record(&mut self, rule: Rule, baseline: usize, mut point: ConfigOutcome, epsilon: f64) {
        let detail = rule.judge(&self.outcomes[baseline].result, &point.result, epsilon);
        point.agrees = detail.is_none();
        if let Some(detail) = detail {
            self.divergences.push(Divergence { baseline, candidate: self.outcomes.len(), rule, detail });
        }
        self.outcomes.push(point);
    }

    /// Appends the points of `sub`: its baseline judged against the point at
    /// index `against` under `rule`, the others as `sub` judged them. Returns
    /// the index `sub`'s baseline lands at.
    pub fn merge(&mut self, sub: VerifyReport, against: usize, rule: Rule, epsilon: f64) -> usize {
        let offset = self.outcomes.len();
        let mut points = sub.outcomes.into_iter();
        self.record(rule, against, points.next().expect("a report has a baseline"), epsilon);
        self.outcomes.extend(points);
        self.divergences.extend(sub.divergences.into_iter().map(|d| Divergence {
            baseline: d.baseline + offset,
            candidate: d.candidate + offset,
            ..d
        }));
        offset
    }

    /// Renders the report: a per-point summary, then a full repro for each
    /// divergence.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "VERIFY {}", self.query);
        let _ = writeln!(
            out,
            "{} configuration(s), baseline: {}",
            self.outcomes.len(),
            self.baseline().label
        );
        for o in &self.outcomes {
            let status = match (&o.result, o.agrees) {
                (Err(e), true) => format!("error, agrees: {e}"),
                (Err(e), false) => format!("DIVERGED: error: {e}"),
                (Ok(rows), true) => format!("{} row(s), agrees", rows.len()),
                (Ok(rows), false) => format!("{} row(s), DIVERGED", rows.len()),
            };
            let _ = writeln!(out, "  {:<28} {}", o.label, status);
        }
        if self.agrees() {
            let _ = writeln!(out, "result: all configurations agree");
            return out;
        }
        for d in &self.divergences {
            let (b, c) = (&self.outcomes[d.baseline], &self.outcomes[d.candidate]);
            let _ = writeln!(out, "\ndivergence: {} vs {} (rule: {})", c.label, b.label, d.rule);
            match &d.detail {
                DivergenceDetail::Row { index, baseline_row, candidate_row } => {
                    let _ = writeln!(out, "  first differing row (canonical order) #{index}:");
                    let _ = writeln!(
                        out,
                        "    baseline:  {}",
                        baseline_row.as_deref().unwrap_or("<no row>")
                    );
                    let _ = writeln!(
                        out,
                        "    candidate: {}",
                        candidate_row.as_deref().unwrap_or("<no row>")
                    );
                }
                DivergenceDetail::Outcome => {
                    let _ = writeln!(out, "  baseline:  {}", summary(&b.result));
                    let _ = writeln!(out, "  candidate: {}", summary(&c.result));
                }
            }
            for (what, text) in [
                ("baseline plan", &b.plan),
                ("candidate plan", &c.plan),
                ("baseline metrics", &b.metrics),
                ("candidate metrics", &c.metrics),
            ] {
                if !text.is_empty() {
                    let _ = writeln!(out, "  {what}:");
                    for line in text.lines() {
                        let _ = writeln!(out, "    {line}");
                    }
                }
            }
        }
        out
    }
}

fn summary(result: &Result<Rows, Failure>) -> String {
    match result {
        Ok(rows) => format!("{} row(s)", rows.len()),
        // The typed error, not only its message: `Exec("…")`, `Dynamic("…")`.
        Err(Failure::Engine(e)) => format!("error: {e:?}"),
        Err(Failure::FrontEnd(e)) => format!("error: {e:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(xs: &[i64]) -> Result<Rows, Failure> {
        Ok(xs.iter().map(|&x| vec![Variant::Int(x)]).collect())
    }

    fn exec(m: &str) -> Result<Rows, Failure> {
        Err(Failure::Engine(SnowError::Exec(m.into())))
    }

    fn internal() -> Result<Rows, Failure> {
        Err(Failure::Engine(SnowError::internal("Scan", "injected")))
    }

    fn front_end() -> Result<Rows, Failure> {
        Err(Failure::front_end(std::fmt::Error))
    }

    #[test]
    fn same_needs_equal_rows_or_equal_errors() {
        let same = |b, c| Rule::Same.judge(&b, &c, 0.0).is_none();
        assert!(same(rows(&[1, 2]), rows(&[1, 2])));
        assert!(!same(rows(&[1, 2]), rows(&[1, 3])));
        assert!(same(exec("division by zero"), exec("division by zero")));
        assert!(!same(exec("cannot cast 'e3' to INTEGER"), exec("cannot cast 'e4' to INTEGER")));
        assert!(!same(rows(&[1]), exec("division by zero")));
        assert!(!same(exec("division by zero"), rows(&[1])));
        assert!(!same(front_end(), front_end()));
    }

    #[test]
    fn a_faulted_run_may_fail_internally_or_as_the_baseline_did() {
        let ok = |b, c| Rule::Faulted.judge(&b, &c, 0.0).is_none();
        assert!(ok(rows(&[1]), rows(&[1])));
        assert!(ok(rows(&[1]), internal()));
        assert!(ok(exec("division by zero"), internal()));
        assert!(ok(exec("division by zero"), exec("division by zero")));
        // Injection raises nothing but `Internal`: an execution error under a
        // schedule, while the baseline answers, is the engine's own.
        assert!(!ok(rows(&[1]), exec("division by zero")));
        assert!(!ok(rows(&[1]), rows(&[2])));
        assert!(!ok(exec("division by zero"), rows(&[1])));
    }

    #[test]
    fn a_front_end_agrees_on_rows_or_on_failing() {
        let ok = |b, c| Rule::FrontEnd.judge(&b, &c, 0.0).is_none();
        assert!(ok(front_end(), exec("division by zero")));
        assert!(ok(exec("division by zero"), front_end()));
        assert!(ok(rows(&[1]), rows(&[1])));
        assert!(!ok(front_end(), rows(&[1])));
        assert!(!ok(rows(&[1]), front_end()));
    }

    #[test]
    fn merge_judges_the_sub_baseline_and_keeps_its_verdicts() {
        let mut report = VerifyReport::new("q", ConfigOutcome::new("interpreter", rows(&[3])));
        let mut sub = VerifyReport::new("q", ConfigOutcome::new("flag/a", rows(&[3])));
        sub.record(Rule::Same, 0, ConfigOutcome::new("flag/b", rows(&[4])), 0.0);
        let at = report.merge(sub, 0, Rule::FrontEnd, 0.0);
        assert_eq!(at, 1);
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.divergences.len(), 1);
        let d = &report.divergences[0];
        assert_eq!((d.baseline, d.candidate, d.rule), (1, 2, Rule::Same));
        assert!(report.outcomes[1].agrees && !report.outcomes[2].agrees);
    }

    #[test]
    fn render_shows_divergence_repro() {
        let mut report = VerifyReport::new(
            "SELECT x FROM t",
            ConfigOutcome { plan: "Scan t".into(), ..ConfigOutcome::new("optimized", rows(&[1, 2, 3])) },
        );
        report.record(
            Rule::Same,
            0,
            ConfigOutcome { plan: "Filter\n  Scan t".into(), ..ConfigOutcome::new("raw", rows(&[1, 2])) },
            0.0,
        );
        report.record(Rule::Same, 0, ConfigOutcome::new("raw/row", exec("division by zero")), 0.0);
        assert!(!report.agrees());
        let text = report.render();
        assert!(text.contains("DIVERGED"));
        assert!(text.contains("first differing row"));
        assert!(text.contains("<no row>"));
        assert!(text.contains("candidate plan:"));
        assert!(text.contains("candidate: error: Exec(\"division by zero\")"), "{text}");
    }

    #[test]
    fn render_agreement_is_compact() {
        let report = VerifyReport::new("SELECT 1", ConfigOutcome::new("optimized", rows(&[1])));
        assert!(report.agrees());
        assert!(report.render().contains("all configurations agree"));
    }
}
