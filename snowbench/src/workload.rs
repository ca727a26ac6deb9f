//! What the workloads share: options, statements, how a statement is
//! executed and checked, scratch space, and the latency arithmetic.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use jsoniq_core::snowflake::{NestedStrategy, Translator};
use snowdb::variant::{to_json, Object};
use snowdb::{Database, Variant};
use snowpark::Session;

use crate::digest::{canon_sorted, digest, Digest};
use crate::stats;

pub const ADL_EVENTS: usize = 8192;
pub const SSB_LINEORDERS: usize = 32768;
pub const TINY_ADL_EVENTS: usize = 16;
/// `compile_small` always generates its 16 events from this seed: ADL q6
/// builds every three-jet combination per event, so on 16 events its
/// execution moves 2x between seeds (10-24 ms end to end) — and execution
/// is what that workload exists to leave out. Its SSB tables take `--seed`.
pub const TINY_ADL_SEED: u64 = 42;

#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// How long a run measures.
    pub seconds: f64,
    pub trace: bool,
    /// 1/16 size, two passes, one set-up: a quick check that everything runs.
    pub smoke: bool,
}

impl Opts {
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 16).max(1)
        } else {
            n
        }
    }

    /// `setup_s` is read off several set-ups (`stats::typical`, as the
    /// latencies are): at least three, and more of a quick one — up to 25
    /// within about a second — so that a set-up of milliseconds is measured
    /// as steadily as a slow one.
    pub fn enough_setups(&self, done_s: &[f64]) -> bool {
        match done_s.len() {
            0 => false,
            _ if self.smoke => true,
            n => n >= 25 || (n >= 3 && done_s.iter().sum::<f64>() >= 1.0),
        }
    }

    /// True once the measuring loop has done enough passes.
    pub fn done(&self, passes: usize, started: Instant) -> bool {
        if self.smoke {
            passes >= 2
        } else {
            started.elapsed().as_secs_f64() >= self.seconds
        }
    }
}

/// One statement of a workload: a JSONiq text (with the nested-query
/// strategy the paper runs it with) or a SQL text.
#[derive(Clone, Debug)]
pub struct Statement {
    pub id: String,
    pub text: String,
    /// `Some` for JSONiq, `None` for SQL.
    pub strategy: Option<NestedStrategy>,
    /// Object keys for a handwritten SSB row, so that it compares equal to
    /// the object the JSONiq formulation returns; empty otherwise.
    pub keys: Vec<&'static str>,
    /// Whether the statement's latency enters the geomeans and the suite sum.
    pub gated: bool,
}

impl Statement {
    pub fn is_jsoniq(&self) -> bool {
        self.strategy.is_some()
    }
}

/// ADL q1–q8 as (JSONiq, handwritten SQL) pairs; JSONiq at even indexes.
pub fn adl_statements(table: &str) -> Vec<Statement> {
    let mut out = Vec::new();
    for q in adl::queries::queries(table) {
        let strategy = if q.join_based {
            NestedStrategy::JoinBased
        } else {
            NestedStrategy::FlagColumn
        };
        out.push(Statement {
            id: format!("adl.{}.jsoniq", q.id),
            text: q.jsoniq,
            strategy: Some(strategy),
            keys: Vec::new(),
            gated: true,
        });
        out.push(Statement {
            id: format!("adl.{}.sql", q.id),
            text: q.handwritten_sql,
            strategy: None,
            keys: Vec::new(),
            gated: true,
        });
    }
    out
}

/// SSB q1.1–q4.3 as (JSONiq, handwritten SQL) pairs; JSONiq at even indexes.
pub fn ssb_statements() -> Vec<Statement> {
    let mut out = Vec::new();
    for q in ssb::queries() {
        out.push(Statement {
            id: format!("ssb.{}.jsoniq", q.id),
            text: q.jsoniq,
            strategy: Some(NestedStrategy::FlagColumn),
            keys: Vec::new(),
            gated: true,
        });
        out.push(Statement {
            id: format!("ssb.{}.sql", q.id),
            text: q.sql,
            strategy: None,
            keys: q.keys,
            gated: true,
        });
    }
    out
}

/// JSONiq text in, SQL text out, the way a client does it: a fresh
/// translator per statement, no translation cache.
pub fn translate(db: &Arc<Database>, st: &Statement) -> Result<String, String> {
    match st.strategy {
        Some(strategy) => Translator::new(Session::new(db.clone()), strategy)
            .translate(&st.text)
            .map(|df| df.sql().to_string())
            .map_err(|e| e.to_string()),
        None => Ok(st.text.clone()),
    }
}

/// The timed operation of the embedded workloads: statement text in,
/// materialized rows out.
pub fn execute(db: &Arc<Database>, st: &Statement) -> Outcome {
    let sql = translate(db, st)?;
    let res = db.query(&sql).map_err(|e| e.to_string())?;
    Ok((res.rows, res.profile.scan.bytes_scanned))
}

/// A result as a list of items that compares across formulations: JSONiq
/// returns one item per row; a handwritten SSB row is wrapped into the
/// object the JSONiq version builds; any other row is its single column or
/// the array of its columns.
pub fn items(st: &Statement, rows: Vec<Vec<Variant>>) -> Vec<Variant> {
    let mut out: Vec<Variant> = rows
        .into_iter()
        .map(|mut row| {
            if !st.keys.is_empty() {
                let mut o = Object::with_capacity(st.keys.len());
                for (k, v) in st.keys.iter().zip(row) {
                    o.insert(*k, v);
                }
                Variant::object(o)
            } else if row.len() == 1 {
                row.remove(0)
            } else {
                Variant::array(row)
            }
        })
        .collect();
    // Documented divergence (tests/ssb_correctness.rs): over no matching
    // rows the SQL global aggregate yields one NULL row where the JSONiq
    // group-by yields no group.
    if st.keys == ["revenue"] {
        out.retain(|o| !o.get_field("revenue").is_null());
    }
    out
}

/// Counts statements attempted and failed, and keeps each statement's
/// reference digest once the gate has established it.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    reference: Vec<Option<Digest>>,
}

impl Checker {
    pub fn new(statements: usize) -> Checker {
        Checker {
            attempted: 0,
            failed: 0,
            reference: vec![None; statements],
        }
    }

    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        println!("FAILED {what}");
    }

    /// Counts one check that is not a statement execution.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    pub fn set_reference(&mut self, idx: usize, items: &[Variant]) {
        self.reference[idx] = Some(digest(items));
    }

    /// Counts one execution of statement `idx` and checks its result against
    /// the reference digest.
    pub fn check(&mut self, idx: usize, st: &Statement, rows: Result<Vec<Vec<Variant>>, String>) {
        self.attempted += 1;
        match rows {
            Err(e) => self.fail(&format!("{}: {e}", st.id)),
            Ok(rows) => {
                let got = digest(&items(st, rows));
                if self.reference[idx] != Some(got) {
                    self.fail(&format!(
                        "{}: digest {got:?}, reference {:?}",
                        st.id, self.reference[idx]
                    ));
                }
            }
        }
    }
}

/// An independent evaluation of a JSONiq statement (the interpreter).
pub type Oracle<'a> = &'a dyn Fn(&Statement) -> Result<Vec<Variant>, String>;

/// What running a statement gives the checks: its rows and the bytes it
/// scanned, or why it failed.
pub type Outcome = Result<(Vec<Vec<Variant>>, u64), String>;

/// The gate for a (JSONiq, SQL) pair at `2 * pair`: both run, their results
/// must be equal as multisets — and equal to `oracle`'s, when given — and
/// become the references. Returns the bytes the JSONiq statement scanned.
pub fn gate_pair(
    chk: &mut Checker,
    statements: &[Statement],
    pair: usize,
    run: &mut dyn FnMut(&Statement) -> Outcome,
    oracle: Option<Oracle>,
) -> u64 {
    let (j, s) = (&statements[2 * pair], &statements[2 * pair + 1]);
    chk.attempted += 2;
    let ((rj, scanned), (rs, _)) = match (run(j), run(s)) {
        (Ok(rj), Ok(rs)) => (rj, rs),
        (Err(e), _) | (_, Err(e)) => {
            chk.fail(&format!("{} / {}: {e}", j.id, s.id));
            return 0;
        }
    };
    let (ij, is) = (items(j, rj), items(s, rs));
    if canon_sorted(&ij) != canon_sorted(&is) {
        chk.fail(&format!(
            "{}: generated SQL and handwritten SQL disagree ({} vs {} items)",
            j.id,
            ij.len(),
            is.len()
        ));
    }
    if let Some(oracle) = oracle {
        chk.attempted += 1;
        match oracle(j) {
            Ok(io) if canon_sorted(&io) == canon_sorted(&ij) => {}
            Ok(io) => chk.fail(&format!(
                "{}: interpreter returns {} items, generated SQL {}",
                j.id,
                io.len(),
                ij.len()
            )),
            Err(e) => chk.fail(&format!("{}: interpreter: {e}", j.id)),
        }
    }
    chk.set_reference(2 * pair, &ij);
    chk.set_reference(2 * pair + 1, &is);
    scanned
}

/// Sets the workload up several times over (see [`Opts::enough_setups`]),
/// timing each; `discard` tears down every set-up but the last, untimed.
pub fn measured_setups<E>(
    opts: &Opts,
    mut make: impl FnMut(usize) -> E,
    mut discard: impl FnMut(E),
) -> (E, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut env = None;
    while !opts.enough_setups(&setup_s) {
        if let Some(old) = env.take() {
            discard(old);
        }
        let t = Instant::now();
        env = Some(make(setup_s.len()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    println!(
        "  set-ups: {setup_s:?} s (peak rss so far {:.1} MB)",
        peak_rss_mb()
    );
    (env.expect("at least one set-up"), setup_s)
}

/// Persists a freshly loaded database into `dir` and reopens it from there,
/// timing both: the store's share of set-up. Returns the reopened database,
/// the persist time and the open time in microseconds.
pub fn persist_and_reopen(db: Database, dir: &Path) -> (Database, f64, f64) {
    let t = Instant::now();
    db.persist_to(dir)
        .expect("persist into a fresh scratch directory");
    let persist_us = t.elapsed().as_secs_f64() * 1e6;
    drop(db);
    let t = Instant::now();
    let db = Database::open(dir).expect("reopen the persisted database");
    (db, persist_us, t.elapsed().as_secs_f64() * 1e6)
}

/// A directory under `target/snowbench/`, removed when dropped.
pub struct Scratch {
    root: PathBuf,
}

pub fn output_dir() -> PathBuf {
    PathBuf::from("target").join("snowbench")
}

/// Writes the first `spans` spans to `target/snowbench/trace-<workload>.jsonl`.
pub fn dump_trace(tracer: &crate::trace::Tracer, spans: usize, workload: &str) {
    let path = output_dir().join(format!("trace-{workload}.jsonl"));
    match tracer.dump(&path, spans) {
        Ok(()) => println!("  trace ({spans} spans): {}", path.display()),
        Err(e) => println!("  trace not written: {e}"),
    }
}

impl Scratch {
    pub fn new(workload: &str) -> Scratch {
        let root = output_dir().join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory under target/snowbench");
        Scratch { root }
    }

    /// A path for a database directory; the store creates it.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Bytes of all files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A table's rows as newline-delimited JSON: the user's bytes, against which
/// stored bytes are compared, and the input of the JSONL ingest measurement.
pub fn table_jsonl(db: &Database, table: &str) -> (String, usize) {
    let res = db
        .query(&format!("SELECT * FROM {table}"))
        .expect("SELECT * over a loaded table");
    let mut text = String::new();
    for row in &res.rows {
        let mut o = Object::with_capacity(row.len());
        for (k, v) in res.columns.iter().zip(row) {
            o.insert(k.as_str(), v.clone());
        }
        text.push_str(&to_json(&Variant::object(o)));
        text.push('\n');
    }
    (text, res.rows.len())
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency samples in milliseconds, per statement.
pub struct Samples {
    pub ms: Vec<Vec<f64>>,
}

impl Samples {
    pub fn new(statements: usize) -> Samples {
        Samples {
            ms: vec![Vec::new(); statements],
        }
    }

    /// Each statement's latency, as `estimator` reads it off its samples.
    pub fn latencies(&self, estimator: Estimator) -> Vec<f64> {
        self.ms.iter().map(|s| estimator(s)).collect()
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// How a statement's latency is read off its samples: `stats::typical` where
/// one client runs alone and everything else on the machine is noise,
/// `stats::median` on `wire_churn`, where the writer and the compactor
/// getting in the reader's way is what the workload is there to show.
pub type Estimator = fn(&[f64]) -> f64;

/// The latency metrics every workload reports, and the per-statement rows.
pub fn latency_metrics(
    statements: &[Statement],
    samples: &Samples,
    estimator: Estimator,
    out: &mut Metrics,
) {
    let typicals = samples.latencies(estimator);
    let of = |jsoniq: bool| -> Vec<f64> {
        statements
            .iter()
            .zip(&typicals)
            .filter(|(st, t)| st.gated && st.is_jsoniq() == jsoniq && **t > 0.0)
            .map(|(_, t)| *t)
            .collect()
    };
    let (jsoniq, sql) = (of(true), of(false));
    out.insert("jsoniq_ms_geomean", stats::geomean(&jsoniq));
    out.insert("jsoniq_suite_s", jsoniq.iter().sum::<f64>() / 1000.0);
    out.insert("sql_ms_geomean", stats::geomean(&sql));
    // Stalls a typical latency hides: every sample against its statement's median.
    let ratios: Vec<f64> = samples
        .ms
        .iter()
        .flat_map(|s| {
            let m = stats::median(s);
            s.iter().map(move |x| stats::ratio(*x, m))
        })
        .collect();
    out.insert("read_tail_ratio_p95", stats::percentile(&ratios, 0.95));
    println!(
        "  {:<28} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "statement", "samples", "latency ms", "q1 ms", "median ms", "q3 ms"
    );
    for ((st, s), t) in statements
        .iter()
        .zip(&samples.ms)
        .zip(&typicals)
        .filter(|((_, s), _)| !s.is_empty())
    {
        let (q1, med, q3) = stats::quartiles(s);
        println!(
            "  {:<28} {:>7} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            st.id,
            s.len(),
            t,
            q1,
            med,
            q3
        );
    }
    println!("  read_tail_ratio_p95 is over {} samples", ratios.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handwritten_ssb_rows_become_the_jsoniq_objects() {
        let st = Statement {
            id: "x".into(),
            text: String::new(),
            strategy: None,
            keys: vec!["year", "revenue"],
            gated: true,
        };
        let got = items(&st, vec![vec![Variant::Int(1993), Variant::Int(5)]]);
        assert_eq!(got[0].get_field("year"), Variant::Int(1993));
        assert_eq!(got[0].get_field("revenue"), Variant::Int(5));
        let revenue = Statement {
            keys: vec!["revenue"],
            ..st.clone()
        };
        assert!(items(&revenue, vec![vec![Variant::Null]]).is_empty());
        let plain = Statement {
            keys: Vec::new(),
            ..st
        };
        assert_eq!(
            items(&plain, vec![vec![Variant::Int(1)]]),
            vec![Variant::Int(1)]
        );
        assert_eq!(
            items(&plain, vec![vec![Variant::Int(1), Variant::Int(2)]]),
            vec![Variant::array(vec![Variant::Int(1), Variant::Int(2)])]
        );
    }

    #[test]
    fn checker_counts_a_wrong_result_as_failed() {
        let st = Statement {
            id: "x".into(),
            text: String::new(),
            strategy: None,
            keys: Vec::new(),
            gated: true,
        };
        let mut chk = Checker::new(1);
        chk.set_reference(0, &[Variant::Int(1), Variant::Int(2)]);
        chk.check(
            0,
            &st,
            Ok(vec![vec![Variant::Int(2)], vec![Variant::Int(1)]]),
        );
        assert_eq!((chk.attempted, chk.failed), (1, 0));
        chk.check(0, &st, Ok(vec![vec![Variant::Int(2)]]));
        chk.check(0, &st, Err("refused".into()));
        assert_eq!((chk.attempted, chk.failed), (3, 2));
    }

    #[test]
    fn latency_metrics_split_jsoniq_from_sql() {
        let mut statements = adl_statements("hep");
        assert_eq!(statements.len(), 16);
        assert!(statements[0].is_jsoniq() && !statements[1].is_jsoniq());
        statements.push(Statement {
            id: "ungated".into(),
            gated: false,
            ..statements[1].clone()
        });
        let mut samples = Samples::new(17);
        samples.ms[16] = vec![500.0];
        for (i, s) in samples.ms.iter_mut().enumerate().take(16) {
            *s = if i % 2 == 0 {
                vec![8.0, 4.0, 5.0]
            } else {
                vec![1.0, 1.0, 1.0]
            };
        }
        let mut m = Metrics::new();
        latency_metrics(&statements, &samples, stats::typical, &mut m);
        assert!((m["jsoniq_ms_geomean"] - 4.0).abs() < 1e-9);
        assert!((m["jsoniq_suite_s"] - 0.032).abs() < 1e-9);
        assert!((m["sql_ms_geomean"] - 1.0).abs() < 1e-9);
        // Latencies are the typical 4.0; the tail is 8.0 against the median 5.0.
        assert_eq!(m["read_tail_ratio_p95"], 1.6);
    }
}
