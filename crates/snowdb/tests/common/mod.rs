//! Scaffolding shared by the integration suites (each `tests/*.rs` is its
//! own crate and pulls this in with `mod common;`).
//!
//! `SNOWQ_SCHEDULES` is the one seeded-schedule budget: every suite reads it
//! through [`schedule_budget`] and falls back to its own default — fault
//! schedules and random query streams alike. A failing schedule prints one
//! `suite=<name> seed=<n>` line ([`schedule`], [`assert_agrees`]), so a
//! repro is `grep 'suite=.* seed='` over the captured output.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use snowdb::verify::VerifyReport;
use snowdb::{StatementResult, Variant};

/// A fresh per-test scratch directory, removed on drop.
pub struct TempDb(PathBuf);

impl TempDb {
    pub fn new(tag: &str) -> TempDb {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("snowdb-test-{}-{tag}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDb(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn parts(&self) -> PathBuf {
        self.0.join("parts")
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The seeded-schedule budget: `SNOWQ_SCHEDULES`, else the suite's default.
pub fn schedule_budget(default: usize) -> usize {
    std::env::var("SNOWQ_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The line every failing seeded schedule prints.
pub fn repro_line(suite: &str, seed: u64) -> String {
    format!("suite={suite} seed={seed}")
}

/// Asserts that the referee accepted every point of `report`. On a
/// divergence: prints [`repro_line`] for every disagreeing point that ran
/// under or right after a fault schedule, appends the rendered report to the
/// file `SNOWQ_VERIFY_REPORT` names (when set) for CI to upload, and panics
/// with it.
pub fn assert_agrees(suite: &str, tag: &str, report: &VerifyReport) {
    if report.agrees() {
        return;
    }
    for d in &report.divergences {
        if let Some(seed) = report.outcomes[d.candidate].seed {
            eprintln!("{}", repro_line(suite, seed));
        }
    }
    let rendered = format!("==== {tag} ====\n{}\n", report.render());
    if let Ok(path) = std::env::var("SNOWQ_VERIFY_REPORT") {
        if let Some(dir) = Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
            let _ = f.write_all(rendered.as_bytes());
        }
    }
    panic!("{rendered}");
}

/// Guards one seeded schedule: if the schedule panics, the guard prints its
/// [`repro_line`] while unwinding.
pub struct Schedule {
    suite: &'static str,
    seed: u64,
}

pub fn schedule(suite: &'static str, seed: u64) -> Schedule {
    Schedule { suite, seed }
}

impl Drop for Schedule {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", repro_line(self.suite, self.seed));
        }
    }
}

pub fn msg(r: StatementResult) -> String {
    match r {
        StatementResult::Message(m) => m,
        other => panic!("expected message, got {other:?}"),
    }
}

pub fn rows(r: StatementResult) -> Vec<Vec<Variant>> {
    match r {
        StatementResult::Rows(q) => q.rows,
        StatementResult::Message(m) => panic!("expected rows, got message {m}"),
    }
}

/// An integer cell; `NULL` (an aggregate over no rows) reads as 0.
pub fn int(v: &Variant) -> i64 {
    match v {
        Variant::Int(n) => *n,
        Variant::Null => 0,
        other => panic!("expected int, got {other:?}"),
    }
}
