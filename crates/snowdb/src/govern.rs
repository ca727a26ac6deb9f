//! Query lifecycle governance: cooperative cancellation, wall-clock deadlines,
//! and memory / bytes-scanned budgets.
//!
//! A production Snowflake-like service does more than run a query fast — it
//! governs the query's lifecycle: statement timeouts, resource monitors, and
//! workers that fail without taking the warehouse down. This module is that
//! layer for `snowdb`:
//!
//! - a [`QueryGovernor`] travels with the query inside
//!   [`ExecCtx`](crate::exec::ExecCtx). Every physical operator calls
//!   [`QueryGovernor::checkpoint`] at *batch boundaries* and every morsel
//!   worker calls it at *partition claims*, so a trip (cancel, deadline,
//!   budget) aborts the query within one batch of work — never a hang, never
//!   a panic;
//! - budgets are batch-granular atomics: the un-governed hot path pays one
//!   relaxed load per batch, nothing per row;
//! - trips surface as the typed errors
//!   [`SnowError::Cancelled`] / [`SnowError::DeadlineExceeded`] /
//!   [`SnowError::ResourceExhausted`], each carrying the operator that
//!   observed the trip;
//! - [`SessionParams`] is the Snowflake-style session surface
//!   (`SET STATEMENT_TIMEOUT_IN_SECONDS / STATEMENT_MEMORY_LIMIT /
//!   MAX_BYTES_SCANNED`) from which [`QueryGovernor::from_params`] arms a
//!   governor per statement;
//! - one governor per statement makes it the carrier of the statement's
//!   query id ([`QueryGovernor::id`]), minted when the governor is built. The
//!   id goes into the statement's record, never into a [`SnowError`]: two
//!   runs that fail the same way must fail equal;
//! - the [`chaos`] submodule injects seeded, deterministic faults at the same
//!   checkpoints to prove the layer keeps the engine sound.
//!
//! # Memory-budget semantics
//!
//! `STATEMENT_MEMORY_LIMIT` bounds the *cumulative intermediate bytes
//! materialized* by the statement (scanned batches, operator outputs, join
//! build sides, sort/aggregate results), estimated per batch with
//! [`Chunk::approx_bytes`](crate::exec::Chunk::approx_bytes). Charges are
//! monotone, so a query whose intermediates exceed the budget trips under
//! every thread count — the unbounded-`ARRAY_AGG`-over-shredded-data hazard
//! the budget exists to catch is exactly a cumulative blow-up.

pub mod chaos;
pub mod retry;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::{QueryProfile, QueryResult};
use crate::error::{DeadlineTrip, ResourceTrip, Result, SnowError};

use chaos::{ChaosSchedule, ChaosSite};

/// Snowflake-style session parameters governing every statement run on the
/// session. All limits are off by default; setting a parameter to `0` turns
/// it back off (Snowflake's convention for `STATEMENT_TIMEOUT_IN_SECONDS`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionParams {
    /// `STATEMENT_TIMEOUT_IN_SECONDS`: wall-clock deadline per statement.
    pub statement_timeout_secs: Option<u64>,
    /// `STATEMENT_MEMORY_LIMIT`: cumulative intermediate-bytes budget.
    pub statement_memory_limit: Option<u64>,
    /// `MAX_BYTES_SCANNED`: bytes-scanned budget (column bytes actually read).
    pub max_bytes_scanned: Option<u64>,
}

impl SessionParams {
    /// Applies `SET <name> = <value>`; `0` clears the limit. Returns the
    /// canonical parameter name, or an error for unknown parameters.
    pub fn set(&mut self, name: &str, value: u64) -> Result<&'static str> {
        let v = (value > 0).then_some(value);
        match name.to_ascii_uppercase().as_str() {
            "STATEMENT_TIMEOUT_IN_SECONDS" => {
                self.statement_timeout_secs = v;
                Ok("STATEMENT_TIMEOUT_IN_SECONDS")
            }
            "STATEMENT_MEMORY_LIMIT" => {
                self.statement_memory_limit = v;
                Ok("STATEMENT_MEMORY_LIMIT")
            }
            "MAX_BYTES_SCANNED" => {
                self.max_bytes_scanned = v;
                Ok("MAX_BYTES_SCANNED")
            }
            other => Err(SnowError::Plan(format!("unknown session parameter '{other}'"))),
        }
    }

    /// Clears a parameter (`UNSET <name>`).
    pub fn unset(&mut self, name: &str) -> Result<&'static str> {
        self.set(name, 0)
    }

    /// True when no limit is armed — the governor built from these params
    /// only carries the cancellation flag.
    pub fn is_unbounded(&self) -> bool {
        *self == SessionParams::default()
    }
}

/// Per-query governance state: cancellation token, deadline, and budgets.
///
/// Shared (via `Arc`) between the query's worker contexts and any
/// [`QueryHandle`] held by the submitter. All counters are atomics; the
/// checkpoint fast path is one relaxed load when nothing is armed.
#[derive(Debug)]
pub struct QueryGovernor {
    id: u64,
    cancel: AtomicBool,
    started: Instant,
    deadline: Option<Duration>,
    memory_limit: Option<u64>,
    memory_charged: AtomicU64,
    scan_limit: Option<u64>,
    bytes_scanned: AtomicU64,
    chaos: Option<ChaosSchedule>,
}

impl Default for QueryGovernor {
    fn default() -> QueryGovernor {
        QueryGovernor::unbounded()
    }
}

impl QueryGovernor {
    /// A governor with no limits: it still honors [`QueryGovernor::cancel`].
    /// Every governor gets the next query id of this process.
    pub fn unbounded() -> QueryGovernor {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        QueryGovernor {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cancel: AtomicBool::new(false),
            started: Instant::now(),
            deadline: None,
            memory_limit: None,
            memory_charged: AtomicU64::new(0),
            scan_limit: None,
            bytes_scanned: AtomicU64::new(0),
            chaos: None,
        }
    }

    /// Arms a governor from the session parameters. The deadline clock starts
    /// now, so build one per statement, not per session.
    pub fn from_params(params: &SessionParams) -> QueryGovernor {
        QueryGovernor {
            deadline: params.statement_timeout_secs.map(Duration::from_secs),
            memory_limit: params.statement_memory_limit,
            scan_limit: params.max_bytes_scanned,
            ..QueryGovernor::unbounded()
        }
    }

    /// Arms an explicit wall-clock deadline (used by tests and the chaos
    /// harness; the SQL surface goes through [`QueryGovernor::from_params`]).
    pub fn with_deadline(mut self, deadline: Duration) -> QueryGovernor {
        self.deadline = Some(deadline);
        self
    }

    /// Arms an explicit memory budget in bytes.
    pub fn with_memory_limit(mut self, bytes: u64) -> QueryGovernor {
        self.memory_limit = Some(bytes);
        self
    }

    /// Arms an explicit bytes-scanned budget.
    pub fn with_scan_limit(mut self, bytes: u64) -> QueryGovernor {
        self.scan_limit = Some(bytes);
        self
    }

    /// Attaches a seeded fault-injection schedule (see [`chaos`]).
    pub fn with_chaos(mut self, schedule: ChaosSchedule) -> QueryGovernor {
        self.chaos = Some(schedule);
        self
    }

    /// The id of the statement this governor governs: distinct per
    /// governor, increasing in the order governors are built.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation: the query aborts with
    /// [`SnowError::Cancelled`] at the next batch boundary or partition claim.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// True once [`QueryGovernor::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Cooperative checkpoint, called by every operator at each batch
    /// boundary. `op` names the calling operator and is carried in the typed
    /// error on a trip.
    #[inline]
    pub fn checkpoint(&self, op: &str) -> Result<()> {
        self.check_at(op, ChaosSite::BatchStage)
    }

    /// Checkpoint variant for morsel partition claims (distinct chaos site;
    /// identical governance checks).
    #[inline]
    pub fn claim_checkpoint(&self, op: &str) -> Result<()> {
        self.check_at(op, ChaosSite::PartitionClaim)
    }

    /// Checkpoint variant for lazy column-block reads from the persistent
    /// store (distinct chaos site; identical governance checks). Called once
    /// per column block fetched from disk, before the I/O happens, so a
    /// cancelled or faulted query never touches the file.
    #[inline]
    pub fn store_checkpoint(&self, op: &str) -> Result<()> {
        self.check_at(op, ChaosSite::StoreRead)
    }

    fn check_at(&self, op: &str, site: ChaosSite) -> Result<()> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(SnowError::Cancelled { op: op.to_string() });
        }
        if let Some(limit) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > limit {
                return Err(SnowError::DeadlineExceeded(Box::new(DeadlineTrip {
                    op: op.to_string(),
                    elapsed_ms: elapsed.as_millis() as u64,
                    limit_ms: limit.as_millis() as u64,
                })));
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos.maybe_inject(site, op)?;
        }
        Ok(())
    }

    /// Charges `bytes` of materialized intermediate data against the memory
    /// budget. Charges are cumulative and never released — see the module
    /// docs for the semantics. Called once per produced batch.
    pub fn charge_memory(&self, bytes: u64, op: &str) -> Result<()> {
        if let Some(chaos) = &self.chaos {
            chaos.maybe_inject(ChaosSite::BudgetAccount, op)?;
        }
        let used = self.memory_charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(limit) = self.memory_limit {
            if used > limit {
                return Err(SnowError::ResourceExhausted(Box::new(ResourceTrip {
                    resource: "memory".into(),
                    op: op.to_string(),
                    used,
                    limit,
                })));
            }
        }
        Ok(())
    }

    /// Charges `bytes` read from storage against the bytes-scanned budget.
    /// Called once per scanned partition.
    pub fn charge_scanned(&self, bytes: u64, op: &str) -> Result<()> {
        if let Some(chaos) = &self.chaos {
            chaos.maybe_inject(ChaosSite::BudgetAccount, op)?;
        }
        let used = self.bytes_scanned.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(limit) = self.scan_limit {
            if used > limit {
                return Err(SnowError::ResourceExhausted(Box::new(ResourceTrip {
                    resource: "bytes_scanned".into(),
                    op: op.to_string(),
                    used,
                    limit,
                })));
            }
        }
        Ok(())
    }

    /// True when any limit or fault schedule is armed (the profile then
    /// carries a [`GovernorSummary`]).
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
            || self.memory_limit.is_some()
            || self.scan_limit.is_some()
            || self.chaos.is_some()
    }

    /// Snapshot of time/bytes used against the configured limits.
    pub fn summary(&self) -> GovernorSummary {
        GovernorSummary {
            elapsed: self.started.elapsed(),
            deadline: self.deadline,
            memory_charged: self.memory_charged.load(Ordering::Relaxed),
            memory_limit: self.memory_limit,
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
            scan_limit: self.scan_limit,
            cancelled: self.is_cancelled(),
        }
    }
}

/// Governed-limits snapshot reported in [`QueryProfile`] and appended by
/// `EXPLAIN ANALYZE`, so budget trips are diagnosable from the metrics alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct GovernorSummary {
    pub elapsed: Duration,
    pub deadline: Option<Duration>,
    pub memory_charged: u64,
    pub memory_limit: Option<u64>,
    pub bytes_scanned: u64,
    pub scan_limit: Option<u64>,
    pub cancelled: bool,
}

impl GovernorSummary {
    /// One-line rendering: `governed: time 12ms/10000ms, memory 4096/1048576,
    /// scanned 800/unlimited`.
    pub fn render(&self) -> String {
        fn lim(v: Option<u64>) -> String {
            v.map_or_else(|| "unlimited".into(), |l| l.to_string())
        }
        let deadline = self
            .deadline
            .map_or_else(|| "unlimited".into(), |d| format!("{}ms", d.as_millis()));
        format!(
            "governed: time {}ms/{}, memory {}/{}, scanned {}/{}{}",
            self.elapsed.as_millis(),
            deadline,
            self.memory_charged,
            lim(self.memory_limit),
            self.bytes_scanned,
            lim(self.scan_limit),
            if self.cancelled { ", cancelled" } else { "" }
        )
    }
}

/// Why a statement failed: the typed error plus the statement's record up to
/// the failure — its id, stages, plan and partial metrics tree when it got
/// that far, and always the governor's accounting — which makes a trip
/// diagnosable.
#[derive(Clone, Debug)]
pub struct QueryFailure {
    pub error: SnowError,
    pub profile: Box<QueryProfile>,
}

/// How a query comes back: its rows and record, or its error and record.
pub type QueryOutcome = std::result::Result<QueryResult, QueryFailure>;

impl std::fmt::Display for QueryFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for QueryFailure {}

impl From<QueryFailure> for SnowError {
    fn from(f: QueryFailure) -> SnowError {
        f.error
    }
}

/// A cancellable handle to a query running on a background thread, returned
/// by [`Session::submit`](crate::session::Session::submit).
pub struct QueryHandle {
    gov: Arc<QueryGovernor>,
    join: Option<std::thread::JoinHandle<QueryOutcome>>,
}

impl QueryHandle {
    pub(crate) fn new(
        gov: Arc<QueryGovernor>,
        join: std::thread::JoinHandle<QueryOutcome>,
    ) -> QueryHandle {
        QueryHandle { gov, join: Some(join) }
    }

    /// Requests cancellation; the query observes it at the next batch
    /// boundary and [`QueryHandle::join`] then returns
    /// [`SnowError::Cancelled`].
    pub fn cancel(&self) {
        self.gov.cancel();
    }

    /// True once the query thread has finished (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.join.as_ref().is_none_or(|j| j.is_finished())
    }

    /// Waits for the query, returning the result or a [`QueryFailure`]
    /// carrying the typed error plus the statement's record.
    pub fn join(mut self) -> QueryOutcome {
        let join = self.join.take().expect("QueryHandle joined twice");
        match join.join() {
            Ok(r) => r,
            // The query thread itself panicking is already prevented by the
            // catch_unwind in the engine; this is the last line of defense.
            Err(payload) => Err(QueryProfile::new(&self.gov).failed(
                SnowError::internal("query thread", panic_message(&*payload)),
                &self.gov,
            )),
        }
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("finished", &self.is_finished())
            .field("cancelled", &self.gov.is_cancelled())
            .finish()
    }
}

/// Renders a panic payload for the deterministic `SnowError::Internal`
/// conversion: `&str` and `String` payloads verbatim, anything else opaque.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A query thread's body that panics instead of answering. Generic, so
    /// `QueryHandle::new` picks the result type.
    fn panicking_query<T>() -> T {
        panic!("{}", "SNOWDB_THREADS=\"abc\"")
    }

    #[test]
    fn a_panicking_query_thread_reports_its_message() {
        let join = std::thread::spawn(panicking_query);
        let gov = Arc::new(QueryGovernor::unbounded());
        let err = QueryHandle::new(gov.clone(), join).join().expect_err("panicked");
        assert!(err.error.to_string().contains("SNOWDB_THREADS=\"abc\""), "{}", err.error);
        assert_eq!(err.profile.query_id, gov.id(), "the failure is the statement's record");
    }

    #[test]
    fn unbounded_checkpoint_is_ok() {
        let g = QueryGovernor::unbounded();
        assert!(g.checkpoint("Filter").is_ok());
        assert!(g.claim_checkpoint("Scan").is_ok());
        assert!(!g.is_armed());
    }

    #[test]
    fn cancel_trips_checkpoint_with_op_context() {
        let g = QueryGovernor::unbounded();
        g.cancel();
        match g.checkpoint("Aggregate") {
            Err(SnowError::Cancelled { op }) => assert_eq!(op, "Aggregate"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let g = QueryGovernor::unbounded().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            g.checkpoint("Sort"),
            Err(SnowError::DeadlineExceeded(_))
        ));
    }

    #[test]
    fn memory_budget_is_cumulative() {
        let g = QueryGovernor::unbounded().with_memory_limit(100);
        assert!(g.charge_memory(60, "Join").is_ok());
        match g.charge_memory(60, "Join") {
            Err(SnowError::ResourceExhausted(t)) => {
                assert_eq!(t.resource, "memory");
                assert_eq!(t.used, 120);
                assert_eq!(t.limit, 100);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_budget_trips() {
        let g = QueryGovernor::unbounded().with_scan_limit(10);
        assert!(matches!(
            g.charge_scanned(11, "Scan"),
            Err(SnowError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn session_params_set_and_unset() {
        let mut p = SessionParams::default();
        assert!(p.is_unbounded());
        p.set("statement_timeout_in_seconds", 30).unwrap();
        assert_eq!(p.statement_timeout_secs, Some(30));
        p.set("STATEMENT_MEMORY_LIMIT", 1 << 20).unwrap();
        p.set("MAX_BYTES_SCANNED", 4096).unwrap();
        assert!(!p.is_unbounded());
        p.unset("STATEMENT_TIMEOUT_IN_SECONDS").unwrap();
        assert_eq!(p.statement_timeout_secs, None);
        // 0 clears, Snowflake-style.
        p.set("STATEMENT_MEMORY_LIMIT", 0).unwrap();
        assert_eq!(p.statement_memory_limit, None);
        assert!(p.set("NOT_A_PARAMETER", 1).is_err());
    }

    #[test]
    fn summary_renders_limits() {
        let g = QueryGovernor::unbounded().with_memory_limit(1000);
        g.charge_memory(10, "Scan").unwrap();
        let line = g.summary().render();
        assert!(line.contains("memory 10/1000"), "{line}");
        assert!(line.contains("scanned 0/unlimited"), "{line}");
    }
}
