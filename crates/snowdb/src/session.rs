//! Sessions and the one statement path.
//!
//! A [`Session`] owns its session parameters and an optional explicit
//! transaction. `BEGIN` pins the current catalog version; every statement
//! inside the transaction reads from (and stacks its own writes onto) that
//! pinned version — snapshot isolation with read-your-own-writes. Nothing is
//! visible to other sessions until `COMMIT`, which validates the whole write
//! set against the then-current catalog in one optimistic compare-and-swap:
//! it either installs one new version atomically or fails with a typed
//! [`SnowError::WriteConflict`] and aborts the transaction (the session must
//! re-run its logic on a fresh snapshot — replaying blindly would forfeit
//! exactly the isolation the transaction promised).
//!
//! Every statement text — typed at a bare [`Database`], at a [`Session`], or
//! arriving over the wire — enters through [`StatementCtx::run_text`], which
//! runs a query text's cached plan if it is still valid and otherwise parses
//! the text once: a query is compiled through the plan cache, anything else
//! goes to [`StatementCtx::run`], the only place that matches on statement
//! kinds. Either way a query ends in the one executor,
//! [`Database::run_plan`]. The context names what the statement runs under:
//! the parameter store in force, the transaction slot (if the caller has
//! one), the caller's execution options, and the caller's governor.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::catalog::{CatalogSnapshot, TableWrite, WriteSet};
use crate::engine::{Database, PlanSource, QueryOptions, QueryProfile, QueryResult, StatementResult};
use crate::error::{Result, SnowError};
use crate::govern::{QueryFailure, QueryGovernor, QueryHandle, QueryOutcome, SessionParams};
use crate::sql::ast::Query;
use crate::sql::{parse_statement, Statement};
use crate::storage::ColumnDef;
use crate::travel::RETENTION_PARAM;

/// An in-flight explicit transaction.
pub(crate) struct Txn {
    /// The catalog version pinned at `BEGIN` — the CAS base for `COMMIT` and
    /// the baseline for the commit-time diff.
    base: Arc<CatalogSnapshot>,
    /// `base` plus this transaction's own writes (read-your-own-writes).
    effective: Arc<CatalogSnapshot>,
    /// Upper-cased names of tables this transaction wrote.
    touched: BTreeSet<String>,
}

/// One logical connection: session parameters plus at most one explicit
/// transaction. Cheap to create; any number of sessions may share one
/// [`Database`].
pub struct Session {
    db: Arc<Database>,
    params: RwLock<SessionParams>,
    txn: Mutex<Option<Txn>>,
}

impl Session {
    /// Opens a session on a shared database, inheriting the database-level
    /// session parameters as its starting point.
    pub fn new(db: Arc<Database>) -> Session {
        let params = db.session_params();
        Session { db, params: RwLock::new(params), txn: Mutex::new(None) }
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    pub(crate) fn ctx(&self) -> StatementCtx<'_> {
        let opts = QueryOptions::default();
        StatementCtx { db: &self.db, params: &self.params, txn: Some(&self.txn), opts }
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.ctx().in_transaction()
    }

    /// This session's current parameters.
    pub fn params(&self) -> SessionParams {
        *self.params.read()
    }

    /// A fresh governor armed from this session's parameters.
    fn governor(&self) -> Arc<QueryGovernor> {
        Arc::new(QueryGovernor::from_params(&self.params()))
    }

    /// Runs a query against this session's read snapshot under this
    /// session's parameters.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        Ok(self.ctx().query_text(sql, self.governor())?)
    }

    /// Submits a query on a background thread, returning a cancellable
    /// [`QueryHandle`]. The governor is armed from this session's parameters
    /// at submit time; [`QueryHandle::cancel`] trips it at the next batch
    /// boundary, and a failure carries the statement's record.
    pub fn submit(self: &Arc<Session>, sql: &str) -> QueryHandle {
        let gov = self.governor();
        let (session, g, sql) = (Arc::clone(self), gov.clone(), sql.to_string());
        let join = std::thread::spawn(move || session.ctx().query_text(&sql, g));
        QueryHandle::new(gov, join)
    }

    /// Executes any statement in this session under this session's
    /// parameters. Queries, `EXPLAIN` and DML inside a transaction see the
    /// transaction's own writes.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        Ok(self.ctx().run_text(sql, self.governor(), |_| Ok(()))?)
    }

    /// Executes an already-parsed statement: what [`Session::execute`] does
    /// after parsing, for callers that build the [`Statement`] themselves.
    /// Without a text there is no plan-cache key: a query compiles afresh.
    pub fn execute_statement(&self, stmt: Statement) -> Result<StatementResult> {
        let gov = self.governor();
        self.ctx().run(stmt, gov.clone(), QueryProfile::new(&gov))
    }
}

/// What one statement runs under. A [`Session`] supplies its own parameter
/// store and transaction slot; a bare [`Database`] the database-level
/// parameters and no slot (its transaction verbs point at sessions).
pub(crate) struct StatementCtx<'a> {
    pub(crate) db: &'a Database,
    /// The parameters in force: `SET`/`UNSET` write here, and the caller
    /// armed the statement's governor from here.
    pub(crate) params: &'a RwLock<SessionParams>,
    /// The caller's transaction slot, if it can hold a transaction at all.
    pub(crate) txn: Option<&'a Mutex<Option<Txn>>>,
    /// How the statement's plan runs.
    pub(crate) opts: QueryOptions,
}

impl StatementCtx<'_> {
    fn in_transaction(&self) -> bool {
        self.txn.is_some_and(|slot| slot.lock().is_some())
    }

    /// The catalog statements read from: the open transaction's effective
    /// catalog, else the database's latest version.
    fn read_snapshot(&self) -> Arc<CatalogSnapshot> {
        self.txn
            .and_then(|slot| slot.lock().as_ref().map(|t| t.effective.clone()))
            .unwrap_or_else(|| self.db.snapshot())
    }

    fn txn_slot(&self) -> Result<&Mutex<Option<Txn>>> {
        self.txn.ok_or_else(|| {
            SnowError::Catalog(
                "explicit transactions require a session: open a snowdb::Session \
                 and run BEGIN/COMMIT/ROLLBACK there"
                    .into(),
            )
        })
    }

    /// The one text entry point for statements, and the only place a text
    /// becomes a plan: a query text whose cached plan is still valid on this
    /// context's read snapshot runs at once; anything else is parsed and
    /// shown to `parsed`, which may refuse it before it runs. A query is then
    /// compiled through the plan cache, every other statement dispatched by
    /// [`StatementCtx::run`]. A failure carries the statement's record.
    pub(crate) fn run_text(
        &self,
        sql: &str,
        gov: Arc<QueryGovernor>,
        parsed: impl FnOnce(&Statement) -> Result<()>,
    ) -> std::result::Result<StatementResult, QueryFailure> {
        let (snap, mut profile) = (self.read_snapshot(), QueryProfile::new(&gov));
        let t = Instant::now();
        let cached = self.db.plans.get(&snap, sql, self.opts.optimize);
        profile.stages.lookup = t.elapsed();
        let source = match cached {
            Some(plan) => {
                profile.plan_cached = true;
                PlanSource::Cached(plan)
            }
            None => {
                let t = Instant::now();
                let stmt = parse_statement(sql);
                profile.stages.parse = t.elapsed();
                match stmt.and_then(|stmt| parsed(&stmt).map(|()| stmt)) {
                    Ok(Statement::Query(query)) => PlanSource::Text(sql, query),
                    Ok(stmt) => {
                        let ran = self.run(stmt, gov.clone(), profile.clone());
                        return ran.map_err(|e| profile.failed(e, &gov));
                    }
                    Err(error) => return Err(profile.failed(error, &gov)),
                }
            }
        };
        let rows = self.db.run_plan(&snap, source, &self.opts, gov, profile)?;
        Ok(StatementResult::Rows(rows))
    }

    /// [`StatementCtx::run_text`] for a text that must be a query: anything
    /// else is refused before it runs.
    pub(crate) fn query_text(&self, sql: &str, gov: Arc<QueryGovernor>) -> QueryOutcome {
        let only_queries = |stmt: &Statement| match stmt {
            Statement::Query(_) => Ok(()),
            _ => Err(SnowError::Parse("expected a query; run other statements with execute".into())),
        };
        match self.run_text(sql, gov, only_queries)? {
            StatementResult::Rows(rows) => Ok(rows),
            StatementResult::Message(_) => unreachable!("the hook lets only a query through"),
        }
    }

    /// The door of a parsed query: compiled cold against the read snapshot,
    /// never through the plan cache, and run by the one executor.
    fn run_parsed(&self, query: &Query, gov: Arc<QueryGovernor>, profile: QueryProfile) -> QueryOutcome {
        self.db.run_plan(&self.read_snapshot(), PlanSource::Parsed(query), &self.opts, gov, profile)
    }

    /// The statement dispatcher: executes one parsed statement under this
    /// context and `gov`, completing `profile`, its record so far.
    ///
    /// An open transaction accepts what reads only or fits its write set:
    /// queries, `EXPLAIN [ANALYZE]`, DML, ordinary `SET`/`UNSET`, the
    /// transaction verbs. The rest is rejected there — the catalog diff it
    /// would need is not worth its rarity (Snowflake auto-commits DDL for
    /// the same reason).
    pub(crate) fn run(
        &self,
        stmt: Statement,
        gov: Arc<QueryGovernor>,
        profile: QueryProfile,
    ) -> Result<StatementResult> {
        let db = self.db;
        let message = |m: String| Ok(StatementResult::Message(m));
        match stmt {
            Statement::Begin => self.begin(),
            Statement::Commit => self.commit(),
            Statement::Rollback => self.rollback(),
            Statement::Query(q) => Ok(StatementResult::Rows(self.run_parsed(&q, gov, profile)?)),
            Statement::Explain(q) => {
                message(crate::plan::explain(&db.compile_on(&self.read_snapshot(), &q, true)?))
            }
            Statement::ExplainAnalyze(q) => {
                message(crate::plan::explain_record(&self.run_parsed(&q, gov, profile)?))
            }
            Statement::Insert { table, rows } => {
                self.write(&gov, |cat| db.plan_insert(cat, &table, &rows, &gov))
            }
            Statement::Update { table, sets, predicate } => self.write(&gov, |cat| {
                db.plan_rewrite(cat, &table, Some(&sets), predicate.as_ref(), &gov)
            }),
            Statement::Delete { table, predicate } => {
                self.write(&gov, |cat| db.plan_rewrite(cat, &table, None, predicate.as_ref(), &gov))
            }
            Statement::Set { name, value } if !name.eq_ignore_ascii_case(RETENTION_PARAM) => {
                let canonical = self.params.write().set(&name, value)?;
                message(if value == 0 {
                    format!("{canonical} cleared")
                } else {
                    format!("{canonical} set to {value}")
                })
            }
            Statement::Unset { name } => {
                let canonical = self.params.write().unset(&name)?;
                message(format!("{canonical} cleared"))
            }
            // Retention is durable store state, not a per-session limit: it
            // and everything below is rejected while a transaction is open.
            Statement::Set { .. } if self.in_transaction() => Err(SnowError::Catalog(
                "cannot change DATA_RETENTION_VERSIONS inside a transaction \
                 (COMMIT or ROLLBACK first)"
                    .into(),
            )),
            other if self.in_transaction() => Err(SnowError::Catalog(format!(
                "statement is not supported inside a transaction \
                 (COMMIT or ROLLBACK first): {other:?}"
            ))),
            Statement::Set { value, .. } => {
                if value == 0 {
                    return Err(SnowError::Catalog(format!(
                        "{RETENTION_PARAM} must be at least 1 \
                         (the current version is always retained)"
                    )));
                }
                let v = db.set_retention(value)?;
                message(format!("{RETENTION_PARAM} set to {v}"))
            }
            Statement::Verify { query, text } => {
                let lattice = crate::verify::default_lattice(db.effective_threads());
                let report = crate::verify::verify_query(
                    db,
                    &self.read_snapshot(),
                    Ok(&query),
                    &text,
                    &lattice,
                    crate::verify::DEFAULT_EPSILON,
                    &gov,
                )?;
                message(report.render())
            }
            Statement::CreateTable { name, columns } => {
                let schema: Vec<_> =
                    columns.into_iter().map(|(n, ty)| ColumnDef::new(n, ty)).collect();
                db.create_as(&name, "", &gov, |_| Ok((schema.clone(), Vec::new(), ())))?;
                message(format!("created table {name}"))
            }
            Statement::DropTable { name, if_exists } => {
                if !db.drop_table(&name)? && !if_exists {
                    return Err(SnowError::Catalog(format!("table '{name}' does not exist")));
                }
                message(format!("dropped table {name}"))
            }
            Statement::Undrop { name } => {
                let version = db.undrop_table(&name, &gov)?;
                message(format!("undropped table {name} (restored from version {version})"))
            }
            Statement::CloneTable { name, source, travel } => {
                db.clone_table(&name, &source, travel.as_ref(), &gov)?;
                message(format!("created table {name} as zero-copy clone of {source}"))
            }
        }
    }

    /// Applies one planned DML write: stacked onto the open transaction's
    /// effective catalog — prepared exactly like an auto-commit write, but
    /// not committed — or auto-committed ([`Database::autocommit`]).
    fn write(
        &self,
        gov: &QueryGovernor,
        plan: impl Fn(&CatalogSnapshot) -> Result<(String, Option<TableWrite>, String)>,
    ) -> Result<StatementResult> {
        let mut guard = self.txn.map(|slot| slot.lock());
        let msg = match guard.as_mut().and_then(|g| g.as_mut()) {
            Some(txn) => {
                let (name, write, msg) = plan(&txn.effective)?;
                if let Some(w) = write {
                    // Applying against the overlay's own version can only
                    // conflict if the statement itself raced — it cannot
                    // here, the overlay is session-private.
                    let next = txn
                        .effective
                        .apply(txn.effective.version(), &WriteSet::single(&name, w))?;
                    txn.effective = Arc::new(next);
                    txn.touched.insert(name);
                }
                msg
            }
            None => {
                drop(guard);
                self.db.autocommit(gov, |base| {
                    let (name, write, msg) = plan(base)?;
                    let writes = write.map(|w| (name, w)).into_iter().collect();
                    Ok((WriteSet { writes }, msg))
                })?
            }
        };
        Ok(StatementResult::Message(msg))
    }

    fn begin(&self) -> Result<StatementResult> {
        let mut txn = self.txn_slot()?.lock();
        if txn.is_some() {
            return Err(SnowError::Catalog("a transaction is already in progress".into()));
        }
        let base = self.db.snapshot();
        let version = base.version();
        *txn = Some(Txn { effective: base.clone(), base, touched: BTreeSet::new() });
        Ok(StatementResult::Message(format!(
            "transaction started (snapshot version {version})"
        )))
    }

    fn rollback(&self) -> Result<StatementResult> {
        if self.txn_slot()?.lock().take().is_none() {
            return Err(SnowError::Catalog("no transaction in progress".into()));
        }
        Ok(StatementResult::Message("rolled back".into()))
    }

    /// Commits the open transaction: diffs the effective catalog against the
    /// pinned base per touched table (partition `Arc` identity tells appends
    /// from rewrites) and submits the whole write set as one CAS against the
    /// base version. No retry — on conflict the transaction is aborted and
    /// the typed error surfaces to the caller.
    fn commit(&self) -> Result<StatementResult> {
        // Taking the transaction up front means *any* outcome — success or
        // conflict — ends it; a failed COMMIT must not leave a half-dead
        // transaction accepting more statements.
        let Some(txn) = self.txn_slot()?.lock().take() else {
            return Err(SnowError::Catalog("no transaction in progress".into()));
        };
        let mut writes = Vec::new();
        for name in &txn.touched {
            let before = txn.base.table(name);
            let after = txn.effective.table(name);
            match (before, after) {
                (None, Some(t)) => {
                    writes.push((name.clone(), TableWrite::Put { table: t, expect_absent: true }));
                }
                (Some(b), Some(a)) => {
                    let removed: Vec<_> = b
                        .partitions()
                        .iter()
                        .filter(|p| !a.partitions().iter().any(|q| Arc::ptr_eq(p, q)))
                        .cloned()
                        .collect();
                    let added: Vec<_> = a
                        .partitions()
                        .iter()
                        .filter(|p| !b.partitions().iter().any(|q| Arc::ptr_eq(p, q)))
                        .cloned()
                        .collect();
                    if removed.is_empty() && added.is_empty() {
                        continue;
                    }
                    if removed.is_empty() {
                        // Pure appends merge with concurrent appends instead
                        // of conflicting on partition identity.
                        writes.push((
                            name.clone(),
                            TableWrite::Append { parts: added, schema: a.schema().to_vec() },
                        ));
                    } else {
                        writes.push((name.clone(), TableWrite::Rewrite { removed, added }));
                    }
                }
                (Some(_), None) => writes.push((name.clone(), TableWrite::Drop)),
                (None, None) => {}
            }
        }
        if writes.is_empty() {
            return Ok(StatementResult::Message("committed (no changes)".into()));
        }
        let next = self.db.commit_writes(txn.base.version(), WriteSet { writes })?;
        Ok(StatementResult::Message(format!("committed version {}", next.version())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
    use crate::variant::Variant;

    fn shared_db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..10).map(|i| vec![Variant::Int(i)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        db
    }

    fn count(s: &Session) -> i64 {
        match s.query("SELECT count(*) FROM t").unwrap().scalar().unwrap() {
            Variant::Int(n) => *n,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transaction_isolates_until_commit_and_reads_own_writes() {
        let db = shared_db();
        let alice = Session::new(db.clone());
        let bob = Session::new(db.clone());
        alice.execute("BEGIN").unwrap();
        alice.execute("INSERT INTO t VALUES (100)").unwrap();
        alice.execute("DELETE FROM t WHERE x < 5").unwrap();
        // Alice reads her own writes; Bob still sees the committed version.
        assert_eq!(count(&alice), 6);
        assert_eq!(count(&bob), 10);
        alice.execute("COMMIT").unwrap();
        assert_eq!(count(&alice), 6);
        assert_eq!(count(&bob), 6);
    }

    #[test]
    fn rollback_discards_everything() {
        let db = shared_db();
        let s = Session::new(db.clone());
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET x = x + 1000").unwrap();
        assert!(s.in_transaction());
        s.execute("ROLLBACK").unwrap();
        assert!(!s.in_transaction());
        assert_eq!(
            db.query("SELECT max(x) FROM t").unwrap().scalar(),
            Some(&Variant::Int(9)),
            "rolled-back update must leave the table untouched"
        );
    }

    #[test]
    fn conflicting_commit_fails_typed_and_aborts() {
        let db = shared_db();
        let a = Session::new(db.clone());
        let b = Session::new(db.clone());
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        // Both rewrite the same partition; first committer wins.
        a.execute("UPDATE t SET x = x + 100 WHERE x = 3").unwrap();
        b.execute("UPDATE t SET x = x + 200 WHERE x = 3").unwrap();
        a.execute("COMMIT").unwrap();
        match b.execute("COMMIT") {
            Err(SnowError::WriteConflict(trip)) => {
                assert_eq!(trip.table, "T");
                assert_eq!(trip.attempts, 1, "transaction COMMIT must not retry");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!b.in_transaction(), "failed COMMIT must end the transaction");
        let max = db.query("SELECT max(x) FROM t").unwrap();
        assert_eq!(max.scalar(), Some(&Variant::Int(103)));
    }

    #[test]
    fn concurrent_appends_both_commit() {
        let db = shared_db();
        let a = Session::new(db.clone());
        let b = Session::new(db.clone());
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (100)").unwrap();
        b.execute("INSERT INTO t VALUES (200)").unwrap();
        a.execute("COMMIT").unwrap();
        b.execute("COMMIT").unwrap();
        assert_eq!(db.table("t").unwrap().row_count(), 12, "appends merge, not conflict");
    }

    #[test]
    fn ddl_inside_a_transaction_is_rejected() {
        let db = shared_db();
        let s = Session::new(db);
        s.execute("BEGIN").unwrap();
        for sql in ["CREATE TABLE u (a INT)", "DROP TABLE t"] {
            match s.execute(sql) {
                Err(SnowError::Catalog(m)) => assert!(m.contains("transaction"), "{m}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        s.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn session_params_are_per_session() {
        let db = shared_db();
        let a = Session::new(db.clone());
        let b = Session::new(db.clone());
        a.execute("SET STATEMENT_TIMEOUT_IN_SECONDS = 30").unwrap();
        assert_eq!(a.params().statement_timeout_secs, Some(30));
        assert_eq!(b.params().statement_timeout_secs, None);
        assert_eq!(db.session_params().statement_timeout_secs, None);
    }

    #[test]
    fn txn_verbs_require_matching_state() {
        let db = shared_db();
        let s = Session::new(db);
        assert!(s.execute("COMMIT").is_err());
        assert!(s.execute("ROLLBACK").is_err());
        s.execute("BEGIN").unwrap();
        assert!(s.execute("BEGIN").is_err());
        s.execute("ROLLBACK").unwrap();
    }
}
