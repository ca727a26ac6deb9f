//! The engine facade: a multi-version catalog plus the compile/execute query
//! pipeline.
//!
//! Every statement pins one immutable [`CatalogSnapshot`] and runs against it
//! end to end — concurrent commits never change what an in-flight query sees.
//! Writers prepare partitions off to the side and commit through an optimistic
//! compare-and-swap on the catalog version ([`Database::commit_writes`]); a
//! lost race surfaces as [`SnowError::WriteConflict`] and the auto-commit DML
//! paths retry on a fresh snapshot under a seeded, bounded backoff.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::catalog::{CatalogSnapshot, SharedCatalog, TableEntry, TableWrite, WriteSet};
use crate::error::{Result, SnowError};
use crate::exec::metrics::OpMetrics;
use crate::exec::{pipeline, ExecCtx};
use crate::govern::retry::{self, RetryPolicy};
use crate::govern::{GovernorSummary, QueryFailure, QueryGovernor, QueryOutcome, SessionParams};
use crate::optimize::optimize;
use crate::plan::physical::{lower, PhysNode};
use crate::plan::{bind_query, Catalog, Node};
use crate::plan_cache::PlanCache;
use crate::session::StatementCtx;
use crate::sql::ast::Query;
use crate::sql::parse_query;
use crate::storage::{
    ColumnDef, MemSink, MicroPartition, PartitionSink, ScanSource, ScanStats, Table, TableBuilder,
};
use crate::store::Store;
use crate::travel::TravelCatalog;
use crate::variant::Variant;

/// One statement's record, the same on success and on failure
/// ([`QueryFailure::profile`]): its id, its plan, where its time went stage by
/// stage, and what it scanned and ran. The paper's §V split is
/// [`QueryProfile::compile_time`] against [`QueryProfile::exec_time`].
#[derive(Clone, Debug, Default)]
pub struct QueryProfile {
    /// The statement's query id ([`QueryGovernor::id`]).
    pub query_id: u64,
    /// The plan, once one was compiled or taken from the plan cache.
    pub plan: Option<Arc<Node>>,
    /// Whether a text entry point ran a plan from the plan cache instead of
    /// compiling the text (DESIGN.md, "Plan cache").
    pub plan_cached: bool,
    pub stages: StageTimes,
    pub scan: ScanStats,
    /// Per-operator metrics tree mirroring the executed plan (rows in/out,
    /// batches, busy time, peak intermediate rows/bytes, parallelism);
    /// partial when execution failed.
    pub metrics: Option<OpMetrics>,
    /// Governance accounting (time vs. deadline, memory and bytes scanned vs.
    /// budgets). Present when any session limit or fault schedule was armed,
    /// and on every failure.
    pub governed: Option<GovernorSummary>,
}

/// Where one statement's time went, measured inside the program. The stages
/// do not overlap; a stage the statement skipped is zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Tokenize and parse.
    pub parse: Duration,
    /// The plan cache's lookup and, on a hit, its validation.
    pub lookup: Duration,
    pub bind: Duration,
    pub optimize: Duration,
    pub lower: Duration,
    pub execute: Duration,
    /// Draining the result batches into rows.
    pub into_rows: Duration,
}

impl QueryProfile {
    /// The record of the statement `gov` governs, before any stage ran.
    pub(crate) fn new(gov: &QueryGovernor) -> QueryProfile {
        QueryProfile { query_id: gov.id(), ..QueryProfile::default() }
    }

    /// Everything before lowering: parse + bind + optimize, or on a plan
    /// cache hit the lookup and its validation.
    pub fn compile_time(&self) -> Duration {
        let s = &self.stages;
        s.parse + s.lookup + s.bind + s.optimize
    }

    /// Lowering and execution.
    pub fn exec_time(&self) -> Duration {
        self.stages.lower + self.stages.execute
    }

    /// Closes the record of a statement that failed with `error`.
    pub(crate) fn failed(mut self, error: SnowError, gov: &QueryGovernor) -> QueryFailure {
        self.governed = Some(gov.summary());
        QueryFailure { error, profile: Box::new(self) }
    }

    /// The id and the stages on one line: `query 7: compile 41.2µs (parse
    /// 12.5µs, plan cache miss 1.1µs, bind …, optimize …), exec …`.
    pub fn stages_line(&self) -> String {
        let s = &self.stages;
        let hit = if self.plan_cached { "hit" } else { "miss" };
        format!(
            "query {}: compile {:.1?} (parse {:.1?}, plan cache {hit} {:.1?}, bind {:.1?}, \
             optimize {:.1?}), exec {:.1?} (lower {:.1?}, execute {:.1?}), into_rows {:.1?}",
            self.query_id, self.compile_time(), s.parse, s.lookup, s.bind, s.optimize,
            self.exec_time(), s.lower, s.execute, s.into_rows,
        )
    }
}

/// Outcome of [`Database::execute`].
// One value per statement, immediately consumed; boxing `Rows` would add an
// indirection for no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum StatementResult {
    Rows(QueryResult),
    Message(String),
}

/// A completed query: column names, row-major results, and the profile.
#[derive(Clone, Debug)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Variant>>,
    pub profile: QueryProfile,
}

impl QueryResult {
    /// Single scalar convenience accessor (first column of first row).
    pub fn scalar(&self) -> Option<&Variant> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// An embedded Snowflake-like database: a multi-version catalog of immutable
/// table snapshots plus the query pipeline.
///
/// The catalog is MVCC: readers pin an `Arc`'d [`CatalogSnapshot`] and never
/// block writers; writers commit optimistically and serialize only on the
/// commit point itself. Cloning handles is cheap; table data is never behind
/// a lock.
#[derive(Default)]
pub struct Database {
    /// The current catalog version plus the commit serialization point.
    pub(crate) catalog: SharedCatalog,
    /// Explicit worker-thread override; `None` falls back to
    /// `SNOWDB_THREADS`, then to the machine's available parallelism.
    threads: RwLock<Option<usize>>,
    /// Database-level session parameters (`SET STATEMENT_TIMEOUT_IN_SECONDS
    /// = ...`): statements run directly on the database are governed by
    /// them, and every new [`crate::session::Session`] starts from a copy.
    params: RwLock<SessionParams>,
    /// Attached persistent store ([`Database::open`] / [`Database::persist_to`]);
    /// `None` for a purely in-memory database. When attached, every catalog
    /// commit also commits a new manifest version and newly loaded tables
    /// stream their partitions to disk.
    store: RwLock<Option<Arc<Store>>>,
    /// Monotonic counter feeding per-commit retry-jitter seeds, so contending
    /// writers on one database desynchronize deterministically.
    commit_seq: AtomicU64,
    /// Plans of statement texts, reused while the tables they bound are
    /// the ones the statement's snapshot holds ([`crate::plan_cache`]).
    pub(crate) plans: PlanCache,
}

/// Sink adapter charging every sealed partition against a query governor
/// before handing it to the real destination — this is what bounds (and
/// faults, under chaos schedules) streaming ingest and DML rewrites.
struct GovernedSink {
    inner: Box<dyn PartitionSink>,
    gov: Arc<QueryGovernor>,
}

impl PartitionSink for GovernedSink {
    fn flush(&self, part: MicroPartition) -> Result<Arc<ScanSource>> {
        let bytes = part.columns().iter().map(|c| c.bytes).sum();
        self.gov.charge_memory(bytes, "Ingest")?;
        self.inner.flush(part)
    }
}

/// How a statement runs: the one value that selects it, and the point type
/// of the verification lattice ([`crate::verify::default_lattice`]).
///
/// The defaults reproduce [`Database::query`]: optimized plan, the database's
/// thread count ([`Database::effective_threads`]), kernels and encoded
/// execution as the process's `SNOWDB_VECTORIZE` / `SNOWDB_ENCODE` select
/// (both on when unset). The environment is read once per process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOptions {
    /// Run the optimizer passes (`false` executes the raw bound plan).
    pub optimize: bool,
    /// Explicit worker-thread count; `None` uses the database default.
    pub threads: Option<usize>,
    /// Use the typed vectorized kernels; off forces the row-at-a-time path.
    pub vectorize: bool,
    /// Let encoded (dictionary / run-length) column blocks flow into the
    /// executor; off decodes every block at the scan.
    pub encode: bool,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        let env = process_settings();
        QueryOptions { optimize: true, threads: None, vectorize: env.vectorize, encode: env.encode }
    }
}

impl QueryOptions {
    /// Human-readable label of a lattice point, used in reports.
    pub fn label(&self) -> String {
        format!(
            "{}/threads={}/{}/{}",
            if self.optimize { "optimized" } else { "raw" },
            self.threads.map_or_else(|| "default".to_string(), |t| t.to_string()),
            if self.vectorize { "vec" } else { "row" },
            if self.encode { "enc" } else { "dec" }
        )
    }
}

/// The settings of this process's environment, read on first use:
/// `SNOWDB_THREADS` is [`QueryOptions::threads`], `SNOWDB_VECTORIZE` and
/// `SNOWDB_ENCODE` are `vectorize` and `encode`. The only reader of the
/// environment in the engine.
fn process_settings() -> &'static QueryOptions {
    static SETTINGS: std::sync::OnceLock<QueryOptions> = std::sync::OnceLock::new();
    SETTINGS.get_or_init(|| {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        parse_settings(
            var("SNOWDB_THREADS").as_deref(),
            var("SNOWDB_VECTORIZE").as_deref(),
            var("SNOWDB_ENCODE").as_deref(),
        )
    })
}

/// Parses the values of `SNOWDB_THREADS`, `SNOWDB_VECTORIZE` and
/// `SNOWDB_ENCODE` (`None`: unset). Values are trimmed and read ignoring
/// ASCII case; a switch is `0|false|off` or `1|true|on`, a thread count a
/// positive integer. Anything else panics, naming the variable and the value:
/// a mistyped setting must not run the defaults.
fn parse_settings(
    threads: Option<&str>,
    vectorize: Option<&str>,
    encode: Option<&str>,
) -> QueryOptions {
    let switch = |name: &str, value: Option<&str>| match value
        .map(|v| v.trim().to_ascii_lowercase())
        .as_deref()
    {
        None | Some("1" | "true" | "on") => true,
        Some("0" | "false" | "off") => false,
        Some(_) => panic!(
            "{name}={:?}: expected 0, false, off, 1, true or on",
            value.unwrap_or_default()
        ),
    };
    let threads = threads.map(|v| match v.trim().parse::<usize>() {
        Ok(t) if t > 0 => t,
        _ => panic!("SNOWDB_THREADS={v:?}: expected a positive integer"),
    });
    QueryOptions {
        optimize: true,
        threads,
        vectorize: switch("SNOWDB_VECTORIZE", vectorize),
        encode: switch("SNOWDB_ENCODE", encode),
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Loads a table from rows, sealed into partitions of `partition_rows`
    /// rows ([`crate::storage::DEFAULT_PARTITION_ROWS`] unless a test or a
    /// benchmark wants its own), replacing any same-named table. Partitions
    /// seal and flush as they fill — straight to partition files when a
    /// persistent store is attached — each charged against a governor armed
    /// from the session parameters, so peak memory is one open partition.
    pub fn load_table<I>(
        &self,
        name: &str,
        schema: Vec<ColumnDef>,
        rows: I,
        partition_rows: usize,
    ) -> Result<()>
    where
        I: IntoIterator<Item = Vec<Variant>>,
    {
        self.replace_table(name, schema, partition_rows, |b| {
            rows.into_iter().try_for_each(|row| b.push_row(&row))
        })
    }

    /// The loader behind [`Database::load_table`] and JSONL ingest: seals
    /// what `fill` pushes ([`Database::build_partitions`]) and publishes it
    /// as table `name`. A load *replaces* any same-named table (last writer
    /// wins): it commits against the catalog version current at commit time
    /// and therefore never trips a write conflict. If the commit fails, the
    /// fresh partition files stay invisible debris (swept on the next
    /// write-open) and the previous table version remains live.
    pub(crate) fn replace_table(
        &self,
        name: &str,
        schema: Vec<ColumnDef>,
        partition_rows: usize,
        fill: impl FnOnce(&mut TableBuilder) -> Result<()>,
    ) -> Result<()> {
        let upper = name.to_ascii_uppercase();
        let gov = Arc::new(QueryGovernor::from_params(&self.session_params()));
        let parts = self.build_partitions(&upper, &schema, partition_rows, &gov, fill)?;
        let table = Arc::new(Table::from_parts(upper.clone(), schema, parts));
        self.commit_latest(WriteSet::single(&upper, TableWrite::Put {
            table,
            expect_absent: false,
        }))?;
        Ok(())
    }

    /// Where newly sealed partitions go — partition files when a store is
    /// attached, memory otherwise — each charged against `gov` first.
    pub(crate) fn governed_sink(
        &self,
        schema: &[ColumnDef],
        gov: Arc<QueryGovernor>,
    ) -> Box<dyn PartitionSink> {
        let inner: Box<dyn PartitionSink> = match self.store() {
            Some(s) => Box::new(s.sink(schema.to_vec())),
            None => Box::new(MemSink),
        };
        Box::new(GovernedSink { inner, gov })
    }

    /// Seals what `fill` pushes into fresh partitions of `partition_rows`
    /// rows through the one builder (type validation, column records),
    /// into the sink [`Database::governed_sink`] picks. Every writer of
    /// table data — loads, JSONL ingest, `INSERT`, `UPDATE`, `DELETE`,
    /// compaction — builds its partitions here.
    pub(crate) fn build_partitions(
        &self,
        name: &str,
        schema: &[ColumnDef],
        partition_rows: usize,
        gov: &Arc<QueryGovernor>,
        fill: impl FnOnce(&mut TableBuilder) -> Result<()>,
    ) -> Result<Vec<Arc<ScanSource>>> {
        let sink = self.governed_sink(schema, gov.clone());
        let mut b = TableBuilder::new(name, schema.to_vec(), partition_rows, sink)?;
        fill(&mut b)?;
        Ok(b.finish()?.partitions().to_vec())
    }

    /// Opens (or initializes) a persistent database directory with the write
    /// lock. Every committed table is reconstructed lazily — footers are
    /// read, column data is not — and subsequent catalog commits write new
    /// manifest versions to the same directory. A directory already
    /// write-locked by a *different live process* is refused with a typed
    /// [`SnowError::Storage`]; use [`Database::open_read_only`] to read past
    /// the lock.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        Database::open_mode(dir, false)
    }

    /// Opens a persistent database directory without taking the write lock:
    /// always succeeds alongside a live writer process, but every catalog
    /// mutation on the returned database is refused with a typed error.
    pub fn open_read_only(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        Database::open_mode(dir, true)
    }

    fn open_mode(dir: impl AsRef<std::path::Path>, read_only: bool) -> Result<Database> {
        let (store, tables) = if read_only {
            Store::open_read_only(dir)?
        } else {
            Store::open(dir)?
        };
        let version = store.version();
        let mut map = std::collections::BTreeMap::new();
        for t in tables {
            let name = t.name().to_ascii_uppercase();
            map.insert(name, TableEntry { table: Arc::new(t), committed_at: version });
        }
        let mut snapshot = CatalogSnapshot::new(version, map);
        snapshot.set_pin(store.pin_current());
        let db = Database {
            catalog: SharedCatalog::new(snapshot),
            ..Database::default()
        };
        db.catalog.set_capacity(store.retention());
        *db.store.write() = Some(store);
        Ok(db)
    }

    /// Persists the current catalog into a fresh database directory and
    /// attaches it: every partition is flushed through the store's sink as
    /// an immutable partition file, all tables are committed in **one**
    /// manifest version, and the in-memory snapshots are swapped for their
    /// disk-backed (lazily read) versions. Refuses a directory that already
    /// holds a database.
    pub fn persist_to(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        let store = Store::create(dir)?;
        // Hold the commit lock across the whole persist so no commit can
        // slip between the catalog snapshot and the attach.
        let _guard = self.catalog.lock_commits();
        let current = self.catalog.snapshot();
        let mut writes = Vec::new();
        for (name, entry) in current.entries() {
            let t = &entry.table;
            let sink = store.sink(t.schema().to_vec());
            let sources =
                t.partitions().iter().map(|p| sink.flush(p.to_mem()?)).collect::<Result<_>>()?;
            let table =
                Arc::new(Table::from_parts(t.name().to_string(), t.schema().to_vec(), sources));
            writes.push((name.clone(), TableWrite::Put { table, expect_absent: false }));
        }
        if !writes.is_empty() {
            self.commit_locked(Some(&store), &current, current.version(), WriteSet { writes })?;
        }
        *self.store.write() = Some(store);
        Ok(())
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<Arc<Store>> {
        self.store.read().clone()
    }

    /// Pins the current catalog version. Everything resolved through the
    /// returned snapshot is immutable: concurrent commits publish *new*
    /// versions and never mutate a pinned one.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.catalog.snapshot()
    }

    /// Commits a write set against `base_version` (the version the writer
    /// read its inputs from): the optimistic compare-and-swap. Under the
    /// commit lock the set is validated against the *current* version
    /// ([`CatalogSnapshot::apply`]); on success it is made durable first
    /// (when a store is attached) and then published. A validation failure
    /// surfaces as [`SnowError::WriteConflict`] with nothing changed.
    pub(crate) fn commit_writes(
        &self,
        base_version: u64,
        set: WriteSet,
    ) -> Result<Arc<CatalogSnapshot>> {
        let _guard = self.catalog.lock_commits();
        let current = self.catalog.snapshot();
        self.commit_locked(self.store().as_ref(), &current, base_version, set)
    }

    /// Commits a write set against whatever version is current at the commit
    /// point — the last-writer-wins replace of a load
    /// ([`Database::replace_table`], its only caller). Never trips a write
    /// conflict for a plain `Put`.
    fn commit_latest(&self, set: WriteSet) -> Result<Arc<CatalogSnapshot>> {
        let _guard = self.catalog.lock_commits();
        let current = self.catalog.snapshot();
        self.commit_locked(self.store().as_ref(), &current, current.version(), set)
    }

    /// The commit point, under the commit lock: `set` is validated against
    /// `current`, made durable in `store` when there is one, then published.
    fn commit_locked(
        &self,
        store: Option<&Arc<Store>>,
        current: &Arc<CatalogSnapshot>,
        base_version: u64,
        set: WriteSet,
    ) -> Result<Arc<CatalogSnapshot>> {
        let mut next = current.apply(base_version, &set)?;
        if let Some(s) = store {
            // Durability first: the manifest CAS is the real commit point.
            // If it fails, nothing was published and prepared partition
            // files remain invisible debris.
            s.commit_writes(&set)?;
            // Pin the new version's files for the snapshot's lifetime: a
            // query holding this snapshot can outlive the version's stay in
            // the retention window, and GC must defer, not unlink.
            next.set_pin(s.pin_current());
        }
        let next = Arc::new(next);
        self.catalog.publish(next.clone());
        Ok(next)
    }

    /// The auto-commit loop every catalog-mutating statement shares: `plan`
    /// builds a write set (and the statement's outcome) from a freshly pinned
    /// snapshot, the set commits by CAS against that version, and a lost race
    /// re-plans under a seeded bounded backoff. One governor spans every
    /// attempt, so a cancel or deadline expiry during backoff aborts before
    /// the next one. An empty write set commits nothing.
    pub(crate) fn autocommit<T>(
        &self,
        gov: &QueryGovernor,
        mut plan: impl FnMut(&CatalogSnapshot) -> Result<(WriteSet, T)>,
    ) -> Result<T> {
        // Per-loop jitter seed: contending writers desynchronize deterministically.
        let seed = crate::govern::chaos::splitmix64(
            self.commit_seq.fetch_add(1, AtomicOrd::Relaxed).wrapping_add(0x5EED),
        );
        retry::run(&RetryPolicy { seed }, |attempt| {
            if attempt > 0 {
                gov.checkpoint("Commit")?;
            }
            let base = self.snapshot();
            let (set, out) = plan(&base)?;
            if !set.writes.is_empty() {
                self.commit_writes(base.version(), set)?;
            }
            Ok(out)
        })
    }

    /// A `CREATE`-style commit: publishes a new table `name` from the schema
    /// and (shared, immutable) partitions `source` picks off the pinned base.
    /// An existing `name` is a typed catalog error ending in `hint`; a
    /// concurrent creation of it is a write conflict.
    pub(crate) fn create_as<T>(
        &self,
        name: &str,
        hint: &str,
        gov: &QueryGovernor,
        source: impl Fn(&CatalogSnapshot) -> Result<(Vec<ColumnDef>, Vec<Arc<ScanSource>>, T)>,
    ) -> Result<T> {
        let upper = name.to_ascii_uppercase();
        self.autocommit(gov, |base| {
            if base.table(&upper).is_some() {
                return Err(SnowError::Catalog(format!("table '{name}' already exists{hint}")));
            }
            let (schema, partitions, out) = source(base)?;
            let table = Arc::new(Table::from_parts(upper.clone(), schema, partitions));
            let put = TableWrite::Put { table, expect_absent: true };
            Ok((WriteSet::single(&upper, put), out))
        })
    }

    /// Removes a table and returns whether it existed, committing the drop to
    /// the persistent catalog when a store is attached. The in-memory catalog
    /// only changes after the commit succeeds, so a failed commit leaves both
    /// views consistent. Drops are idempotent and never conflict.
    pub fn drop_table(&self, name: &str) -> Result<bool> {
        let upper = name.to_ascii_uppercase();
        let base = self.snapshot();
        if base.table(&upper).is_none() {
            return Ok(false);
        }
        self.commit_writes(base.version(), WriteSet::single(&upper, TableWrite::Drop))?;
        Ok(true)
    }

    /// Current schema generation — the catalog version; changes whenever the
    /// catalog does. Anything compiled against the catalog (cached
    /// translations, prepared plans) should treat a different stamp as a
    /// different database.
    pub fn schema_generation(&self) -> u64 {
        self.catalog.snapshot().version()
    }

    /// Fetches a table snapshot from the current catalog version.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.catalog.snapshot().table(name)
    }

    /// Names of all tables in the current catalog version.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.snapshot().table_names()
    }

    /// Compiles a SQL query to an optimized plan (parse + bind + optimize).
    pub fn compile(&self, sql: &str) -> Result<Node> {
        self.compile_on(&self.snapshot(), &parse_query(sql)?, true)
    }

    /// Compiles a parsed query against an explicit pinned snapshot (sessions
    /// compile inside their transaction's effective catalog). Binds run
    /// through a [`TravelCatalog`], so `AT`/`BEFORE` clauses resolve retained
    /// historical versions while plain references stay on the snapshot.
    pub(crate) fn compile_on(
        &self,
        cat: &CatalogSnapshot,
        query: &Query,
        optimize_plan: bool,
    ) -> Result<Node> {
        let catalog = TravelCatalog { db: self, base: cat };
        compile_query(&catalog, query, optimize_plan, &mut StageTimes::default())
    }

    /// Overrides the worker-thread count for this database's queries.
    /// `None` restores the default resolution (`SNOWDB_THREADS`, then
    /// available parallelism); values are clamped to ≥ 1.
    pub fn set_threads(&self, threads: Option<usize>) {
        *self.threads.write() = threads.map(|t| t.max(1));
    }

    /// Worker count for the next query: explicit override, else
    /// `SNOWDB_THREADS` (read once per process), else the machine's
    /// available parallelism. 1 means fully inline serial execution — no
    /// threads are spawned.
    pub fn effective_threads(&self) -> usize {
        self.threads.read().or(process_settings().threads).unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    }

    /// Runs a SQL query end to end, reporting its record ([`QueryProfile`]).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with(sql, &QueryOptions::default())
    }

    /// Runs a SQL query under explicit execution options (optimizer on/off,
    /// thread count) without touching the database-wide defaults. The query
    /// runs under a governor armed from the session parameters.
    pub fn query_with(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult> {
        let gov = Arc::new(QueryGovernor::from_params(&self.session_params()));
        Ok(self.query_governed(sql, opts, gov)?)
    }

    /// Runs a SQL query under an explicit [`QueryGovernor`]. On failure the
    /// [`QueryFailure`] carries the typed error plus the statement's record
    /// up to the abort — the partial per-operator metrics tree among it, the
    /// diagnosable form of a cancellation, deadline, or budget trip. The
    /// chaos harness drives this entry point directly with fault-schedule
    /// governors.
    pub fn query_governed(
        &self,
        sql: &str,
        opts: &QueryOptions,
        gov: Arc<QueryGovernor>,
    ) -> QueryOutcome {
        StatementCtx { db: self, params: &self.params, txn: None, opts: *opts }.query_text(sql, gov)
    }

    /// The one executor. Takes the plan from `source` — compiled against
    /// `cat` unless the plan cache had it — lowers it, executes it and
    /// collects its rows, completing `profile`, the statement's record so
    /// far. A failure at any step carries the record up to that step.
    pub(crate) fn run_plan(
        &self,
        cat: &CatalogSnapshot,
        source: PlanSource<'_>,
        opts: &QueryOptions,
        gov: Arc<QueryGovernor>,
        mut profile: QueryProfile,
    ) -> QueryOutcome {
        let catalog = TravelCatalog { db: self, base: cat };
        let (optimize_plan, stages) = (opts.optimize, &mut profile.stages);
        let plan = match source {
            PlanSource::Cached(plan) => Ok(plan),
            PlanSource::Text(sql, query) => {
                self.plans.compile(&catalog, sql, &query, optimize_plan, stages)
            }
            PlanSource::Parsed(query) => {
                compile_query(&catalog, query, optimize_plan, stages).map(Arc::new)
            }
        };
        let plan = match plan {
            Ok(plan) => profile.plan.insert(plan).clone(),
            Err(error) => return Err(profile.failed(error, &gov)),
        };

        let threads = opts.threads.map_or_else(|| self.effective_threads(), |t| t.max(1));
        let t = Instant::now();
        let phys: PhysNode<'_> = lower(&plan, threads);
        profile.stages.lower = t.elapsed();
        let t = Instant::now();
        let mut ctx = ExecCtx::worker(gov.clone(), opts.vectorize, opts.encode);
        // Last line of panic isolation: a panic escaping the morsel layer's
        // catch_unwind (e.g. one injected at a claim gate) must not cross the
        // engine boundary. The catalog is only read during execution and all
        // engine locks are parking_lot (non-poisoning), so unwinding to here
        // leaves the database fully usable.
        let batches = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline::execute_physical(&phys, &mut ctx)
        }))
        .unwrap_or_else(|payload| {
            Err(SnowError::internal(
                "executor",
                crate::govern::panic_message(&*payload),
            ))
        });
        profile.stages.execute = t.elapsed();
        profile.scan = ctx.stats;
        profile.metrics = Some(phys.snapshot());
        let batches = match batches {
            Ok(batches) => batches,
            Err(error) => return Err(profile.failed(error, &gov)),
        };

        let t = Instant::now();
        let mut rows = Vec::with_capacity(pipeline::total_rows(&batches));
        for chunk in batches {
            // Result boundary: drain each batch's columns into row vectors —
            // values are moved, never cloned per cell.
            rows.extend(chunk.into_rows());
        }
        profile.stages.into_rows = t.elapsed();
        profile.governed = gov.is_armed().then(|| gov.summary());
        let columns = plan.fields.iter().map(|f| f.name.clone()).collect();
        Ok(QueryResult { columns, rows, profile })
    }

    /// Renders the optimized plan of a query (`EXPLAIN`).
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(crate::plan::explain(&self.compile(sql)?))
    }

    /// The database-level session parameters.
    pub fn session_params(&self) -> SessionParams {
        *self.params.read()
    }

    /// Executes any statement: queries return rows, DDL/DML return a message.
    /// Runs under the database-level parameters — `SET` here changes the
    /// defaults later sessions inherit — and without a transaction slot:
    /// explicit transactions need a [`crate::session::Session`].
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        let gov = Arc::new(QueryGovernor::from_params(&self.session_params()));
        let ctx = StatementCtx { db: self, params: &self.params, txn: None, opts: QueryOptions::default() };
        Ok(ctx.run_text(sql, gov, |_| Ok(()))?)
    }
}

/// Where [`Database::run_plan`] takes its plan from.
pub(crate) enum PlanSource<'a> {
    /// The plan cache's plan for the statement's text.
    Cached(Arc<Node>),
    /// A text the plan cache missed, parsed: compiled through the cache,
    /// which keeps the plan for the next run of the text.
    Text(&'a str, Query),
    /// A statement without a text of its own (`execute_statement`,
    /// `EXPLAIN ANALYZE`, the lattice): compiled cold.
    Parsed(&'a Query),
}

/// Binds `query` through `catalog` and, when asked, optimizes the bound plan:
/// the whole of compilation once the text is parsed. Records both stages.
pub(crate) fn compile_query(
    catalog: &dyn Catalog,
    query: &Query,
    optimize_plan: bool,
    stages: &mut StageTimes,
) -> Result<Node> {
    let t = Instant::now();
    let bound = bind_query(query, catalog);
    stages.bind = t.elapsed();
    if !optimize_plan {
        return bound;
    }
    let t = Instant::now();
    let plan = optimize(bound?);
    stages.optimize = t.elapsed();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnType, DEFAULT_PARTITION_ROWS};

    fn db_with_nums() -> Database {
        let db = Database::new();
        db.load_table(
            "nums",
            vec![
                ColumnDef::new("A", ColumnType::Int),
                ColumnDef::new("B", ColumnType::Float),
            ],
            (0..10).map(|i| vec![Variant::Int(i), Variant::Float(i as f64 * 0.5)]),
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        db
    }

    #[test]
    fn settings_parse_one_way_for_all_three_variables() {
        let unset = parse_settings(None, None, None);
        assert_eq!(
            unset,
            QueryOptions { optimize: true, threads: None, vectorize: true, encode: true }
        );
        for off in ["0", " 0", "false", "False", "OFF", "off\n"] {
            let got = parse_settings(None, Some(off), Some(off));
            assert!(!got.vectorize && !got.encode, "{off:?}");
        }
        for on in ["1", "true", " TRUE ", "On"] {
            let got = parse_settings(None, Some(on), Some(on));
            assert!(got.vectorize && got.encode, "{on:?}");
        }
        assert_eq!(parse_settings(Some(" 3 "), None, None).threads, Some(3));
        assert_eq!(parse_settings(Some("1"), Some("0"), None).threads, Some(1));
    }

    #[test]
    fn a_mistyped_setting_panics_naming_the_variable_and_the_value() {
        let cases: [(&str, [Option<&str>; 3]); 6] = [
            ("SNOWDB_THREADS=\"abc\"", [Some("abc"), None, None]),
            ("SNOWDB_THREADS=\"0\"", [Some("0"), None, None]),
            ("SNOWDB_THREADS=\"-2\"", [Some("-2"), None, None]),
            ("SNOWDB_VECTORIZE=\"no\"", [None, Some("no"), None]),
            ("SNOWDB_ENCODE=\"False!\"", [None, None, Some("False!")]),
            ("SNOWDB_ENCODE=\"\"", [None, None, Some("")]),
        ];
        for (want, [t, v, e]) in cases {
            let err = std::panic::catch_unwind(|| parse_settings(t, v, e)).expect_err(want);
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.starts_with(want), "{msg}");
        }
    }

    #[test]
    fn basic_select_where() {
        let db = db_with_nums();
        let r = db.query("SELECT a FROM nums WHERE a >= 7 ORDER BY a").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Variant::Int(7));
        assert_eq!(r.columns, vec!["A"]);
    }

    #[test]
    fn aggregate_group_by() {
        let db = db_with_nums();
        let r = db
            .query("SELECT a % 2 AS p, count(*) AS c, sum(a) AS s FROM nums GROUP BY a % 2 ORDER BY p")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], vec![Variant::Int(0), Variant::Int(5), Variant::Int(20)]);
        assert_eq!(r.rows[1], vec![Variant::Int(1), Variant::Int(5), Variant::Int(25)]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let db = db_with_nums();
        let r = db.query("SELECT count(*), sum(a) FROM nums WHERE a > 100").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Variant::Int(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn unknown_table_is_a_plan_error() {
        let db = Database::new();
        match db.query("SELECT * FROM missing") {
            Err(SnowError::Plan(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn profile_reports_bytes_scanned() {
        let db = db_with_nums();
        let full = db.query("SELECT a, b FROM nums").unwrap();
        let narrow = db.query("SELECT a FROM nums").unwrap();
        assert!(full.profile.scan.bytes_scanned > narrow.profile.scan.bytes_scanned);
        assert!(narrow.profile.scan.bytes_scanned > 0);
    }

    #[test]
    fn pruning_by_column_bounds_skips_partitions() {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..100).map(|i| vec![Variant::Int(i)]),
            10,
        )
        .unwrap();
        let r = db.query("SELECT x FROM t WHERE x >= 95").unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.profile.scan.partitions_total, 10);
        assert_eq!(r.profile.scan.partitions_scanned, 1);
    }

    #[test]
    fn a_load_with_zero_rows_per_partition_is_a_typed_error() {
        let db = db_with_nums();
        let rows = (0..3).map(|i| vec![Variant::Int(i), Variant::Float(0.0)]);
        match db.load_table("nums", db.table("nums").unwrap().schema().to_vec(), rows, 0) {
            Err(SnowError::Catalog(m)) => assert!(m.contains("must be positive"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(db.table("nums").unwrap().row_count(), 10, "the old table stays live");
    }

    #[test]
    fn union_all_and_limit() {
        let db = db_with_nums();
        let r = db
            .query("SELECT a FROM nums UNION ALL SELECT a FROM nums ORDER BY a LIMIT 4")
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[0][0], Variant::Int(0));
        assert_eq!(r.rows[1][0], Variant::Int(0));
    }

    #[test]
    fn distinct_dedups() {
        let db = db_with_nums();
        let r = db.query("SELECT DISTINCT a % 3 AS m FROM nums ORDER BY m").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn select_without_from() {
        let db = Database::new();
        let r = db.query("SELECT 1 + 2 AS x, 'hi' AS y").unwrap();
        assert_eq!(r.rows, vec![vec![Variant::Int(3), Variant::str("hi")]]);
    }

    #[test]
    fn snapshot_pins_a_catalog_version() {
        let db = db_with_nums();
        let snap = db.snapshot();
        let before = snap.table("nums").unwrap().row_count();
        db.execute("INSERT INTO nums VALUES (100, 1.0)").unwrap();
        // The pinned snapshot still sees the old version; a fresh one sees
        // the new row.
        assert_eq!(snap.table("nums").unwrap().row_count(), before);
        assert_eq!(db.table("nums").unwrap().row_count(), before + 1);
        assert!(db.snapshot().version() > snap.version());
    }

    #[test]
    fn update_and_delete_rewrite_only_touched_partitions() {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..100).map(|i| vec![Variant::Int(i)]),
            10,
        )
        .unwrap();
        let before: Vec<_> = db.table("t").unwrap().partitions().to_vec();
        // Touches only the partition holding 95..100.
        match db.execute("DELETE FROM t WHERE x >= 95").unwrap() {
            StatementResult::Message(m) => assert_eq!(m, "deleted 5 row(s)"),
            other => panic!("unexpected {other:?}"),
        }
        let after = db.table("t").unwrap();
        assert_eq!(after.row_count(), 95);
        let kept = after
            .partitions()
            .iter()
            .filter(|p| before.iter().any(|q| Arc::ptr_eq(p, q)))
            .count();
        assert_eq!(kept, 9, "untouched partitions must be shared, not copied");

        match db.execute("UPDATE t SET x = x + 1000 WHERE x < 5").unwrap() {
            StatementResult::Message(m) => assert_eq!(m, "updated 5 row(s)"),
            other => panic!("unexpected {other:?}"),
        }
        let sum = db.query("SELECT sum(x) FROM t WHERE x >= 1000").unwrap();
        assert_eq!(sum.scalar(), Some(&Variant::Int(1000 + 1001 + 1002 + 1003 + 1004)));
        assert_eq!(db.table("t").unwrap().row_count(), 95);
    }

    #[test]
    fn delete_with_null_predicate_keeps_null_rows() {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            vec![vec![Variant::Int(1)], vec![Variant::Null], vec![Variant::Int(3)]],
            DEFAULT_PARTITION_ROWS,
        )
        .unwrap();
        // x > 2 is NULL on the NULL row: the row must survive.
        match db.execute("DELETE FROM t WHERE x > 2").unwrap() {
            StatementResult::Message(m) => assert_eq!(m, "deleted 1 row(s)"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(db.table("t").unwrap().row_count(), 2);
    }

    #[test]
    fn transactions_on_the_bare_database_point_at_sessions() {
        let db = db_with_nums();
        for sql in ["BEGIN", "COMMIT", "ROLLBACK"] {
            match db.execute(sql) {
                Err(SnowError::Catalog(m)) => assert!(m.contains("Session"), "{m}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
