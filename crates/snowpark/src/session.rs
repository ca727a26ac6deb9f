//! [`Session`]: the connection between dataframes and an engine.

use std::sync::Arc;

use snowdb::sql::Statement;
use snowdb::{Database, QueryResult};

use crate::dataframe::DataFrame;

/// A handle to a `snowdb` session through which dataframes execute.
///
/// In the real Snowpark a session wraps a network connection to the Snowflake
/// service; here it wraps a shared [`snowdb::Session`] on the embedded
/// engine. Cloning is cheap and all clones are the same session: one
/// parameter store, one catalog.
#[derive(Clone)]
pub struct Session {
    inner: Arc<snowdb::Session>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session over a database.
    pub fn new(db: Arc<Database>) -> Session {
        Session { inner: Arc::new(snowdb::Session::new(db)) }
    }

    /// Connects to a persistent on-disk database (opening or initializing the
    /// directory) — the embedded analogue of Snowpark's
    /// `Session.builder.configs(...).create()` connecting to a warehouse.
    /// Committed tables are available immediately; their data is read lazily,
    /// per column block, through the store's shared buffer cache.
    pub fn open(dir: impl AsRef<std::path::Path>) -> snowdb::Result<Session> {
        Ok(Session::new(Arc::new(Database::open(dir)?)))
    }

    /// The underlying engine handle.
    pub fn database(&self) -> &Database {
        self.inner.database()
    }

    /// Ships one SQL query to the engine under this session's parameters.
    pub(crate) fn query(&self, sql: &str) -> snowdb::Result<QueryResult> {
        self.inner.query(sql)
    }

    /// The engine's schema generation counter; bumps whenever a table is
    /// loaded, re-ingested, or dropped. Translation caches key on it so SQL
    /// bound to an old schema is never served after the schema changes.
    pub fn schema_generation(&self) -> u64 {
        self.database().schema_generation()
    }

    /// A dataframe scanning a whole table, like Snowpark's `session.table(...)`:
    /// the open `SELECT * FROM "NAME"` the next call merges into. Used as a
    /// relation, it is the table name itself.
    pub fn table(&self, name: &str) -> DataFrame {
        DataFrame::table(self.clone(), name.to_ascii_uppercase())
    }

    /// A dataframe over a raw SQL query. The text is opaque to the dataframe:
    /// every call on it wraps it as a subquery.
    pub fn sql(&self, sql: &str) -> DataFrame {
        DataFrame::text(self.clone(), sql)
    }

    /// Sets a session parameter, mirroring Snowpark's
    /// `session.sql("ALTER SESSION SET ...")` / connection parameter surface.
    /// Recognized: `STATEMENT_TIMEOUT_IN_SECONDS`, `STATEMENT_MEMORY_LIMIT`,
    /// `MAX_BYTES_SCANNED`; a value of `0` clears the limit. Every statement
    /// this session's dataframes execute afterwards runs under the resulting
    /// governor; other sessions on the same database are unaffected.
    pub fn set_parameter(&self, name: &str, value: u64) -> snowdb::Result<()> {
        self.inner.execute_statement(Statement::Set { name: name.to_string(), value }).map(|_| ())
    }

    /// Clears a session parameter previously set with
    /// [`Session::set_parameter`].
    pub fn unset_parameter(&self, name: &str) -> snowdb::Result<()> {
        self.inner.execute_statement(Statement::Unset { name: name.to_string() }).map(|_| ())
    }

    /// Launches `sql` on a worker thread under the session's parameters and
    /// returns a [`snowdb::QueryHandle`] that can be cancelled or joined —
    /// the embedded analogue of Snowpark's async job handle.
    pub fn execute_async(&self, sql: &str) -> snowdb::QueryHandle {
        self.inner.submit(sql)
    }
}
