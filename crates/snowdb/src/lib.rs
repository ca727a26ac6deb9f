//! `snowdb` — an embedded, Snowflake-like analytical SQL engine.
//!
//! This crate is the substrate that stands in for the Snowflake Database in the
//! reproduction of *"Addressing the Nested Data Processing Gap: JSONiq Queries on
//! Snowflake Through Snowpark"* (ICDE 2024). It provides the properties the paper's
//! evaluation depends on:
//!
//! - a [`variant::Variant`] data type for schema-less nested data, with a first-party
//!   JSON parser/serializer;
//! - micro-partitioned, columnar [`storage`] with one metadata record per partition
//!   column, partition pruning from its statistics, and scanned-bytes accounting;
//! - a persistent micro-partition [`store`]: immutable columnar partition files,
//!   a versioned catalog with atomic commit, lazy column-granular reads, and a
//!   shared buffer cache — so `bytes_scanned` is actual file I/O and databases
//!   survive process restarts ([`Database::open`] / `Database::persist_to`);
//! - a [`sql`] dialect covering `SELECT`/`FROM` (with joins and `LATERAL FLATTEN`),
//!   `WHERE`, `GROUP BY`/`HAVING`, `ORDER BY`, `LIMIT`, `UNION ALL`, `CASE`, casts,
//!   variant path access (`col:field.sub[0]`), and the aggregate/scalar function set
//!   the paper's translation layer requires (`ARRAY_AGG`, `ANY_VALUE`, `BOOLAND_AGG`,
//!   `OBJECT_CONSTRUCT`, `SEQ8`, ...);
//! - a rule-based [`optimize`] layer (constant folding, predicate pushdown, dead-column
//!   elimination) so that a single translated SQL query is optimized end-to-end, which is
//!   the paper's core argument for avoiding UDFs and interpretation overhead;
//! - an [`engine::Database`] entry point that reports a per-query
//!   [`engine::QueryProfile`] with separate compilation and execution phases plus
//!   bytes scanned — the three quantities measured in the paper's §V;
//! - an MVCC [`catalog`]: every statement pins an immutable
//!   [`catalog::CatalogSnapshot`], writers commit through an optimistic
//!   compare-and-swap (losers surface as typed [`SnowError::WriteConflict`]s),
//!   and [`session::Session`]s layer explicit `BEGIN`/`COMMIT`/`ROLLBACK`
//!   transactions with snapshot isolation on top.
#![deny(unsafe_code)]

pub mod catalog;
pub mod column;
mod dml;
pub mod engine;
pub mod error;
pub mod exec;
pub mod govern;
pub mod optimize;
pub mod plan;
mod plan_cache;
pub mod server;
pub mod session;
pub mod sql;
pub mod storage;
pub mod store;
mod travel;
pub mod variant;
pub mod verify;

pub use catalog::CatalogSnapshot;
pub use engine::{Database, QueryOptions, QueryProfile, QueryResult, StatementResult};
pub use session::Session;
pub use exec::metrics::OpMetrics;
pub use error::{
    AdmissionTrip, DeadlineTrip, InternalTrip, ResourceTrip, Result, SnowError,
    WriteConflictTrip,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use govern::{
    GovernorSummary, QueryFailure, QueryGovernor, QueryHandle, QueryOutcome, SessionParams,
};
pub use variant::Variant;
