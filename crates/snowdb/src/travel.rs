//! Time travel and history: resolving retained historical versions
//! (`AT`/`BEFORE`), `UNDROP`, zero-copy `CLONE`, and the retention window
//! that bounds all three.

use std::sync::Arc;

use crate::catalog::{CatalogSnapshot, WriteSet};
use crate::engine::Database;
use crate::error::{Result, SnowError};
use crate::govern::QueryGovernor;
use crate::sql::ast::Travel;
use crate::storage::Table;

impl Database {
    /// Sets the retention window (number of committed versions kept for time
    /// travel / `UNDROP` / clones, including the current one; clamped ≥ 1).
    /// For a persistent database the change is itself a commit — shrinking
    /// immediately evicts (and GCs) history beyond the new window.
    pub fn set_retention(&self, versions: u64) -> Result<u64> {
        let versions = versions.max(1);
        let _guard = self.catalog.lock_commits();
        if let Some(s) = self.store() {
            let current = self.catalog.snapshot();
            s.set_retention(versions)?;
            // The store committed a version of its own; publish the matching
            // (table-wise empty) catalog version to keep the two counters —
            // and their histories — in lockstep.
            let mut next = current.apply(current.version(), &WriteSet::default())?;
            next.set_pin(s.pin_current());
            self.catalog.set_capacity(versions);
            self.catalog.publish(Arc::new(next));
        } else {
            self.catalog.set_capacity(versions);
        }
        Ok(versions)
    }

    /// The configured retention window in versions.
    pub fn retention(&self) -> u64 {
        match self.store() {
            Some(s) => s.retention(),
            None => self.catalog.capacity(),
        }
    }

    /// Resolves a table as of a retained historical version, for `AT`/
    /// `BEFORE` clauses, `UNDROP`, and versioned clones. Resolution order:
    /// the base snapshot itself, then the store's manifest history (whose
    /// reconstructed partitions carry a GC [`crate::store::VersionPin`]),
    /// then the in-memory snapshot history (purely in-memory databases,
    /// where no GC exists). Evicted or unknown versions surface as typed
    /// errors, never a wrong answer.
    pub(crate) fn table_at_version(
        &self,
        name: &str,
        travel: &Travel,
        base: &CatalogSnapshot,
    ) -> Result<Arc<Table>> {
        let version = if travel.before {
            travel.version.checked_sub(1).ok_or_else(|| {
                SnowError::Plan("BEFORE(VERSION => 0) has no predecessor version".into())
            })?
        } else {
            travel.version
        };
        let upper = name.to_ascii_uppercase();
        if version > base.version() {
            return Err(SnowError::Catalog(format!(
                "version {version} has not been committed yet (current version: {})",
                base.version()
            )));
        }
        let missing = || {
            SnowError::Catalog(format!("table '{name}' did not exist at version {version}"))
        };
        if version == base.version() {
            return base.table(&upper).ok_or_else(missing);
        }
        if let Some(s) = self.store() {
            return match s.open_table_at(version, &upper)? {
                Some(t) => Ok(Arc::new(t)),
                None => Err(missing()),
            };
        }
        match self.catalog.at_version(version) {
            Some(snap) => snap.table(&upper).ok_or_else(missing),
            None => Err(SnowError::Storage(format!(
                "version {version} is outside the retention window \
                 (retention: {} versions)",
                self.catalog.capacity()
            ))),
        }
    }

    /// `UNDROP TABLE`: restores the table from the most recent retained
    /// version that still holds it, as a `CREATE`-style commit (conflicts if
    /// the name was concurrently re-created). Returns the version restored
    /// from; a table absent from every retained version is a typed catalog
    /// error.
    pub(crate) fn undrop_table(&self, name: &str, gov: &QueryGovernor) -> Result<u64> {
        self.create_as(name, " (drop it before UNDROP)", gov, |_| {
            let (table, version) = self.latest_retained(&name.to_ascii_uppercase())?;
            Ok((table.schema().to_vec(), table.partitions().to_vec(), version))
        })
    }

    /// The newest retained historical version holding `upper`, walking the
    /// manifest history when a store is attached (it survives restarts),
    /// else the in-memory snapshot history.
    fn latest_retained(&self, upper: &str) -> Result<(Arc<Table>, u64)> {
        if let Some(s) = self.store() {
            for v in s.retained_versions().into_iter().rev() {
                if let Some(t) = s.open_table_at(v, upper)? {
                    return Ok((Arc::new(t), v));
                }
            }
        } else {
            let current = self.catalog.snapshot().version();
            for v in (1..=current).rev() {
                let Some(snap) = self.catalog.at_version(v) else { break };
                if let Some(t) = snap.table(upper) {
                    return Ok((t, v));
                }
            }
        }
        Err(SnowError::Catalog(format!(
            "table '{upper}' is not present in any retained version \
             (retention: {} versions)",
            self.retention()
        )))
    }

    /// `CREATE TABLE ... CLONE src [AT/BEFORE(VERSION => n)]`: a zero-copy
    /// metadata operation. The clone shares the source's immutable partition
    /// `Arc`s — no partition bytes are read or written; on a persistent
    /// database the manifest simply references the same files from both
    /// tables, and copy-on-write DML diverges them from there.
    pub(crate) fn clone_table(
        &self,
        name: &str,
        source: &str,
        travel: Option<&Travel>,
        gov: &QueryGovernor,
    ) -> Result<()> {
        let src_upper = source.to_ascii_uppercase();
        self.create_as(name, "", gov, |base| {
            let src = match travel {
                Some(t) => self.table_at_version(&src_upper, t, base)?,
                None => base.table(&src_upper).ok_or_else(|| {
                    SnowError::Catalog(format!("table '{source}' does not exist"))
                })?,
            };
            Ok((src.schema().to_vec(), src.partitions().to_vec(), ()))
        })
    }
}

/// Statement name of the retention knob (`SET DATA_RETENTION_VERSIONS = n`),
/// intercepted ahead of the ordinary session parameters because it mutates
/// durable store state, not per-session limits.
pub(crate) const RETENTION_PARAM: &str = "DATA_RETENTION_VERSIONS";

/// The binder-facing catalog for one statement: plain table references
/// resolve on the pinned base snapshot; `AT`/`BEFORE` clauses reach through
/// the database into retained history ([`Database::table_at_version`]).
pub(crate) struct TravelCatalog<'a> {
    pub(crate) db: &'a Database,
    pub(crate) base: &'a CatalogSnapshot,
}

impl crate::plan::Catalog for TravelCatalog<'_> {
    fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.base.table(name)
    }

    fn table_at(&self, name: &str, travel: &Travel) -> Result<Arc<Table>> {
        self.db.table_at_version(name, travel, self.base)
    }
}
