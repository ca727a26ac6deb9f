//! Background compaction: merge small micro-partitions into full-size ones.
//!
//! Streaming micro-commit ingest ([`crate::Database::stream_ingest`]) leaves a
//! trail of small partitions — one per commit batch. The compactor folds them
//! back into `target_rows`-sized partitions (re-sorted on the clustering key
//! when one is configured) and publishes the merge as a single copy-on-write
//! [`TableWrite::Rewrite`] through the same optimistic commit path as DML.
//! The merge moves columns: the inputs' stored columns go into the builder
//! row index by row index
//! ([`TableBuilder::push_rows_from`](crate::storage::TableBuilder::push_rows_from)),
//! in arrival order or through a sort permutation on the clustering column;
//! no row is boxed.
//!
//! Compaction is strictly an *optimization*: it never changes query results,
//! and it deliberately does **not** retry lost commit races. Racing a writer
//! means the table just changed under the compactor's pinned snapshot; the
//! next pass re-plans against fresh state. Old partition files stay reachable
//! through manifest history until retention evicts them, so readers pinned on
//! pre-compaction versions keep scanning the originals.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::catalog::{TableWrite, WriteSet};
use crate::column::ColumnVec;
use crate::engine::Database;
use crate::error::{Result, SnowError};
use crate::govern::QueryGovernor;
use crate::variant::cmp_variants;

/// When and how to compact one table.
#[derive(Clone, Debug)]
pub struct CompactionPolicy {
    /// Partitions with fewer rows than this are merge candidates.
    pub small_rows: usize,
    /// Row capacity of rebuilt partitions.
    pub target_rows: usize,
    /// Minimum number of candidate partitions before a pass rewrites anything
    /// (merging one partition with itself is pure churn).
    pub min_inputs: usize,
    /// Column to re-sort merged rows on, restoring clustering (and partition
    /// pruning) that interleaved micro-commits destroyed. `None` keeps
    /// arrival order.
    pub cluster_by: Option<String>,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            small_rows: crate::storage::DEFAULT_PARTITION_ROWS / 2,
            target_rows: crate::storage::DEFAULT_PARTITION_ROWS,
            min_inputs: 2,
            cluster_by: None,
        }
    }
}

/// What one successful compaction pass did.
#[derive(Clone, Copy, Debug)]
pub struct CompactionReport {
    /// Small partitions merged away.
    pub inputs: usize,
    /// Rows carried through the merge.
    pub rows: usize,
    /// Full-size partitions written in their place.
    pub outputs: usize,
}

/// Runs one compaction pass over `table`: pins a snapshot, merges every
/// partition smaller than the policy threshold, and commits the rewrite
/// against the pinned version. Returns `Ok(None)` when there is nothing
/// worth doing (missing table, too few candidates).
///
/// There is deliberately **no retry**: a [`SnowError::WriteConflict`] means a
/// writer won the race and the caller should simply try again later against
/// fresh state. The partitions prepared for the lost commit become debris and
/// are swept on the next write-open.
pub fn compact_table_once(
    db: &Database,
    table: &str,
    policy: &CompactionPolicy,
) -> Result<Option<CompactionReport>> {
    let upper = table.to_ascii_uppercase();
    let base = db.snapshot();
    let t = match base.table(&upper) {
        Some(t) => t,
        None => return Ok(None),
    };
    let removed: Vec<_> = t
        .partitions()
        .iter()
        .filter(|p| {
            let rows = p.row_count();
            rows > 0 && rows < policy.small_rows
        })
        .cloned()
        .collect();
    if removed.len() < policy.min_inputs.max(1) {
        return Ok(None);
    }
    let schema = t.schema().to_vec();
    let cluster_idx = policy
        .cluster_by
        .as_ref()
        .map(|c| {
            t.column_index(c).ok_or_else(|| {
                SnowError::Plan(format!("unknown clustering column '{c}' on table '{table}'"))
            })
        })
        .transpose()?;

    // Read the candidates through the governed column readers so the
    // session's memory/byte budgets (and fault schedules) apply to compaction
    // exactly as they do to DML rewrites.
    let gov = Arc::new(QueryGovernor::from_params(&db.session_params()));
    let mut parts = Vec::with_capacity(removed.len());
    for part in &removed {
        gov.checkpoint("Compact")?;
        let cols = (0..schema.len())
            .map(|i| Ok(part.read_column_governed(i, &gov, "Compact")?.data))
            .collect::<Result<Vec<_>>>()?;
        parts.push(cols);
    }
    // Merge order: arrival order, or — stably, NULLs where `cmp_variants`
    // puts them — the order of the clustering column, the one whose values
    // are boxed (to be compared).
    let mut order: Vec<(usize, usize)> = (0..removed.len())
        .flat_map(|p| (0..removed[p].row_count()).map(move |r| (p, r)))
        .collect();
    if let Some(idx) = cluster_idx {
        let key = |&(p, r): &(usize, usize)| parts[p][idx].get(r);
        order.sort_by(|a, b| cmp_variants(&key(a), &key(b)));
    }
    let added = db.build_partitions(&upper, &schema, policy.target_rows.max(1), &gov, |b| {
        order.chunk_by(|a, b| a.0 == b.0).try_for_each(|run| {
            let cols: Vec<&ColumnVec> = parts[run[0].0].iter().map(|c| &**c).collect();
            b.push_rows_from(&cols, run.iter().map(|&(_, r)| r))
        })
    })?;
    let report =
        CompactionReport { inputs: removed.len(), rows: order.len(), outputs: added.len() };
    db.commit_writes(base.version(), WriteSet::single(&upper, TableWrite::Rewrite {
        removed,
        added,
    }))?;
    Ok(Some(report))
}

/// Counters published by a background [`Compactor`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactorStats {
    /// Passes attempted (including no-op passes).
    pub passes: u64,
    /// Passes that committed a rewrite.
    pub compactions: u64,
    /// Passes that lost the commit race to a concurrent writer.
    pub conflicts_lost: u64,
    /// Passes that failed for any other reason (budget trip, I/O error).
    pub errors: u64,
}

#[derive(Default)]
struct StatsCell {
    passes: AtomicU64,
    compactions: AtomicU64,
    conflicts_lost: AtomicU64,
    errors: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> CompactorStats {
        CompactorStats {
            passes: self.passes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            conflicts_lost: self.conflicts_lost.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// A background thread running [`compact_table_once`] on an interval until
/// stopped. Lost races and governed trips are counted, never fatal: the
/// compactor's failure mode is "try again next pass".
pub struct Compactor {
    stop: Arc<AtomicBool>,
    stats: Arc<StatsCell>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawns the compaction loop. `interval` is the pause between passes;
    /// stopping cuts the pause short.
    pub fn spawn(
        db: Arc<Database>,
        table: &str,
        policy: CompactionPolicy,
        interval: Duration,
    ) -> Compactor {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCell::default());
        let (s, st, table) = (stop.clone(), stats.clone(), table.to_string());
        let join = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                st.passes.fetch_add(1, Ordering::Relaxed);
                match compact_table_once(&db, &table, &policy) {
                    Ok(Some(_)) => {
                        st.compactions.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(None) => {}
                    Err(SnowError::WriteConflict(_)) => {
                        st.conflicts_lost.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        st.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Sleep in short slices so stop() returns promptly.
                let mut left = interval;
                while !left.is_zero() && !s.load(Ordering::Relaxed) {
                    let step = left.min(Duration::from_millis(10));
                    std::thread::sleep(step);
                    left = left.saturating_sub(step);
                }
            }
        });
        Compactor { stop, stats, join: Some(join) }
    }

    /// Counters so far (live; the loop may still be running).
    pub fn stats(&self) -> CompactorStats {
        self.stats.snapshot()
    }

    /// Signals the loop to exit and joins it, returning the final counters.
    pub fn stop(mut self) -> CompactorStats {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnDef, ColumnType};
    use crate::variant::Variant;

    fn db_with_small_parts(parts: usize, rows_per: usize) -> Database {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..(parts * rows_per) as i64).map(|i| vec![Variant::Int(i)]),
            rows_per,
        )
        .unwrap();
        db
    }

    #[test]
    fn merges_small_partitions_and_preserves_results() {
        let db = db_with_small_parts(8, 5);
        assert_eq!(db.table("t").unwrap().partitions().len(), 8);
        let before = db.query("SELECT x FROM t ORDER BY x").unwrap().rows;
        let policy = CompactionPolicy {
            small_rows: 10,
            target_rows: 100,
            min_inputs: 2,
            cluster_by: Some("X".into()),
        };
        let report = compact_table_once(&db, "t", &policy).unwrap().unwrap();
        assert_eq!(report.inputs, 8);
        assert_eq!(report.rows, 40);
        assert_eq!(report.outputs, 1);
        let t = db.table("t").unwrap();
        assert_eq!(t.partitions().len(), 1);
        assert_eq!(db.query("SELECT x FROM t ORDER BY x").unwrap().rows, before);
    }

    #[test]
    fn no_op_below_min_inputs_and_on_missing_table() {
        let db = db_with_small_parts(1, 5);
        let policy = CompactionPolicy { small_rows: 10, min_inputs: 2, ..Default::default() };
        assert!(compact_table_once(&db, "t", &policy).unwrap().is_none());
        assert!(compact_table_once(&db, "missing", &policy).unwrap().is_none());
        // Full-size partitions are never candidates.
        let db = db_with_small_parts(4, 50);
        let policy = CompactionPolicy { small_rows: 10, ..Default::default() };
        assert!(compact_table_once(&db, "t", &policy).unwrap().is_none());
    }

    #[test]
    fn unknown_cluster_column_is_a_plan_error() {
        let db = db_with_small_parts(4, 5);
        let policy = CompactionPolicy {
            small_rows: 10,
            cluster_by: Some("NOPE".into()),
            ..Default::default()
        };
        match compact_table_once(&db, "t", &policy) {
            Err(SnowError::Plan(m)) => assert!(m.contains("NOPE"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
