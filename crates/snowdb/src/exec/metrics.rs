//! Per-operator execution metrics.
//!
//! Every physical operator owns an [`OpMetricsCell`]: a set of atomic counters
//! that workers update concurrently while the morsel-parallel executor runs.
//! After execution the cells are snapshotted into an [`OpMetrics`] tree that
//! mirrors the plan shape; [`crate::engine::QueryProfile`] carries it and
//! `EXPLAIN ANALYZE` renders it.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Concurrent metric counters for one physical operator.
#[derive(Debug, Default)]
pub struct OpMetricsCell {
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    batches_out: AtomicU64,
    /// Cumulative time spent inside the operator, summed across workers.
    busy_nanos: AtomicU64,
    /// Peak number of intermediate rows held at once (max over batches for
    /// streaming operators, total output for materializing ones).
    peak_rows: AtomicU64,
    /// Peak estimated intermediate bytes (see
    /// [`Chunk::approx_bytes`](crate::exec::Chunk::approx_bytes)): max over
    /// batches for streaming operators, total materialization for breakers.
    peak_mem_bytes: AtomicU64,
    /// Rows processed through typed vectorized kernels.
    rows_vectorized: AtomicU64,
    /// Rows that fell back to the row-at-a-time Variant path.
    rows_fallback: AtomicU64,
    /// Rows evaluated directly on dictionary codes (no string materialization).
    rows_on_codes: AtomicU64,
    /// Rows whose encoded columns were materialized before evaluation.
    rows_materialized: AtomicU64,
    /// On an aggregate, rows folded into typed states and into
    /// accumulators (see [`OpMetrics::rows_folded_typed`]).
    rows_folded_typed: AtomicU64,
    rows_folded_boxed: AtomicU64,
    /// The pipeline the operator ran in (see [`OpMetrics::pipeline`]).
    pipeline: AtomicU32,
    /// On the operator a pipeline ends at, that pipeline's run (see
    /// [`PipelineRun`]); `pipe_workers` is 0 everywhere else.
    pipe_wall_nanos: AtomicU64,
    pipe_joined: AtomicU64,
    pipe_morsels: AtomicU64,
    pipe_workers: AtomicU64,
    /// On a join, what its build made (see [`OpMetrics::join_build`]).
    join_build: Mutex<Option<JoinBuild>>,
    /// On a grouping aggregate, how it found its groups: 0 unset, then
    /// [`Grouping::Runs`] or [`Grouping::Hashed`] as 1 or 2.
    grouping: AtomicU8,
}

impl OpMetricsCell {
    /// Records one produced batch with its consumed/produced row counts.
    pub fn record_batch(&self, rows_in: u64, rows_out: u64, busy: Duration) {
        self.rows_in.fetch_add(rows_in, Ordering::Relaxed);
        self.rows_out.fetch_add(rows_out, Ordering::Relaxed);
        self.batches_out.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        self.peak(rows_out);
    }

    /// Records consumed rows without producing a batch (pipeline breakers
    /// account input and output separately).
    pub fn add_rows_in(&self, rows: u64) {
        self.rows_in.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records produced batches without consuming input (sources).
    pub fn add_output(&self, rows: u64, batches: u64) {
        self.rows_out.fetch_add(rows, Ordering::Relaxed);
        self.batches_out.fetch_add(batches, Ordering::Relaxed);
        self.peak(rows);
    }

    /// Adds operator-busy wall time (summed across workers).
    pub fn add_busy(&self, busy: Duration) {
        self.busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Raises the peak-intermediate-rows watermark.
    pub fn peak(&self, rows: u64) {
        self.peak_rows.fetch_max(rows, Ordering::Relaxed);
    }

    /// Raises the peak-intermediate-bytes watermark.
    pub fn add_mem(&self, bytes: u64) {
        self.peak_mem_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Counts rows processed through typed vectorized kernels.
    pub fn add_vectorized(&self, rows: u64) {
        self.rows_vectorized.fetch_add(rows, Ordering::Relaxed);
    }

    /// Counts rows that fell back to the row-at-a-time Variant path.
    pub fn add_fallback(&self, rows: u64) {
        self.rows_fallback.fetch_add(rows, Ordering::Relaxed);
    }

    /// Counts rows evaluated directly on dictionary codes.
    pub fn add_on_codes(&self, rows: u64) {
        self.rows_on_codes.fetch_add(rows, Ordering::Relaxed);
    }

    /// Counts rows whose encoded columns had to be materialized first.
    pub fn add_materialized(&self, rows: u64) {
        self.rows_materialized.fetch_add(rows, Ordering::Relaxed);
    }

    /// Counts an aggregate's rows folded, summed over its aggregates, into
    /// typed states and into accumulators.
    pub fn add_folded(&self, typed: u64, boxed: u64) {
        self.rows_folded_typed.fetch_add(typed, Ordering::Relaxed);
        self.rows_folded_boxed.fetch_add(boxed, Ordering::Relaxed);
    }

    /// Tags the operator with the pipeline it ran in.
    pub fn set_pipeline(&self, id: u32) {
        self.pipeline.store(id, Ordering::Relaxed);
    }

    /// Records, on the operator pipeline `id` ends at, how the pipeline ran.
    pub fn record_pipeline(&self, id: u32, run: PipelineRun) {
        self.set_pipeline(id);
        self.pipe_wall_nanos.store(run.wall.as_nanos() as u64, Ordering::Relaxed);
        self.pipe_joined.store(run.joined as u64, Ordering::Relaxed);
        self.pipe_morsels.store(run.morsels, Ordering::Relaxed);
        self.pipe_workers.store(run.workers as u64, Ordering::Relaxed);
    }

    /// Extends the recorded pipeline's wall time by what the operator did
    /// after the last morsel: an aggregate merging and emitting its groups.
    pub fn add_pipeline_wall(&self, more: Duration) {
        self.pipe_wall_nanos.fetch_add(more.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records the table a join built. The slot only ever holds a whole
    /// value, so a guard a panicking writer poisoned is still sound.
    pub fn set_join_build(&self, build: JoinBuild) {
        *self.join_build.lock().unwrap_or_else(|e| e.into_inner()) = Some(build);
    }

    /// Records how a grouping aggregate found its groups.
    pub fn set_grouping(&self, grouping: Grouping) {
        let code = match grouping {
            Grouping::Runs => 1,
            Grouping::Hashed => 2,
        };
        self.grouping.store(code, Ordering::Relaxed);
    }

    /// Immutable snapshot (taken after execution completes).
    pub fn snapshot(
        &self,
        name: String,
        parallelism: usize,
        children: Vec<OpMetrics>,
    ) -> OpMetrics {
        OpMetrics {
            name,
            rows_in: self.rows_in.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            batches: self.batches_out.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
            peak_rows: self.peak_rows.load(Ordering::Relaxed),
            peak_mem_bytes: self.peak_mem_bytes.load(Ordering::Relaxed),
            rows_vectorized: self.rows_vectorized.load(Ordering::Relaxed),
            rows_fallback: self.rows_fallback.load(Ordering::Relaxed),
            rows_on_codes: self.rows_on_codes.load(Ordering::Relaxed),
            rows_materialized: self.rows_materialized.load(Ordering::Relaxed),
            rows_folded_typed: self.rows_folded_typed.load(Ordering::Relaxed),
            rows_folded_boxed: self.rows_folded_boxed.load(Ordering::Relaxed),
            expr_dag_nodes: 0,
            expr_tree_nodes: 0,
            parallelism,
            pipeline: self.pipeline.load(Ordering::Relaxed),
            pipeline_run: match self.pipe_workers.load(Ordering::Relaxed) {
                0 => None,
                workers => Some(PipelineRun {
                    wall: Duration::from_nanos(self.pipe_wall_nanos.load(Ordering::Relaxed)),
                    joined: self.pipe_joined.load(Ordering::Relaxed) as usize,
                    morsels: self.pipe_morsels.load(Ordering::Relaxed),
                    workers: workers as usize,
                }),
            },
            join_build: *self.join_build.lock().unwrap_or_else(|e| e.into_inner()),
            grouping: match self.grouping.load(Ordering::Relaxed) {
                1 => Some(Grouping::Runs),
                2 => Some(Grouping::Hashed),
                _ => None,
            },
            children,
        }
    }
}

/// What a join's build made: its right input's row count and how the key
/// table indexes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinBuild {
    pub rows: u64,
    /// `None` for a join without an equi-key, which has no key table.
    pub index: Option<TableIndex>,
}

/// How a join's key table finds a probe row's matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableIndex {
    /// One `Int` key whose non-NULL values lie in `lo..=hi`, indexed by
    /// value.
    Dense { lo: i64, hi: i64 },
    /// Hashed keys.
    Hashed,
}

/// How a grouping aggregate found the group of each row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grouping {
    /// Its one `Int` key arrived in ascending runs: a group closed when the
    /// key changed, and no key was hashed.
    Runs,
    /// Its keys were looked up in a key table.
    Hashed,
}

/// How one pipeline ran: the operators between two materialized batch lists
/// run without a barrier of their own, so their busy times (summed across
/// workers) are read against this one wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineRun {
    /// Wall time from the first morsel claimed to the last result merged.
    pub wall: Duration,
    /// Pool helpers that claimed at least one morsel besides the calling
    /// thread: at most `workers - 1`, and 0 when the caller did it all.
    pub joined: usize,
    /// Source morsels (scan partitions or input batches) the pipeline took.
    pub morsels: u64,
    /// Workers the morsels were planned to spread over.
    pub workers: usize,
}

/// One node of the per-operator metrics tree reported in
/// [`crate::engine::QueryProfile`].
#[derive(Clone, Debug, Default)]
pub struct OpMetrics {
    /// Operator label, e.g. `Scan HEP` or `Aggregate`.
    pub name: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub batches: u64,
    /// Time spent inside the operator, summed across workers (can exceed the
    /// query's wall time under parallelism).
    pub busy: Duration,
    pub peak_rows: u64,
    /// Peak estimated intermediate bytes held by the operator at once.
    pub peak_mem_bytes: u64,
    /// Rows this operator processed through typed vectorized kernels.
    pub rows_vectorized: u64,
    /// Rows this operator processed on the row-at-a-time Variant path after a
    /// kernel declined (mixed types, fallible shapes, volatile expressions).
    pub rows_fallback: u64,
    /// Rows this operator evaluated directly on dictionary codes without
    /// materializing strings.
    pub rows_on_codes: u64,
    /// Rows whose encoded (dict/RLE) columns were materialized before
    /// evaluation because no code-level kernel applied.
    pub rows_materialized: u64,
    /// On an aggregate, the rows its aggregates folded — a row counted once
    /// per aggregate — into typed states, a column at a time, and into
    /// accumulators, row by row (DESIGN.md, "Grouped aggregation").
    /// Rendered as `fold=T/B`.
    pub rows_folded_typed: u64,
    pub rows_folded_boxed: u64,
    /// Nodes of the operator's compiled expression DAG — what a batch
    /// evaluates — and of the expression trees it was compiled from — what
    /// the row evaluator visits per row. Both 0 for operators without
    /// expressions.
    pub expr_dag_nodes: u64,
    pub expr_tree_nodes: u64,
    /// Worker count the operator ran with.
    pub parallelism: usize,
    /// The pipeline the operator ran in, numbered from 1 in the order the
    /// pipelines of the query ran; 0 for an operator that did no work of its
    /// own (it did not run, or it read a shared result).
    pub pipeline: u32,
    /// On the operator a pipeline ends at — its topmost stage, the aggregate
    /// it folds into, or a breaker's own phase — how that pipeline ran.
    pub pipeline_run: Option<PipelineRun>,
    /// On a join, the table its build made; `None` elsewhere.
    pub join_build: Option<JoinBuild>,
    /// On an aggregate or distinct with group keys, how it grouped; `None`
    /// elsewhere.
    pub grouping: Option<Grouping>,
    pub children: Vec<OpMetrics>,
}

impl OpMetrics {
    /// Total operators in the tree.
    pub fn op_count(&self) -> usize {
        1 + self.children.iter().map(OpMetrics::op_count).sum::<usize>()
    }

    /// Every operator of the tree with its depth, in plan (pre-)order.
    pub fn operators(&self) -> Vec<(usize, &OpMetrics)> {
        fn walk<'m>(m: &'m OpMetrics, depth: usize, out: &mut Vec<(usize, &'m OpMetrics)>) {
            out.push((depth, m));
            m.children.iter().for_each(|c| walk(c, depth + 1, out));
        }
        let mut out = Vec::with_capacity(self.op_count());
        walk(self, 0, &mut out);
        out
    }

    /// Every pipeline run recorded in the tree with the operator it ends at,
    /// in the order the pipelines ran.
    pub fn pipelines(&self) -> Vec<(u32, &str, PipelineRun)> {
        let mut out: Vec<_> = self
            .operators()
            .into_iter()
            .filter_map(|(_, m)| Some((m.pipeline, m.name.as_str(), m.pipeline_run?)))
            .collect();
        out.sort_by_key(|(id, ..)| *id);
        out
    }

    /// The annotation `EXPLAIN ANALYZE` appends to a plan line.
    pub fn annotation(&self) -> String {
        format!(
            "rows={} batches={} time={:.3?} peak={} mem={}{}{}{}{}{}{}{}{}",
            self.rows_out,
            self.batches,
            self.busy,
            self.peak_rows,
            self.peak_mem_bytes,
            if self.rows_vectorized + self.rows_fallback > 0 {
                format!(" vec={}/{}", self.rows_vectorized, self.rows_fallback)
            } else {
                String::new()
            },
            if self.expr_tree_nodes > 0 {
                format!(" expr={}/{}", self.expr_dag_nodes, self.expr_tree_nodes)
            } else {
                String::new()
            },
            if self.rows_on_codes + self.rows_materialized > 0 {
                format!(" enc={}/{}", self.rows_on_codes, self.rows_materialized)
            } else {
                String::new()
            },
            if self.rows_folded_typed + self.rows_folded_boxed > 0 {
                format!(" fold={}/{}", self.rows_folded_typed, self.rows_folded_boxed)
            } else {
                String::new()
            },
            if self.parallelism > 1 {
                format!(" workers={}", self.parallelism)
            } else {
                String::new()
            },
            match self.join_build {
                Some(JoinBuild { rows, index: Some(TableIndex::Dense { lo, hi }) }) => {
                    format!(" table=dense[{lo}..{hi}] build={rows}")
                }
                Some(JoinBuild { rows, index: Some(TableIndex::Hashed) }) => {
                    format!(" table=hash build={rows}")
                }
                Some(JoinBuild { rows, index: None }) => format!(" build={rows}"),
                None => String::new(),
            },
            match self.grouping {
                Some(Grouping::Runs) => " groups=runs",
                Some(Grouping::Hashed) => " groups=hashed",
                None => "",
            },
            if self.pipeline > 0 {
                format!(" pipe={}", self.pipeline)
            } else {
                String::new()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let cell = OpMetricsCell::default();
        cell.record_batch(100, 40, Duration::from_micros(5));
        cell.record_batch(50, 60, Duration::from_micros(3));
        cell.add_vectorized(90);
        cell.add_fallback(10);
        cell.add_on_codes(70);
        cell.add_materialized(30);
        cell.add_folded(120, 5);
        let m = cell.snapshot("Filter".into(), 4, Vec::new());
        assert_eq!(m.rows_in, 150);
        assert_eq!(m.rows_out, 100);
        assert_eq!(m.batches, 2);
        assert_eq!(m.peak_rows, 60);
        assert_eq!(m.busy, Duration::from_micros(8));
        assert_eq!(m.parallelism, 4);
        assert_eq!(m.rows_vectorized, 90);
        assert_eq!(m.rows_fallback, 10);
        assert_eq!(m.rows_on_codes, 70);
        assert_eq!(m.rows_materialized, 30);
        assert!(m.annotation().contains("workers=4"));
        assert!(m.annotation().contains("vec=90/10"));
        assert!(m.annotation().contains("enc=70/30"));
        assert!(m.annotation().contains("enc=70/30 fold=120/5 workers=4"));
        assert!(!m.annotation().contains("pipe="), "no pipeline ran it");
        assert!(!m.annotation().contains("table="), "no join built it");
    }

    #[test]
    fn a_join_line_names_its_table_before_its_pipeline() {
        let cell = OpMetricsCell::default();
        cell.set_pipeline(3);
        let dense = Some(TableIndex::Dense { lo: 1, hi: 512 });
        cell.set_join_build(JoinBuild { rows: 512, index: dense });
        let m = cell.snapshot("InnerJoin".into(), 1, Vec::new());
        let line = m.annotation();
        assert!(line.ends_with(" table=dense[1..512] build=512 pipe=3"), "{line}");
        cell.set_join_build(JoinBuild { rows: 7, index: Some(TableIndex::Hashed) });
        let m = cell.snapshot("InnerJoin".into(), 1, Vec::new());
        assert!(m.annotation().ends_with(" table=hash build=7 pipe=3"), "{}", m.annotation());
    }

    #[test]
    fn an_aggregate_line_says_how_it_grouped() {
        let cell = OpMetricsCell::default();
        cell.set_pipeline(2);
        let m = cell.snapshot("Aggregate".into(), 1, Vec::new());
        assert!(!m.annotation().contains("groups="), "{}", m.annotation());
        cell.set_grouping(Grouping::Runs);
        let m = cell.snapshot("Aggregate".into(), 1, Vec::new());
        assert_eq!(m.grouping, Some(Grouping::Runs));
        assert!(
            m.annotation().ends_with(" groups=runs pipe=2"),
            "{}",
            m.annotation()
        );
        cell.set_grouping(Grouping::Hashed);
        let m = cell.snapshot("Aggregate".into(), 1, Vec::new());
        assert!(
            m.annotation().ends_with(" groups=hashed pipe=2"),
            "{}",
            m.annotation()
        );
    }

    #[test]
    fn pipeline_runs_are_listed_in_run_order() {
        let run = |ms| PipelineRun { wall: Duration::from_millis(ms), joined: 1, morsels: 8, workers: 2 };
        let scan = OpMetricsCell::default();
        scan.set_pipeline(1);
        let filter = OpMetricsCell::default();
        filter.record_pipeline(1, run(3));
        let agg = OpMetricsCell::default();
        agg.record_pipeline(2, run(5));
        let scan = scan.snapshot("Scan T".into(), 2, Vec::new());
        assert_eq!((scan.pipeline, scan.pipeline_run), (1, None));
        let filter = filter.snapshot("Filter".into(), 2, vec![scan]);
        let tree = agg.snapshot("Aggregate".into(), 2, vec![filter]);
        assert!(tree.annotation().ends_with(" pipe=2"), "{}", tree.annotation());
        assert_eq!(tree.pipelines(), [(1, "Filter", run(3)), (2, "Aggregate", run(5))]);
    }

    #[test]
    fn annotation_omits_vec_counts_when_unused() {
        let cell = OpMetricsCell::default();
        cell.record_batch(10, 10, Duration::from_micros(1));
        let m = cell.snapshot("Scan".into(), 1, Vec::new());
        assert!(!m.annotation().contains("vec="));
        assert!(!m.annotation().contains("enc="));
        assert!(!m.annotation().contains("fold="));
    }
}
