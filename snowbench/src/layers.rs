//! Per-layer metrics from the staged passes: each stage's time is summed
//! over the workload's JSONiq statements, taking for every statement the
//! typical value over the passes (`stats::typical`, as for the end-to-end
//! latencies); counts come from a statement's first pass.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use snowdb::store::CacheStats;
use snowdb::Database;

use crate::staged::{self, Counts, Staged, FRONT_END_STAGES, OP_KINDS, STAGE_METRICS};
use crate::stats::{ratio, typical};
use crate::trace::Tracer;
use crate::workload::{dir_bytes, table_jsonl, Checker, Metrics, Statement};

const BUSY_METRICS: [&str; 7] = [
    "snowdb.exec.scan_busy_us",
    "snowdb.exec.filter_busy_us",
    "snowdb.exec.project_busy_us",
    "snowdb.exec.flatten_busy_us",
    "snowdb.exec.agg_busy_us",
    "snowdb.exec.join_busy_us",
    "snowdb.exec.sort_busy_us",
];

pub struct LayerAgg {
    stage_ns: Vec<Vec<[u64; 11]>>,
    busy_ns: Vec<Vec<[u64; 7]>>,
    counts: Vec<Option<Counts>>,
    /// Whole staged statement, text in to rows out, in milliseconds.
    pub total_ms: Vec<Vec<f64>>,
}

impl LayerAgg {
    pub fn new(statements: usize) -> LayerAgg {
        LayerAgg {
            stage_ns: vec![Vec::new(); statements],
            busy_ns: vec![Vec::new(); statements],
            counts: vec![None; statements],
            total_ms: vec![Vec::new(); statements],
        }
    }

    /// Runs statement `idx` through the staged path, keeps its stage times
    /// and counts, and checks its rows like any other execution.
    pub fn run_staged(
        &mut self,
        tracer: &mut Tracer,
        db: &Arc<Database>,
        chk: &mut Checker,
        idx: usize,
        st: &Statement,
    ) {
        let t = Instant::now();
        let res = staged::run(tracer, db, &st.id, &st.text, st.strategy);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok(s) = &res {
            self.add(idx, s, ms);
        }
        chk.check(idx, st, res.map(|s| s.rows));
    }

    fn add(&mut self, idx: usize, staged: &Staged, total_ms: f64) {
        self.stage_ns[idx].push(staged.stage_ns);
        self.busy_ns[idx].push(staged.counts.busy_ns);
        self.counts[idx].get_or_insert_with(|| staged.counts.clone());
        self.total_ms[idx].push(total_ms);
    }

    /// Sum over the JSONiq statements of the per-statement typical `pick`.
    fn sum_of_typicals<const N: usize>(
        statements: &[Statement],
        samples: &[Vec<[u64; N]>],
        pick: usize,
    ) -> f64 {
        statements
            .iter()
            .zip(samples)
            .filter(|(st, _)| st.is_jsoniq())
            .map(|(_, passes)| typical(&passes.iter().map(|p| p[pick] as f64).collect::<Vec<_>>()))
            .sum()
    }

    pub fn metrics(&self, statements: &[Statement], out: &mut Metrics) {
        debug_assert_eq!(OP_KINDS.len(), BUSY_METRICS.len());
        let mut front_us = 0.0;
        for (i, name) in STAGE_METRICS.iter().enumerate() {
            let us = Self::sum_of_typicals(statements, &self.stage_ns, i) / 1e3;
            if i < FRONT_END_STAGES {
                front_us += us;
            }
            out.insert(name, us);
        }
        for (k, name) in BUSY_METRICS.iter().enumerate() {
            out.insert(
                name,
                Self::sum_of_typicals(statements, &self.busy_ns, k) / 1e3,
            );
        }
        let staged_ms: f64 = statements
            .iter()
            .zip(&self.total_ms)
            .filter(|(st, _)| st.is_jsoniq())
            .map(|(_, ms)| typical(ms))
            .sum();
        out.insert("trace.frontend_share", ratio(front_us / 1e3, staged_ms));

        let mut c = Counts::default();
        let mut result_rows = 0u64;
        for (st, counts) in statements.iter().zip(&self.counts) {
            let (true, Some(x)) = (st.is_jsoniq(), counts) else {
                continue;
            };
            c.expr_nodes += x.expr_nodes;
            c.iterators += x.iterators;
            c.sql_bytes += x.sql_bytes;
            c.select_depth += x.select_depth;
            c.bound_nodes += x.bound_nodes;
            c.nodes_out += x.nodes_out;
            c.phys_ops += x.phys_ops;
            c.scan.merge(&x.scan);
            c.rows_vectorized += x.rows_vectorized;
            c.rows_fallback += x.rows_fallback;
            c.rows_on_codes += x.rows_on_codes;
            c.rows_materialized += x.rows_materialized;
            c.peak_mem_bytes = c.peak_mem_bytes.max(x.peak_mem_bytes);
            c.result_cells += x.result_cells;
            result_rows += x.result_rows;
        }
        out.insert("jsoniq_core.expr.nodes", c.expr_nodes as f64);
        out.insert("jsoniq_core.itertree.iterators", c.iterators as f64);
        out.insert("jsoniq_core.snowflake.sql_bytes", c.sql_bytes as f64);
        out.insert("snowpark.dataframe.select_depth", c.select_depth as f64);
        out.insert("snowdb.plan.bound_nodes", c.bound_nodes as f64);
        out.insert("snowdb.optimize.nodes_out", c.nodes_out as f64);
        out.insert("snowdb.plan.phys_ops", c.phys_ops as f64);
        out.insert(
            "snowdb.exec.vec_share",
            ratio(
                c.rows_vectorized as f64,
                (c.rows_vectorized + c.rows_fallback) as f64,
            ),
        );
        out.insert(
            "snowdb.exec.codes_share",
            ratio(
                c.rows_on_codes as f64,
                (c.rows_on_codes + c.rows_materialized) as f64,
            ),
        );
        out.insert("snowdb.exec.peak_mem_mb", c.peak_mem_bytes as f64 / 1e6);
        out.insert("snowdb.exec.result_cells", c.result_cells as f64);
        out.insert("snowdb.storage.bytes_scanned", c.scan.bytes_scanned as f64);
        out.insert("snowdb.storage.bytes_skipped", c.scan.bytes_skipped as f64);
        out.insert(
            "snowdb.storage.pruned_share",
            ratio(
                c.scan.partitions_pruned as f64,
                c.scan.partitions_total as f64,
            ),
        );
        out.insert(
            "snowdb.storage.rows_scanned_per_result_row",
            ratio(c.scan.rows_scanned as f64, result_rows as f64),
        );
    }
}

/// Buffer-cache behaviour over a window, from the store's counters.
pub fn cache_metrics(before: CacheStats, after: CacheStats, out: &mut Metrics) {
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.insert(
        "snowdb.store.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.insert(
        "snowdb.store.cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
}

/// The user's bytes: every table's rows as JSONL.
pub fn user_bytes(db: &Database) -> usize {
    db.table_names()
        .iter()
        .map(|t| table_jsonl(db, t).0.len())
        .sum()
}

/// Store measurements: persist and reopen times, and stored bytes per byte
/// of user data.
pub fn store_metrics(
    user_bytes: usize,
    dir: &Path,
    persist_us: f64,
    open_us: f64,
    out: &mut Metrics,
) {
    out.insert("snowdb.store.persist_us", persist_us);
    out.insert("snowdb.store.open_us", open_us);
    out.insert(
        "snowdb.store.bytes_per_user_byte",
        ratio(dir_bytes(dir) as f64, user_bytes as f64),
    );
}

/// JSONL ingest rate: the table's rows, rendered as JSON lines, loaded into
/// a fresh in-memory database (schema inference plus load).
pub fn ingest_metric(db: &Database, table: &str, out: &mut Metrics) {
    let (text, rows) = table_jsonl(db, table);
    let fresh = Database::new();
    let t = Instant::now();
    let loaded = fresh
        .load_jsonl("ingest_probe", &text)
        .expect("JSONL made from a table loads");
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(loaded, rows, "JSONL ingest loaded every row");
    out.insert("snowdb.storage.ingest_rows_per_s", ratio(rows as f64, secs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::adl_statements;

    #[test]
    fn stage_times_sum_the_per_statement_typicals_of_jsoniq_statements() {
        let statements: Vec<Statement> = adl_statements("hep").into_iter().take(4).collect();
        let mut agg = LayerAgg::new(4);
        let staged = |lexer_ns: u64, exec_ns: u64| {
            let mut s = Staged {
                stage_ns: [0; 11],
                counts: Counts::default(),
                rows: Vec::new(),
            };
            s.stage_ns[0] = lexer_ns;
            s.stage_ns[9] = exec_ns;
            s.counts.expr_nodes = 10;
            s.counts.busy_ns[3] = exec_ns / 2;
            s
        };
        // q1.jsoniq: typical lexer 2000 ns; q1.sql is ignored; q2.jsoniq: 4000 ns.
        for ns in [3000, 2000, 9000] {
            agg.add(0, &staged(ns, 6000), 0.010);
            agg.add(1, &staged(77_000, 77_000), 1.0);
        }
        agg.add(2, &staged(4000, 2000), 0.010);
        let mut m = Metrics::new();
        agg.metrics(&statements, &mut m);
        assert_eq!(m["jsoniq_core.lexer.us"], 6.0);
        assert_eq!(m["snowdb.exec.us"], 8.0);
        assert_eq!(m["snowdb.exec.flatten_busy_us"], 4.0);
        assert_eq!(m["jsoniq_core.expr.nodes"], 20.0);
        // front end 6 us of 20 us staged.
        assert!((m["trace.frontend_share"] - 0.3).abs() < 1e-9);
    }
}
