//! The staged path: the benchmark calls every stage's public function in
//! sequence — the same sequence `Translator::translate` and
//! `Database::query` run internally — with a span around each call.

use std::sync::Arc;

use jsoniq_core::snowflake::{NestedStrategy, Translator};
use jsoniq_core::{expr, itertree, lexer, parser};
use snowdb::exec::{pipeline, ExecCtx};
use snowdb::storage::ScanStats;
use snowdb::{Database, OpMetrics, QueryGovernor, Variant};
use snowpark::Session;

use crate::trace::Tracer;

/// Span names of the stages, in pipeline order. `STAGE_METRICS[i]` is the
/// per-layer metric that reports stage `i`.
pub const STAGES: [&str; 11] = [
    "jsoniq_core.lexer",
    "jsoniq_core.parser",
    "jsoniq_core.expr",
    "jsoniq_core.itertree",
    "jsoniq_core.snowflake",
    "snowdb.sql.parse",
    "snowdb.plan.bind",
    "snowdb.optimize",
    "snowdb.plan.lower",
    "snowdb.exec",
    "snowdb.exec.into_rows",
];

pub const STAGE_METRICS: [&str; 11] = [
    "jsoniq_core.lexer.us",
    "jsoniq_core.parser.us",
    "jsoniq_core.expr.us",
    "jsoniq_core.itertree.us",
    "jsoniq_core.snowflake.us",
    "snowdb.sql.parse_us",
    "snowdb.plan.bind_us",
    "snowdb.optimize.us",
    "snowdb.plan.lower_us",
    "snowdb.exec.us",
    "snowdb.exec.into_rows_us",
];

/// Stages before execution: everything a statement pays that does not depend
/// on the data size.
pub const FRONT_END_STAGES: usize = 9;

/// Operator kinds whose busy time is reported, matched on `OpMetrics::name`.
pub const OP_KINDS: [&str; 7] = [
    "scan", "filter", "project", "flatten", "agg", "join", "sort",
];

fn op_kind(name: &str) -> Option<usize> {
    let patterns = [
        "Scan",
        "Filter",
        "Project",
        "Flatten",
        "Aggregate",
        "Join",
        "Sort",
    ];
    patterns.iter().position(|p| name.contains(p))
}

/// What one staged statement yields besides its result and spans.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub expr_nodes: u64,
    pub iterators: u64,
    pub sql_bytes: u64,
    /// Number of `SELECT`s in the emitted SQL: the dataframe layer's nesting.
    pub select_depth: u64,
    pub bound_nodes: u64,
    pub nodes_out: u64,
    pub phys_ops: u64,
    pub scan: ScanStats,
    /// Operator busy time summed by kind, in `OP_KINDS` order.
    pub busy_ns: [u64; 7],
    pub rows_vectorized: u64,
    pub rows_fallback: u64,
    pub rows_on_codes: u64,
    pub rows_materialized: u64,
    /// Largest intermediate any one operator held.
    pub peak_mem_bytes: u64,
    pub result_rows: u64,
    pub result_cells: u64,
}

impl Counts {
    fn absorb_ops(&mut self, m: &OpMetrics) {
        if let Some(k) = op_kind(&m.name) {
            self.busy_ns[k] += m.busy.as_nanos() as u64;
        }
        self.rows_vectorized += m.rows_vectorized;
        self.rows_fallback += m.rows_fallback;
        self.rows_on_codes += m.rows_on_codes;
        self.rows_materialized += m.rows_materialized;
        self.peak_mem_bytes = self.peak_mem_bytes.max(m.peak_mem_bytes);
        for c in &m.children {
            self.absorb_ops(c);
        }
    }
}

pub struct Staged {
    /// Time of each stage in nanoseconds, in `STAGES` order (0 for the
    /// JSONiq stages of a handwritten-SQL statement).
    pub stage_ns: [u64; 11],
    pub counts: Counts,
    pub rows: Vec<Vec<Variant>>,
}

/// Runs one statement through the staged path. `strategy` is `Some` for a
/// JSONiq text and `None` for SQL. Spans nest as
/// `statement > translate > (five stages)` and `statement > query > (six stages)`.
pub fn run(
    tr: &mut Tracer,
    db: &Arc<Database>,
    label: &str,
    text: &str,
    strategy: Option<NestedStrategy>,
) -> Result<Staged, String> {
    let mut out = Staged {
        stage_ns: [0; 11],
        counts: Counts::default(),
        rows: Vec::new(),
    };
    tr.begin_statement(label);
    let root = tr.enter("statement");
    let sql = match strategy {
        Some(strategy) => {
            let t = tr.enter("translate");
            let sql = translate(tr, db, text, strategy, &mut out);
            tr.exit(t);
            sql
        }
        None => Ok(text.to_string()),
    };
    let res = sql.and_then(|sql| {
        let q = tr.enter("query");
        let res = query(tr, db, &sql, &mut out);
        tr.exit(q);
        res
    });
    tr.exit(root);
    res.map(|()| out)
}

fn translate(
    tr: &mut Tracer,
    db: &Arc<Database>,
    text: &str,
    strategy: NestedStrategy,
    out: &mut Staged,
) -> Result<String, String> {
    let e = |err: jsoniq_core::JsoniqError| err.to_string();

    let s = tr.enter(STAGES[0]);
    let tokens = lexer::tokenize(text);
    out.stage_ns[0] = tr.exit(s);
    std::hint::black_box(tokens.map_err(e)?);

    // `parser::parse` takes the text and lexes it again; the lexer's share,
    // just measured, is taken off so the two metrics do not overlap.
    let s = tr.enter(STAGES[1]);
    let module = parser::parse(text);
    out.stage_ns[1] = tr.exit(s).saturating_sub(out.stage_ns[0]);
    let module = module.map_err(e)?;

    let s = tr.enter(STAGES[2]);
    let tree = expr::rewrite(&module);
    out.stage_ns[2] = tr.exit(s);
    let tree = tree.map_err(e)?;
    out.counts.expr_nodes = expr::count_nodes(&tree) as u64;

    let s = tr.enter(STAGES[3]);
    let iter = itertree::build(&tree);
    out.stage_ns[3] = tr.exit(s);
    let iter = iter.map_err(e)?;
    out.counts.iterators = iter.counts().total() as u64;

    let s = tr.enter(STAGES[4]);
    let mut translator = Translator::new(Session::new(db.clone()), strategy);
    let sql = translator
        .translate_iter(&iter)
        .map(|df| df.sql().to_string());
    out.stage_ns[4] = tr.exit(s);
    let sql = sql.map_err(e)?;
    out.counts.sql_bytes = sql.len() as u64;
    out.counts.select_depth = sql.matches("SELECT").count() as u64;
    Ok(sql)
}

fn query(tr: &mut Tracer, db: &Arc<Database>, sql: &str, out: &mut Staged) -> Result<(), String> {
    let e = |err: snowdb::SnowError| err.to_string();

    let s = tr.enter(STAGES[5]);
    let ast = snowdb::sql::parse_query(sql);
    out.stage_ns[5] = tr.exit(s);
    let ast = ast.map_err(e)?;

    let s = tr.enter(STAGES[6]);
    let snapshot = db.snapshot();
    let bound = snowdb::plan::bind_query(&ast, &*snapshot);
    out.stage_ns[6] = tr.exit(s);
    let bound = bound.map_err(e)?;
    out.counts.bound_nodes = bound.node_count() as u64;

    let s = tr.enter(STAGES[7]);
    let plan = snowdb::optimize::optimize(bound);
    out.stage_ns[7] = tr.exit(s);
    let plan = plan.map_err(e)?;
    out.counts.nodes_out = plan.node_count() as u64;

    // What `Database::query` resolves from `QueryOptions::default()`.
    let threads = db.effective_threads();
    let gov = Arc::new(QueryGovernor::from_params(&db.session_params()));
    let vectorize = snowdb::exec::vectorize_from_env();
    let encode = snowdb::storage::encode_from_env();

    let s = tr.enter(STAGES[8]);
    let phys = snowdb::plan::physical::lower(&plan, threads);
    out.stage_ns[8] = tr.exit(s);
    out.counts.phys_ops = phys.op_count() as u64;

    let s = tr.enter(STAGES[9]);
    let mut ctx = ExecCtx::worker(gov, vectorize, encode);
    let batches = pipeline::execute_physical(&phys, &mut ctx);
    out.stage_ns[9] = tr.exit(s);
    let batches = batches.map_err(e)?;
    out.counts.scan = ctx.stats;
    out.counts.absorb_ops(&phys.snapshot());

    let s = tr.enter(STAGES[10]);
    let mut rows = Vec::with_capacity(pipeline::total_rows(&batches));
    for chunk in batches {
        rows.extend(chunk.into_rows());
    }
    out.stage_ns[10] = tr.exit(s);
    out.counts.result_rows = rows.len() as u64;
    out.counts.result_cells = (rows.len() * plan.fields.len()) as u64;
    out.rows = rows;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_names_map_to_kinds() {
        assert_eq!(op_kind("Scan HEP"), Some(0));
        assert_eq!(op_kind("Aggregate"), Some(4));
        assert_eq!(op_kind("LeftOuterJoin"), Some(5));
        assert_eq!(op_kind("Limit"), None);
        assert_eq!(STAGES.len(), STAGE_METRICS.len());
    }

    #[test]
    fn staged_path_equals_database_query() {
        let db = Arc::new(Database::new());
        adl::load_into(
            &db,
            "hep",
            &adl::AdlConfig {
                events: 64,
                seed: 5,
                partition_rows: 16,
            },
        );
        let q = adl::queries::q2("hep");
        let mut tr = Tracer::new(true);
        let staged = run(
            &mut tr,
            &db,
            "q2",
            &q.jsoniq,
            Some(NestedStrategy::FlagColumn),
        )
        .expect("staged q2");
        let sql = Translator::new(Session::new(db.clone()), NestedStrategy::FlagColumn)
            .translate(&q.jsoniq)
            .expect("translates")
            .sql()
            .to_string();
        let direct = db.query(&sql).expect("runs");
        assert_eq!(staged.rows, direct.rows);
        assert_eq!(
            staged.counts.scan.bytes_scanned,
            direct.profile.scan.bytes_scanned
        );
        assert!(staged.counts.busy_ns[3] > 0, "q2 flattens the jet array");
        assert!(staged.counts.select_depth > 1 && staged.counts.iterators > 0);
        // statement > translate > 5 stages, statement > query > 6 stages.
        assert_eq!(tr.spans().len(), 3 + STAGES.len());
        let hand =
            run(&mut tr, &db, "q2.sql", &q.handwritten_sql, None).expect("staged handwritten q2");
        assert_eq!(hand.stage_ns[..5], [0; 5]);
        assert_eq!(hand.rows.len(), staged.rows.len());
    }
}
