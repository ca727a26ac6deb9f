//! Cardinality and cost estimation over bound plans.
//!
//! The estimator walks a [`Node`] tree bottom-up, carrying per-column
//! statistics ([`ColumnStats`]) alongside the row estimate so predicate and
//! join-key selectivities downstream of projections still see base-table
//! statistics: a column has those of the column it copies
//! ([`NodeKind::copies`]). Everything is metadata-driven: table statistics come from
//! [`Table::stats`](crate::storage::Table::stats) (sealed partitions in
//! memory, v3 footers on disk) and no column data is ever read to cost a
//! plan.
//!
//! Formulas (classic System-R-style, with sketch/histogram refinements):
//! - `col = lit` → `(1 - nf) / ndv` (KMV sketch);
//! - range compares → histogram-bound fraction × `(1 - nf)`;
//! - `IS [NOT] NULL` → the null fraction (exact, from counts);
//! - `IN (k literals)` → `k × eq-selectivity`, capped at 1;
//! - equi-join on `l = r` → `|L|·|R| / max(ndv(l), ndv(r))`, with ndv
//!   defaulting to the relation's row count when a side lacks statistics
//!   (the FK-like assumption that keeps star joins linear);
//! - FLATTEN fan-out → `array_elems / rows` of the flattened column.
//!
//! The *cost* is a unitless work measure used to rank join orders: each
//! operator charges its input cost plus the rows it processes, hash joins
//! charge the build side double (building the table costs more than probing
//! it, which is what orients big-probe/small-build), and a join without
//! equi-keys charges the full `|L|·|R|` nested-loop work — exactly the term
//! that makes cross products prohibitively expensive for the reorderer.
//!
//! A shared subtree ([`Node::share`]) is executed once, so it is costed once:
//! the first site in plan order carries its cost, every later site
//! contributes its rows and statistics at zero cost. (The join reorderer runs
//! before share ids exist and compares orders of one set of relations, each
//! appearing once per candidate, so a repeated relation adds the same
//! constant to every candidate.)

use std::collections::HashMap;
use std::sync::Arc;

use crate::plan::{col_cmp_lit, conjuncts, split_join_on, Node, NodeKind, PExpr};
use crate::sql::{BinOp, JoinKind};
use crate::storage::ColumnStats;
use crate::variant::Variant;

/// Default selectivity for an equality predicate with no statistics.
const DEFAULT_EQ_SEL: f64 = 0.1;
/// Default selectivity for a range predicate with no statistics.
const DEFAULT_RANGE_SEL: f64 = 0.3;
/// Default selectivity for a predicate the estimator cannot decompose.
const DEFAULT_UNKNOWN_SEL: f64 = 0.5;
/// Default FLATTEN fan-out when the flattened column has no array statistics.
const DEFAULT_FANOUT: f64 = 3.0;

/// Estimate for one plan node: output cardinality, cumulative cost, and the
/// per-output-column statistics that survived the operators below.
#[derive(Clone, Debug)]
pub struct Est {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative work (unitless; see module docs).
    pub cost: f64,
    /// Statistics per output column, `None` where the column is computed or
    /// its base table carries no statistics.
    pub cols: Vec<Option<Arc<ColumnStats>>>,
}

/// Walks a plan and records `(rows, cost)` per node, keyed by node address —
/// the lookup EXPLAIN uses to annotate operator lines. The map is only valid
/// for the lifetime of the borrowed plan. Later sites of a shared subtree are
/// not walked and have no entry.
pub fn estimate_map(node: &Node) -> HashMap<usize, (f64, f64)> {
    let mut map = HashMap::new();
    estimate_into(node, &mut Some(&mut map), &mut HashMap::new());
    map
}

/// Estimates a plan node (no per-node map).
pub fn estimate(node: &Node) -> Est {
    estimate_into(node, &mut None, &mut HashMap::new())
}

fn estimate_into(
    node: &Node,
    map: &mut Option<&mut HashMap<usize, (f64, f64)>>,
    shared: &mut HashMap<u32, Est>,
) -> Est {
    if let Some(first) = node.share.and_then(|id| shared.get(&id)) {
        return Est { cost: 0.0, ..first.clone() };
    }
    let ins: Vec<Est> =
        node.kind.inputs().into_iter().map(|i| estimate_into(i, map, shared)).collect();
    let (rows, cost) = match &node.kind {
        NodeKind::Values => (1.0, 1.0),
        // Pushed predicates are advisory copies of the Filter above; the
        // Filter applies their selectivity, so the scan reports raw table
        // cardinality to avoid double-counting.
        NodeKind::Scan { table, .. } => {
            let rows = table.stats().rows as f64;
            (rows, rows)
        }
        NodeKind::Filter { pred, .. } => {
            (ins[0].rows * pred_selectivity(pred, &ins[0].cols), ins[0].cost + ins[0].rows)
        }
        NodeKind::Project { .. } => (ins[0].rows, ins[0].cost + ins[0].rows),
        NodeKind::Flatten { expr, outer, from, .. } => {
            // A bound keeps what the filter it replaced was estimated to:
            // `INDEX IS NOT NULL` for `from=0`, a comparison otherwise.
            let kept = match from {
                None => 1.0,
                Some(PExpr::Lit(_)) => 1.0 - DEFAULT_EQ_SEL,
                Some(_) => DEFAULT_UNKNOWN_SEL,
            };
            let rows = ins[0].rows * (flatten_fanout(expr, &ins[0].cols, *outer) * kept);
            (rows, ins[0].cost + rows.max(ins[0].rows))
        }
        NodeKind::Join { left, kind, on, .. } => {
            let j = join_estimate(&ins[0], &ins[1], *kind, on.as_ref(), left.arity());
            (j.rows, j.cost)
        }
        NodeKind::Aggregate { groups, .. } => {
            let in_est = &ins[0];
            let rows = if groups.is_empty() {
                1.0
            } else {
                let mut distinct = 1.0f64;
                for g in groups {
                    distinct *= match g {
                        PExpr::Col(i) => in_est.cols.get(*i).and_then(Option::as_deref).map_or(
                            in_est.rows.sqrt().max(1.0),
                            ColumnStats::distinct,
                        ),
                        PExpr::Lit(_) => 1.0,
                        _ => in_est.rows.sqrt().max(1.0),
                    };
                }
                distinct.min(in_est.rows).max(if in_est.rows > 0.0 { 1.0 } else { 0.0 })
            };
            (rows, in_est.cost + in_est.rows)
        }
        NodeKind::Sort { .. } => {
            let n = ins[0].rows.max(1.0);
            (ins[0].rows, ins[0].cost + n * n.log2().max(1.0))
        }
        NodeKind::Limit { n, .. } => (ins[0].rows.min(*n as f64), ins[0].cost),
        // No whole-row NDV statistic: assume moderate duplication.
        NodeKind::Distinct { .. } => {
            ((ins[0].rows / 2.0).max(ins[0].rows.min(1.0)), ins[0].cost + ins[0].rows)
        }
        NodeKind::UnionAll { .. } => (ins[0].rows + ins[1].rows, ins[0].cost + ins[1].cost),
    };
    // A column's statistics are those of the column it copies
    // (`NodeKind::copies`); a computed column has none.
    let cols = match &node.kind {
        NodeKind::Scan { table, .. } => table.stats().columns.clone(),
        // Column stats survive a union only when both branches have them;
        // merging them keeps NDV/null fractions usable above it.
        NodeKind::UnionAll { .. } => (ins[0].cols.iter())
            .zip(ins[1].cols.iter().chain(std::iter::repeat(&None)))
            .map(|(a, b)| {
                let (a, b) = (a.as_deref()?, b.as_deref()?);
                let mut m = a.clone();
                m.merge(b);
                Some(Arc::new(m))
            })
            .collect(),
        kind => (0..node.arity())
            .map(|c| kind.copies(c).and_then(|(k, c)| ins[k].cols.get(c).cloned().flatten()))
            .collect(),
    };
    let est = Est { rows, cost, cols };
    if let Some(m) = map {
        m.insert(node as *const Node as usize, (est.rows, est.cost));
    }
    if let Some(id) = node.share {
        shared.insert(id, est.clone());
    }
    est
}

/// Cardinality and cost of one join, given its input estimates.
pub(crate) fn join_estimate(
    l: &Est,
    r: &Est,
    kind: JoinKind,
    on: Option<&PExpr>,
    la: usize,
) -> Est {
    let mut equi_sel = 1.0f64;
    let mut residual_sel = 1.0f64;
    let mut equi_keys = 0usize;
    if let Some(on) = on {
        let (equi, residual) = split_join_on(on, la);
        for pair in equi {
            if let (PExpr::Col(lc), PExpr::Col(rc)) = pair {
                let lv = ndv_or_rows(&l.cols, *lc, l.rows);
                let rv = ndv_or_rows(&r.cols, rc - la, r.rows);
                equi_sel /= lv.max(rv).max(1.0);
                equi_keys += 1;
            } else {
                // A computed key has no NDV: it filters the cross product
                // like any conjunct the estimator cannot decompose, and does
                // not make the join a hash join here, though the executor
                // hashes it (DESIGN.md, "Cost-based optimization").
                residual_sel *= DEFAULT_UNKNOWN_SEL;
            }
        }
        // Side-local or complex conjuncts filter the cross product.
        if !residual.is_empty() {
            let merged: Vec<Option<Arc<ColumnStats>>> =
                l.cols.iter().chain(r.cols.iter()).cloned().collect();
            for p in residual {
                residual_sel *= pred_selectivity(p, &merged);
            }
        }
    }
    let cross = l.rows * r.rows;
    let mut rows = cross * equi_sel * residual_sel;
    if kind == JoinKind::LeftOuter {
        // Every left row survives, NULL-extended if unmatched.
        rows = rows.max(l.rows);
    }
    // Hash join when equi keys exist: build the right side (charged double —
    // hashing + materializing costs more than probing), probe the left.
    // Without keys the executor runs a nested loop over the full product —
    // the term that makes cross products prohibitively expensive.
    let work = if equi_keys > 0 {
        l.rows + 2.0 * r.rows + rows
    } else {
        cross.max(l.rows + r.rows)
    };
    let cols = l.cols.iter().chain(r.cols.iter()).cloned().collect();
    Est { rows, cost: l.cost + r.cost + work, cols }
}

fn ndv_or_rows(cols: &[Option<Arc<ColumnStats>>], i: usize, rows: f64) -> f64 {
    cols.get(i)
        .and_then(Option::as_deref)
        .map_or(rows.max(1.0), ColumnStats::distinct)
}

/// Estimated fraction of rows satisfying `pred`, given the input's per-column
/// statistics.
pub fn pred_selectivity(pred: &PExpr, cols: &[Option<Arc<ColumnStats>>]) -> f64 {
    let mut sel = 1.0f64;
    for p in conjuncts(pred) {
        sel *= conjunct_selectivity(p, cols);
    }
    sel.clamp(0.0, 1.0)
}

fn conjunct_selectivity(p: &PExpr, cols: &[Option<Arc<ColumnStats>>]) -> f64 {
    match p {
        PExpr::Lit(Variant::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        PExpr::Binary { left, op: BinOp::Or, right } => {
            let a = conjunct_selectivity(left, cols);
            let b = conjunct_selectivity(right, cols);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        PExpr::Not(inner) => 1.0 - conjunct_selectivity(inner, cols),
        PExpr::InList { expr, list, negated } => match expr.as_ref() {
            PExpr::Col(c) if list.iter().all(|e| matches!(e, PExpr::Lit(_))) => {
                // `=` ignores its literal operand: (1 - nf) / ndv.
                let eq = cols
                    .get(*c)
                    .and_then(Option::as_deref)
                    .map_or(DEFAULT_EQ_SEL, |s| s.selectivity("=", &Variant::Null));
                let sel = (eq * list.len() as f64).clamp(0.0, 1.0);
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            _ => DEFAULT_UNKNOWN_SEL,
        },
        _ => match col_cmp_lit(p) {
            Some((col, cmp, lit)) => match cols.get(col).and_then(Option::as_deref) {
                Some(s) => s.selectivity(cmp, lit),
                None => match cmp {
                    "=" | "IS NULL" => DEFAULT_EQ_SEL,
                    "<>" | "IS NOT NULL" => 1.0 - DEFAULT_EQ_SEL,
                    _ => DEFAULT_RANGE_SEL,
                },
            },
            None => DEFAULT_UNKNOWN_SEL,
        },
    }
}

/// Expected output rows per input row of a FLATTEN over `expr`.
fn flatten_fanout(expr: &PExpr, cols: &[Option<Arc<ColumnStats>>], outer: bool) -> f64 {
    let mut refs = Vec::new();
    expr.collect_cols(&mut refs);
    let fanout = refs
        .first()
        .and_then(|&c| cols.get(c).and_then(Option::as_deref))
        .and_then(ColumnStats::avg_flatten_fanout)
        .unwrap_or(DEFAULT_FANOUT);
    if outer {
        // OUTER FLATTEN emits at least one row per input row.
        fanout.max(1.0)
    } else {
        fanout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Field;
    use crate::storage::{ColumnDef, ColumnType, MemSink, TableBuilder, DEFAULT_PARTITION_ROWS};

    fn table(rows: i64, distinct: i64) -> Arc<crate::storage::Table> {
        let schema = vec![
            ColumnDef::new("K", ColumnType::Int),
            ColumnDef::new("V", ColumnType::Int),
        ];
        let sink = Box::new(MemSink);
        let mut b = TableBuilder::new("t", schema, DEFAULT_PARTITION_ROWS, sink).unwrap();
        for i in 0..rows {
            b.push_row(&[Variant::Int(i % distinct), Variant::Int(i)]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn scan(t: &Arc<crate::storage::Table>) -> Node {
        Node::new(
            NodeKind::Scan { table: t.clone(), pushed: Vec::new(), materialize: vec![true; 2] },
            vec![Field::bare("K"), Field::bare("V")],
        )
    }

    #[test]
    fn scan_estimates_table_rows() {
        let t = table(500, 10);
        let est = estimate(&scan(&t));
        assert_eq!(est.rows, 500.0);
        assert!(est.cols[0].is_some());
    }

    #[test]
    fn filter_applies_stats_selectivity() {
        let t = table(1000, 10);
        let plan = Node::new(
            NodeKind::Filter {
                input: Box::new(scan(&t)),
                pred: PExpr::Binary {
                    left: Box::new(PExpr::Col(0)),
                    op: BinOp::Eq,
                    right: Box::new(PExpr::Lit(Variant::Int(3))),
                },
            },
            vec![Field::bare("K"), Field::bare("V")],
        );
        let est = estimate(&plan);
        // K has 10 distinct values → ~1/10 of 1000 rows.
        assert!((est.rows - 100.0).abs() < 5.0, "est {}", est.rows);
    }

    #[test]
    fn equi_join_beats_cross_join_cost() {
        let big = table(2000, 400);
        let small = table(50, 50);
        let equi = Node::new(
            NodeKind::Join {
                left: Box::new(scan(&big)),
                right: Box::new(scan(&small)),
                kind: JoinKind::Inner,
                on: Some(PExpr::Binary {
                    left: Box::new(PExpr::Col(0)),
                    op: BinOp::Eq,
                    right: Box::new(PExpr::Col(2)),
                }),
            },
            vec![Field::bare("K"), Field::bare("V"), Field::bare("K2"), Field::bare("V2")],
        );
        let cross = Node::new(
            NodeKind::Join {
                left: Box::new(scan(&big)),
                right: Box::new(scan(&small)),
                kind: JoinKind::Cross,
                on: None,
            },
            vec![Field::bare("K"), Field::bare("V"), Field::bare("K2"), Field::bare("V2")],
        );
        let e = estimate(&equi);
        let c = estimate(&cross);
        assert!(e.cost < c.cost, "equi {} !< cross {}", e.cost, c.cost);
        assert!(e.rows < c.rows);
        assert_eq!(c.rows, 100_000.0);
    }

    #[test]
    fn estimate_map_covers_every_node() {
        let t = table(100, 10);
        let plan = Node::new(
            NodeKind::Limit { input: Box::new(scan(&t)), n: 7 },
            vec![Field::bare("K"), Field::bare("V")],
        );
        let map = estimate_map(&plan);
        assert_eq!(map.len(), 2);
        let (rows, _) = map[&(&plan as *const Node as usize)];
        assert_eq!(rows, 7.0);
    }
}
