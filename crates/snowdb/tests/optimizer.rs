//! Optimizer behaviour tests: these assert plan-level effects (pruning
//! statistics, join strategies) rather than just result correctness.

use snowdb::plan::{Node, NodeKind};
use snowdb::sql::JoinKind;
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::{Database, Variant};

fn two_tables() -> Database {
    let db = Database::new();
    db.load_table(
        "a",
        vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("X", ColumnType::Int)],
        (0..1000).map(|i| vec![Variant::Int(i), Variant::Int(i % 17)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    db.load_table(
        "b",
        vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("Y", ColumnType::Int)],
        (0..1000).map(|i| vec![Variant::Int(i), Variant::Int(i % 5)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    db
}

fn find_joins(node: &Node, out: &mut Vec<(JoinKind, bool)>) {
    match &node.kind {
        NodeKind::Join { left, right, kind, on } => {
            out.push((*kind, on.is_some()));
            find_joins(left, out);
            find_joins(right, out);
        }
        NodeKind::Project { input, .. }
        | NodeKind::Filter { input, .. }
        | NodeKind::Flatten { input, .. }
        | NodeKind::Aggregate { input, .. }
        | NodeKind::Sort { input, .. }
        | NodeKind::Limit { input, .. }
        | NodeKind::Distinct { input } => find_joins(input, out),
        NodeKind::UnionAll { left, right } => {
            find_joins(left, out);
            find_joins(right, out);
        }
        NodeKind::Scan { .. } | NodeKind::Values => {}
    }
}

fn find_scans(node: &Node, out: &mut Vec<(usize, usize)>) {
    match &node.kind {
        NodeKind::Scan { materialize, pushed, .. } => {
            out.push((materialize.iter().filter(|&&m| m).count(), pushed.len()));
        }
        NodeKind::Project { input, .. }
        | NodeKind::Filter { input, .. }
        | NodeKind::Flatten { input, .. }
        | NodeKind::Aggregate { input, .. }
        | NodeKind::Sort { input, .. }
        | NodeKind::Limit { input, .. }
        | NodeKind::Distinct { input } => find_scans(input, out),
        NodeKind::Join { left, right, .. } | NodeKind::UnionAll { left, right } => {
            find_scans(left, out);
            find_scans(right, out);
        }
        NodeKind::Values => {}
    }
}

#[test]
fn cross_join_with_equality_becomes_inner_join() {
    let db = two_tables();
    let plan = db
        .compile("SELECT * FROM (SELECT * FROM a CROSS JOIN b) WHERE a.id = b.id AND x > 3")
        .unwrap();
    let mut joins = Vec::new();
    find_joins(&plan, &mut joins);
    assert_eq!(joins.len(), 1);
    assert_eq!(joins[0], (JoinKind::Inner, true), "cross join converted with ON");
}

#[test]
fn projection_pruning_narrows_scans() {
    let db = two_tables();
    let plan = db.compile("SELECT x FROM a").unwrap();
    let mut scans = Vec::new();
    find_scans(&plan, &mut scans);
    assert_eq!(scans, vec![(1, 0)], "only X materialized");
    let plan = db.compile("SELECT x FROM a WHERE id > 5").unwrap();
    let mut scans = Vec::new();
    find_scans(&plan, &mut scans);
    assert_eq!(scans[0].0, 2, "filter column also materialized");
    assert_eq!(scans[0].1, 1, "comparison pushed for pruning");
}

#[test]
fn pushdown_reaches_scans_through_projections_and_unions() {
    let db = two_tables();
    let plan = db
        .compile(
            "SELECT * FROM (SELECT id AS i FROM a UNION ALL SELECT id AS i FROM b) WHERE i < 10",
        )
        .unwrap();
    let mut scans = Vec::new();
    find_scans(&plan, &mut scans);
    assert_eq!(scans.len(), 2);
    for (_, pushed) in scans {
        assert_eq!(pushed, 1, "predicate copied into both union branches' scans");
    }
}

#[test]
fn left_outer_join_does_not_push_right_predicates() {
    let db = two_tables();
    // The y-predicate over the right side of a left outer join must stay above
    // the join (it would change NULL-extension otherwise).
    let r = db
        .query(
            "SELECT COUNT(*) FROM ( \
               SELECT a.id AS i, b.y AS y FROM a LEFT OUTER JOIN b ON a.id = b.id AND b.y = 1) \
             WHERE y IS NULL",
        )
        .unwrap();
    // Rows with y != 1 are null-extended, not dropped.
    let n = r.rows[0][0].as_i64().unwrap();
    assert_eq!(n, 800, "4 of 5 residue classes null-extend");
}

#[test]
fn constant_folding_removes_literal_arithmetic() {
    let db = two_tables();
    let plan = db.compile("SELECT x + (1 + 2 * 3) FROM a WHERE 1 + 1 = 2").unwrap();
    // The folded TRUE filter may remain, but must not prevent execution;
    // check the query runs and the folded constant is correct.
    let r = db.query("SELECT x + (1 + 2 * 3) AS v FROM a LIMIT 1").unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(7));
    drop(plan);
}

#[test]
fn constant_folding_reaches_both_arguments_of_an_aggregate() {
    let db = two_tables();
    let sql = "SELECT MIN_BY(id + (1 + 1), x + (2 + 3)) FROM a";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("MIN_BY((#0 + 2), (#1 + 5))"), "{plan}");
    assert_eq!(db.query(sql).unwrap().rows, [[Variant::Int(2)]]);
    // A key that raises is left for execution to raise.
    let sql = "SELECT MAX_BY(id, x / 0) FROM a";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("MAX_BY(#0, (#1 / 0))"), "{plan}");
    assert_eq!(db.query(sql).unwrap_err().to_string(), "execution error: division by zero");
}

#[test]
fn volatile_seq8_is_not_folded_or_pushed_through() {
    let db = two_tables();
    // SEQ8 must produce distinct values even though it has no column inputs.
    let r = db
        .query("SELECT COUNT(DISTINCT s) FROM (SELECT seq8() AS s FROM a)")
        .unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(1000));
    // Filtering on a volatile projection must not be pushed below it.
    let r = db
        .query("SELECT COUNT(*) FROM (SELECT seq8() AS s, id FROM a) WHERE s < 10")
        .unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(10));
}

#[test]
fn equivalent_results_with_and_without_partitioning() {
    // The same data loaded with tiny partitions (heavy pruning) must agree
    // with one big partition on a selective aggregate.
    let sql = "SELECT x, COUNT(*) AS c FROM a WHERE id >= 900 GROUP BY x ORDER BY x";
    let mk = |rows_per_part: usize| {
        let db = Database::new();
        db.load_table(
            "a",
            vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("X", ColumnType::Int)],
            (0..1000).map(|i| vec![Variant::Int(i), Variant::Int(i % 17)]),
            rows_per_part,
        )
        .unwrap();
        db.query(sql).unwrap()
    };
    let small = mk(10);
    let big = mk(100_000);
    assert_eq!(small.rows, big.rows);
    assert!(small.profile.scan.partitions_scanned < small.profile.scan.partitions_total);
}

// ---- pushdown soundness around FLATTEN and volatile projections -----------
//
// These shapes were pinned down by the verification oracle
// (`crates/snowdb/tests/verify.rs`): each one changes results or error
// behaviour if the filter moves, so the plans must keep the filter above.

fn flatten_db() -> Database {
    let db = Database::new();
    db.load_table(
        "t",
        vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("XS", ColumnType::Variant)],
        (1..9).map(|i| {
            vec![
                Variant::Int(i),
                Variant::array((0..(i % 3)).map(Variant::Int).collect::<Vec<_>>()),
            ]
        }),
        4,
    )
    .unwrap();
    db
}

fn contains_filter(node: &Node) -> bool {
    let mut found = false;
    walk(node, &mut |n| {
        if matches!(n.kind, NodeKind::Filter { .. }) {
            found = true;
        }
    });
    found
}

fn walk(node: &Node, f: &mut impl FnMut(&Node)) {
    f(node);
    match &node.kind {
        NodeKind::Project { input, .. }
        | NodeKind::Filter { input, .. }
        | NodeKind::Flatten { input, .. }
        | NodeKind::Aggregate { input, .. }
        | NodeKind::Sort { input, .. }
        | NodeKind::Limit { input, .. }
        | NodeKind::Distinct { input } => walk(input, f),
        NodeKind::Join { left, right, .. } | NodeKind::UnionAll { left, right } => {
            walk(left, f);
            walk(right, f);
        }
        NodeKind::Scan { .. } | NodeKind::Values => {}
    }
}

/// Subtrees feeding a `Flatten`, and subtrees feeding a `Project` that
/// computes a volatile expression (`SEQ8`).
fn guarded_inputs(node: &Node) -> Vec<Node> {
    let mut out = Vec::new();
    walk(node, &mut |n| match &n.kind {
        NodeKind::Flatten { input, .. } => out.push((**input).clone()),
        NodeKind::Project { input, exprs } if exprs.iter().any(|e| e.is_volatile()) => {
            out.push((**input).clone())
        }
        _ => {}
    });
    out
}

fn assert_filter_stays_above(db: &Database, sql: &str) {
    let plan = db.compile(sql).unwrap();
    assert!(contains_filter(&plan), "expected a residual filter in:\n{plan:?}");
    for sub in guarded_inputs(&plan) {
        assert!(
            !contains_filter(&sub),
            "filter was pushed below a flatten / volatile projection for {sql}"
        );
    }
}

#[test]
fn volatile_predicate_stays_above_flatten() {
    let db = flatten_db();
    assert_filter_stays_above(
        &db,
        "SELECT ID FROM t, LATERAL FLATTEN(INPUT => XS) AS F WHERE SEQ8() < 3",
    );
}

#[test]
fn filter_does_not_cross_a_seq8_projection() {
    // Pushing a filter below a row-numbering projection renumbers the rows —
    // the JOIN-based nested strategy joins on those numbers (ADL Q7).
    let db = flatten_db();
    assert_filter_stays_above(
        &db,
        "SELECT RID FROM (SELECT *, SEQ8() AS RID FROM t) WHERE ID % 2 = 0",
    );
}

#[test]
fn literal_conjuncts_cross_a_seq8_projection() {
    // A conjunct reading only a literal column beside the row id — the
    // flag-column strategy's `TRUE AS KEEP` — is a constant: TRUE goes.
    let db = flatten_db();
    let sql = "SELECT RID FROM (SELECT *, SEQ8() AS RID, TRUE AS K FROM t) WHERE K";
    assert!(!contains_filter(&db.compile(sql).unwrap()), "{}", db.explain(sql).unwrap());
    assert_eq!(agreed_rows(&db, sql).len(), 8);
    // Any other constant stays above, and so does every conjunct that reads
    // another column.
    let sql = "SELECT RID FROM (SELECT *, SEQ8() AS RID, FALSE AS K FROM t) WHERE K";
    assert_filter_stays_above(&db, sql);
    assert!(agreed_rows(&db, sql).is_empty());
    let sql = "SELECT RID FROM (SELECT *, SEQ8() AS RID, TRUE AS K FROM t) WHERE K AND ID % 2 = 0";
    assert_filter_stays_above(&db, sql);
    assert_eq!(
        agreed_rows(&db, sql),
        [[Variant::Int(1)], [Variant::Int(3)], [Variant::Int(5)], [Variant::Int(7)]]
    );
}

/// Whether the optimized plan of `sql` still has an `OUTER` flatten, after
/// checking its rows against the raw plan's.
fn keeps_outer_flatten(db: &Database, sql: &str) -> bool {
    agreed_rows(db, sql);
    find(&db.compile(sql).unwrap(), &|n| matches!(n.kind, NodeKind::Flatten { outer: true, .. }))
        .is_some()
}

#[test]
fn outer_flatten_turns_inner_under_a_filter_no_pad_row_passes() {
    // `t` has empty arrays at ID 3 and 6: their pad rows carry NULL outputs.
    let db = flatten_db();
    let from = "SELECT ID, F.VALUE FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F WHERE";
    for pred in [
        "F.INDEX IS NOT NULL",
        "F.VALUE > 0",
        "IFF(F.VALUE >= 0, TRUE, FALSE) AND ID > 1",
        // `INDEX IS NOT NULL` is FALSE on a pad row, so the filter never
        // reaches a conjunct after it there: one that raises or numbers rows
        // sees the same rows from an inner flatten.
        "F.INDEX IS NOT NULL AND 10 / ID > 0",
        "F.INDEX IS NOT NULL AND SEQ8() % 2 = 0",
    ] {
        assert!(!keeps_outer_flatten(&db, &format!("{from} {pred}")), "{pred}");
    }
    // Every other one of the 9 array items: a pad row numbered by `SEQ8()`
    // would shift the numbering of the rows after it.
    let sql = format!("{from} F.INDEX IS NOT NULL AND SEQ8() % 2 = 0");
    assert_eq!(agreed_rows(&db, &sql).len(), 5);
    // A pad row passes these (its `THIS` is its input's array), or the
    // rejecting conjunct follows one that can raise: it may not leave the
    // filter, and the pad rows stay.
    for pred in [
        "F.INDEX IS NULL",
        "F.THIS IS NOT NULL",
        "F.SEQ >= 0 AND ARRAY_SIZE(F.THIS) = 0",
        "NVL(F.VALUE, 0) >= 0",
        "10 / ID > 0 AND F.INDEX IS NOT NULL",
        "SEQ8() < 100 AND F.INDEX IS NOT NULL",
    ] {
        assert!(keeps_outer_flatten(&db, &format!("{from} {pred}")), "{pred}");
    }
}

#[test]
fn left_outer_join_turns_inner_under_a_filter_no_null_extension_passes() {
    let db = two_tables();
    let joins = |sql: &str| {
        agreed_rows(&db, sql);
        let mut out = Vec::new();
        find_joins(&db.compile(sql).unwrap(), &mut out);
        out.into_iter().map(|(kind, _)| kind).collect::<Vec<_>>()
    };
    let from = "SELECT a.id, b.y FROM a LEFT OUTER JOIN b ON a.id = b.id AND b.y = 1 WHERE";
    for pred in ["b.y >= 1", "NVL(NVL(b.y, 0), 0) >= 1", "b.y + a.x > 3"] {
        // `b.y + a.x` reads the left side too: the rule does not fire.
        let want = if pred.contains("a.x") { JoinKind::LeftOuter } else { JoinKind::Inner };
        assert_eq!(joins(&format!("{from} {pred}")), [want], "{pred}");
    }
    for pred in ["b.y IS NULL", "NVL(b.y, 1) >= 1", "b.y >= 1 AND 10 / (a.x + 1) > 0"] {
        assert_eq!(joins(&format!("{from} {pred}")), [JoinKind::LeftOuter], "{pred}");
    }
}

/// `ta(ID)` = 0..4 and `tb(X, Y)` with Y = 0..4 and X = Y % 2.
fn raising_join_db() -> Database {
    let db = Database::new();
    let ints = |vs: Vec<i64>| vs.into_iter().map(Variant::Int).collect::<Vec<_>>();
    db.load_table("ta", vec![ColumnDef::new("ID", ColumnType::Int)], (0..5).map(|i| ints(vec![i])), 4)
        .unwrap();
    let tb = vec![ColumnDef::new("X", ColumnType::Int), ColumnDef::new("Y", ColumnType::Int)];
    db.load_table("tb", tb, (0..5).map(|y| ints(vec![y % 2, y])), 4).unwrap();
    db
}

#[test]
fn a_one_sided_conjunct_stays_beside_a_raising_conjunct_over_both_sides() {
    // The division runs on every pair and raises where `ID = Y` and `X = 0`;
    // `tb.X = 1` below the join would keep it from those pairs. The join's
    // `ON` runs on every pair before the filter, so it holds there too.
    let db = raising_join_db();
    let div = "10 / (ta.ID - tb.Y + 10 * tb.X) > 0";
    for (sql, plan) in [
        (
            format!("SELECT ta.ID, tb.Y FROM ta CROSS JOIN tb WHERE {div} AND tb.X = 1"),
            "Filter (((10 / ((#0 - #2) + (10 * #1))) > 0) AND (#1 = 1))\n    CrossJoin on=\n",
        ),
        (
            format!("SELECT ta.ID, tb.Y FROM ta JOIN tb ON {div} WHERE tb.X = 1"),
            "Filter (#1 = 1)\n    InnerJoin on=((10 / ((#0 - #2) + (10 * #1))) > 0)\n",
        ),
    ] {
        assert!(agreed_error(&db, &sql).contains("division by zero"), "{sql}");
        assert!(operators(&db, &sql).contains(plan), "{}", operators(&db, &sql));
    }
}

#[test]
fn a_raising_one_sided_conjunct_stays_after_a_conjunct_over_both_sides() {
    // `ID - Y = 7` is FALSE on every pair, so the filter never divides; on
    // `ta` alone the division would raise at `ID = 2`.
    let db = raising_join_db();
    let sql = "SELECT ta.ID, tb.Y FROM ta CROSS JOIN tb WHERE ta.ID - tb.Y = 7 AND 10 / (ta.ID - 2) > 0";
    assert!(agreed_rows(&db, sql).is_empty());
    let plan = "Filter (((#0 - #2) = 7) AND ((10 / (#0 - 2)) > 0))\n    CrossJoin on=\n";
    assert!(operators(&db, sql).contains(plan), "{}", operators(&db, sql));
}

#[test]
fn nested_nvl_with_one_literal_default_folds() {
    let db = flatten_db();
    let plan = |sql: &str| {
        agreed_rows(&db, sql);
        db.explain(sql).unwrap()
    };
    let folded = plan(
        "SELECT NVL(NVL(F.VALUE, 0), 0) FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F",
    );
    assert!(folded.starts_with("Project [Nvl(#"), "{folded}");
    assert_eq!(folded.matches("Nvl(").count(), 1, "{folded}");
    // Not when the defaults differ, even only in type, or are no literals.
    for sql in [
        "SELECT NVL(NVL(F.VALUE, 0), 1) FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F",
        "SELECT NVL(NVL(F.VALUE, 0), 0.0) FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F",
        "SELECT NVL(NVL(F.VALUE, ID), ID) FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F",
    ] {
        assert_eq!(plan(sql).matches("Nvl(").count(), 2, "{sql}");
    }
}

#[test]
fn null_sensitive_predicate_stays_above_outer_flatten() {
    let db = flatten_db();
    assert_filter_stays_above(
        &db,
        "SELECT ID FROM t, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F \
         WHERE IFF(ID IS NULL, FALSE, ID > 2)",
    );
}

#[test]
fn erroring_predicate_stays_above_flatten() {
    // A non-outer flatten drops empty-array rows before the filter ever sees
    // them; pushing `10 / ID` below would evaluate it on rows the unpushed
    // plan skips (division by zero on a dropped row).
    let db = flatten_db();
    assert_filter_stays_above(
        &db,
        "SELECT ID FROM t, LATERAL FLATTEN(INPUT => XS) AS F WHERE 10 / ID > 0",
    );
}

#[test]
fn input_predicate_stays_above_a_flatten_of_a_volatile_input() {
    // `SEQ8()` in the flatten's input numbers the rows that reach the flatten:
    // a filter moved below it — even one over input columns only — renumbers
    // the survivors from zero.
    let db = flatten_db();
    let sql = "SELECT ID, F.VALUE FROM t, LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT(SEQ8())) AS F \
               WHERE ID > 3";
    assert_filter_stays_above(&db, sql);
    let plan = db.explain(sql).unwrap();
    let line = |op: &str| {
        plan.lines().position(|l| l.trim_start().starts_with(op)).unwrap_or_else(|| panic!("{plan}"))
    };
    assert!(line("Filter") < line("Flatten") && line("Flatten") < line("Scan"), "{plan}");
    assert_eq!(
        db.query(sql).unwrap().rows,
        (4..9).map(|i| vec![Variant::Int(i), Variant::Int(i - 1)]).collect::<Vec<_>>()
    );
}

#[test]
fn benign_input_predicate_still_moves_below_flatten() {
    // The soundness gates must not over-block: a plain comparison over input
    // columns commutes with the flatten and should reach the scan for pruning.
    let db = flatten_db();
    let plan = db
        .compile("SELECT ID FROM t, LATERAL FLATTEN(INPUT => XS) AS F WHERE ID > 3")
        .unwrap();
    let mut scans = Vec::new();
    find_scans(&plan, &mut scans);
    assert_eq!(scans.len(), 1);
    assert_eq!(scans[0].1, 1, "comparison not pushed to the scan:\n{plan:?}");
}

// ---- cost-based join reordering --------------------------------------------
//
// The reorderer flattens Inner/Cross join clusters and rebuilds them
// left-deep in the order the cost model ranks cheapest, using catalog
// statistics (NDV sketches, histograms, null fractions) persisted at
// partition seal. These tests pin its structural contract; result
// equivalence is covered by the oracle in tests/planner.rs.

use snowdb::QueryOptions;

/// A small star: FACT (4000 rows) with FKs into DIMA (40) and DIMB (8).
fn star_db() -> Database {
    let db = Database::new();
    db.load_table(
        "fact",
        vec![
            ColumnDef::new("FA", ColumnType::Int),
            ColumnDef::new("FB", ColumnType::Int),
            ColumnDef::new("M", ColumnType::Int),
        ],
        (0..4000).map(|i| vec![Variant::Int(i % 40), Variant::Int(i % 8), Variant::Int(i)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    db.load_table(
        "dima",
        vec![ColumnDef::new("AK", ColumnType::Int), ColumnDef::new("AV", ColumnType::Int)],
        (0..40).map(|i| vec![Variant::Int(i), Variant::Int(i * 10)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    db.load_table(
        "dimb",
        vec![ColumnDef::new("BK", ColumnType::Int), ColumnDef::new("BV", ColumnType::Int)],
        (0..8).map(|i| vec![Variant::Int(i), Variant::Int(i * 100)]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    db
}

fn scan_names(node: &Node, out: &mut Vec<String>) {
    if let NodeKind::Scan { table, .. } = &node.kind {
        out.push(table.name().to_string());
    }
    for child in node.kind.inputs() {
        scan_names(child, out);
    }
}

#[test]
fn reorderer_recovers_star_join_from_cross_product() {
    let db = star_db();
    // Authored worst: dimensions first, fact last, all predicates in WHERE —
    // the raw plan is DIMA × DIMB × FACT before any predicate applies.
    let sql = "SELECT COUNT(*) FROM dima CROSS JOIN dimb CROSS JOIN fact \
               WHERE fact.fa = dima.ak AND fact.fb = dimb.bk";
    let plan = db.compile(sql).unwrap();
    let mut joins = Vec::new();
    find_joins(&plan, &mut joins);
    assert_eq!(joins.len(), 2);
    assert!(
        joins.iter().all(|&(k, has_on)| k == JoinKind::Inner && has_on),
        "cross products must become equi-joins: {joins:?}"
    );
    // The big fact table is the probe side (first scan, left-deep).
    let mut scans = Vec::new();
    scan_names(&plan, &mut scans);
    assert_eq!(scans[0], "FACT", "fact table must lead the reordered plan: {scans:?}");
    // And the reordered plan still counts correctly.
    let r = db.query(sql).unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(4000));
}

#[test]
fn reordered_plan_matches_unoptimized_results_and_column_order() {
    let db = star_db();
    // Projects columns from every relation in authored (pre-reorder) order:
    // the restoring projection must map them back after the permutation.
    let sql = "SELECT dima.av, fact.m, dimb.bv FROM dima CROSS JOIN dimb CROSS JOIN fact \
               WHERE fact.fa = dima.ak AND fact.fb = dimb.bk AND dima.av < 50 \
               ORDER BY fact.m";
    let optimized = db.query(sql).unwrap();
    let raw = db
        .query_with(sql, &QueryOptions { optimize: false, ..Default::default() })
        .unwrap();
    assert_eq!(optimized.rows, raw.rows);
    assert!(!optimized.rows.is_empty());
}

#[test]
fn volatile_join_condition_blocks_reordering() {
    let db = star_db();
    // SEQ8() in a join condition is volatile: moving the join changes which
    // row pairs it numbers. The cluster must keep its authored shape.
    let sql = "SELECT COUNT(*) FROM dima CROSS JOIN dimb CROSS JOIN fact \
               WHERE fact.fa = dima.ak AND fact.fb = dimb.bk AND SEQ8() >= 0";
    let plan = db.compile(sql).unwrap();
    let mut scans = Vec::new();
    scan_names(&plan, &mut scans);
    assert_eq!(
        scans,
        vec!["DIMA".to_string(), "DIMB".to_string(), "FACT".to_string()],
        "volatile conjunct must freeze the authored join order"
    );
}

#[test]
fn erroring_join_condition_blocks_reordering() {
    let db = star_db();
    // A *multi-relation* erroring conjunct stays in the join ON (single-
    // relation ones travel with their relation, which is sound): division
    // can trip on row pairs the authored plan never forms, so the cluster
    // must keep its authored shape.
    let sql = "SELECT COUNT(*) FROM dima CROSS JOIN dimb CROSS JOIN fact \
               WHERE fact.fa = dima.ak AND fact.fb = dimb.bk \
               AND 100 / (dima.av + fact.m) >= 0";
    let plan = db.compile(sql).unwrap();
    let mut scans = Vec::new();
    scan_names(&plan, &mut scans);
    assert_eq!(
        scans,
        vec!["DIMA".to_string(), "DIMB".to_string(), "FACT".to_string()],
        "erroring multi-relation conjunct must freeze the authored join order"
    );
}

#[test]
fn pushed_single_relation_error_predicate_travels_with_its_relation() {
    let db = star_db();
    // The single-relation erroring predicate follows the two join
    // conjuncts: where one of them is NULL the filter goes on to the
    // division, so by the movement rule (`optimize::may_leave`) none of the
    // three leaves the filter. The cross joins keep no hash keys, and
    // results must match unoptimized execution exactly (dima.av = 0 exists,
    // so 100/av errors iff the row is ever evaluated — both plans evaluate
    // it on the same pairs).
    let sql = "SELECT COUNT(*) FROM dima CROSS JOIN dimb CROSS JOIN fact \
               WHERE fact.fa = dima.ak AND fact.fb = dimb.bk AND 100 / dima.av > 0";
    let plan = operators(&db, sql);
    assert!(plan.contains("Filter ((#4 = #0) AND ((#5 = #2) AND ((100 / #1) > 0)))\n"), "{plan}");
    let optimized = db.query(sql);
    let raw = db.query_with(sql, &QueryOptions { optimize: false, ..Default::default() });
    match (optimized, raw) {
        (Ok(a), Ok(b)) => assert_eq!(a.rows, b.rows),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!(
            "optimized and raw plans disagree on erroring: {:?} vs {:?}",
            a.map(|r| r.rows),
            b.map(|r| r.rows)
        ),
    }
}

#[test]
fn a_volatile_conjunct_keeps_the_joins_below_it_as_written() {
    // `SEQ8()` numbers the rows in the order the joins make them, so a
    // reordered cluster — the whole one under a filter, or the one below a
    // join's ON — would pick other rows.
    let db = star_db();
    let from = "SELECT dima.ak, dimb.bk, b2.bk FROM dima CROSS JOIN dimb CROSS JOIN dimb b2";
    for sql in [
        format!("{from} WHERE SEQ8() % 101 = 0"),
        format!("{from} JOIN dimb b3 ON SEQ8() % 101 = 0"),
    ] {
        // As written, `dima` is the first relation; reordered, `dimb` would be.
        let plan = operators(&db, &sql);
        let first = plan.lines().find(|l| l.contains("Scan ")).unwrap();
        assert!(first.trim() == "Scan DIMA cols=[AK]", "{plan}");
        assert!(!agreed_rows(&db, &sql).is_empty());
    }
}

#[test]
fn two_way_joins_keep_authored_build_side() {
    let db = star_db();
    // Below MIN_RELATIONS the reorderer leaves the tree alone: two-way joins
    // already hash-join and the authored build/probe orientation stands.
    let plan = db
        .compile("SELECT COUNT(*) FROM dima JOIN fact ON fact.fa = dima.ak")
        .unwrap();
    let mut scans = Vec::new();
    scan_names(&plan, &mut scans);
    assert_eq!(scans, vec!["DIMA".to_string(), "FACT".to_string()]);
}

#[test]
fn null_presence_predicates_prune_partitions() {
    // Satellite: IS NULL / IS NOT NULL reach the scan and prune using
    // the null count of each partition's column statistics. One partition is
    // entirely NULL, three have none.
    let db = Database::new();
    db.load_table(
        "t",
        vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("X", ColumnType::Int)],
        (0..32).map(|i| {
            let x = if (8..16).contains(&i) { Variant::Null } else { Variant::Int(i) };
            vec![Variant::Int(i), x]
        }),
        8,
    )
    .unwrap();
    let r = db.query("SELECT COUNT(*) FROM t WHERE x IS NULL").unwrap();
    assert_eq!(r.rows[0][0], Variant::Int(8));
    assert_eq!(
        r.profile.scan.partitions_scanned, 1,
        "only the all-null partition may survive IS NULL pruning"
    );
    let r = db.query("SELECT ID FROM t WHERE x IS NOT NULL").unwrap();
    assert_eq!(r.rows.len(), 24);
    assert_eq!(
        r.profile.scan.partitions_scanned, 3,
        "the all-null partition must be pruned for IS NOT NULL"
    );
}

// ---- dead-column elimination ------------------------------------------------
//
// Structural contract of `optimize::narrow`: what is dropped, what must stay,
// and that column renumbering composes through every operator. Result
// equivalence with the raw plan is asserted alongside; the verification
// lattice covers it at corpus scale.

fn find<'a>(node: &'a Node, pred: &dyn Fn(&Node) -> bool) -> Option<&'a Node> {
    if pred(node) {
        return Some(node);
    }
    node.kind.inputs().into_iter().find_map(|n| find(n, pred))
}

/// Rows of the optimized plan, checked against the raw plan's.
fn agreed_rows(db: &Database, sql: &str) -> Vec<Vec<Variant>> {
    let optimized = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let raw = db.query_with(sql, &QueryOptions { optimize: false, ..Default::default() }).unwrap();
    assert_eq!(optimized.rows, raw.rows, "optimized and raw plans disagree on {sql}");
    assert_eq!(optimized.columns, raw.columns, "column names changed for {sql}");
    optimized.rows
}

#[test]
fn dead_expressions_go_unless_they_can_raise() {
    let db = two_tables();
    // The SEQ8 filter pins the inner projection in place (nothing merges
    // across it), so what survives in it is narrowing's doing.
    let inner_exprs = |dead: &str| {
        let sql = format!(
            "SELECT i FROM (SELECT id AS i, {dead} AS d, SEQ8() AS s FROM a) WHERE s >= 0"
        );
        let plan = db.compile(&sql).unwrap();
        agreed_rows(&db, &sql);
        let inner = find(&plan, &|n| {
            matches!(&n.kind, NodeKind::Project { exprs, .. } if exprs.iter().any(|e| e.is_volatile()))
        })
        .unwrap_or_else(|| panic!("no SEQ8 projection in {plan:?}"));
        inner.arity()
    };
    assert_eq!(inner_exprs("x + 1"), 2, "a dead error-free expression is dropped");
    assert_eq!(inner_exprs("x"), 2, "a dead pass-through column is dropped");
    assert_eq!(inner_exprs("10 / (x + 1)"), 3, "a dead division could raise and stays");
    assert_eq!(inner_exprs("x::VARCHAR"), 3, "a dead cast could raise and stays");
}

#[test]
fn dead_aggregates_go_unless_they_can_raise() {
    let db = two_tables();
    let aggs_left = |sql: &str| {
        agreed_rows(&db, sql);
        let plan = db.compile(sql).unwrap();
        match &find(&plan, &|n| matches!(n.kind, NodeKind::Aggregate { .. })).unwrap().kind {
            NodeKind::Aggregate { groups, aggs, .. } => (groups.len(), aggs.len()),
            _ => unreachable!(),
        }
    };
    // Flag-column shape: group by a row id, drag the other columns along in
    // ANY_VALUE, read one of them.
    assert_eq!(
        aggs_left(
            "SELECT g, c FROM (SELECT x AS g, COUNT(*) AS c, ANY_VALUE(id) AS v, MAX(id) AS m, \
             ARRAY_AGG(id) AS l FROM a GROUP BY x)"
        ),
        (1, 1)
    );
    // SUM, AVG and the boolean aggregates reject values of the wrong type in
    // the fold itself, whatever their argument: dead or not, they stay.
    for dead in ["SUM(id)", "AVG(id)", "BOOLAND_AGG(id > 3)", "BOOLOR_AGG(id > 3)"] {
        let sql = format!("SELECT g FROM (SELECT x AS g, {dead} AS d FROM a GROUP BY x)");
        assert_eq!(aggs_left(&sql), (1, 1), "{dead} could raise and stays");
    }
    assert_eq!(
        aggs_left("SELECT g FROM (SELECT x AS g, MIN(100 / (id + 1)) AS m FROM a GROUP BY x)"),
        (1, 1),
        "an aggregate whose argument could raise stays"
    );
    // Group keys decide the rows: a dead key stays.
    assert_eq!(
        aggs_left("SELECT c FROM (SELECT x AS g, id % 2 AS h, COUNT(*) AS c FROM a GROUP BY x, id % 2)"),
        (2, 1)
    );
}

/// The error a dead aggregate's fold or a dead expression raises is the
/// query's error with the optimizer on as with it off.
#[test]
fn a_dead_aggregate_that_raises_still_raises() {
    let db = Database::new();
    db.load_table(
        "t",
        vec![ColumnDef::new("K", ColumnType::Int), ColumnDef::new("V", ColumnType::Variant)],
        (0..8).map(|i| vec![Variant::Int(i % 2), Variant::str(format!("s{i}"))]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let dead_aggregates = ["SUM(v)", "AVG(v)", "BOOLAND_AGG(v)", "BOOLOR_AGG(v)"]
        .map(|dead| format!("SELECT k FROM (SELECT k, {dead} AS d FROM t GROUP BY k)"));
    // Nothing pins the inner projection here: merging it into the outer one
    // must not drop the division by the zero in `k`.
    let dead_expression = "SELECT k FROM (SELECT k, 1 / k AS boom FROM t)".to_string();
    // Nor may merging move it behind a guard that skips the zero.
    let guarded_expression =
        "SELECT CASE WHEN k <> 0 THEN boom END FROM (SELECT k, 1 / k AS boom FROM t)".to_string();
    for sql in dead_aggregates.into_iter().chain([dead_expression, guarded_expression]) {
        let raw = db
            .query_with(&sql, &QueryOptions { optimize: false, ..Default::default() })
            .expect_err("the raw plan raises");
        let optimized = db.query(&sql).expect_err("the optimized plan raises too");
        assert_eq!(optimized.to_string(), raw.to_string(), "{sql}");
    }
    // The same shape over an aggregate that accepts any value drops it.
    let sql = "SELECT k FROM (SELECT k, MAX(v) AS d FROM t GROUP BY k) ORDER BY k";
    assert_eq!(agreed_rows(&db, sql), vec![vec![Variant::Int(0)], vec![Variant::Int(1)]]);
    // An expression that can raise still merges into a position evaluated on
    // every row: one projection is left, and it raises as two did.
    let sql = "SELECT boom + 1 FROM (SELECT k, 1 / k AS boom FROM t)";
    let plan = db.compile(sql).unwrap();
    let NodeKind::Project { input, .. } = &plan.kind else { panic!("a projection: {plan:?}") };
    assert!(matches!(input.kind, NodeKind::Scan { .. }), "the projections merged: {plan:?}");
    let raw = db.query_with(sql, &QueryOptions { optimize: false, ..Default::default() });
    assert_eq!(db.query(sql).unwrap_err().to_string(), raw.unwrap_err().to_string());
}

#[test]
fn identity_projections_vanish_and_names_survive() {
    let db = two_tables();
    let plan = db.compile("SELECT i, j FROM (SELECT id AS i, x AS j FROM (SELECT id, x FROM a))").unwrap();
    assert!(matches!(plan.kind, NodeKind::Scan { .. }), "only the scan is left: {plan:?}");
    let r = db.query("SELECT i, j FROM (SELECT id AS i, x AS j FROM (SELECT id, x FROM a))").unwrap();
    assert_eq!(r.columns, vec!["I".to_string(), "J".to_string()]);
    assert_eq!(r.rows.len(), 1000);
    // A reordering projection is not the identity.
    let plan = db.compile("SELECT x, id FROM a").unwrap();
    assert!(matches!(plan.kind, NodeKind::Project { .. }));
}

#[test]
fn narrowing_composes_through_joins_unions_and_distinct() {
    let db = two_tables();

    // Join: each side keeps its key and the one column read above it.
    let sql = "SELECT s.y, r.x FROM (SELECT id, x, x + 1 AS d FROM a WHERE x > 3) r \
               JOIN (SELECT id, y, y * 2 AS e, id + y AS f FROM b) s ON r.id = s.id ORDER BY 1, 2";
    assert_eq!(agreed_rows(&db, sql).len(), 764);
    let plan = db.compile(sql).unwrap();
    let join = find(&plan, &|n| matches!(n.kind, NodeKind::Join { .. })).unwrap();
    assert_eq!(join.arity(), 4, "id, x | id, y: {plan:?}");

    // UNION ALL: both branches are cut to the same single column even though
    // the filtered branch reads another one below.
    let sql = "SELECT i FROM (SELECT id AS i, x AS v FROM a WHERE x > 3 \
               UNION ALL SELECT id, y FROM b) ORDER BY 1";
    assert_eq!(agreed_rows(&db, sql).len(), 1764);
    let plan = db.compile(sql).unwrap();
    let union = find(&plan, &|n| matches!(n.kind, NodeKind::UnionAll { .. })).unwrap();
    assert_eq!(union.arity(), 1);
    assert!(union.kind.inputs().iter().all(|side| side.arity() == 1), "{plan:?}");

    // DISTINCT compares whole rows: the unread column must survive below it.
    let sql = "SELECT m FROM (SELECT DISTINCT id % 5 AS m, x % 3 AS n FROM a) ORDER BY 1";
    assert_eq!(agreed_rows(&db, sql).len(), 15);
    let plan = db.compile(sql).unwrap();
    let distinct = find(&plan, &|n| matches!(n.kind, NodeKind::Distinct { .. })).unwrap();
    assert_eq!(distinct.kind.inputs()[0].arity(), 2);
}

#[test]
fn flatten_emits_only_the_columns_read() {
    let db = Database::new();
    db.load_table(
        "t",
        vec![ColumnDef::new("ID", ColumnType::Int), ColumnDef::new("V", ColumnType::Variant)],
        (0..24).map(|i| {
            let v = match i % 3 {
                0 => Variant::array((0..(i % 4)).map(Variant::Int).collect::<Vec<_>>()),
                1 => snowdb::variant::parse_json(&format!(r#"{{"a": {i}, "b": [{i}]}}"#)).unwrap(),
                _ => Variant::Null,
            };
            vec![Variant::Int(i), v]
        }),
        8,
    )
    .unwrap();
    let emitted = |sql: &str| {
        agreed_rows(&db, sql);
        let plan = db.compile(sql).unwrap();
        match find(&plan, &|n| matches!(n.kind, NodeKind::Flatten { .. })).unwrap().kind {
            NodeKind::Flatten { emit, .. } => emit,
            _ => unreachable!(),
        }
    };
    // VALUE, INDEX, KEY, SEQ, THIS.
    assert_eq!(
        emitted("SELECT id, f.value FROM t, LATERAL FLATTEN(INPUT => v, OUTER => TRUE) f"),
        [true, false, false, false, false]
    );
    assert_eq!(
        emitted("SELECT f.key, f.seq, f.this FROM t, LATERAL FLATTEN(INPUT => v) f WHERE f.index IS NULL"),
        [false, true, true, true, true]
    );
    assert_eq!(
        emitted("SELECT COUNT(*) FROM t, LATERAL FLATTEN(INPUT => v) f"),
        [false; 5]
    );
    assert_eq!(
        emitted("SELECT * FROM t, LATERAL FLATTEN(INPUT => v, OUTER => TRUE) f"),
        [true; 5]
    );
}

// ---- shared subplans ---------------------------------------------------------

fn share_ids(node: &Node) -> Vec<u32> {
    let mut out = Vec::new();
    walk(node, &mut |n| out.extend(n.share));
    out
}

#[test]
fn time_travel_and_clones_are_never_unified_with_their_source() {
    let db = Database::new();
    db.execute("CREATE TABLE t (k INT)").unwrap(); // v1
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap(); // v2
    db.execute("UPDATE t SET k = k * 10 WHERE k > 1").unwrap(); // v3
    db.execute("CREATE TABLE c CLONE t").unwrap();
    db.execute("DELETE FROM c WHERE k = 30").unwrap();

    let join = |right: &str| {
        format!(
            "SELECT x.k, y.k FROM (SELECT k FROM t WHERE k > 0) x \
             JOIN (SELECT k FROM {right} WHERE k > 0) y ON x.k >= y.k ORDER BY 1, 2"
        )
    };
    // The same snapshot twice is one subtree read twice...
    let same = join("t");
    assert_eq!(share_ids(&db.compile(&same).unwrap()), vec![1, 1]);
    assert_eq!(agreed_rows(&db, &same).len(), 6);
    // ...but the table's past and a diverged clone are different tables.
    for (right, rows) in [("t AT(VERSION => 2)", 7), ("c", 5)] {
        let sql = join(right);
        let plan = db.compile(&sql).unwrap();
        assert!(share_ids(&plan).is_empty(), "{right} unified with t:\n{plan:?}");
        assert_eq!(agreed_rows(&db, &sql).len(), rows, "{right}");
    }
}

#[test]
fn generated_q6_scans_at_most_twice_the_handwritten_bytes() {
    use jsoniq_core::snowflake::{translate_query, NestedStrategy};
    let db = std::sync::Arc::new(Database::new());
    adl::load_into(&db, "hep", &adl::AdlConfig { events: 512, seed: 42, partition_rows: 64 });
    let q6 = adl::queries::queries("hep").into_iter().find(|q| q.id == "q6").unwrap();
    assert!(q6.join_based);
    let generated = translate_query(db.clone(), &q6.jsoniq, NestedStrategy::JoinBased)
        .unwrap()
        .sql()
        .to_string();
    let scanned = |sql: &str| db.query(sql).unwrap().profile.scan.bytes_scanned;
    let (gen, hand) = (scanned(&generated), scanned(&q6.handwritten_sql));
    assert!(gen <= 2 * hand, "generated q6 scans {gen} bytes, handwritten {hand}");
    // The JOIN-based translation names its upstream four times; it runs once.
    let plan = db.compile(&generated).unwrap();
    let mut scans = Vec::new();
    find_scans(&plan, &mut scans);
    assert!(scans.len() > 1, "the plan tree still repeats the upstream");
    let rendered = db.explain(&generated).unwrap();
    assert_eq!(rendered.matches("Scan HEP").count(), 1, "{rendered}");
}

/// The dataframe layer hands the optimizer the shape handwritten SQL has — a
/// `FROM` list of tables and one `WHERE` — so a generated SSB star join is
/// one reorderable cluster and gets the handwritten join order. For Q2.x the
/// whole plan below the final `OBJECT_CONSTRUCT` projection is the
/// handwritten plan. The other flights differ above the joins only where
/// their JSONiq says something else than their SQL: `sum()` of an empty
/// sequence is 0 (an `NVL` sort key, and a second `SUM` for it in Q3.x), an
/// `or` of equalities is not an `IN` list, and Q4.x sums a `let`-bound
/// difference.
#[test]
fn generated_ssb_joins_are_the_handwritten_joins() {
    use jsoniq_core::snowflake::{translate_query, NestedStrategy};
    let db = std::sync::Arc::new(Database::new());
    ssb::load_ssb_tiny(&db, &ssb::SsbConfig { seed: 42, ..Default::default() });
    let joins = |plan: &str| -> Vec<String> {
        plan.lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("InnerJoin") || l.starts_with("Scan"))
            .map(|l| l.split("  (est_rows").next().unwrap().to_string())
            .collect()
    };
    for q in ssb::queries() {
        let generated = translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
            .unwrap()
            .sql()
            .to_string();
        let (gen, hand) = (db.explain(&generated).unwrap(), db.explain(&q.sql).unwrap());
        let (top, below) = gen.split_once('\n').unwrap();
        assert!(top.starts_with("Project [ObjectConstruct("), "{}: {gen}", q.id);
        let below: String = below.lines().map(|l| format!("{}\n", &l[2..])).collect();
        if q.id.starts_with("q2") {
            assert_eq!(below, hand, "{}", q.id);
        }
        assert_eq!(joins(&below), joins(&hand), "{}:\n{below}\n{hand}", q.id);
        assert!(joins(&hand).len() >= 3, "{}", q.id);
    }
}

/// ADL on 64 events, and the generated SQL of one query under `strategy`.
fn adl_generated(
    id: &str,
    strategy: jsoniq_core::snowflake::NestedStrategy,
) -> (std::sync::Arc<Database>, String) {
    let db = std::sync::Arc::new(Database::new());
    adl::load_into(&db, "hep", &adl::AdlConfig { events: 64, seed: 42, partition_rows: 16 });
    let q = adl::queries::queries("hep").into_iter().find(|q| q.id == id).unwrap();
    let sql = jsoniq_core::snowflake::translate_query(db.clone(), &q.jsoniq, strategy)
        .unwrap()
        .sql()
        .to_string();
    (db, sql)
}

/// `EXPLAIN` without the cost annotations.
fn operators(db: &Database, sql: &str) -> String {
    db.explain(sql)
        .unwrap()
        .lines()
        .map(|l| format!("{}\n", l.split("  (est_rows").next().unwrap()))
        .collect()
}

/// Generated ADL q4 under the paper's flag-column strategy: `count(…) ge 2`
/// rejects the empty group, so the nested query's `KEEP` test filters below
/// the row-id aggregate, the flatten under it is inner, and the aggregate
/// reads what handwritten q4's does (DESIGN.md, "Empty-group elimination").
/// Its `INDEX IS NOT NULL` is the flatten's `from=0`, which leaves `INDEX`
/// unread (DESIGN.md, "Index-bounded flatten").
#[test]
fn generated_q4_filters_its_jets_below_the_row_id_aggregate() {
    let (db, sql) = adl_generated("q4", jsoniq_core::snowflake::NestedStrategy::FlagColumn);
    assert_eq!(
        operators(&db, &sql),
        "\
Project [ObjectConstruct(\"value\", (0.0 + ((#0 + 0.5) * 4.0)), \"count\", Nvl(#1, 0))]
  Sort [#0]
    Aggregate group=[#0] aggs=[COUNT(*)]
      Project [Floor(((Iff((#0 < 0.0), 0.0, Iff((#0 >= 200.0), 198.0, #0)) - 0.0) / 4.0))]
        Project [#2:PT]
          Filter (#1 >= 2)
            Aggregate group=[#1] aggs=[COUNT(#2), ANY_VALUE(#0)]
              Project [#0, #2, #3]
                Filter (#3:PT > 40)
                  Flatten input=#1 from=0 emit=[VALUE]
                    Project [#1, #5, Seq8()]
                      Scan HEP cols=[MET, JET]
"
    );
    agreed_rows(&db, &sql);
}

/// Under the JOIN-based strategy the same predicate turns q4's and q5's left
/// outer join inner, and a count needs no `NVL`.
#[test]
fn generated_join_based_q4_and_q5_join_inner_on_a_bare_count() {
    for id in ["q4", "q5"] {
        let (db, sql) = adl_generated(id, jsoniq_core::snowflake::NestedStrategy::JoinBased);
        let plan = operators(&db, &sql);
        assert!(plan.contains("InnerJoin") && !plan.contains("LeftOuterJoin"), "{id}:\n{plan}");
        let filter = plan
            .lines()
            .find(|l| l.trim_start().starts_with("Filter (#1"))
            .unwrap_or_else(|| panic!("{id}:\n{plan}"));
        assert!(!filter.contains("Nvl"), "{id}:\n{plan}");
        agreed_rows(&db, &sql);
    }
}

// ---- index-bounded flatten ---------------------------------------------------
//
// A filter's positional conjuncts over an inner flatten become the flatten's
// `from=` bound (`optimize::flatten_bound`; DESIGN.md, "Index-bounded
// flatten"). Each firing case is pinned as `EXPLAIN` text and its rows are
// checked against the raw plan's; each refusal leaves the conjunct in the
// filter.

/// `ID`; `XS` by `ID % 5`: an object (at `ID = 0` too), an array mixing an
/// integer, an object, a string and a NULL, an integer, NULL, and a
/// six-item array; `YS` = `[0 ..= ID % 4]`; a float `F`, a string `S` and
/// an integer `N` that are no index.
fn bound_db() -> Database {
    use snowdb::variant::parse_json;
    let db = Database::new();
    db.load_table(
        "t",
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("XS", ColumnType::Variant),
            ColumnDef::new("YS", ColumnType::Variant),
            ColumnDef::new("F", ColumnType::Float),
            ColumnDef::new("S", ColumnType::Str),
            ColumnDef::new("N", ColumnType::Int),
        ],
        (0..15i64).map(|i| {
            let xs = match i % 5 {
                0 => format!("{{\"a\": {i}, \"b\": {}}}", -i),
                1 => format!("[{i}, {{\"k\": {i}}}, \"s\", null]"),
                2 => i.to_string(),
                3 => "null".to_string(),
                _ => "[1, 2, 3, 4, 5, 6]".to_string(),
            };
            vec![
                Variant::Int(i),
                parse_json(&xs).unwrap(),
                Variant::array((0..=i % 4).map(Variant::Int).collect::<Vec<_>>()),
                Variant::Float(i as f64 / 4.0),
                Variant::from(i.to_string()),
                Variant::Int(i % 3),
            ]
        }),
        4,
    )
    .unwrap();
    db
}

/// The two-flatten statement every bound test starts from.
const PAIRS: &str = "SELECT ID, A.INDEX, B.INDEX, B.VALUE FROM t, \
    LATERAL FLATTEN(INPUT => XS) A, LATERAL FLATTEN(INPUT => YS) B WHERE";

/// The `from=` bounds of the optimized plan's flattens, bottom up.
fn flatten_bounds(db: &Database, sql: &str) -> Vec<Option<String>> {
    db.explain(sql)
        .unwrap()
        .lines()
        .rev()
        .filter(|l| l.trim_start().starts_with("Flatten"))
        .map(|l| l.split(" from=").nth(1).map(|b| b.split(' ').next().unwrap().to_string()))
        .collect()
}

#[test]
fn a_strict_index_comparison_becomes_the_bound() {
    let db = bound_db();
    let sql = format!("{PAIRS} A.INDEX < B.INDEX");
    assert_eq!(
        operators(&db, &sql),
        "\
Project [#0, #7, #12, #11]
  Flatten input=#2 from=(#7 + 1) emit=[VALUE, INDEX]
    Flatten input=#1 emit=[INDEX]
      Scan T cols=[ID, XS, YS]
"
    );
    // The mirrored form, and JSONiq's 1-based positions, are the same bound.
    for p in ["B.INDEX > A.INDEX", "A.INDEX + 1 < B.INDEX + 1", "B.INDEX + 1 > A.INDEX + 1"] {
        let other = format!("{PAIRS} {p}");
        assert_eq!(operators(&db, &other), operators(&db, &sql), "{p}");
        assert_eq!(agreed_rows(&db, &other), agreed_rows(&db, &sql), "{p}");
    }
    // Array rows only: row 1's array against `YS` = [0, 1], items past the
    // first; row 4's six items against five.
    assert!(!agreed_rows(&db, &sql).is_empty());
}

#[test]
fn a_non_strict_index_comparison_bounds_at_the_index_itself() {
    let db = bound_db();
    let sql = format!("{PAIRS} B.INDEX >= A.INDEX");
    assert_eq!(
        operators(&db, &sql),
        "\
Project [#0, #7, #12, #11]
  Flatten input=#2 from=#7 emit=[VALUE, INDEX]
    Flatten input=#1 emit=[INDEX]
      Scan T cols=[ID, XS, YS]
"
    );
    let other = format!("{PAIRS} A.INDEX + 1 <= B.INDEX + 1");
    assert_eq!(operators(&db, &other), operators(&db, &sql));
    assert_eq!(agreed_rows(&db, &other), agreed_rows(&db, &sql));
}

#[test]
fn index_is_not_null_alone_bounds_at_zero() {
    let db = bound_db();
    let sql = "SELECT ID, A.VALUE FROM t, LATERAL FLATTEN(INPUT => XS) A WHERE A.INDEX IS NOT NULL";
    assert_eq!(
        operators(&db, sql),
        "\
Project [#0, #6]
  Flatten input=#1 from=0 emit=[VALUE]
    Scan T cols=[ID, XS]
"
    );
    // Array items only: rows 1, 6, 11 (four items each) and 4, 9, 14 (six).
    assert_eq!(agreed_rows(&db, sql).len(), 3 * 4 + 3 * 6);
}

#[test]
fn index_is_not_null_beside_a_comparison_is_one_bound() {
    let db = bound_db();
    let sql = format!("{PAIRS} B.INDEX IS NOT NULL AND A.INDEX IS NOT NULL AND A.INDEX < B.INDEX");
    assert_eq!(
        operators(&db, &sql),
        "\
Project [#0, #7, #12, #11]
  Flatten input=#2 from=(#7 + 1) emit=[VALUE, INDEX]
    Flatten input=#1 from=0 emit=[INDEX]
      Scan T cols=[ID, XS, YS]
"
    );
    assert_eq!(agreed_rows(&db, &sql), agreed_rows(&db, &format!("{PAIRS} A.INDEX < B.INDEX")));
}

#[test]
fn an_outer_flatten_that_stays_outer_takes_no_bound() {
    // The comparison that rejects the pad rows is followed by a raising
    // conjunct, so it may not leave the filter (`optimize::may_leave`): the
    // pad rows stay, and a bound is for inner flattens only.
    let db = bound_db();
    let sql = "SELECT ID, A.INDEX, B.INDEX FROM t, LATERAL FLATTEN(INPUT => XS) A, \
               LATERAL FLATTEN(INPUT => YS, OUTER => TRUE) B WHERE A.INDEX < B.INDEX AND 10 / (ID + 1) > 0";
    assert!(keeps_outer_flatten(&db, sql), "{}", db.explain(sql).unwrap());
    assert_eq!(flatten_bounds(&db, sql), [None, None]);
}

#[test]
fn a_bound_must_be_the_index_of_a_flatten_below() {
    let db = bound_db();
    // A float, a string, an integer column and a flatten's VALUE are no index;
    // nor is anything computed from an index but `+ c` on both sides.
    for x in ["F", "S", "N", "A.VALUE", "ABS(A.INDEX)", "A.INDEX * 1"] {
        let sql = format!("{PAIRS} A.INDEX IS NOT NULL AND {x} < B.INDEX");
        assert_eq!(flatten_bounds(&db, &sql), [Some("0".into()), None], "{x}");
        match x {
            // A string or an object against an integer raises.
            "S" | "A.VALUE" => assert!(agreed_error(&db, &sql).contains("cannot compare"), "{x}"),
            _ => assert!(!agreed_rows(&db, &sql).is_empty(), "{x}"),
        }
    }
}

#[test]
fn different_literals_on_the_two_sides_are_no_bound() {
    let db = bound_db();
    for p in [
        "A.INDEX + 1 < B.INDEX + 2",
        "A.INDEX + 1 < B.INDEX",
        "A.INDEX < B.INDEX - 1",
        "A.INDEX + 1.0 < B.INDEX + 1.0",
        "A.INDEX + 4294967296 < B.INDEX + 4294967296",
    ] {
        let sql = format!("{PAIRS} {p}");
        assert_eq!(flatten_bounds(&db, &sql), [None, None], "{p}");
        agreed_rows(&db, &sql);
    }
}

/// The rows of `sql` under the optimized and the raw plan must both be this
/// error; returns it.
fn agreed_error(db: &Database, sql: &str) -> String {
    let optimized = db.query(sql).map(|r| r.rows).unwrap_err().to_string();
    let raw = db.query_with(sql, &QueryOptions { optimize: false, ..Default::default() });
    assert_eq!(raw.map(|r| r.rows).unwrap_err().to_string(), optimized, "{sql}");
    optimized
}

#[test]
fn a_raising_conjunct_keeps_its_error() {
    let db = bound_db();
    // Before the comparison, `10 / ID` runs on every row the bound would
    // drop; after it, on every row where the comparison is NULL (`ID = 0`
    // flattens an object: its `INDEX` is NULL). Either way the comparison
    // stays in the filter and `ID = 0` raises.
    for p in ["10 / ID > 0 AND A.INDEX < B.INDEX", "A.INDEX < B.INDEX AND 10 / ID > 0"] {
        let sql = format!("{PAIRS} {p}");
        assert!(agreed_error(&db, &sql).contains("division by zero"), "{p}");
        assert!(!db.explain(&sql).unwrap().contains("from="), "{p}");
    }
    // `INDEX IS NOT NULL` before the raising conjunct is FALSE on every row
    // it drops, where the filter never reaches the division.
    let sql = format!("{PAIRS} A.INDEX IS NOT NULL AND 10 / ID > 0");
    assert_eq!(flatten_bounds(&db, &sql), [Some("0".into()), None]);
    assert!(!agreed_rows(&db, &sql).is_empty());
    // After it, the test neither bounds `A` nor moves below `B` as a
    // filter: either way `ID = 0`'s object members would be gone before the
    // division runs on them.
    let sql = format!("{PAIRS} 10 / ID > 0 AND A.INDEX IS NOT NULL");
    assert!(agreed_error(&db, &sql).contains("division by zero"));
    assert!(!db.explain(&sql).unwrap().contains("from="));
    assert_filter_stays_above(&db, &sql);
}

#[test]
fn a_volatile_flatten_input_takes_no_bound() {
    let db = bound_db();
    let sql = "SELECT ID, A.INDEX, B.VALUE FROM t, LATERAL FLATTEN(INPUT => YS) A, \
               LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT(SEQ8(), SEQ8())) B WHERE A.INDEX < B.INDEX";
    assert_eq!(flatten_bounds(&db, sql), [None, None]);
    assert!(!agreed_rows(&db, sql).is_empty());
}

#[test]
fn a_flatten_takes_one_comparison_bound() {
    let db = bound_db();
    let sql = "SELECT ID, C.VALUE FROM t, LATERAL FLATTEN(INPUT => YS) A, \
               LATERAL FLATTEN(INPUT => YS) B, LATERAL FLATTEN(INPUT => YS) C \
               WHERE A.INDEX < C.INDEX AND B.INDEX < C.INDEX";
    let plan = operators(&db, sql);
    assert_eq!(flatten_bounds(&db, sql), [None, None, Some("(#7".into())], "{plan}");
    assert!(plan.contains("Filter (#12 < #17)"), "{plan}");
    assert!(!agreed_rows(&db, sql).is_empty());
}

// ---- the movement rule at projections and flatten inputs -------------------

/// `t(X)` = 0..7.
fn x_db() -> Database {
    let db = Database::new();
    let rows = (0..8).map(|i| vec![Variant::Int(i)]);
    db.load_table("t", vec![ColumnDef::new("X", ColumnType::Int)], rows, 4).unwrap();
    db
}

#[test]
fn a_projection_that_can_raise_holds_the_filter_above_it() {
    // `10 / X` raises at `X = 0`; `X <> 0` below the projection would keep
    // the division from that row.
    let db = x_db();
    let sql = "SELECT Y, X FROM (SELECT 10 / X AS Y, X FROM t) WHERE X <> 0";
    assert!(agreed_error(&db, sql).contains("division by zero"));
    let plan = "Filter (#1 <> 0)\n  Project [(10 / #0), #0]\n    Scan T cols=[X]\n";
    assert_eq!(operators(&db, sql), plan);
    // By a literal divisor it cannot raise, and the filter reaches the scan.
    let sql = "SELECT Y, X FROM (SELECT X / 10 AS Y, X FROM t) WHERE X <> 0";
    assert_eq!(agreed_rows(&db, sql).len(), 7);
    assert!(operators(&db, sql).starts_with("Project [(#0 / 10), #0]\n  Filter (#0 <> 0)\n"));
}

#[test]
fn a_flatten_input_that_can_raise_holds_the_filter_above_it() {
    let db = x_db();
    let sql = "SELECT X, F.VALUE FROM t, LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT(10 / X)) F WHERE X <> 0";
    assert!(agreed_error(&db, sql).contains("division by zero"));
    assert_filter_stays_above(&db, sql);
    let sql = "SELECT X, F.VALUE FROM t, LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT(X % 3)) F WHERE X <> 0";
    assert_eq!(agreed_rows(&db, sql).len(), 7);
    let plan = db.compile(sql).unwrap();
    let flatten = find(&plan, &|n| matches!(n.kind, NodeKind::Flatten { .. })).unwrap();
    assert!(contains_filter(flatten), "{}", db.explain(sql).unwrap());
}

#[test]
fn a_literal_divisor_lets_a_modulo_key_become_a_hash_join() {
    // `/`, `%` and `MOD` by a numeric literal that is neither 0 nor NULL
    // cannot raise, so `L.EVENT % 40 = R.ID` may leave the filter: both
    // equalities become hash joins instead of one filter over two cross
    // joins.
    let db = Database::new();
    adl::load_into(&db, "hep", &adl::AdlConfig { events: 120, seed: 42, partition_rows: 16 });
    snowdb::verify::gen::load_irregular(&db, "IRR", 40, 0x1dd).unwrap();
    let sql = "SELECT L.EVENT, R.ID, S.ID FROM hep L CROSS JOIN IRR R CROSS JOIN IRR S \
               WHERE S.ID = R.ID AND L.EVENT % 40 = R.ID ORDER BY L.EVENT";
    let plan = operators(&db, sql);
    assert_eq!(plan.matches("InnerJoin on=").count(), 2, "{plan}");
    assert!(!plan.contains("CrossJoin") && !plan.contains("Filter"), "{plan}");
    assert_eq!(agreed_rows(&db, sql).len(), 120);
}

// ---- the KEEP gate -----------------------------------------------------------
//
// A gated row-id aggregate — every aggregate `AGG(IFF(keep, x, NULL))` with
// one `keep`, or `ANY_VALUE` of a column constant per the row id — gets a
// copy of `keep`'s conjuncts as a run-preserving filter (`per=`) that keeps
// a row of every row id (`optimize::keep`; DESIGN.md, "Empty-group
// elimination"). It is kept where it moved below a flatten or an aggregate,
// or bounded a flatten by a comparison. No filter above rejects the empty
// group here, so only the gate narrows the rows.

/// A row-id aggregate over the pairs by position of `t`'s `XS`: `aggs` read
/// `KEEP` (from `keep`), `V` (the second element) and `ID`.
fn gate_sql(keep: &str, aggs: &str) -> String {
    format!(
        "SELECT RID, {aggs} FROM (\
           SELECT RID, ID, B.VALUE AS V, ({keep}) AS KEEP FROM (SELECT ID, XS, SEQ8() AS RID FROM t), \
           LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS A, LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS B) \
         GROUP BY RID ORDER BY RID"
    )
}

/// The flag-column `keep` of `for $a at $i in $t.XS[] for $b at $j in
/// $t.XS[] where $i lt $j and $b gt 0`.
const GATE_KEEP: &str = "(A.INDEX IS NOT NULL AND B.INDEX IS NOT NULL) \
    AND IFF(A.INDEX + 1 < B.INDEX + 1 AND B.VALUE > 0, TRUE, FALSE)";

#[test]
fn a_gated_row_id_aggregate_flattens_only_kept_pairs_and_one_pad_per_row() {
    let db = flatten_db();
    let sql = gate_sql(GATE_KEEP, "COUNT(IFF(KEEP, V, NULL)), ANY_VALUE(ID)");
    assert_eq!(
        operators(&db, &sql),
        "\
Sort [#0]
  Aggregate group=[#0] aggs=[COUNT(Iff(#3, #2, null)), ANY_VALUE(#1)]
    Project [#2, #0, #8, (((#4 IS NOT NULL) AND (#9 IS NOT NULL)) AND Iff((((#4 + 1) < (#9 + 1)) AND (#8 > 0)), true, false))]
      Filter (#8 > 0) per=#2
        Flatten OUTER input=#1 from=(#4 + 1) emit=[VALUE, INDEX]
          Flatten OUTER input=#1 from=0 emit=[INDEX]
            Project [#0, #1, Seq8()]
              Scan T cols=[ID, XS]
"
    );
    // Every row id keeps its group: `ID % 3 = 0` has an empty array, and
    // `ID % 3 = 1` one item and no pair; `ID % 3 = 2` has the pair (0, 1).
    let rows = agreed_rows(&db, &sql);
    assert_eq!(rows.len(), 8);
    assert!(rows.iter().all(|r| r[1] == Variant::Int(i64::from(r[2].as_i64().unwrap() % 3 == 2))));
}

/// Whether the optimized plan of `sql` has a run-preserving filter or an
/// `OUTER` flatten with a bound.
fn gated_plan(db: &Database, sql: &str) -> bool {
    let plan = db.compile(sql).unwrap();
    find(&plan, &|n| {
        matches!(n.kind, NodeKind::Filter { per: Some(_), .. } | NodeKind::Flatten { outer: true, from: Some(_), .. })
    })
    .is_some()
}

/// [`gated_plan`], after checking the rows of `sql` against the raw plan's.
fn gated(db: &Database, sql: &str) -> bool {
    agreed_rows(db, sql);
    gated_plan(db, sql)
}

#[test]
fn an_ungated_count_refuses_the_gate() {
    let db = flatten_db();
    assert!(gated(&db, &gate_sql(GATE_KEEP, "COUNT(IFF(KEEP, V, NULL))")));
    assert!(!gated(&db, &gate_sql(GATE_KEEP, "COUNT(IFF(KEEP, V, NULL)), COUNT(*)")));
}

#[test]
fn any_value_of_a_flatten_output_refuses_the_gate() {
    let db = flatten_db();
    assert!(!gated(&db, &gate_sql(GATE_KEEP, "COUNT(IFF(KEEP, V, NULL)), ANY_VALUE(V)")));
}

#[test]
fn two_different_keeps_refuse_the_gate() {
    let db = flatten_db();
    let aggs = "COUNT(IFF(KEEP, V, NULL)), SUM(IFF(V IS NOT NULL, V, NULL))";
    assert!(!gated(&db, &gate_sql(GATE_KEEP, aggs)));
}

#[test]
fn a_volatile_keep_refuses_the_gate() {
    let db = flatten_db();
    let sql = gate_sql(GATE_KEEP, "COUNT(IFF(SEQ8() % 2 = 0, V, NULL))");
    assert!(!gated(&db, &sql));
}

#[test]
fn a_raising_keep_conjunct_before_or_after_refuses_the_gate() {
    // `10 / (B.VALUE - 1)` raises on the item 1; the projection that
    // computes `KEEP` holds the copy above it, where it would only test
    // again what `KEEP` tests, so no copy is placed.
    let db = flatten_db();
    let raising = "IFF(10 / (B.VALUE - 1) > 1, TRUE, FALSE)";
    for keep in [format!("{GATE_KEEP} AND {raising}"), format!("{raising} AND {GATE_KEEP}")] {
        let sql = gate_sql(&keep, "COUNT(IFF(KEEP, V, NULL)), ANY_VALUE(ID)");
        assert!(agreed_error(&db, &sql).contains("division by zero"), "{keep}");
        assert!(!gated_plan(&db, &sql), "{keep}");
    }
}

#[test]
fn an_unread_any_value_of_a_flatten_output_refuses_the_gate() {
    // The `KEEP` pass decides before dead columns go: `ANY_VALUE(V)` is not
    // constant per `RID`, so the aggregate is not gated, although nothing
    // reads `B` and the narrowed plan no longer computes it.
    let db = flatten_db();
    let sql = "SELECT RID, A FROM (\
                 SELECT RID, COUNT(IFF(KEEP, V, NULL)) AS A, ANY_VALUE(V) AS B FROM (\
                   SELECT *, (F.INDEX IS NOT NULL AND IFF(F.VALUE > 0, TRUE, FALSE)) AS KEEP, F.VALUE AS V \
                   FROM (SELECT *, SEQ8() AS RID FROM t), LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F) \
                 GROUP BY RID) \
               ORDER BY RID";
    assert_eq!(
        operators(&db, sql),
        "\
Sort [#0]
  Aggregate group=[#0] aggs=[COUNT(Iff(#1, #2, null))]
    Project [#1, ((#3 IS NOT NULL) AND Iff((#2 > 0), true, false)), #2]
      Flatten OUTER input=#0 emit=[VALUE, INDEX]
        Project [#1, Seq8()]
          Scan T cols=[XS]
"
    );
    let rows = agreed_rows(&db, sql);
    assert_eq!(rows.len(), 8);
}

/// Two nested row-id aggregates over `t`'s `XS` flattened twice, the shape
/// of generated ADL q7: the outer `keep` reads `outer_keep` over the inner
/// aggregate's `ANY_VALUE`s `K0` and `V1` and its count `C`.
fn nested_gate_sql(outer_keep: &str) -> String {
    format!(
        "SELECT R1, SUM(IFF(K1, V1, NULL)) AS S FROM (\
           SELECT R1, V1, (K0 AND IFF({outer_keep}, TRUE, FALSE)) AS K1 FROM (\
             SELECT R2, ANY_VALUE(R1) AS R1, ANY_VALUE(K0) AS K0, ANY_VALUE(V1) AS V1, \
                    COUNT(IFF(K2, 1, NULL)) AS C FROM (\
               SELECT R1, R2, K0, V1, (F2.INDEX IS NOT NULL AND IFF(F2.VALUE > V1, TRUE, FALSE)) AS K2 FROM (\
                 SELECT XS, R1, (F1.INDEX IS NOT NULL) AS K0, F1.VALUE AS V1, SEQ8() AS R2 FROM \
                   (SELECT XS, SEQ8() AS R1 FROM t), LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F1), \
               LATERAL FLATTEN(INPUT => XS, OUTER => TRUE) AS F2) \
             GROUP BY R2)) \
         GROUP BY R1 ORDER BY R1"
    )
}

#[test]
fn a_conjunct_over_an_inner_row_ids_constants_crosses_its_aggregate() {
    // `V1 > 0` reads `ANY_VALUE(V1)`, constant per `R2`: it goes below the
    // inner aggregate and below the second flatten, which then reads only
    // the rows that pass it and one per `R1` that has none. `NVL(C, 0) <= 1`
    // reads the count: it moves below nothing, and no copy of it is kept.
    let db = flatten_db();
    let sql = nested_gate_sql("V1 > 0 AND NVL(C, 0) <= 1");
    let plan = operators(&db, &sql);
    let line = |op: &str| plan.lines().position(|l| l.contains(op)).unwrap_or_else(|| panic!("{plan}"));
    let outer_copy = line("(#2 AND (#3 > 0)) per=");
    assert!(line("Flatten OUTER input=#0 from=0") < outer_copy, "{plan}");
    assert!(outer_copy < line("Seq8()]"), "{plan}");
    assert!(!plan.contains("Filter (Nvl("), "{plan}");
    assert!(!agreed_rows(&db, &sql).is_empty());
}

#[test]
fn a_conjunct_over_an_inner_aggregate_is_not_copied() {
    // `K0` crosses the inner aggregate; `NVL(C, 0) <= 1` reads its count.
    let db = flatten_db();
    let sql = nested_gate_sql("NVL(C, 0) <= 1");
    let plan = operators(&db, &sql);
    assert!(plan.contains("Filter #2 per=#1") && !plan.contains("Filter (Nvl("), "{plan}");
    agreed_rows(&db, &sql);
}
