//! Cost-based planner regression harness.
//!
//! Two gates, per ISSUE 7:
//! - **join-order pins**: every SSB corpus query — both the handwritten SQL
//!   star joins and the JSONiq successive-`for` translation (cross joins
//!   plus one WHERE) — compiles to a pinned join order, the same one for
//!   both. A cost-model change that
//!   silently flips a chosen order fails here with the actual-vs-pinned
//!   signature, not as an unexplained benchmark regression.
//! - **optimizer oracle**: stats-guided plans must stay *semantically*
//!   equivalent to unoptimized execution: seeded random multi-way join
//!   queries run across the full verification lattice (optimize on/off ×
//!   threads × vectorize × encode).
//!
//! Pins encode the plan's scan sequence left-to-right (build-side depth
//! first), which uniquely identifies a left-deep join order. To refresh
//! after a deliberate cost-model change run:
//! `SNOWQ_PIN_UPDATE=1 cargo test -p snowdb --test planner -- --nocapture`
//! and copy the printed lines. With `SNOWQ_PLAN_SNAPSHOT_DIR` set, every
//! pinned query's full `EXPLAIN` (cost-annotated) is written there for CI
//! artifact upload.

mod common;

use std::sync::Arc;

use jsoniq_core::snowflake::{translate_query, NestedStrategy};
use rand::{Rng, SeedableRng, StdRng};
use snowdb::plan::{Node, NodeKind};
use snowdb::verify::{default_lattice, verify_sql, DEFAULT_EPSILON};
use snowdb::Database;

fn ssb_db() -> Arc<Database> {
    let d = Database::new();
    // Same scale/seed as the verify corpus: pins are only meaningful against
    // fixed statistics.
    ssb::load_ssb(&d, &ssb::SsbConfig { lineorders: 2000, seed: 11, partition_rows: 256 });
    Arc::new(d)
}

/// Left-to-right scan sequence of the plan: the join-order signature.
fn scan_order(node: &Node, out: &mut Vec<String>) {
    if let NodeKind::Scan { table, .. } = &node.kind {
        out.push(table.name().to_string());
    }
    for child in node.kind.inputs() {
        scan_order(child, out);
    }
}

fn signature(db: &Database, sql: &str) -> String {
    let plan = db.compile(sql).expect("pinned query must compile");
    let mut order = Vec::new();
    scan_order(&plan, &mut order);
    order.join(",")
}

fn snapshot(db: &Database, tag: &str, sql: &str) {
    if let Ok(dir) = std::env::var("SNOWQ_PLAN_SNAPSHOT_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let text = db.explain(sql).expect("pinned query must explain");
        let _ = std::fs::write(format!("{dir}/{tag}.txt"), format!("-- {sql}\n{text}"));
    }
}

/// Checks one query against its pin, honouring `SNOWQ_PIN_UPDATE`.
fn check_pin(db: &Database, tag: &str, sql: &str, pinned: &str, failures: &mut Vec<String>) {
    let got = signature(db, sql);
    snapshot(db, tag, sql);
    if std::env::var("SNOWQ_PIN_UPDATE").is_ok() {
        println!("(\"{tag}\", \"{got}\"),");
        return;
    }
    if got != pinned {
        failures.push(format!(
            "JOIN ORDER REGRESSION {tag}:\n  pinned: {pinned}\n  actual: {got}\n  sql: {sql}"
        ));
    }
}

/// Pinned scan sequences for the handwritten SSB SQL. The fact table leads
/// every multi-join query: it is the probe side, dimensions are builds.
const SQL_PINS: &[(&str, &str)] = &[
    ("q1.1", "LINEORDER,DDATE"),
    ("q1.2", "LINEORDER,DDATE"),
    ("q1.3", "LINEORDER,DDATE"),
    ("q2.1", "LINEORDER,SUPPLIER,PART,DDATE"),
    ("q2.2", "LINEORDER,SUPPLIER,PART,DDATE"),
    ("q2.3", "LINEORDER,SUPPLIER,PART,DDATE"),
    ("q3.1", "LINEORDER,SUPPLIER,CUSTOMER,DDATE"),
    ("q3.2", "LINEORDER,SUPPLIER,CUSTOMER,DDATE"),
    ("q3.3", "LINEORDER,SUPPLIER,CUSTOMER,DDATE"),
    ("q3.4", "LINEORDER,SUPPLIER,CUSTOMER,DDATE"),
    ("q4.1", "LINEORDER,SUPPLIER,CUSTOMER,PART,DDATE"),
    ("q4.2", "LINEORDER,SUPPLIER,CUSTOMER,PART,DDATE"),
    ("q4.3", "LINEORDER,SUPPLIER,CUSTOMER,PART,DDATE"),
];

#[test]
fn ssb_sql_join_orders_are_pinned() {
    let db = ssb_db();
    let mut failures = Vec::new();
    for q in ssb::queries() {
        let pinned = SQL_PINS
            .iter()
            .find(|(id, _)| *id == q.id)
            .unwrap_or_else(|| panic!("no pin for {}", q.id))
            .1;
        check_pin(&db, &format!("sql-{}", q.id), &q.sql, pinned, &mut failures);
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn ssb_jsoniq_join_orders_are_pinned() {
    let db = ssb_db();
    let mut failures = Vec::new();
    for q in ssb::queries() {
        let sql = translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
            .unwrap_or_else(|e| panic!("ssb {}: {e}", q.id))
            .sql()
            .to_string();
        // The dataframe layer emits the handwritten shape (a FROM list and
        // one WHERE), so the translation gets the handwritten join order.
        let pinned = SQL_PINS
            .iter()
            .find(|(id, _)| *id == q.id)
            .unwrap_or_else(|| panic!("no pin for {}", q.id))
            .1;
        check_pin(&db, &format!("jsoniq-{}", q.id), &sql, pinned, &mut failures);
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// No SSB star join — raw or translated — may execute as a cross product:
/// after optimization every join in the plan must carry an equi-condition.
#[test]
fn ssb_plans_contain_no_cross_products() {
    fn joins(node: &Node, out: &mut Vec<bool>) {
        if let NodeKind::Join { on, .. } = &node.kind {
            out.push(on.is_some());
        }
        for child in node.kind.inputs() {
            joins(child, out);
        }
    }
    let db = ssb_db();
    for q in ssb::queries() {
        for (tag, sql) in [
            (format!("sql {}", q.id), q.sql.clone()),
            (
                format!("jsoniq {}", q.id),
                translate_query(db.clone(), &q.jsoniq, NestedStrategy::FlagColumn)
                    .unwrap()
                    .sql()
                    .to_string(),
            ),
        ] {
            let plan = db.compile(&sql).unwrap();
            let mut on_flags = Vec::new();
            joins(&plan, &mut on_flags);
            assert!(!on_flags.is_empty(), "{tag}: expected joins in plan");
            assert!(
                on_flags.iter().all(|&has_on| has_on),
                "{tag}: cross product survived optimization"
            );
        }
    }
}

/// Oracle: cost-based reordering must never change results. Seeded random
/// multi-way join queries (random dimension subsets, random filters, shuffled
/// FROM order so the authored order is frequently bad) run across the full
/// lattice — optimizer off is the ground truth the reordered plans must match.
#[test]
fn random_join_queries_agree_with_unoptimized_oracle() {
    let d = Database::new();
    ssb::load_ssb_tiny(&d, &ssb::SsbConfig { partition_rows: 8, ..Default::default() });
    let db = Arc::new(d);
    let lattice = default_lattice(2);
    let mut rng = StdRng::seed_from_u64(0xc057);

    let dims: &[(&str, &str, &str)] = &[
        ("ddate d", "l.lo_orderdate = d.d_datekey", "d.d_year >= 1994"),
        ("customer c", "l.lo_custkey = c.c_custkey", "c.c_region = 'ASIA'"),
        ("supplier s", "l.lo_suppkey = s.s_suppkey", "s.s_region <> 'AFRICA'"),
        ("part p", "l.lo_partkey = p.p_partkey", "p.p_size <= 6"),
    ];
    let n = common::schedule_budget(12);
    for i in 0..n {
        // Pick 2-4 dimensions, shuffle the FROM order, keep a random subset
        // of the dimension filters.
        let k = rng.gen_range(2..=dims.len());
        let mut picked: Vec<usize> = (0..dims.len()).collect();
        for j in (1..picked.len()).rev() {
            picked.swap(j, rng.gen_range(0..=j));
        }
        picked.truncate(k);
        let mut tables = vec!["lineorder l".to_string()];
        let mut preds = Vec::new();
        for &di in &picked {
            tables.push(dims[di].0.to_string());
            preds.push(dims[di].1.to_string());
            if rng.gen_bool(0.5) {
                preds.push(dims[di].2.to_string());
            }
        }
        // Fact-table filter half the time; fact table in a random position.
        if rng.gen_bool(0.5) {
            preds.push("l.lo_discount <= 5".to_string());
        }
        let pos = rng.gen_range(0..tables.len());
        tables.swap(0, pos);
        let sql = format!(
            "SELECT COUNT(*), SUM(l.lo_revenue) FROM {} WHERE {}",
            tables.join(" CROSS JOIN "),
            preds.join(" AND ")
        );
        // Parse/plan errors must fail loudly, not count as vacuous agreement.
        db.compile(&sql).unwrap_or_else(|e| panic!("random join #{i}: {e}\n{sql}"));
        let report = verify_sql(&db, &sql, &lattice, DEFAULT_EPSILON).unwrap();
        assert!(
            report.agrees(),
            "random join #{i} (seed 0xc057) diverged:\n{}",
            report.render()
        );
    }
}

/// `EXPLAIN`'s cost line describes the work the executor does: a subtree two
/// parents read is executed once, so it is costed once — at its first site —
/// and printed once.
#[test]
fn a_shared_subtree_is_costed_and_printed_once() {
    use snowdb::optimize::cost::estimate;
    fn unshare(node: &mut Node) {
        node.share = None;
        for input in node.kind.inputs_mut() {
            unshare(input);
        }
    }
    let db = ssb_db();
    let sub = "(SELECT lo_custkey AS k, SEQ8() AS rid FROM lineorder WHERE lo_discount > 3)";
    let sql = format!("SELECT COUNT(*) FROM {sub} a JOIN {sub} b ON a.rid = b.rid");
    let plan = db.compile(&sql).unwrap();
    let NodeKind::Join { left, right, .. } = &plan.kind.inputs()[0].kind else {
        panic!("expected Aggregate over Join:\n{plan:?}");
    };
    assert!(left.share.is_some() && left.share == right.share, "{plan:?}");

    let mut as_tree = plan.clone();
    unshare(&mut as_tree);
    let (shared, tree, sub_cost) =
        (estimate(&plan).cost, estimate(&as_tree).cost, estimate(left).cost);
    assert!(sub_cost > 0.0);
    assert!(
        (tree - shared - sub_cost).abs() < 1e-6,
        "as a tree {tree}, shared {shared}, the subtree alone {sub_cost}"
    );
    let rendered = db.explain(&sql).unwrap();
    assert_eq!(rendered.matches("Scan LINEORDER").count(), 1, "{rendered}");
    assert_eq!(rendered.matches("-> shared #1").count(), 1, "{rendered}");
}
