//! Tier-1 referee for the planner: what `bind_query` + `optimize` make of a
//! statement, pinned as `EXPLAIN` text. The 42 corpus plans (ADL q1–q8 and
//! SSB q1.1–q4.3, each generated from JSONiq and handwritten, on 16 ADL events
//! and the tiny SSB tables, seed 42) are pinned by length and FNV-1a of their
//! cost-annotated text; a dozen small statements, one per expression helper
//! the planner's passes share — the column renumbering under pushdown, join
//! reordering and dead-column elimination, the `AND`/equi-key splitter, the
//! `col <cmp> literal` recognizer, strict literal identity, the binder's
//! aggregate scope — are pinned in full, rows included. Everything here was
//! recorded at commit 8c8725b, before those helpers were consolidated, except
//! the `MIN_BY` key, which that commit left unfolded as `(#1 + (2 + 3))`, and
//! the generated plans that changed when the dataframe layer began merging
//! each call into the `SELECT` it wraps (ADL q2, q3, q6 and every SSB
//! translation: each lost one to eight operators; the handwritten plans did
//! not move), and the generated ADL q4, q5, q7 and q8 plans that changed
//! with empty-group elimination and the `NVL(NVL(x, c), c)` fold (q4 11 → 12
//! operators, q5 13 → 15, q8 44 → 46: the nested query's `KEEP` test became
//! a filter below its row-id aggregate, with the narrowing projection above
//! it; q7 only lost an `NVL`), and the ADL q4, q5, q6 and q8 plans that
//! changed when positional conjuncts became flatten bounds (`from=` on the
//! flattens, no `INDEX` conjunct left above them: generated q5 15 → 14
//! operators, q6 28 → 26, q8 46 → 45, handwritten q6 12 → 10; generated q4
//! and handwritten q5 and q8 kept their operator counts), and the generated
//! ADL q7 and q8 plans that changed with the `KEEP` gate (run-preserving
//! filters, `per=`, below their row-id aggregates and `OUTER` flattens with
//! `from=`: q7 17 → 18 operators, q8 45 → 47). The JSONiq front end is pinned beside them:
//! the FNV-1a of every translation's SQL text (the 21 corpus queries under
//! the paper's strategy and ADL under the other one) and the size of every
//! query's expression and iterator tree, recorded at ea65591, before the
//! front end's tree walks were consolidated, so a walk that visits children
//! in another order or skips one shows here. The deep suites (`planner`, `optimizer`, `verify`) live in
//! `crates/snowdb/tests`.

use std::sync::Arc;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::jsoniq_core::{expr, itertree, parse};
use snowq::snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowq::snowdb::variant::parse_json;
use snowq::snowdb::{Database, Variant};
use snowq::ssb::{self, SsbConfig};

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `snowbench`'s `compile_small` database and its 42 statements as SQL texts,
/// JSONiq translated under the strategy the paper runs it with.
fn corpus() -> (Arc<Database>, Vec<(String, String)>) {
    let db = Database::new();
    adl::generator::load_into(&db, "hep", &AdlConfig { events: 16, seed: 42, ..Default::default() });
    ssb::load_ssb_tiny(&db, &SsbConfig { seed: 42, ..Default::default() });
    let db = Arc::new(db);
    let generated = |jsoniq: &str, strategy| {
        translate_query(db.clone(), jsoniq, strategy).unwrap().sql().to_string()
    };
    let mut texts = Vec::new();
    for q in adl::queries::queries("hep") {
        let strategy =
            if q.join_based { NestedStrategy::JoinBased } else { NestedStrategy::FlagColumn };
        texts.push((format!("adl.{}.gen", q.id), generated(&q.jsoniq, strategy)));
        texts.push((format!("adl.{}.sql", q.id), q.handwritten_sql));
    }
    for q in ssb::queries() {
        texts.push((format!("ssb.{}.gen", q.id), generated(&q.jsoniq, NestedStrategy::FlagColumn)));
        texts.push((format!("ssb.{}.sql", q.id), q.sql));
    }
    (db, texts)
}

/// Length and FNV-1a of each corpus plan's `EXPLAIN` text, then the number
/// of `SELECT`s in the statement and its length in bytes — for a translation,
/// what the dataframe layer emitted.
const CORPUS: [(&str, usize, u64, usize, usize); 42] = [
    ("adl.q1.gen", 416, 0xe93ef1da29c52f87, 4, 339),
    ("adl.q1.sql", 371, 0xe247b5d8fcb4f9bd, 3, 353),
    ("adl.q2.gen", 491, 0xc3cee989ba5dbade, 4, 393),
    ("adl.q2.sql", 442, 0x20fec145d7ff42a9, 3, 425),
    ("adl.q3.gen", 554, 0xb11d9d4b73c56be5, 4, 429),
    ("adl.q3.sql", 504, 0xc233f1ff95a0e49a, 3, 454),
    ("adl.q4.gen", 839, 0x2cf3b42c774105f0, 9, 820),
    ("adl.q4.sql", 706, 0xf821d491f262fdd3, 5, 431),
    ("adl.q5.gen", 1209, 0x7e128f30d4571cda, 10, 1421),
    ("adl.q5.sql", 939, 0x8834ad4cc617d205, 5, 758),
    ("adl.q6.gen", 2921, 0xec091de0867d5e3b, 83, 16167),
    ("adl.q6.sql", 2784, 0x5f98e070fa043057, 5, 3285),
    ("adl.q7.gen", 1804, 0xedbe64df18cc9656, 18, 1895),
    ("adl.q7.sql", 1460, 0x15d8e24959baadf4, 6, 1051),
    ("adl.q8.gen", 6754, 0xd745c27fdb5c9419, 47, 8268),
    ("adl.q8.sql", 2271, 0xb62169e74ebe6950, 10, 1656),
    ("ssb.q1.1.gen", 593, 0x4b72fb7cc15196a5, 3, 376),
    ("ssb.q1.1.sql", 456, 0x8790a832266e1d35, 1, 180),
    ("ssb.q1.2.gen", 634, 0xf8e25a45c01c0bad, 3, 415),
    ("ssb.q1.2.sql", 497, 0xecacfb4e2dc09073, 1, 203),
    ("ssb.q1.3.gen", 662, 0xf76a50ba95a9d058, 3, 435),
    ("ssb.q1.3.sql", 525, 0x39ed21b3429f3db6, 1, 217),
    ("ssb.q2.1.gen", 933, 0xde11fc58fbdfce65, 3, 544),
    ("ssb.q2.1.sql", 807, 0x818bb9610610fe24, 1, 287),
    ("ssb.q2.2.gen", 966, 0x3c056c36bf0cf5fe, 3, 576),
    ("ssb.q2.2.sql", 840, 0x0753829d934e64be, 1, 306),
    ("ssb.q2.3.gen", 923, 0x7e7a91a4c66844e4, 3, 543),
    ("ssb.q2.3.sql", 797, 0xfa8cc924e92a7f83, 1, 286),
    ("ssb.q3.1.gen", 1085, 0x84ebb59cf56e55f0, 3, 671),
    ("ssb.q3.1.sql", 924, 0x7ad21a3beef6fdfd, 1, 344),
    ("ssb.q3.2.gen", 1113, 0xe4ecea3f0ead73aa, 3, 681),
    ("ssb.q3.2.sql", 956, 0xd0e59a9225ec40d7, 1, 354),
    ("ssb.q3.3.gen", 1079, 0xe630dffed06901e3, 3, 733),
    ("ssb.q3.3.sql", 906, 0x24e662872a6caaf5, 1, 378),
    ("ssb.q3.4.gen", 1068, 0x16efeb36f397cd84, 3, 717),
    ("ssb.q3.4.sql", 895, 0x06cd64b74b9ffc06, 1, 373),
    ("ssb.q4.1.gen", 1187, 0x8bf40d315f685c8e, 3, 704),
    ("ssb.q4.1.sql", 1052, 0x94b98506ed5eff5a, 1, 375),
    ("ssb.q4.2.gen", 1300, 0x70cddf46a71a378c, 3, 830),
    ("ssb.q4.2.sql", 1137, 0xb6a905f7df26d695, 1, 438),
    ("ssb.q4.3.gen", 1311, 0x186ceb61b794dec1, 3, 806),
    ("ssb.q4.3.sql", 1160, 0x8145bea4b8893f41, 1, 424),
];

#[test]
fn corpus_plans_are_the_recorded_ones() {
    let (db, texts) = corpus();
    assert_eq!(texts.len(), CORPUS.len());
    for ((id, sql), (want_id, len, hash, selects, bytes)) in texts.iter().zip(CORPUS) {
        assert_eq!(id, want_id);
        assert_eq!((sql.matches("SELECT").count(), sql.len()), (selects, bytes), "{id}:\n{sql}");
        let plan = db.explain(sql).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!((plan.len(), fnv64(plan.as_bytes())), (len, hash), "{id}:\n{plan}");
    }
}

/// FNV-1a of the SQL text of each translation: the 21 `.gen` statements of
/// `corpus`, then ADL q1–q8 under the strategy the paper does not run them
/// with (`.other`). The α-renamer's and the translator's fresh names number
/// the text's columns in the order their tree walks visit children.
const TRANSLATIONS: [(&str, u64); 29] = [
    ("adl.q1.gen", 0xd97adeb555ba7cd4),
    ("adl.q2.gen", 0x20031e9873acd024),
    ("adl.q3.gen", 0x097298730b2febb2),
    ("adl.q4.gen", 0xffd12c1af7137687),
    ("adl.q5.gen", 0x1b5aa8bd5f63ce2e),
    ("adl.q6.gen", 0x69c9011141b1508c),
    ("adl.q7.gen", 0x07803d01f52d5354),
    ("adl.q8.gen", 0x300f2e555432a02d),
    ("ssb.q1.1.gen", 0x2556dd95370c8c98),
    ("ssb.q1.2.gen", 0x72e886687f98754d),
    ("ssb.q1.3.gen", 0x4892a241f4c30311),
    ("ssb.q2.1.gen", 0x546d4a1c6af5e4d7),
    ("ssb.q2.2.gen", 0xa7bd016f85a9e079),
    ("ssb.q2.3.gen", 0xa3e48a738b69293d),
    ("ssb.q3.1.gen", 0x60461236b2eac04c),
    ("ssb.q3.2.gen", 0x24f1ba235e8d547c),
    ("ssb.q3.3.gen", 0x98787bf7858488a4),
    ("ssb.q3.4.gen", 0x42b144322ebeab69),
    ("ssb.q4.1.gen", 0x06cbb9f7bb3aa4a3),
    ("ssb.q4.2.gen", 0x673325b847e3b2a8),
    ("ssb.q4.3.gen", 0xdf0eae9e979d8c85),
    ("adl.q1.other", 0xd97adeb555ba7cd4),
    ("adl.q2.other", 0x20031e9873acd024),
    ("adl.q3.other", 0x097298730b2febb2),
    ("adl.q4.other", 0xa5550834c44e5e2b),
    ("adl.q5.other", 0x3ed5756f57161b1d),
    ("adl.q6.other", 0xf955d44b360a1075),
    ("adl.q7.other", 0xe158bd1cf3806bb2),
    ("adl.q8.other", 0xea2f2108f93727fa),
];

#[test]
fn translations_are_the_recorded_sql_texts() {
    let (db, texts) = corpus();
    let mut got: Vec<(String, String)> =
        texts.into_iter().filter(|(id, _)| id.ends_with(".gen")).collect();
    for q in adl::queries::queries("hep") {
        let other =
            if q.join_based { NestedStrategy::FlagColumn } else { NestedStrategy::JoinBased };
        let sql = translate_query(db.clone(), &q.jsoniq, other).unwrap().sql().to_string();
        got.push((format!("adl.{}.other", q.id), sql));
    }
    assert_eq!(got.len(), TRANSLATIONS.len());
    for ((id, sql), (want_id, hash)) in got.iter().zip(TRANSLATIONS) {
        assert_eq!((id.as_str(), fnv64(sql.as_bytes())), (want_id, hash), "{id}:\n{sql}");
    }
}

/// Per JSONiq query: `expr::count_nodes` of its rewritten expression tree,
/// then the FLWOR and the other iterators of its iterator tree
/// (`RIter::counts`; for ADL, Table II in `results/table2.txt`).
const TREE_SIZES: [(&str, usize, usize, usize); 21] = [
    ("adl.q1", 34, 6, 31),
    ("adl.q2", 35, 6, 32),
    ("adl.q3", 40, 7, 37),
    ("adl.q4", 46, 10, 42),
    ("adl.q5", 110, 17, 104),
    ("adl.q6", 426, 108, 380),
    ("adl.q7", 98, 24, 89),
    ("adl.q8", 270, 46, 256),
    ("ssb.q1.1", 39, 6, 36),
    ("ssb.q1.2", 44, 6, 41),
    ("ssb.q1.3", 49, 6, 46),
    ("ssb.q2.1", 48, 8, 43),
    ("ssb.q2.2", 53, 8, 48),
    ("ssb.q2.3", 48, 8, 43),
    ("ssb.q3.1", 63, 8, 58),
    ("ssb.q3.2", 63, 8, 58),
    ("ssb.q3.3", 73, 8, 68),
    ("ssb.q3.4", 68, 8, 63),
    ("ssb.q4.1", 70, 10, 64),
    ("ssb.q4.2", 84, 10, 78),
    ("ssb.q4.3", 79, 10, 73),
];

#[test]
fn jsoniq_trees_have_the_recorded_sizes() {
    let adl = adl::queries::queries("hep").into_iter().map(|q| (format!("adl.{}", q.id), q.jsoniq));
    let ssb = ssb::queries().into_iter().map(|q| (format!("ssb.{}", q.id), q.jsoniq));
    let queries: Vec<_> = adl.chain(ssb).collect();
    assert_eq!(queries.len(), TREE_SIZES.len());
    for ((id, jsoniq), (want_id, nodes, flwor, other)) in queries.iter().zip(TREE_SIZES) {
        let tree = expr::rewrite(&parse(jsoniq).unwrap()).unwrap();
        let c = itertree::build(&tree).unwrap().counts();
        let got = (id.as_str(), expr::count_nodes(&tree), c.flwor, c.other);
        assert_eq!(got, (want_id, nodes, flwor, other));
    }
}

fn int_cols(names: &[&str]) -> Vec<ColumnDef> {
    names.iter().map(|n| ColumnDef::new(*n, ColumnType::Int)).collect()
}

/// `t` (24 rows in three partitions, a string and a VARIANT column), a fact
/// table `f` over three dimensions of different sizes, and a table with zeros.
fn small_db() -> Database {
    let db = Database::new();
    let mut schema = int_cols(&["A", "B"]);
    schema.push(ColumnDef::new("S", ColumnType::Str));
    schema.push(ColumnDef::new("V", ColumnType::Variant));
    let rows = (0..24i64).map(|i| {
        vec![
            Variant::Int(i % 6),
            if i % 5 == 0 { Variant::Null } else { Variant::Int(i) },
            if i % 7 == 0 { Variant::Null } else { Variant::str(["red", "green", "blue"][(i % 3) as usize]) },
            parse_json(&format!("{{\"F\": [{i}, {}, {}], \"XS\": [{}, {}]}}", i + 1, i + 2, i % 3, i % 4))
                .unwrap(),
        ]
    });
    db.load_table("t", schema, rows, 8).unwrap();
    let ints = |n: i64, f: fn(i64) -> Vec<i64>| (0..n).map(move |i| f(i).into_iter().map(Variant::Int).collect());
    let load = |name, cols: &[&str], rows| db.load_table(name, int_cols(cols), rows, DEFAULT_PARTITION_ROWS);
    load("f", &["K1", "K2", "K3", "M"], ints(60, |i| vec![i % 4, i % 10, i % 20, i])).unwrap();
    load("d1", &["K", "X"], ints(4, |i| vec![i, i * 10])).unwrap();
    load("d2", &["K", "Y"], ints(10, |i| vec![i, i % 3])).unwrap();
    load("d3", &["K", "Z"], ints(20, |i| vec![i, i % 2])).unwrap();
    load("z", &["K", "N"], ints(4, |i| vec![i % 2, i + 1])).unwrap();
    db
}

/// Statement, its `EXPLAIN` text, its rows.
const PINNED: [(&str, &str, &str); 13] = [
    // A conjunct over the right input moves below the join, renumbered.
    (
        "SELECT l.a, r.y FROM t l JOIN d2 r ON l.a = r.k WHERE r.y > 1 AND l.b < 9 ORDER BY 1, 2",
        "Sort [#0, #1]  (est_rows=2 cost=89)
  Project [#0, #5]  (est_rows=2 cost=87)
    InnerJoin on=(#0 = #4)  (est_rows=2 cost=84)
      Filter (#1 < 9)  (est_rows=8 cost=48)
        Scan T cols=[A, B] prune=[#1 < 9]  (est_rows=24 cost=24)
      Filter (#1 > 1)  (est_rows=3 cost=20)
        Scan D2 cols=[K, Y] prune=[#1 > 1]  (est_rows=10 cost=10)
",
        "[[2, 2], [2, 2]]",
    ),
    // A star join written as a cross product: reordered, columns restored.
    (
        "SELECT * FROM d1 CROSS JOIN d2 CROSS JOIN d3 CROSS JOIN f WHERE f.k3 = d3.k AND f.k2 = d2.k AND f.k1 = d1.k AND d1.x = 20 AND d3.z = 0 AND m < 30 ORDER BY m",
        "Sort [#9]  (est_rows=4 cost=299)
  Project [#4, #5, #6, #7, #8, #9, #0, #1, #2, #3]  (est_rows=4 cost=291)
    InnerJoin on=(#2 = #8)  (est_rows=4 cost=288)
      InnerJoin on=(#1 = #6)  (est_rows=8 cost=216)
        InnerJoin on=(#0 = #4)  (est_rows=8 cost=170)
          Filter (#3 < 30)  (est_rows=32 cost=120)
            Scan F cols=[K1, K2, K3, M] prune=[#3 < 30]  (est_rows=60 cost=60)
          Filter (#1 = 20)  (est_rows=1 cost=8)
            Scan D1 cols=[K, X] prune=[#1 = 20]  (est_rows=4 cost=4)
        Scan D2 cols=[K, Y]  (est_rows=10 cost=10)
      Filter (#1 = 0)  (est_rows=10 cost=40)
        Scan D3 cols=[K, Z] prune=[#1 = 0]  (est_rows=20 cost=20)
",
        "[[2, 20, 2, 2, 2, 0, 2, 2, 2, 2], [2, 20, 6, 0, 6, 0, 2, 6, 6, 6], [2, 20, 0, 0, 10, 0, 2, 0, 10, 10], [2, 20, 4, 1, 14, 0, 2, 4, 14, 14], [2, 20, 8, 2, 18, 0, 2, 8, 18, 18], [2, 20, 2, 2, 2, 0, 2, 2, 2, 22], [2, 20, 6, 0, 6, 0, 2, 6, 6, 26]]",
    ),
    // Both join inputs lose a column; ON and the projection follow.
    (
        "SELECT x.s, y.c FROM (SELECT a, b, a + b AS s FROM t) x JOIN (SELECT k, y, k * 2 AS c FROM d2) y ON x.a = y.k WHERE y.c > 6 ORDER BY 1, 2",
        "Sort [#0, #1]  (est_rows=12 cost=174)
  Project [#1, #3]  (est_rows=12 cost=131)
    InnerJoin on=(#0 = #2)  (est_rows=12 cost=119)
      Project [#0, (#0 + #1)]  (est_rows=24 cost=48)
        Scan T cols=[A, B]  (est_rows=24 cost=24)
      Project [#0, (#0 * 2)]  (est_rows=5 cost=25)
        Filter ((#0 * 2) > 6)  (est_rows=5 cost=20)
          Scan D2 cols=[K]  (est_rows=10 cost=10)
",
        "[[8, 8], [16, 10], [20, 8], [22, 10], [26, 8], [28, 10], [null, 8], [null, 10]]",
    ),
    // Stacked projections merge over one SEQ8() ...
    (
        "SELECT r + 1 AS r1, a FROM (SELECT SEQ8() AS r, a, b FROM t) ORDER BY r1 LIMIT 3",
        "Limit 3  (est_rows=3 cost=158)
  Sort [#0]  (est_rows=24 cost=158)
    Project [(Seq8() + 1), #0]  (est_rows=24 cost=48)
      Scan T cols=[A]  (est_rows=24 cost=24)
",
        "[[1, 0], [2, 1], [3, 2]]",
    ),
    // ... and not into a guard over an expression that can raise.
    (
        "SELECT CASE WHEN k <> 0 THEN q END FROM (SELECT k, n / k AS q FROM z WHERE k > 0) ORDER BY 1",
        "Sort [#0]  (est_rows=2 cost=14)
  Project [CASE ...]  (est_rows=2 cost=12)
    Project [#0, (#1 / #0)]  (est_rows=2 cost=10)
      Filter (#0 > 0)  (est_rows=2 cost=8)
        Scan Z cols=[K, N] prune=[#0 > 0]  (est_rows=4 cost=4)
",
        "[[2.0], [4.0]]",
    ),
    // A GROUP BY expression reused in the select list and HAVING.
    (
        "SELECT a + 1, (a + 1) * 2, COUNT(*) FROM t GROUP BY a + 1 HAVING a + 1 > 2 ORDER BY 1",
        "Sort [#0]  (est_rows=1 cost=56)
  Project [#0, (#0 * 2), #1]  (est_rows=1 cost=54)
    Filter (#0 > 2)  (est_rows=1 cost=53)
      Aggregate group=[(#0 + 1)] aggs=[COUNT(*)]  (est_rows=5 cost=48)
        Scan T cols=[A]  (est_rows=24 cost=24)
",
        "[[3, 6, 4], [4, 8, 4], [5, 10, 4], [6, 12, 4]]",
    ),
    // Every expression shape above an aggregate.
    (
        "SELECT a, CASE WHEN SUM(b) BETWEEN 20 AND 40 THEN 'mid' ELSE 'out' END, MAX(b) IN (19, 20, 23), MIN(s) LIKE 'b%', NOT (COUNT(b) = 4), ANY_VALUE(v):f[a - a + 1], -a IS NULL FROM t GROUP BY a ORDER BY a",
        "Sort [#0]  (est_rows=6 cost=70)
  Project [#0, CASE ..., (#2 IN (19, 20, 23)), (#3 LIKE \"b%\"), (NOT (#4 = 4)), #5:F[((#0 - #0) + 1)], ((-#0) IS NULL)]  (est_rows=6 cost=54)
    Aggregate group=[#0] aggs=[SUM(#1), MAX(#1), MIN(#2), COUNT(#1), ANY_VALUE(#3)]  (est_rows=6 cost=48)
      Scan T cols=[A, B, S, V]  (est_rows=24 cost=24)
",
        "[[0, \"mid\", false, false, true, 1, false], [1, \"mid\", true, false, false, 2, false], [2, \"mid\", false, true, true, 3, false], [3, \"mid\", false, false, true, 4, false], [4, \"out\", false, false, true, 5, false], [5, \"out\", true, true, true, 6, false]]",
    ),
    // A qualified ORDER BY key finds the unqualified output column.
    (
        "SELECT b, a FROM t WHERE b IS NOT NULL ORDER BY t.a DESC, t.b LIMIT 4",
        "Limit 4  (est_rows=4 cost=148)
  Sort [#1 DESC, #0]  (est_rows=19 cost=148)
    Project [#1, #0]  (est_rows=19 cost=67)
      Filter (#1 IS NOT NULL)  (est_rows=19 cost=48)
        Scan T cols=[A, B] prune=[#1 IS NOT NULL]  (est_rows=24 cost=24)
",
        "[[11, 5], [17, 5], [23, 5], [4, 4]]",
    ),
    // 1 and 1.0 are different plans; the two 1s are one.
    (
        "SELECT 1 AS c FROM t WHERE a = 5 UNION ALL SELECT 1.0 FROM t WHERE a = 5 UNION ALL SELECT 1 FROM t WHERE a = 5",
        "UnionAll  (est_rows=12 cost=56)
  UnionAll  (est_rows=8 cost=56)
    [shared #2] Project [1]  (est_rows=4 cost=52)
      [shared #1] Filter (#0 = 5)  (est_rows=4 cost=48)
        Scan T cols=[A] prune=[#0 = 5]  (est_rows=24 cost=24)
    Project [1.0]  (est_rows=4 cost=4)
      -> shared #1
  -> shared #2
",
        "[[1], [1], [1], [1], [1.0], [1.0], [1.0], [1.0], [1], [1], [1], [1]]",
    ),
    // All three forms reach the scan's pruning list.
    (
        "SELECT b FROM t WHERE b >= 17 AND 1 < a AND s IS NOT NULL ORDER BY b",
        "Sort [#0]  (est_rows=3 cost=56)
  Project [#1]  (est_rows=3 cost=51)
    Filter ((#1 >= 17) AND ((1 < #0) AND (#2 IS NOT NULL)))  (est_rows=3 cost=48)
      Scan T cols=[A, B, S] prune=[#1 >= 17, #0 > 1, #2 IS NOT NULL]  (est_rows=24 cost=24)
",
        "[[17], [22], [23]]",
    ),
    // Conjuncts over a flatten's input move below it, the others stay.
    (
        "SELECT a, x.value FROM t, LATERAL FLATTEN(input => v:xs) x WHERE a > 3 AND x.value > 1 AND b < 12 ORDER BY 1, 2",
        "Sort [#0, #1]  (est_rows=2 cost=69)
  Project [#0, #4]  (est_rows=2 cost=66)
    Filter (#4 > 1)  (est_rows=2 cost=64)
      Flatten input=#3:XS emit=[VALUE]  (est_rows=8 cost=56)
        Filter ((#0 > 3) AND (#1 < 12))  (est_rows=3 cost=48)
          Scan T cols=[A, B, V] prune=[#0 > 3, #1 < 12]  (est_rows=24 cost=24)
",
        "[[5, 2], [5, 3]]",
    ),
    // A computed join key is hashed by the executor and priced as a nested loop.
    (
        "SELECT l.b, r.y FROM t l JOIN d2 r ON l.a + 1 = r.k AND l.b > r.y WHERE l.b < 8 ORDER BY 1",
        "Sort [#0]  (est_rows=17 cost=210)
  Project [#1, #5]  (est_rows=17 cost=142)
    InnerJoin on=(((#0 + 1) = #4) AND (#1 > #5))  (est_rows=17 cost=125)
      Filter (#1 < 8)  (est_rows=7 cost=48)
        Scan T cols=[A, B] prune=[#1 < 8]  (est_rows=24 cost=24)
      Scan D2 cols=[K, Y]  (est_rows=10 cost=10)
",
        "[[2, 0], [3, 1], [4, 2], [6, 1], [7, 2]]",
    ),
    // Both arguments of a two-argument aggregate are folded.
    (
        "SELECT MIN_BY(a + (1 + 1), b + (2 + 3)) FROM t",
        "Aggregate group=[] aggs=[MIN_BY((#0 + 2), (#1 + 5))]  (est_rows=1 cost=48)
  Scan T cols=[A, B]  (est_rows=24 cost=24)
",
        "[[3]]",
    ),
];

#[test]
fn small_plans_and_their_rows_are_the_recorded_ones() {
    let db = small_db();
    for (sql, plan, rows) in PINNED {
        assert_eq!(db.explain(sql).unwrap_or_else(|e| panic!("{sql}: {e}")), plan, "{sql}");
        let got = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        assert_eq!(format!("{got:?}"), rows, "{sql}");
    }
}

/// What the binder refuses, by scope: the texts a client sees.
const REFUSED: [(&str, &str); 11] = [
    ("SELECT a, b FROM t GROUP BY a", "plan error: column 'B' must appear in GROUP BY or inside an aggregate"),
    ("SELECT a FROM t GROUP BY a HAVING b > 1", "plan error: column 'B' must appear in GROUP BY or inside an aggregate"),
    (
        "SELECT a + 1 FROM t GROUP BY a HAVING CASE WHEN s LIKE 'r%' THEN TRUE END",
        "plan error: column 'S' must appear in GROUP BY or inside an aggregate",
    ),
    (
        "SELECT a FROM t GROUP BY a HAVING a BETWEEN t.a AND 3",
        "plan error: column 'T.A' must appear in GROUP BY or inside an aggregate",
    ),
    ("SELECT NOSUCH(a) FROM t GROUP BY a", "plan error: unknown function NOSUCH"),
    ("SELECT a FROM t GROUP BY a ORDER BY SUM(b)", "plan error: aggregate function SUM is not allowed in this context"),
    ("SELECT a FROM t WHERE SUM(b) > 1", "plan error: aggregate functions are not allowed in WHERE"),
    ("SELECT SUM(MAX(b)) FROM t", "plan error: nested aggregate functions"),
    (
        "SELECT l.a FROM t l JOIN d2 r ON COUNT(*) = r.k",
        "plan error: aggregate function COUNT is not allowed in this context",
    ),
    ("SELECT SUM(DISTINCT b) FROM t", "plan error: DISTINCT is not supported for Sum"),
    ("SELECT MIN_BY(a) FROM t", "plan error: aggregate MIN_BY takes exactly 2 argument(s)"),
];

#[test]
fn refused_statements_fail_with_the_recorded_plan_errors() {
    let db = small_db();
    for (sql, want) in REFUSED {
        assert_eq!(db.explain(sql).unwrap_err().to_string(), want, "{sql}");
    }
}
