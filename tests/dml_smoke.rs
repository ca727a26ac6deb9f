//! Tier-1 smoke for the write path: `DELETE` and `UPDATE` over one table with
//! every stored representation — typed ints, dictionary strings, run-length
//! bools, a VARIANT array column and an `Int` column one partition of which
//! drifted to boxed variants — on an in-memory database and on a persistent
//! one after a reopen. Rows, messages and error texts were pinned at commit
//! ec6b748, when DML still ran its own row-at-a-time evaluator and rebuilt
//! partitions from boxed rows; the rebuilt partitions are pinned down to the
//! SNPT bytes they serialize to. The deep suites (mvcc, lifecycle, chaos)
//! live in `crates/snowdb/tests` and run with `cargo test --workspace`.

use std::sync::Arc;

use snowdb::exec::ColumnVec;
use snowdb::storage::{stored_type, ColumnDef, ColumnType, ScanSource};
use snowdb::store::format;
use snowdb::variant::parse_json;
use snowdb::{Database, StatementResult, Variant};

const PART_ROWS: usize = 64;
const ROWS: i64 = 192;

fn schema() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("ID", ColumnType::Int),
        ColumnDef::new("A", ColumnType::Int),
        ColumnDef::new("S", ColumnType::Str),
        ColumnDef::new("FLAG", ColumnType::Bool),
        ColumnDef::new("V", ColumnType::Variant),
        ColumnDef::new("D", ColumnType::Int),
    ]
}

fn row(i: i64) -> Vec<Variant> {
    vec![
        Variant::Int(i),
        if i % 7 == 0 { Variant::Null } else { Variant::Int(i % 20) },
        if i % 11 == 0 { Variant::Null } else { Variant::str(["red", "green", "blue"][(i % 3) as usize]) },
        // Long runs with a NULL run in every partition.
        match i % 64 {
            0..=39 => Variant::Bool(true),
            40..=49 => Variant::Null,
            _ => Variant::Bool(false),
        },
        parse_json(&format!("[{i}, \"x{i}\", {{\"k\": {}}}]", i % 5)).unwrap(),
        // One stray string drifts the second partition's column to variants.
        if i == 70 { Variant::str("oops") } else { Variant::Int(i * 2) },
    ]
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("snowq-dml-smoke-{}-{tag}", std::process::id()))
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn parts(db: &Database) -> Vec<Arc<ScanSource>> {
    db.table("t").unwrap().partitions().to_vec()
}

/// Row count, length and FNV-1a of the SNPT file each partition serializes
/// to: column representations, encodings and statistics.
fn fingerprint(db: &Database) -> Vec<(usize, usize, u64)> {
    parts(db)
        .iter()
        .map(|p| {
            let (bytes, _) = format::encode_partition(&schema(), &p.to_mem().unwrap());
            (p.row_count(), bytes.len(), fnv64(&bytes))
        })
        .collect()
}

fn message(db: &Database, sql: &str) -> String {
    match db.execute(sql) {
        Ok(StatementResult::Message(m)) => m,
        Ok(StatementResult::Rows(_)) => panic!("{sql}: rows"),
        Err(e) => format!("ERR {e}"),
    }
}

fn rows(db: &Database, sql: &str) -> String {
    format!("{:?}", db.query(sql).unwrap().rows)
}

/// Runs `sql` and checks its message and how many of the table's partitions
/// it replaced or removed; every other one must come through as the same
/// `Arc` (a commit conflicts on the partitions it drops, and on no other).
fn step(db: &Database, sql: &str, want: &str, touched: usize) {
    let before = parts(db);
    assert_eq!(message(db, sql), want, "{sql}");
    let after = parts(db);
    let gone = before.iter().filter(|b| !after.iter().any(|a| Arc::ptr_eq(a, b))).count();
    assert_eq!(gone, touched, "{sql}: partitions replaced");
}

/// How many partitions store `D` as boxed variants.
fn drifted(db: &Database) -> usize {
    let boxed = |p: &Arc<ScanSource>| stored_type(&p.read_column(5).unwrap()) == ColumnType::Variant;
    parts(db).iter().filter(|p| boxed(p)).count()
}

fn column(db: &Database, part: usize, col: usize) -> Arc<ColumnVec> {
    parts(db)[part].read_column(col).unwrap()
}

fn scenario(db: &Database) {
    // What the statements below run over.
    assert!(matches!(&*column(db, 0, 1), ColumnVec::Int { .. }));
    assert!(matches!(&*column(db, 0, 2), ColumnVec::DictStr { .. }));
    assert!(matches!(&*column(db, 0, 3), ColumnVec::Runs { .. }));
    assert!(matches!(&*column(db, 0, 4), ColumnVec::Var(_)));
    assert!(matches!(&*column(db, 0, 5), ColumnVec::Int { .. }));
    assert!(matches!(&*column(db, 1, 5), ColumnVec::Var(_)));
    assert_eq!(drifted(db), 1);

    // A NULL predicate keeps its row: ids 0..64 with a NULL `a` survive.
    step(db, "DELETE FROM t WHERE id < 64 AND a > 10", "deleted 24 row(s)", 1);
    assert_eq!(
        rows(db, "SELECT COUNT(*), COUNT(a), SUM(a), SUM(id) FROM t WHERE id < 64"),
        "[[40, 30, 141, 1176]]"
    );
    step(
        db,
        "UPDATE t SET a = a + 1, s = 'violet' WHERE id >= 128 AND flag",
        "updated 40 row(s)",
        1,
    );
    assert_eq!(
        rows(db, "SELECT COUNT(*), COUNT(a), SUM(a), COUNT(s), MIN(s) FROM t WHERE id >= 128 AND flag"),
        r#"[[40, 35, 380, 40, "violet"]]"#
    );
    assert_eq!(
        rows(db, "SELECT COUNT(*), COUNT(a), SUM(a), COUNT(s), MIN(s) FROM t WHERE id >= 128"),
        r#"[[64, 55, 574, 62, "blue"]]"#
    );
    // Replacing the stray string re-narrows the column to its declared type.
    step(db, "UPDATE t SET d = 7 WHERE id = 70", "updated 1 row(s)", 1);
    assert_eq!(drifted(db), 0);
    assert_eq!(rows(db, "SELECT id, d FROM t WHERE id IN (69, 70, 71) ORDER BY id"), "[[69, 138], [70, 7], [71, 142]]");
    // ...and a stray string drifts another one.
    step(db, "UPDATE t SET d = 'late' WHERE id = 130", "updated 1 row(s)", 1);
    assert_eq!(drifted(db), 1);

    // A predicate that is no boolean, and its order against a failing SET:
    // the whole partition's predicate comes first.
    step(db, "DELETE FROM t WHERE a", "ERR execution error: expected a boolean condition, got INTEGER", 0);
    step(
        db,
        "UPDATE t SET a = 1 / (id - 1) WHERE CASE WHEN id = 60 THEN 'x' ELSE id < 64 END",
        "ERR execution error: expected a boolean condition, got VARCHAR",
        0,
    );
    // SET is evaluated on hit rows only: id 5 divides by zero when hit.
    step(db, "UPDATE t SET a = 100 / (id - 5) WHERE id < 10", "ERR execution error: division by zero", 0);
    step(db, "UPDATE t SET a = 100 / (id - 5) WHERE id < 10 AND id <> 5", "updated 9 row(s)", 1);
    // The quotients shred into the `Int` column while they are integral; the
    // first that is not promotes the open partition, and later ones stay doubles.
    assert_eq!(
        rows(db, "SELECT id, a FROM t WHERE id < 10 ORDER BY id"),
        "[[0, -20], [1, -25], [2, -33.333333333333336], [3, -50.0], [4, -100.0], [5, 5], \
         [6, 100.0], [7, 50.0], [8, 33.333333333333336], [9, 25.0]]"
    );

    // `SEQ8()` numbers the rows of each partition from zero, in a predicate
    // over all of them and in a SET over the hit rows.
    step(db, "UPDATE t SET a = SEQ8() * 100 WHERE SEQ8() >= 20 AND id % 16 = 3", "updated 5 row(s)", 3);
    assert_eq!(
        rows(db, "SELECT id, a FROM t WHERE id % 16 = 3 ORDER BY id"),
        "[[3, -50.0], [35, 0], [67, 7], [83, 3], [99, 0], [115, 100], [131, 12], [147, null], \
         [163, 0], [179, 100]]"
    );
    step(db, "DELETE FROM t WHERE SEQ8() = 1", "deleted 3 row(s)", 3);

    assert_eq!(
        fingerprint(db),
        [
            (63, 3_841, 7_897_840_521_487_849_513),
            (63, 3_995, 17_419_265_561_726_957_900),
            (39, 2_628, 16_175_215_417_523_113_706)
        ],
        "rebuilt partitions moved"
    );

    // A partition losing every row is removed, not rebuilt.
    step(db, "DELETE FROM t WHERE id >= 64 AND id < 128", "deleted 63 row(s)", 1);
    assert_eq!(parts(db).len(), 2);
    step(db, "DELETE FROM t", "deleted 102 row(s)", 2);
    assert!(parts(db).is_empty());
}

#[test]
fn dml_on_an_in_memory_database() {
    let db = Database::new();
    db.load_table("t", schema(), (0..ROWS).map(row), PART_ROWS).unwrap();
    scenario(&db);
}

#[test]
fn dml_on_a_reopened_persistent_database() {
    let dir = temp_path("db");
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::open(&dir).unwrap();
    db.load_table("t", schema(), (0..ROWS).map(row), PART_ROWS).unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert!(parts(&db).iter().all(|p| p.is_disk()));
    scenario(&db);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
