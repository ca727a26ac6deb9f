//! Tier-1 smoke for the storage path: one table with every column
//! representation — typed with NULLs, dictionary strings, run-length ints and
//! bools, unique strings, VARIANT — goes through seal, the SNPT codec, the
//! buffer cache and the scan. The deep suites (persist, chaos, lattice) live
//! in `crates/snowdb/tests` and run with `cargo test --workspace`.

use snowdb::storage::{ColumnDef, ColumnType, MemSink, TableBuilder};
use snowdb::store::format;
use snowdb::variant::parse_json;
use snowdb::{Database, SnowError, Variant};

const ROWS: i64 = 300;

fn schema() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("ID", ColumnType::Int),
        ColumnDef::new("F", ColumnType::Float),
        ColumnDef::new("FLAG", ColumnType::Bool),
        ColumnDef::new("COLOR", ColumnType::Str),
        ColumnDef::new("BUCKET", ColumnType::Int),
        ColumnDef::new("NOTE", ColumnType::Str),
        ColumnDef::new("V", ColumnType::Variant),
        ColumnDef::new("NOTHING", ColumnType::Int),
    ]
}

fn row(i: i64) -> Vec<Variant> {
    let null_every = |n: i64, v: Variant| if i % n == 0 { Variant::Null } else { v };
    vec![
        null_every(4, Variant::Int(i * 37 - 1000)),
        null_every(9, Variant::Float(i as f64 * 0.25 - 3.0)),
        // Long runs, a NULL run among them.
        if (100..140).contains(&i) { Variant::Null } else { Variant::Bool(i < 200) },
        null_every(11, Variant::str(["red", "green", "blue"][(i % 3) as usize])),
        Variant::Int(i / 50),
        null_every(5, Variant::str(format!("note-{i}"))),
        parse_json(&format!(
            "{{\"a\": [{i}, null, {{\"deep\": \"x{i}\"}}], \"b\": {}}}",
            i as f64 * 0.5
        ))
        .unwrap(),
        Variant::Null,
    ]
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("snowq-store-smoke-{}-{tag}", std::process::id()))
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The SNPT bytes written for the fixed table are pinned: length, CRC32 and
/// FNV-1a of the file as written when storage still held its own column enum
/// (commit 0addaf9), re-pinned once for format version 4, which dropped the
/// zone-map block: 77 bytes shorter, every column block's CRC unchanged.
/// Changing the in-memory column type must not move a byte on disk.
#[test]
fn partition_file_bytes_are_pinned() {
    let mut b = TableBuilder::new("t", schema(), 512, Box::new(MemSink)).unwrap();
    for i in 0..ROWS {
        b.push_row(&row(i)).unwrap();
    }
    let table = b.finish().unwrap();
    let part = table.partitions()[0].as_mem().unwrap();
    let (bytes, meta) = format::encode_partition(&schema(), part);

    use format::BlockEncoding::{DictStr, Plain, RleBool, RleInt};
    let encodings: Vec<_> = meta.blocks.iter().map(|b| b.encoding).collect();
    assert_eq!(encodings, [Plain, Plain, RleBool, DictStr, RleInt, Plain, Plain, RleInt]);
    assert_eq!(
        (bytes.len(), format::crc32(&bytes), fnv64(&bytes)),
        (17_558, 1_624_986_839, 11_447_953_152_912_547_846),
        "SNPT bytes moved"
    );
}

#[test]
fn persisted_table_reopens_and_answers() {
    let dir = temp_path("db");
    std::fs::remove_dir_all(&dir).ok();
    let mem = Database::new();
    mem.load_table("t", schema(), (0..ROWS).map(row), 128).unwrap();
    mem.persist_to(&dir).unwrap();

    let disk = Database::open(&dir).unwrap();
    for sql in [
        "SELECT id, f, flag, color, bucket, note, v, nothing FROM t ORDER BY note, bucket, f",
        "SELECT color, COUNT(*), SUM(id), MIN(f) FROM t WHERE flag GROUP BY color ORDER BY color",
        "SELECT bucket, COUNT(nothing), COUNT(flag) FROM t GROUP BY bucket ORDER BY bucket",
        "SELECT id, v:a[2].deep FROM t WHERE bucket = 3 AND color = 'blue' ORDER BY id",
        "SELECT COUNT(*) FROM t, LATERAL FLATTEN(input => v:a) x WHERE x.value IS NOT NULL",
    ] {
        let want = mem.query(sql).unwrap();
        assert!(!want.rows.is_empty(), "{sql}");
        // Cold (decoded from the file) and warm (sliced from the cache).
        for pass in ["cold", "warm"] {
            assert_eq!(disk.query(sql).unwrap().rows, want.rows, "{pass}: {sql}");
        }
    }
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}

/// A read-only database writes nothing. Its file names come from the
/// manifest it opened, so after a live writer commits again the reader's next
/// name is one the writer has used: an `INSERT` on the reader must be refused
/// before it creates (and used to truncate) that file.
#[test]
fn a_read_only_insert_leaves_a_live_writers_partitions_intact() {
    let dir = temp_path("read-only");
    std::fs::remove_dir_all(&dir).ok();
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(dir.join("parts"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let writer = Database::open(&dir).unwrap();
    writer.execute("CREATE TABLE t (x INT)").unwrap();
    writer.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let reader = Database::open_read_only(&dir).unwrap();
    writer.execute("INSERT INTO t VALUES (4), (5)").unwrap();
    let before = listing();
    match reader.execute("INSERT INTO t VALUES (6), (7), (8), (9)") {
        Err(SnowError::Storage(m)) => assert!(m.contains("read-only"), "{m}"),
        other => panic!("expected the read-only refusal, got {other:?}"),
    }
    assert_eq!(listing(), before, "the reader wrote a partition file");
    drop((reader, writer));

    let reopened = Database::open(&dir).unwrap();
    let sums = reopened.query("SELECT COUNT(*), SUM(x) FROM t").unwrap().rows;
    assert_eq!(sums, [[Variant::Int(5), Variant::Int(15)]]);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
