//! Tier-1 smoke for the wire: a disk database whose buffer cache holds a
//! quarter of `HEP`, served on a loopback port, answers a translated ADL
//! query and a handwritten one through [`Client`] with the rows the engine
//! computes in memory, serves part of the second pass from the cache, and
//! reports forged partition bytes as typed storage errors. The deep suites
//! (`server`, `persist`, `lifecycle`) live in `crates/snowdb/tests`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::server::client::{Client, RemoteOutcome};
use snowq::snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowq::snowdb::store::format::{self, crc32, MAGIC, TRAILER_LEN};
use snowq::snowdb::variant::codec::put_varint;
use snowq::snowdb::{serve, Database, ServerConfig, SnowError, Variant};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snowq-wire-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The partition file whose first column is named `column`.
fn part_with_column(dir: &Path, column: &str) -> PathBuf {
    std::fs::read_dir(dir.join("parts"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| format::read_footer(p).is_ok_and(|m| m.blocks[0].name == column))
        .unwrap_or_else(|| panic!("no partition file holds column {column}"))
}

/// Splits a partition file into its data section and footer.
fn split_footer(bytes: &[u8]) -> (&[u8], &[u8]) {
    let n = bytes.len();
    let footer_len = u32::from_le_bytes(bytes[n - 8..n - 4].try_into().unwrap()) as usize;
    let footer_start = n - TRAILER_LEN as usize - footer_len;
    (
        &bytes[..footer_start],
        &bytes[footer_start..n - TRAILER_LEN as usize],
    )
}

/// Writes `data` and `footer` back as a file with a valid trailer: only the
/// bytes a test forged are wrong, every checksum matches.
fn reseal(path: &Path, data: &[u8], footer: &[u8]) {
    let mut out = data.to_vec();
    out.extend_from_slice(footer);
    out.extend_from_slice(&crc32(footer).to_le_bytes());
    out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    out.extend_from_slice(&MAGIC);
    std::fs::write(path, out).unwrap();
}

/// Gives the one `Int` cell of column `OV` a tenth varint byte that carries
/// bits past bit 63, and re-checksums its block.
fn forge_overflowing_varint(dir: &Path) {
    let path = part_with_column(dir, "OV");
    let meta = format::read_footer(&path).unwrap();
    let block = &meta.blocks[0];
    let bytes = std::fs::read(&path).unwrap();
    let (data, footer) = split_footer(&bytes);
    let mut data = data.to_vec();
    let last = (block.offset + meta.columns[0].bytes - 1) as usize;
    assert_eq!(
        data[last], 0x01,
        "i64::MIN ends in a tenth varint byte of 1"
    );
    data[last] = 0x7F;
    let crc = crc32(&data[block.offset as usize..=last]);
    let old = block.crc.to_le_bytes();
    let at = footer
        .windows(4)
        .position(|w| w == old)
        .expect("the block's crc in the footer");
    let mut footer = footer.to_vec();
    footer[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    reseal(&path, &data, &footer);
}

/// Rewrites the row count of the one-row partition of column `HV` to 2^40,
/// in its footer (keeping the footer checksum valid) and in the manifest.
fn forge_row_count(dir: &Path) {
    const ROWS: u64 = 1 << 40;
    let path = part_with_column(dir, "HV");
    let bytes = std::fs::read(&path).unwrap();
    let (data, footer) = split_footer(&bytes);
    assert_eq!(footer[0], 1, "the footer starts with the row count");
    let mut forged = Vec::new();
    put_varint(&mut forged, ROWS);
    forged.extend_from_slice(&footer[1..]);
    reseal(&path, data, &forged);

    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let file = path.file_name().unwrap().to_str().unwrap();
    let entry = format!(r#"{{"file":"{file}","rows":1}}"#);
    assert!(text.contains(&entry), "{text}");
    let text = text.replace(&entry, &format!(r#"{{"file":"{file}","rows":{ROWS}}}"#));
    std::fs::write(&manifest, text).unwrap();
}

fn rows(outcome: RemoteOutcome) -> Vec<Vec<Variant>> {
    match outcome {
        RemoteOutcome::Rows(r) => r.rows,
        RemoteOutcome::Message(m) => panic!("expected rows, got message {m}"),
    }
}

#[test]
fn served_disk_database_round_trips() {
    let dir = temp_dir();
    let mem = Arc::new(Database::new());
    adl::generator::load_into(
        &mem,
        "hep",
        &AdlConfig {
            events: 1024,
            seed: 42,
            partition_rows: 128,
        },
    );
    mem.load_table(
        "overflow",
        vec![ColumnDef::new("OV", ColumnType::Int)],
        [vec![Variant::Int(i64::MIN)]],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    let one = snowq::snowdb::variant::parse_json(r#"{"a": [1, 2]}"#).unwrap();
    mem.load_table(
        "huge",
        vec![ColumnDef::new("HV", ColumnType::Variant)],
        [vec![one]],
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    mem.persist_to(&dir).unwrap();
    forge_overflowing_varint(&dir);
    forge_row_count(&dir);

    let db = Arc::new(Database::open(&dir).unwrap());
    let store = db.store().unwrap().clone();
    store.set_cache_capacity(db.table("HEP").unwrap().total_bytes() / 4);
    let server = serve(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let q2 = adl::queries::q2("hep");
    let translated = translate_query(mem.clone(), &q2.jsoniq, NestedStrategy::FlagColumn)
        .unwrap()
        .sql()
        .to_string();
    let statements = [
        translated,
        "SELECT EVENT, MET:PT, ARRAY_SIZE(JET) FROM hep WHERE EVENT < 40 ORDER BY EVENT".into(),
    ];
    for pass in 0..2 {
        let before = store.cache_stats();
        for sql in &statements {
            let want = mem.query(sql).unwrap().rows;
            assert!(!want.is_empty(), "{sql}");
            assert_eq!(
                rows(client.execute(sql).unwrap()),
                want,
                "pass {pass}: {sql}"
            );
        }
        let after = store.cache_stats();
        if pass == 1 {
            assert!(
                after.hits > before.hits,
                "second pass without a cache hit: {after:?}"
            );
        }
    }

    for (sql, needle) in [
        ("SELECT OV FROM overflow", "overflows"),
        ("SELECT HV FROM huge", "truncated"),
    ] {
        match client.execute(sql) {
            Err(SnowError::Storage(m)) => assert!(m.contains(needle), "{sql}: {m}"),
            other => panic!("{sql}: expected a storage error, got {other:?}"),
        }
    }
    // The connection and the engine are still healthy.
    assert_eq!(
        rows(client.execute("SELECT COUNT(*) FROM hep").unwrap()),
        vec![vec![Variant::Int(1024)]]
    );

    client.goodbye();
    server.shutdown();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
