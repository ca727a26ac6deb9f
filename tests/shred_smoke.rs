//! Tier-1 smoke for shredded nested columns: ADL's records and arrays of
//! records seal as typed field columns, read back exactly the values the
//! generator made, carry the statistics of the boxed column, round-trip
//! through the SNPT codec, and a forged shredded block decodes to a typed
//! error. The irregular shapes of the verification table stay boxed. The
//! queries over these columns are refereed by the `{enc, dec}` axis of the
//! lattice (`verify_smoke` here, `crates/snowdb/tests/verify.rs` in full).

use snowq::adl::{self, generator::AdlConfig};
use snowq::snowdb::column::ColumnVec;
use snowq::snowdb::storage::{ColumnStats, ColumnType};
use snowq::snowdb::store::format::{self, BlockEncoding};
use snowq::snowdb::{Database, SnowError, Variant};

const CFG: AdlConfig = AdlConfig {
    events: 600,
    seed: 42,
    partition_rows: 128,
};

fn shape(c: &ColumnVec) -> &'static str {
    match c {
        ColumnVec::Int { .. } => "int",
        ColumnVec::Objects(_) => "objects",
        ColumnVec::List(_) => "list",
        ColumnVec::Var(_) => "boxed",
        _ => "other",
    }
}

/// Equal values of equal types: `Int(1)` is not `Float(1.0)`, keys keep
/// their order.
fn identical(a: &Variant, b: &Variant) -> bool {
    match (a, b) {
        (Variant::Null, Variant::Null) => true,
        (Variant::Bool(x), Variant::Bool(y)) => x == y,
        (Variant::Int(x), Variant::Int(y)) => x == y,
        (Variant::Float(x), Variant::Float(y)) => x.to_bits() == y.to_bits(),
        (Variant::Str(x), Variant::Str(y)) => x == y,
        (Variant::Array(x), Variant::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| identical(p, q))
        }
        (Variant::Object(x), Variant::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((k, p), (l, q))| k == l && identical(p, q))
        }
        _ => false,
    }
}

#[test]
fn adl_columns_seal_shredded_and_read_back_as_generated() {
    let db = Database::new();
    adl::load_into(&db, "hep", &CFG);
    let events = adl::generate_events(&CFG);
    let table = db.table("HEP").expect("loaded");
    let mut first = 0;
    for src in table.partitions() {
        let part = src.as_mem().expect("in memory");
        let shapes: Vec<_> = (0..8).map(|c| shape(part.column(c))).collect();
        // EVENT, MET, HLT, then MUON, ELECTRON, JET, PHOTON, TAU.
        assert_eq!(
            shapes,
            ["int", "objects", "objects", "list", "list", "list", "list", "list"]
        );
        let rows = part.row_count();
        for c in 0..8 {
            let col = part.column(c);
            let boxed: Vec<Variant> = events[first..first + rows]
                .iter()
                .map(|e| e[c].clone())
                .collect();
            for (r, want) in boxed.iter().enumerate() {
                assert!(identical(&col.get(r), want), "column {c} row {}", first + r);
            }
            assert_eq!(
                &part.columns()[c].stats,
                &ColumnStats::build(&ColumnVec::Var(boxed)),
                "column {c} of the partition at row {first}"
            );
        }
        first += rows;
    }
    assert_eq!(first, CFG.events);
}

#[test]
fn shredded_blocks_round_trip_through_the_partition_file() {
    let db = Database::new();
    adl::load_into(&db, "hep", &CFG);
    let table = db.table("HEP").expect("loaded");
    let part = table.partitions()[0].as_mem().expect("in memory");
    let (bytes, meta) = format::encode_partition(table.schema(), part);
    let encodings: Vec<_> = meta.blocks.iter().map(|b| b.encoding).collect();
    assert_eq!(encodings[1..], [BlockEncoding::Shredded; 7]);
    for (c, (cm, b)) in meta.columns.iter().zip(&meta.blocks).enumerate() {
        let block = &bytes[b.offset as usize..(b.offset + cm.bytes) as usize];
        let col = format::decode_column(cm.ty, b.encoding, meta.row_count, block)
            .unwrap_or_else(|e| panic!("column {c}: {e}"));
        assert_eq!(shape(&col), shape(part.column(c)), "column {c}");
        for r in 0..meta.row_count {
            assert!(
                identical(&col.get(r), &part.column(c).get(r)),
                "column {c} row {r}"
            );
        }
    }
}

/// Appends `v` as a LEB128 varint.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A list block of one row holding `items` records `{"Q": int}`, whose `Q`
/// block holds `values` of them; `valid` is both validity bitmaps' byte.
fn list_block(items: u64, values: usize, valid: u8) -> Vec<u8> {
    let mut b = vec![1, 0b1]; // list shape; the row is not NULL
    varint(&mut b, items);
    b.push(valid); // the items
    b.extend([1, 1, b'Q', 1]); // one key, "Q", an Int field
    b.push(valid); // its values
    b.extend(std::iter::repeat_n(2, values)); // zigzag 1
    b
}

#[test]
fn forged_shredded_blocks_fail_typed() {
    let decode = |rows: usize, bytes: &[u8]| {
        format::decode_column(ColumnType::Variant, BlockEncoding::Shredded, rows, bytes)
    };
    let good = decode(1, &list_block(3, 3, 0xff)).unwrap();
    assert_eq!(good.get(0).as_array().map(<[_]>::len), Some(3));
    let mut huge_keys = vec![0, 0b1];
    varint(&mut huge_keys, 1 << 40);
    let mut huge_total = vec![1, 0b1];
    varint(&mut huge_total, 1 << 40);
    for (what, rows, bytes) in [
        ("offsets past the items", 1, list_block(7, 3, 0xff)),
        ("a field shorter than the items", 1, list_block(3, 2, 0xff)),
        ("a huge key count", 1, huge_keys),
        ("a huge item total", 1, huge_total),
        ("a forged row count", 1 << 40, list_block(3, 3, 0xff)),
        ("an unknown shape", 1, vec![9]),
        ("a NULL item", 1, list_block(3, 2, 0b011)),
        ("a value on a NULL record", 1, {
            let mut b = list_block(3, 2, 0b011);
            b[8] = 0b111;
            b
        }),
    ] {
        match decode(rows, &bytes) {
            Err(SnowError::Storage(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}

#[test]
fn irregular_shapes_stay_boxed_and_regular_ones_shred() {
    let db = Database::new();
    snowq::snowdb::verify::gen::load_irregular(&db, "irr", 40, 0x1dd).unwrap();
    let table = db.table("IRR").expect("loaded");
    let mut lists = 0;
    for src in table.partitions() {
        let part = src.as_mem().expect("in memory");
        // OPT (integers and NULLs), MIX (mixed types) and XS (scalar items,
        // a missing key) keep their boxes.
        for c in 1..4 {
            assert_eq!(shape(part.column(c)), "boxed", "column {c}");
        }
        // RS shreds, NULL rows, empty arrays and NULL fields included.
        lists += usize::from(shape(part.column(4)) == "list");
    }
    assert!(
        lists >= table.partitions().len() - 1,
        "{lists} shredded RS blocks"
    );
}
