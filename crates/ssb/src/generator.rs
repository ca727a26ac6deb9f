//! Star Schema Benchmark data generator.
//!
//! Follows the official SSB value domains (O'Neil et al.): five regions with
//! five nations each, cities formed from the nation name's first nine
//! characters plus a digit, `MFGR#`-prefixed part hierarchies, a seven-year
//! date dimension (1992–1998), and lineorder measures with the official
//! ranges. Cardinalities are re-based for laptop scale: our SF1 fact table
//! holds [`LINEORDERS_SF1`] rows with dimension sizes in the official
//! proportions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snowdb::storage::{ColumnDef, ColumnType};
use snowdb::{Database, Variant};

/// Lineorder rows at re-based Scale Factor 1 (official SF1 is 6 M).
pub const LINEORDERS_SF1: usize = 32_768;

/// Regions and their nations; AMERICA/ASIA/EUROPE carry the nation names the
/// official queries select on.
pub const REGIONS: [(&str, [&str; 5]); 5] = [
    ("AFRICA", ["ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"]),
    ("AMERICA", ["ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"]),
    ("ASIA", ["CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"]),
    ("EUROPE", ["FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"]),
    ("MIDDLE EAST", ["EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"]),
];

const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

const DAYS_PER_MONTH: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// Generator configuration; all cardinalities derive from `lineorders`.
#[derive(Clone, Copy, Debug)]
pub struct SsbConfig {
    pub lineorders: usize,
    pub seed: u64,
    pub partition_rows: usize,
}

impl Default for SsbConfig {
    fn default() -> Self {
        SsbConfig { lineorders: LINEORDERS_SF1, seed: 7, partition_rows: 4096 }
    }
}

impl SsbConfig {
    /// Re-based scale factor: `sf(1.0)` ≈ official proportions at 1/180 size.
    pub fn scale_factor(sf: f64) -> SsbConfig {
        SsbConfig {
            lineorders: ((LINEORDERS_SF1 as f64 * sf) as usize).max(64),
            ..Default::default()
        }
    }

    pub fn customers(&self) -> usize {
        (self.lineorders / 8).max(20)
    }

    pub fn suppliers(&self) -> usize {
        (self.lineorders / 64).max(10)
    }

    pub fn parts(&self) -> usize {
        (self.lineorders / 4).max(50)
    }
}

/// Official SSB city encoding: nation name padded/truncated to nine
/// characters plus a digit (`UNITED KINGDOM`, 1 → `"UNITED KI1"`).
pub fn city_of(nation: &str, digit: usize) -> String {
    let mut name: String = nation.chars().take(9).collect();
    while name.len() < 9 {
        name.push(' ');
    }
    format!("{name}{digit}")
}

fn pick_nation(rng: &mut StdRng) -> (&'static str, &'static str) {
    let (region, nations) = REGIONS[rng.gen_range(0..REGIONS.len())];
    (region, nations[rng.gen_range(0..5)])
}

fn str_cols(names: &[&str]) -> Vec<ColumnDef> {
    names.iter().map(|n| ColumnDef::new(*n, ColumnType::Str)).collect()
}

fn int_cols(names: &[&str]) -> Vec<ColumnDef> {
    names.iter().map(|n| ColumnDef::new(*n, ColumnType::Int)).collect()
}

/// Full 1992–1998 date dimension: schema, rows, and the datekey list used to
/// draw lineorder FKs.
fn date_dimension() -> (Vec<ColumnDef>, Vec<Vec<Variant>>, Vec<i64>) {
    let mut date_schema = int_cols(&["D_DATEKEY", "D_YEAR", "D_YEARMONTHNUM", "D_MONTHNUMINYEAR", "D_WEEKNUMINYEAR", "D_DAYNUMINYEAR"]);
    date_schema.push(ColumnDef::new("D_YEARMONTH", ColumnType::Str));
    date_schema.push(ColumnDef::new("D_DAYOFWEEK", ColumnType::Str));
    let mut date_rows: Vec<Vec<Variant>> = Vec::new();
    let mut datekeys: Vec<i64> = Vec::new();
    for year in 1992..=1998i64 {
        let mut daynum = 0i64;
        for (m, &days) in DAYS_PER_MONTH.iter().enumerate() {
            for day in 1..=days as i64 {
                daynum += 1;
                let datekey = year * 10_000 + (m as i64 + 1) * 100 + day;
                datekeys.push(datekey);
                date_rows.push(vec![
                    Variant::Int(datekey),
                    Variant::Int(year),
                    Variant::Int(year * 100 + m as i64 + 1),
                    Variant::Int(m as i64 + 1),
                    Variant::Int((daynum - 1) / 7 + 1),
                    Variant::Int(daynum),
                    Variant::from(format!("{}{}", MONTH_NAMES[m], year)),
                    Variant::from(
                        ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]
                            [(daynum as usize) % 7],
                    ),
                ]);
            }
        }
    }
    (date_schema, date_rows, datekeys)
}

/// Loads all five SSB tables into the database:
/// `LINEORDER`, `CUSTOMER`, `SUPPLIER`, `PART`, `DDATE`.
pub fn load_ssb(db: &Database, cfg: &SsbConfig) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // ---- DDATE: all days of 1992-1998 --------------------------------------
    let (date_schema, date_rows, datekeys) = date_dimension();
    db.load_table("DDATE", date_schema, date_rows, cfg.partition_rows)
        .expect("date schema fixed");

    // ---- CUSTOMER -----------------------------------------------------------
    let n_cust = cfg.customers();
    let mut cust_schema = int_cols(&["C_CUSTKEY"]);
    cust_schema.extend(str_cols(&["C_NAME", "C_CITY", "C_NATION", "C_REGION", "C_MKTSEGMENT"]));
    let segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
    let cust_rows: Vec<Vec<Variant>> = (1..=n_cust as i64)
        .map(|k| {
            let (region, nation) = pick_nation(&mut rng);
            let digit = rng.gen_range(0..10);
            vec![
                Variant::Int(k),
                Variant::from(format!("Customer#{k:09}")),
                Variant::from(city_of(nation, digit)),
                Variant::from(nation),
                Variant::from(region),
                Variant::from(segments[rng.gen_range(0..segments.len())]),
            ]
        })
        .collect();
    db.load_table("CUSTOMER", cust_schema, cust_rows, cfg.partition_rows)
        .expect("customer schema fixed");

    // ---- SUPPLIER -----------------------------------------------------------
    let n_supp = cfg.suppliers();
    let mut supp_schema = int_cols(&["S_SUPPKEY"]);
    supp_schema.extend(str_cols(&["S_NAME", "S_CITY", "S_NATION", "S_REGION"]));
    let supp_rows: Vec<Vec<Variant>> = (1..=n_supp as i64)
        .map(|k| {
            let (region, nation) = pick_nation(&mut rng);
            let digit = rng.gen_range(0..10);
            vec![
                Variant::Int(k),
                Variant::from(format!("Supplier#{k:09}")),
                Variant::from(city_of(nation, digit)),
                Variant::from(nation),
                Variant::from(region),
            ]
        })
        .collect();
    db.load_table("SUPPLIER", supp_schema, supp_rows, cfg.partition_rows)
        .expect("supplier schema fixed");

    // ---- PART ---------------------------------------------------------------
    let n_part = cfg.parts();
    let mut part_schema = int_cols(&["P_PARTKEY"]);
    part_schema.extend(str_cols(&["P_NAME", "P_MFGR", "P_CATEGORY", "P_BRAND1", "P_COLOR"]));
    part_schema.push(ColumnDef::new("P_SIZE", ColumnType::Int));
    let colors = ["red", "green", "blue", "yellow", "pink", "white", "black", "azure"];
    let part_rows: Vec<Vec<Variant>> = (1..=n_part as i64)
        .map(|k| {
            let mfgr = rng.gen_range(1..=5);
            let cat = rng.gen_range(1..=5);
            let brand = rng.gen_range(1..=40);
            vec![
                Variant::Int(k),
                Variant::from(format!("Part {k}")),
                Variant::from(format!("MFGR#{mfgr}")),
                Variant::from(format!("MFGR#{mfgr}{cat}")),
                Variant::from(format!("MFGR#{mfgr}{cat}{brand:02}")),
                Variant::from(colors[rng.gen_range(0..colors.len())]),
                Variant::Int(rng.gen_range(1..=50)),
            ]
        })
        .collect();
    db.load_table("PART", part_schema, part_rows, cfg.partition_rows)
        .expect("part schema fixed");

    // ---- LINEORDER ----------------------------------------------------------
    let lo_schema = vec![
        ColumnDef::new("LO_ORDERKEY", ColumnType::Int),
        ColumnDef::new("LO_LINENUMBER", ColumnType::Int),
        ColumnDef::new("LO_CUSTKEY", ColumnType::Int),
        ColumnDef::new("LO_PARTKEY", ColumnType::Int),
        ColumnDef::new("LO_SUPPKEY", ColumnType::Int),
        ColumnDef::new("LO_ORDERDATE", ColumnType::Int),
        ColumnDef::new("LO_QUANTITY", ColumnType::Int),
        ColumnDef::new("LO_EXTENDEDPRICE", ColumnType::Int),
        ColumnDef::new("LO_ORDTOTALPRICE", ColumnType::Int),
        ColumnDef::new("LO_DISCOUNT", ColumnType::Int),
        ColumnDef::new("LO_REVENUE", ColumnType::Int),
        ColumnDef::new("LO_SUPPLYCOST", ColumnType::Int),
        ColumnDef::new("LO_TAX", ColumnType::Int),
        ColumnDef::new("LO_COMMITDATE", ColumnType::Int),
        ColumnDef::new("LO_SHIPMODE", ColumnType::Str),
    ];
    let shipmodes = ["AIR", "SHIP", "TRUCK", "RAIL", "MAIL", "FOB", "REG AIR"];
    let lo_rows: Vec<Vec<Variant>> = (1..=cfg.lineorders as i64)
        .map(|k| {
            let quantity = rng.gen_range(1..=50i64);
            let price = rng.gen_range(90_000..=1_100_000i64);
            let discount = rng.gen_range(0..=10i64);
            let revenue = price * (100 - discount) / 100;
            let orderdate = datekeys[rng.gen_range(0..datekeys.len())];
            vec![
                Variant::Int((k + 3) / 4),
                Variant::Int((k - 1) % 4 + 1),
                Variant::Int(rng.gen_range(1..=n_cust as i64)),
                Variant::Int(rng.gen_range(1..=n_part as i64)),
                Variant::Int(rng.gen_range(1..=n_supp as i64)),
                Variant::Int(orderdate),
                Variant::Int(quantity),
                Variant::Int(price),
                Variant::Int(price * 4),
                Variant::Int(discount),
                Variant::Int(revenue),
                Variant::Int(price * 6 / 10),
                Variant::Int(rng.gen_range(0..=8i64)),
                Variant::Int(datekeys[rng.gen_range(0..datekeys.len())]),
                Variant::from(shipmodes[rng.gen_range(0..shipmodes.len())]),
            ]
        })
        .collect();
    db.load_table("LINEORDER", lo_schema, lo_rows, cfg.partition_rows)
        .expect("lineorder schema fixed");
}

/// Loads a foreign-key-closed miniature SSB database whose worst-case cross
/// product stays small enough to execute with the optimizer *disabled*.
///
/// The standard generator's DDATE is always 2 555 rows (every day of
/// 1992–1998) and its dimension floors are 20/10/50, so even the smallest
/// `load_ssb` database makes a raw four-way cross product infeasible for the
/// tuple-at-a-time interpreter. The verification lattice needs the
/// `optimize=false` axis to actually run the join corpus, so this loader
/// caps every table: 12 lineorders, 18 sampled dates, 8 customers,
/// 5 suppliers, 8 parts — a worst-case intermediate of ~69 k rows.
///
/// Dates are a deterministic stride over the full seven-year dimension, so
/// derived fields (`D_YEARMONTH`, week numbers, …) keep the official
/// encoding and every year is represented. All lineorder FKs resolve:
/// round-robin over the tiny dimensions, measures from the seeded rng.
pub fn load_ssb_tiny(db: &Database, cfg: &SsbConfig) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // ---- DDATE: every 142nd day of 1992-1998 → 18 rows ---------------------
    let (date_schema, date_rows, all_keys) = date_dimension();
    let sampled: Vec<Vec<Variant>> = date_rows.into_iter().step_by(142).collect();
    let datekeys: Vec<i64> = all_keys.into_iter().step_by(142).collect();
    assert_eq!(datekeys.len(), 18);
    db.load_table("DDATE", date_schema, sampled, cfg.partition_rows)
        .expect("date schema fixed");

    // ---- CUSTOMER: 8 rows over 4 regions -----------------------------------
    let mut cust_schema = int_cols(&["C_CUSTKEY"]);
    cust_schema.extend(str_cols(&["C_NAME", "C_CITY", "C_NATION", "C_REGION", "C_MKTSEGMENT"]));
    let segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
    let cust_rows: Vec<Vec<Variant>> = (1..=8i64)
        .map(|k| {
            let (region, nations) = REGIONS[(k as usize - 1) % 4];
            let nation = nations[(k as usize - 1) % 5];
            vec![
                Variant::Int(k),
                Variant::from(format!("Customer#{k:09}")),
                Variant::from(city_of(nation, (k as usize) % 10)),
                Variant::from(nation),
                Variant::from(region),
                Variant::from(segments[(k as usize - 1) % segments.len()]),
            ]
        })
        .collect();
    db.load_table("CUSTOMER", cust_schema, cust_rows, cfg.partition_rows)
        .expect("customer schema fixed");

    // ---- SUPPLIER: 5 rows, one per region ----------------------------------
    let mut supp_schema = int_cols(&["S_SUPPKEY"]);
    supp_schema.extend(str_cols(&["S_NAME", "S_CITY", "S_NATION", "S_REGION"]));
    let supp_rows: Vec<Vec<Variant>> = (1..=5i64)
        .map(|k| {
            let (region, nations) = REGIONS[k as usize - 1];
            let nation = nations[(k as usize * 2) % 5];
            vec![
                Variant::Int(k),
                Variant::from(format!("Supplier#{k:09}")),
                Variant::from(city_of(nation, (k as usize) % 10)),
                Variant::from(nation),
                Variant::from(region),
            ]
        })
        .collect();
    db.load_table("SUPPLIER", supp_schema, supp_rows, cfg.partition_rows)
        .expect("supplier schema fixed");

    // ---- PART: 8 rows spanning the MFGR hierarchy --------------------------
    let mut part_schema = int_cols(&["P_PARTKEY"]);
    part_schema.extend(str_cols(&["P_NAME", "P_MFGR", "P_CATEGORY", "P_BRAND1", "P_COLOR"]));
    part_schema.push(ColumnDef::new("P_SIZE", ColumnType::Int));
    let colors = ["red", "green", "blue", "yellow", "pink", "white", "black", "azure"];
    let part_rows: Vec<Vec<Variant>> = (1..=8i64)
        .map(|k| {
            let mfgr = (k - 1) % 5 + 1;
            let cat = (k - 1) % 5 + 1;
            let brand = (k - 1) * 5 + 1;
            vec![
                Variant::Int(k),
                Variant::from(format!("Part {k}")),
                Variant::from(format!("MFGR#{mfgr}")),
                Variant::from(format!("MFGR#{mfgr}{cat}")),
                Variant::from(format!("MFGR#{mfgr}{cat}{brand:02}")),
                Variant::from(colors[(k as usize - 1) % colors.len()]),
                Variant::Int((k - 1) % 50 + 1),
            ]
        })
        .collect();
    db.load_table("PART", part_schema, part_rows, cfg.partition_rows)
        .expect("part schema fixed");

    // ---- LINEORDER: 12 rows, FKs round-robin over the tiny dimensions ------
    let lo_schema = vec![
        ColumnDef::new("LO_ORDERKEY", ColumnType::Int),
        ColumnDef::new("LO_LINENUMBER", ColumnType::Int),
        ColumnDef::new("LO_CUSTKEY", ColumnType::Int),
        ColumnDef::new("LO_PARTKEY", ColumnType::Int),
        ColumnDef::new("LO_SUPPKEY", ColumnType::Int),
        ColumnDef::new("LO_ORDERDATE", ColumnType::Int),
        ColumnDef::new("LO_QUANTITY", ColumnType::Int),
        ColumnDef::new("LO_EXTENDEDPRICE", ColumnType::Int),
        ColumnDef::new("LO_ORDTOTALPRICE", ColumnType::Int),
        ColumnDef::new("LO_DISCOUNT", ColumnType::Int),
        ColumnDef::new("LO_REVENUE", ColumnType::Int),
        ColumnDef::new("LO_SUPPLYCOST", ColumnType::Int),
        ColumnDef::new("LO_TAX", ColumnType::Int),
        ColumnDef::new("LO_COMMITDATE", ColumnType::Int),
        ColumnDef::new("LO_SHIPMODE", ColumnType::Str),
    ];
    let shipmodes = ["AIR", "SHIP", "TRUCK", "RAIL", "MAIL", "FOB", "REG AIR"];
    let lo_rows: Vec<Vec<Variant>> = (1..=12i64)
        .map(|k| {
            let quantity = rng.gen_range(1..=50i64);
            let price = rng.gen_range(90_000..=1_100_000i64);
            let discount = rng.gen_range(0..=10i64);
            let revenue = price * (100 - discount) / 100;
            vec![
                Variant::Int((k + 3) / 4),
                Variant::Int((k - 1) % 4 + 1),
                Variant::Int((k - 1) % 8 + 1),
                Variant::Int((k - 1) % 8 + 1),
                Variant::Int((k - 1) % 5 + 1),
                Variant::Int(datekeys[(k as usize - 1) % datekeys.len()]),
                Variant::Int(quantity),
                Variant::Int(price),
                Variant::Int(price * 4),
                Variant::Int(discount),
                Variant::Int(revenue),
                Variant::Int(price * 6 / 10),
                Variant::Int(rng.gen_range(0..=8i64)),
                Variant::Int(datekeys[(k as usize + 6) % datekeys.len()]),
                Variant::from(shipmodes[(k as usize - 1) % shipmodes.len()]),
            ]
        })
        .collect();
    db.load_table("LINEORDER", lo_schema, lo_rows, cfg.partition_rows)
        .expect("lineorder schema fixed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_all_tables() {
        let db = Database::new();
        load_ssb(&db, &SsbConfig { lineorders: 1000, seed: 3, partition_rows: 256 });
        assert_eq!(db.table("LINEORDER").unwrap().row_count(), 1000);
        assert_eq!(db.table("DDATE").unwrap().row_count(), 7 * 365);
        assert!(db.table("CUSTOMER").unwrap().row_count() >= 20);
        assert!(db.table("SUPPLIER").unwrap().row_count() >= 10);
        assert!(db.table("PART").unwrap().row_count() >= 50);
    }

    #[test]
    fn city_encoding_matches_official_format() {
        assert_eq!(city_of("UNITED KINGDOM", 1), "UNITED KI1");
        assert_eq!(city_of("UNITED STATES", 5), "UNITED ST5");
        assert_eq!(city_of("PERU", 3), "PERU     3");
    }

    #[test]
    fn foreign_keys_resolve() {
        let db = Database::new();
        let cfg = SsbConfig { lineorders: 500, seed: 1, partition_rows: 128 };
        load_ssb(&db, &cfg);
        let r = db
            .query(
                "SELECT COUNT(*) FROM lineorder l JOIN customer c ON l.lo_custkey = c.c_custkey",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Variant::Int(500));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Database::new();
        let b = Database::new();
        let cfg = SsbConfig { lineorders: 200, seed: 9, partition_rows: 64 };
        load_ssb(&a, &cfg);
        load_ssb(&b, &cfg);
        let qa = a.query("SELECT SUM(lo_revenue) FROM lineorder").unwrap();
        let qb = b.query("SELECT SUM(lo_revenue) FROM lineorder").unwrap();
        assert_eq!(qa.rows, qb.rows);
    }

    #[test]
    fn tiny_ssb_is_fk_closed_and_cross_product_feasible() {
        let db = Database::new();
        let cfg = SsbConfig { lineorders: 0, seed: 7, partition_rows: 8 };
        load_ssb_tiny(&db, &cfg);
        assert_eq!(db.table("LINEORDER").unwrap().row_count(), 12);
        assert_eq!(db.table("DDATE").unwrap().row_count(), 18);
        assert_eq!(db.table("CUSTOMER").unwrap().row_count(), 8);
        assert_eq!(db.table("SUPPLIER").unwrap().row_count(), 5);
        assert_eq!(db.table("PART").unwrap().row_count(), 8);
        // Worst-case raw cross product stays interpreter-feasible.
        let cross: usize = ["LINEORDER", "DDATE", "CUSTOMER", "SUPPLIER", "PART"]
            .iter()
            .map(|t| db.table(t).unwrap().row_count())
            .product();
        assert!(cross < 100_000);
        // Every lineorder FK resolves against every dimension.
        let r = db
            .query(
                "SELECT COUNT(*) FROM lineorder l \
                 JOIN ddate d ON l.lo_orderdate = d.d_datekey \
                 JOIN customer c ON l.lo_custkey = c.c_custkey \
                 JOIN supplier s ON l.lo_suppkey = s.s_suppkey \
                 JOIN part p ON l.lo_partkey = p.p_partkey",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Variant::Int(12));
    }

    #[test]
    fn tiny_ssb_is_deterministic_and_covers_all_years() {
        let a = Database::new();
        let b = Database::new();
        let cfg = SsbConfig::default();
        load_ssb_tiny(&a, &cfg);
        load_ssb_tiny(&b, &cfg);
        let qa = a.query("SELECT SUM(lo_revenue) FROM lineorder").unwrap();
        let qb = b.query("SELECT SUM(lo_revenue) FROM lineorder").unwrap();
        assert_eq!(qa.rows, qb.rows);
        let years = a.query("SELECT COUNT(DISTINCT d_year) FROM ddate").unwrap();
        assert_eq!(years.rows[0][0], Variant::Int(7));
    }

    #[test]
    fn revenue_derived_from_price_and_discount() {
        let db = Database::new();
        load_ssb(&db, &SsbConfig { lineorders: 100, seed: 2, partition_rows: 64 });
        let r = db
            .query(
                "SELECT COUNT(*) FROM lineorder \
                 WHERE lo_revenue <> lo_extendedprice * (100 - lo_discount) / 100 \
                 AND (lo_extendedprice * (100 - lo_discount)) % 100 = 0",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Variant::Int(0));
    }
}
