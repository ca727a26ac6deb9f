//! Tier-1 slice of the chaos harness: one seeded fault schedule through
//! `Database::query_governed` over the generated ADL q6 (JOIN-based: shared
//! subplans, FLATTEN, ARRAY_AGG) and the handwritten SSB q3.1 star join.
//! Each statement runs twice under the schedule, so the second run executes
//! the plan the first one cached; each answer is the reference rows or a
//! typed error, and the engine answers correctly afterwards. The reference
//! comes from a second, identically loaded database, so the faulted first run
//! is also the cold compile. The 200-schedule sweep over the whole corpus
//! lives in `crates/snowdb/tests/chaos.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::snowdb::govern::chaos::{quiet_injected_panics, ChaosSchedule};
use snowq::snowdb::verify::{canonical_rows, first_diff, DEFAULT_EPSILON};
use snowq::snowdb::{Database, QueryGovernor, QueryOptions, SnowError, Variant};
use snowq::ssb::{self, SsbConfig};

/// The one schedule of this slice: a fault on about one checkpoint hit in
/// 128, so that at two threads the ADL run usually completes and the SSB run
/// usually fails — both outcomes, cold and cached.
const SEED: u64 = 0x5eed_0000;
const PERIOD: u64 = 128;

fn adl_db() -> Arc<Database> {
    let db = Database::new();
    adl::generator::load_into(&db, "hep", &AdlConfig { events: 64, seed: 1234, partition_rows: 16 });
    Arc::new(db)
}

fn ssb_db() -> Arc<Database> {
    let db = Database::new();
    ssb::load_ssb(&db, &SsbConfig { lineorders: 600, seed: 11, partition_rows: 128 });
    Arc::new(db)
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Variant>> {
    canonical_rows(db.query(sql).expect("the un-faulted reference runs").rows)
}

/// Runs `sql` on `db` twice under the schedule, then once without faults.
fn sound_under_chaos(tag: &str, db: &Database, sql: &str, reference: &[Vec<Variant>]) {
    let opts = QueryOptions { threads: Some(2), ..Default::default() };
    for run in ["cold", "cached"] {
        let gov = Arc::new(QueryGovernor::unbounded().with_chaos(ChaosSchedule::with_period(SEED, PERIOD)));
        match db.query_governed(sql, &opts, gov) {
            Ok(r) => {
                let got = canonical_rows(r.rows);
                if let Some((i, want, got)) = first_diff(reference, &got, DEFAULT_EPSILON) {
                    panic!("{tag} {run} seed={SEED:#x}: wrong row {i}: {want:?} vs {got:?}");
                }
                assert_eq!(r.profile.plan_cached, run == "cached", "{tag} {run}");
            }
            // An injected fault, error or caught panic, is an internal error.
            Err(f) => assert!(
                matches!(f.error, SnowError::Internal(_)),
                "{tag} {run} seed={SEED:#x}: unexpected failure {:?}",
                f.error
            ),
        }
    }
    let after = db.query_with(sql, &opts).expect("the engine answers after the schedule");
    assert!(after.profile.plan_cached, "{tag}: the plan survived the faults");
    assert!(first_diff(reference, &canonical_rows(after.rows), DEFAULT_EPSILON).is_none(), "{tag}");
}

#[test]
fn one_fault_schedule_over_adl_q6_and_ssb_q3_1_is_sound_cold_and_cached() {
    quiet_injected_panics();
    let t0 = Instant::now();

    let q6 = adl::queries::queries("hep").into_iter().find(|q| q.id == "q6").expect("q6");
    let (adl, adl_ref) = (adl_db(), adl_db());
    let q6_sql = translate_query(adl.clone(), &q6.jsoniq, NestedStrategy::JoinBased)
        .expect("translates")
        .sql()
        .to_string();
    let q6_rows = rows(&adl_ref, &q6_sql);
    assert!(!q6_rows.is_empty());

    let q31 = ssb::queries().into_iter().find(|q| q.id == "q3.1").expect("q3.1");
    let (ssb, ssb_ref) = (ssb_db(), ssb_db());
    let q31_rows = rows(&ssb_ref, &q31.sql);

    sound_under_chaos("adl q6", &adl, &q6_sql, &q6_rows);
    sound_under_chaos("ssb q3.1", &ssb, &q31.sql, &q31_rows);
    assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
}
