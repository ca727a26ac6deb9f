//! `persist_ci` — the two halves of the CI cold-cache durability check.
//!
//! ```text
//! persist_ci build <dir>   # generate ADL + SSB and commit them to a new db
//! persist_ci check <dir>   # reopen the db and run the corpus on the lattice
//! ```
//!
//! CI runs `build` and `check` as SEPARATE processes: the reader starts with
//! an empty buffer cache and no in-memory tables, so everything it answers
//! comes off the committed partition files. `check` exits non-zero on any
//! divergence and prints per-suite cache traffic so the artifact shows how
//! much of the corpus was served from disk versus the warm cache.
#![deny(unsafe_code)]

use std::process::exit;
use std::sync::Arc;

use jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowdb::verify::{default_lattice, verify_sql, DEFAULT_EPSILON};
use snowdb::Database;

const ADL_EVENTS: usize = 256;
const SSB_LINEORDERS: usize = 1500;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, dir] if cmd == "build" => build(dir),
        [cmd, dir] if cmd == "check" => check(dir),
        _ => {
            eprintln!("usage: persist_ci build|check <dir>");
            exit(2);
        }
    }
}

/// Writer process: stage the corpus datasets in memory, then persist them —
/// every partition becomes an immutable file under a committed catalog.
fn build(dir: &str) {
    let staging = Database::new();
    adl::generator::load_into(
        &staging,
        "hep",
        &adl::AdlConfig { events: ADL_EVENTS, seed: 1234, partition_rows: 64 },
    );
    ssb::load_ssb(
        &staging,
        &ssb::SsbConfig { lineorders: SSB_LINEORDERS, seed: 11, partition_rows: 256 },
    );
    staging.persist_to(dir).unwrap_or_else(|e| {
        eprintln!("persist failed: {e}");
        exit(1);
    });
    let db = Database::open(dir).expect("writer can reopen its own commit");
    println!(
        "built '{dir}': catalog v{}, tables {:?}",
        db.store().map(|s| s.version()).unwrap_or(0),
        db.table_names()
    );
}

/// Reader process: reopen cold and verify the full corpus across the
/// execution-configuration lattice. SSB runs the optimized half only — its
/// raw plan is a literal cross product, infeasible at corpus scale (same
/// policy as the in-memory corpus runner).
fn check(dir: &str) {
    let db = Arc::new(Database::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open {dir}: {e}");
        exit(1);
    }));
    let store = db.store().expect("opened database has a store");
    for t in db.table_names() {
        let table = db.table(&t).unwrap();
        assert!(
            table.partitions().iter().all(|p| p.is_disk()),
            "table {t} has in-memory partitions after a cold open"
        );
    }

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let full = default_lattice(threads);
    let optimized: Vec<_> = full.iter().copied().filter(|c| c.optimize).collect();
    let mut failures = 0usize;

    let adl_corpus: Vec<(String, String)> =
        adl::queries::queries("hep").into_iter().map(|q| (q.id.to_string(), q.jsoniq)).collect();
    let ssb_corpus: Vec<(String, String)> =
        ssb::queries().into_iter().map(|q| (q.id.to_string(), q.jsoniq)).collect();
    for (suite, queries, configs) in
        [("adl", adl_corpus, full.clone()), ("ssb", ssb_corpus, optimized)]
    {
        let before = store.cache_stats();
        for (id, jsoniq) in queries {
            let sql = match translate_query(db.clone(), &jsoniq, NestedStrategy::FlagColumn) {
                Ok(df) => df.sql().to_string(),
                Err(e) => {
                    eprintln!("FAIL {suite} {id}: translation: {e}");
                    failures += 1;
                    continue;
                }
            };
            match verify_sql(&db, &sql, &configs, DEFAULT_EPSILON) {
                Ok(report) if report.agrees() => println!("ok   {suite} {id}"),
                Ok(report) => {
                    eprintln!("FAIL {suite} {id} diverged:\n{}", report.render());
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("FAIL {suite} {id}: {e}");
                    failures += 1;
                }
            }
        }
        let after = store.cache_stats();
        println!(
            "{suite}: cache +{} hit(s) +{} miss(es) +{} eviction(s)",
            after.hits - before.hits,
            after.misses - before.misses,
            after.evictions - before.evictions,
        );
    }

    if failures > 0 {
        eprintln!("{failures} corpus failure(s) from cold-opened database");
        exit(1);
    }
    println!("corpus verified from cold-opened '{dir}' (catalog v{})", store.version());
}
