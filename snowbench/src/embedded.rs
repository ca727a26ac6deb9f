//! The three embedded workloads: one closed-loop client calling the library
//! in process, statement after statement, pass after pass.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use adl::AdlConfig;
use jsoniq_core::interp::{DatabaseCollections, Interpreter};
use snowdb::{Database, Variant};
use ssb::SsbConfig;

use crate::layers::{cache_metrics, ingest_metric, store_metrics, user_bytes, LayerAgg};
use crate::stats::{self, typical};
use crate::trace::Tracer;
use crate::workload::*;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    AdlNested,
    SsbFlat,
    CompileSmall,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::AdlNested => "adl_nested",
            Kind::SsbFlat => "ssb_flat",
            Kind::CompileSmall => "compile_small",
        }
    }

    fn on_disk(self) -> bool {
        self == Kind::SsbFlat
    }

    /// The table whose rows feed the JSONL ingest measurement.
    fn main_table(self) -> &'static str {
        match self {
            Kind::SsbFlat => "LINEORDER",
            _ => "HEP",
        }
    }
}

/// Generates the workload's data from the seed and loads it.
fn load(kind: Kind, opts: &Opts) -> Database {
    let db = Database::new();
    match kind {
        Kind::AdlNested => {
            let cfg = AdlConfig {
                events: opts.scaled(ADL_EVENTS),
                seed: opts.seed,
                partition_rows: 1024,
            };
            adl::load_into(&db, "hep", &cfg);
        }
        Kind::SsbFlat => {
            let cfg = SsbConfig {
                lineorders: opts.scaled(SSB_LINEORDERS),
                seed: opts.seed,
                ..Default::default()
            };
            ssb::load_ssb(&db, &cfg);
        }
        Kind::CompileSmall => {
            let cfg = AdlConfig {
                events: TINY_ADL_EVENTS,
                seed: TINY_ADL_SEED,
                ..Default::default()
            };
            adl::load_into(&db, "hep", &cfg);
            ssb::load_ssb_tiny(
                &db,
                &SsbConfig {
                    seed: opts.seed,
                    ..Default::default()
                },
            );
        }
    }
    db
}

fn statements(kind: Kind) -> Vec<Statement> {
    match kind {
        Kind::AdlNested => adl_statements("hep"),
        Kind::SsbFlat => ssb_statements(),
        Kind::CompileSmall => {
            let mut s = adl_statements("hep");
            s.extend(ssb_statements());
            s
        }
    }
}

/// A loaded database and, when persisted, where; the store's two set-up
/// steps are timed on the way.
struct Env {
    db: Arc<Database>,
    dir: Option<PathBuf>,
    persist_us: f64,
    open_us: f64,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn setup(kind: Kind, opts: &Opts, persist_to: Option<PathBuf>) -> Env {
    let db = load(kind, opts);
    match persist_to {
        None => Env {
            db: Arc::new(db),
            dir: None,
            persist_us: 0.0,
            open_us: 0.0,
        },
        Some(dir) => {
            let (db, persist_us, open_us) = persist_and_reopen(db, &dir);
            Env {
                db: Arc::new(db),
                dir: Some(dir),
                persist_us,
                open_us,
            }
        }
    }
}

pub fn run(kind: Kind, opts: &Opts) -> (Checker, Metrics) {
    let scratch = Scratch::new(kind.name());
    let statements = statements(kind);
    let mut chk = Checker::new(statements.len());
    let mut out = Metrics::new();

    let (env, setup_s) = measured_setups(
        opts,
        |i| {
            setup(
                kind,
                opts,
                kind.on_disk().then(|| scratch.sub(&format!("db{i}"))),
            )
        },
        drop,
    );
    let db = &env.db;
    out.insert("setup_s", typical(&setup_s));

    // The gate, which is also the first warm-up: generated SQL must equal
    // handwritten SQL, and at tiny scale the independent interpreter too.
    let interpret = |st: &Statement| -> Result<Vec<Variant>, String> {
        Interpreter::new(&DatabaseCollections { db })
            .eval_query(&st.text)
            .map_err(|e| e.to_string())
    };
    let mut scanned = 0u64;
    for pair in 0..statements.len() / 2 {
        let oracle: Option<Oracle> = (kind == Kind::CompileSmall).then_some(&interpret);
        scanned += gate_pair(
            &mut chk,
            &statements,
            pair,
            &mut |st| execute(db, st),
            oracle,
        );
    }

    // A persisted database: one cold pass (cache emptied before each
    // statement) gives the bytes a first reader pays; then one warm-up.
    if let Some(store) = db.store() {
        scanned = 0;
        let t = Instant::now();
        for (i, st) in statements
            .iter()
            .enumerate()
            .filter(|(_, st)| st.is_jsoniq())
        {
            store.cache().clear();
            let res = execute(db, st);
            scanned += res.as_ref().map_or(0, |r| r.1);
            chk.check(i, st, res.map(|r| r.0));
        }
        out.insert("snowdb.store.cold_pass_ms", t.elapsed().as_secs_f64() * 1e3);
        for (i, st) in statements.iter().enumerate() {
            chk.check(i, st, execute(db, st).map(|r| r.0));
        }
    }
    out.insert("bytes_scanned_mb", scanned as f64 / 1e6);

    // Timed passes; a traced run alternates them with staged passes.
    let cache_before = db.store().map(|s| s.cache_stats());
    let mut samples = Samples::new(statements.len());
    let mut agg = LayerAgg::new(statements.len());
    let mut tracer = Tracer::new(opts.trace);
    let mut first_pass_spans = 0;
    let started = Instant::now();
    let mut passes = 0;
    while !opts.done(passes, started) {
        for (i, st) in statements.iter().enumerate() {
            let t = Instant::now();
            let res = execute(db, st);
            samples.ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            chk.check(i, st, res.map(|r| r.0));
        }
        if opts.trace {
            for (i, st) in statements.iter().enumerate() {
                agg.run_staged(&mut tracer, db, &mut chk, i, st);
            }
            if passes == 0 {
                first_pass_spans = tracer.spans().len();
            }
        }
        passes += 1;
    }
    println!("  {passes} timed passes of {} statements", statements.len());

    latency_metrics(&statements, &samples, typical, &mut out);
    if !opts.trace {
        return (chk, out);
    }

    agg.metrics(&statements, &mut out);
    let plain: f64 = samples.latencies(typical).iter().sum();
    let traced: f64 = agg.total_ms.iter().map(|ms| typical(ms)).sum();
    out.insert("trace.overhead_share", stats::rel_diff(plain, traced));
    let parity = stats::ratio(out["jsoniq_ms_geomean"], out["sql_ms_geomean"]);
    match kind {
        Kind::AdlNested => out.insert("parity.adl_gen_over_hand", parity),
        Kind::SsbFlat => out.insert("parity.ssb_gen_over_hand", parity),
        Kind::CompileSmall => None,
    };
    if let (Some(store), Some(before)) = (db.store(), cache_before) {
        cache_metrics(before, store.cache_stats(), &mut out);
    }
    ingest_metric(db, kind.main_table(), &mut out);
    // An in-memory workload persists a second copy to measure the store.
    let probe = env
        .dir
        .is_none()
        .then(|| setup(kind, opts, Some(scratch.sub("store-probe"))));
    let stored = probe.as_ref().unwrap_or(&env);
    let dir = stored.dir.as_ref().expect("persisted");
    store_metrics(
        user_bytes(db),
        dir,
        stored.persist_us,
        stored.open_us,
        &mut out,
    );
    dump_trace(&tracer, first_pass_spans, kind.name());
    (chk, out)
}
