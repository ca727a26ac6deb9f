//! `jsoniq-repl` — the interactive client of the paper's §III-A1: submit
//! JSONiq queries, see the generated SQL, and execute them on the embedded
//! Snowflake-like engine (or the reference interpreter).
//!
//! ```text
//! cargo run --bin jsoniq-repl                       # demo dataset preloaded
//! cargo run --bin jsoniq-repl -- events=data.jsonl  # load JSONL into a table
//! cargo run --bin jsoniq-repl -- --db mydb          # open/create a persistent db
//! cargo run --bin jsoniq-repl -- --connect 127.0.0.1:7878  # wire-protocol client
//! ```
//!
//! With `--db <dir>` the session runs against a persistent database: tables
//! already committed there are available immediately (reads are lazy, through
//! the store's buffer cache), and newly loaded JSONL streams straight to
//! immutable partition files under an atomically committed catalog.
//!
//! Queries may span lines and end with `;`. Commands:
//!   \sql        toggle printing the generated SQL
//!   \explain    EXPLAIN the next query instead of running it
//!   \analyze    EXPLAIN ANALYZE the next query (runs it, shows per-operator metrics)
//!   \verify     run the next query across the verification lattice (interpreter,
//!               both nested strategies, optimizer on/off, 1..N threads) and report
//!               any divergence
//!   \interp     toggle interpreter mode (default: translate + execute)
//!   \strategy   toggle flag-column / JOIN-based nested-query strategy
//!   \tables     list tables
//!   \save <dir> persist the current in-memory catalog to a new database dir
//!   \q          quit
//!
//! With `--connect host:port` the REPL speaks the wire protocol to a running
//! `snowdb-server` instead of opening a database in-process: statements are
//! sent as raw SQL, results stream back in batches, Ctrl-C sends a cancel
//! frame, and `\stats` shows the server's admission counters
//! (`SHOW SERVER STATUS`). This doubles as a manual test client for the
//! service layer.
#![deny(unsafe_code)]

use std::io::{BufRead, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use snowq::jsoniq_core::interp::{DatabaseCollections, Interpreter};
use snowq::jsoniq_core::snowflake::{translate_query, NestedStrategy};
use snowq::jsoniq_core::verify::{verify_jsoniq, JsoniqLattice};
use snowq::snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowq::snowdb::variant::parse_json;
use snowq::snowdb::{Database, Session, StatementResult, Variant};

/// SIGINT plumbing: the first Ctrl-C requests cooperative cancellation of the
/// in-flight query (observed at the next batch boundary through its
/// `QueryGovernor`); the second exits the process immediately with the
/// conventional 130.
mod sigint {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Ctrl-C presses since the last [`reset`].
    pub static PRESSES: AtomicUsize = AtomicUsize::new(0);

    #[cfg(unix)]
    mod ffi {
        extern "C" {
            pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            pub fn _exit(code: i32) -> !;
        }
        pub const SIGINT: i32 = 2;
    }

    #[cfg(unix)]
    #[allow(unsafe_code)] // FFI: the SIGINT handler's `_exit`
    extern "C" fn handler(_: i32) {
        // Only async-signal-safe operations here: an atomic bump, and on the
        // second press an immediate `_exit` (no unwinding, no allocation).
        if PRESSES.fetch_add(1, Ordering::SeqCst) >= 1 {
            unsafe { ffi::_exit(130) }
        }
    }

    pub fn install() {
        #[cfg(unix)]
        #[allow(unsafe_code)] // FFI: installing the SIGINT handler
        unsafe {
            ffi::signal(ffi::SIGINT, handler);
        }
    }

    pub fn reset() {
        PRESSES.store(0, Ordering::SeqCst);
    }
}

fn main() {
    sigint::install();
    let mut db_dir: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--db" {
            db_dir = Some(args.next().unwrap_or_else(|| panic!("--db needs a directory")));
        } else if let Some(dir) = arg.strip_prefix("--db=") {
            db_dir = Some(dir.to_string());
        } else if arg == "--connect" {
            connect = Some(args.next().unwrap_or_else(|| panic!("--connect needs host:port")));
        } else if let Some(addr) = arg.strip_prefix("--connect=") {
            connect = Some(addr.to_string());
        } else {
            specs.push(arg);
        }
    }
    if let Some(addr) = connect {
        run_connected(&addr);
        return;
    }
    let db = match &db_dir {
        Some(dir) => {
            let db = match Database::open(dir) {
                Ok(db) => Arc::new(db),
                Err(e) => {
                    eprintln!("cannot open db {dir}: {e}");
                    std::process::exit(1);
                }
            };
            println!("opened database '{dir}' (tables: {:?})", db.table_names());
            db
        }
        None => Arc::new(Database::new()),
    };
    if specs.is_empty() && db_dir.is_none() {
        load_demo(&db);
        println!("loaded demo collection 'events' ({} rows)", db.table("EVENTS").unwrap().row_count());
    }
    for spec in &specs {
        let (table, path) = spec
            .split_once('=')
            .unwrap_or_else(|| panic!("expected table=file.jsonl, got '{spec}'"));
        load_jsonl(&db, table, path);
        println!(
            "loaded '{}' ({} rows)",
            table,
            db.table(table).map(|t| t.row_count()).unwrap_or(0)
        );
    }

    // One engine session for the whole REPL: SQL statements and cancellable
    // queries run under its parameters.
    let session = Arc::new(Session::new(db.clone()));
    let mut show_sql = true;
    let mut explain_next = false;
    let mut analyze_next = false;
    let mut verify_next = false;
    let mut interp_mode = false;
    let mut strategy = NestedStrategy::FlagColumn;
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print_prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = line.expect("stdin readable");
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match trimmed {
                "\\q" => break,
                "\\sql" => {
                    show_sql = !show_sql;
                    println!("show SQL: {show_sql}");
                }
                "\\explain" => {
                    explain_next = true;
                    println!("next query will be explained");
                }
                "\\analyze" => {
                    analyze_next = true;
                    println!("next query will run under EXPLAIN ANALYZE");
                }
                "\\verify" => {
                    verify_next = true;
                    println!("next query will run across the verification lattice");
                }
                "\\interp" => {
                    interp_mode = !interp_mode;
                    println!("interpreter mode: {interp_mode}");
                }
                "\\strategy" => {
                    strategy = match strategy {
                        NestedStrategy::FlagColumn => NestedStrategy::JoinBased,
                        NestedStrategy::JoinBased => NestedStrategy::FlagColumn,
                    };
                    println!("nested-query strategy: {strategy:?}");
                }
                "\\tables" => println!("{:?}", db.table_names()),
                cmd if cmd.starts_with("\\save") => {
                    match cmd.strip_prefix("\\save").map(str::trim) {
                        Some(dir) if !dir.is_empty() => match db.persist_to(dir) {
                            Ok(()) => println!(
                                "saved {} table(s) to '{dir}' (catalog v{})",
                                db.table_names().len(),
                                db.store().map(|s| s.version()).unwrap_or(0)
                            ),
                            Err(e) => println!("save failed: {e}"),
                        },
                        _ => println!("usage: \\save <directory>"),
                    }
                }
                other => println!("unknown command {other}"),
            }
            print_prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !trimmed.ends_with(';') {
            print_prompt(&buffer);
            continue;
        }
        let query = buffer.trim_end().trim_end_matches(';').to_string();
        buffer.clear();
        if verify_next {
            verify_next = false;
            let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
            let lattice = JsoniqLattice::full(threads);
            let report = verify_jsoniq(&db, &query, &lattice);
            println!("{}", report.render());
        } else if explain_next || analyze_next {
            let analyze = analyze_next;
            explain_next = false;
            analyze_next = false;
            match translate_query(db.clone(), &query, strategy) {
                Ok(df) => {
                    let verb = if analyze { "EXPLAIN ANALYZE" } else { "EXPLAIN" };
                    match session.execute(&format!("{verb} {}", df.sql())) {
                        Ok(StatementResult::Message(plan)) => println!("{plan}"),
                        Ok(StatementResult::Rows(r)) => println!("({} rows)", r.rows.len()),
                        Err(e) => println!("explain error: {e}"),
                    }
                }
                Err(e) => println!("{e}"),
            }
        } else {
            run_query(&session, &query, show_sql, interp_mode, strategy);
        }
        print_prompt(&buffer);
    }
}

/// Remote mode: one wire-protocol connection to a `snowdb-server`. Input is
/// raw SQL (the JSONiq translator needs an in-process catalog); the point of
/// this mode is exercising the service layer by hand.
fn run_connected(addr: &str) {
    use snowq::snowdb::server::client::Client;

    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("connected to {addr} — {} (session {})", client.banner(), client.session());
    println!("statements are raw SQL; \\stats shows server status, \\q quits");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print_prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = line.expect("stdin readable");
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match trimmed {
                "\\q" => break,
                "\\stats" => execute_remote(&mut client, "SHOW SERVER STATUS"),
                other => println!("unknown command {other} (remote mode has \\stats and \\q)"),
            }
            print_prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !trimmed.ends_with(';') {
            print_prompt(&buffer);
            continue;
        }
        let sql = buffer.trim_end().trim_end_matches(';').to_string();
        buffer.clear();
        if !sql.trim().is_empty() {
            execute_remote(&mut client, &sql);
        }
        print_prompt(&buffer);
    }
    client.goodbye();
}

/// Runs one remote statement; a Ctrl-C while it is in flight sends a cancel
/// frame on a cloned socket, and the server answers with a typed
/// `Cancelled` error within one batch boundary.
fn execute_remote(client: &mut snowq::snowdb::server::client::Client, sql: &str) {
    use snowq::snowdb::server::client::RemoteOutcome;
    use std::sync::atomic::AtomicBool;

    sigint::reset();
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = client.canceller().ok().map(|mut canceller| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sent = false;
            while !stop.load(Ordering::SeqCst) {
                if !sent && sigint::PRESSES.load(Ordering::SeqCst) > 0 {
                    sent = canceller.cancel().is_ok();
                    println!("\ncancelling... (Ctrl-C again to exit)");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    });
    let outcome = client.execute(sql);
    stop.store(true, Ordering::SeqCst);
    if let Some(w) = watcher {
        let _ = w.join();
    }
    match outcome {
        Ok(RemoteOutcome::Rows(r)) => {
            for row in &r.rows {
                let line: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", line.join("\t"));
            }
            println!(
                "({} rows; compile {}us, execute {}us, {} bytes scanned, queued {}ms)",
                r.done.rows, r.done.compile_us, r.done.exec_us, r.done.bytes_scanned,
                r.done.queued_ms
            );
        }
        Ok(RemoteOutcome::Message(m)) => println!("{m}"),
        Err(e) => println!("error: {e}"),
    }
    sigint::reset();
}

fn print_prompt(buffer: &str) {
    if buffer.is_empty() {
        print!("jsoniq> ");
    } else {
        print!("   ...> ");
    }
    std::io::stdout().flush().ok();
}

fn run_query(
    session: &Arc<Session>,
    query: &str,
    show_sql: bool,
    interp_mode: bool,
    strategy: NestedStrategy,
) {
    let db = session.database();
    if interp_mode {
        let provider = DatabaseCollections { db };
        match Interpreter::new(&provider).eval_query(query) {
            Ok(items) => {
                for item in &items {
                    println!("{item}");
                }
                println!("({} items, interpreted locally)", items.len());
            }
            Err(e) => println!("error: {e}"),
        }
        return;
    }
    match translate_query(db.clone(), query, strategy) {
        Ok(df) => {
            if show_sql {
                println!("-- generated SQL:\n{}\n", df.sql());
            }
            execute_cancellable(session, df.sql());
        }
        Err(e) => println!("{e}"),
    }
}

/// Runs `sql` on a worker thread under the session's governor and polls for
/// Ctrl-C: the first press cancels the query cooperatively (it comes back as
/// a typed `Cancelled` error with partial metrics), the second press exits
/// the process.
fn execute_cancellable(session: &Arc<Session>, sql: &str) {
    sigint::reset();
    let handle = session.submit(sql);
    let mut cancel_requested = false;
    while !handle.is_finished() {
        if !cancel_requested && sigint::PRESSES.load(Ordering::SeqCst) > 0 {
            handle.cancel();
            cancel_requested = true;
            println!("\ncancelling... (Ctrl-C again to exit)");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Both outcomes end in the statement's record: its id and stages, its
    // governance accounting, and on a failure the partial metrics tree.
    let (profile, failed) = match handle.join() {
        Ok(res) => {
            for row in &res.rows {
                println!("{}", row[0]);
            }
            println!(
                "({} rows; compile {:?}, execute {:?}, {} bytes scanned)",
                res.rows.len(),
                res.profile.compile_time(),
                res.profile.exec_time(),
                res.profile.scan.bytes_scanned
            );
            (res.profile, false)
        }
        Err(failure) => {
            println!("execution error: {}", failure.error);
            (*failure.profile, true)
        }
    };
    println!("({})", profile.stages_line());
    if let Some(governed) = &profile.governed {
        println!("({})", governed.render());
    }
    if let Some(metrics) = profile.metrics.as_ref().filter(|_| failed) {
        println!("partial metrics at interruption:");
        println!("  {}", metrics.annotation());
    }
    sigint::reset();
}

/// Loads a JSONL file through the engine's streaming schema-inferring
/// ingestion path (two buffered passes; the file is never held in memory).
fn load_jsonl(db: &Database, table: &str, path: &str) {
    db.load_jsonl_path(table, path)
        .unwrap_or_else(|e| panic!("cannot load {path}: {e}"));
}

fn load_demo(db: &Database) {
    let rows = [
        (1i64, r#"{"PT": 27.5, "PHI": 0.3}"#, r#"[{"PT": 31.0, "ETA": 0.2}]"#),
        (2, r#"{"PT": 14.0, "PHI": -1.0}"#, r#"[{"PT": 11.0, "ETA": 1.4}, {"PT": 52.0, "ETA": 0.9}]"#),
        (3, r#"{"PT": 99.9, "PHI": 2.2}"#, r#"[]"#),
    ];
    db.load_table(
        "events",
        vec![
            ColumnDef::new("EVENT", ColumnType::Int),
            ColumnDef::new("MET", ColumnType::Variant),
            ColumnDef::new("JET", ColumnType::Variant),
        ],
        rows.iter().map(|(id, met, jet)| {
            vec![Variant::Int(*id), parse_json(met).unwrap(), parse_json(jet).unwrap()]
        }),
        DEFAULT_PARTITION_ROWS,
    )
    .expect("demo loads");
}
