//! `snowdb-server` — serve a database directory over the wire protocol.
//!
//! ```text
//! snowdb-server --db mydb --listen 127.0.0.1:7878
//! snowdb-server --listen 127.0.0.1:0            # in-memory, ephemeral port
//! ```
//!
//! Options:
//!   --db <dir>               persistent database directory (created if absent);
//!                            omitted = a fresh in-memory database
//!   --listen <addr>          bind address, default 127.0.0.1:7878
//!   --max-concurrent <n>     statements running at once (default 8)
//!   --max-queued <n>         admission queue bound (default 64)
//!   --queue-timeout-ms <ms>  queue-wait deadline (default 30000)
//!   --max-connections <n>    concurrent connections (default 64)
//!   --max-frame <bytes>      largest accepted wire frame (default 16 MiB)
//!
//! Ctrl-C shuts down gracefully: new statements are rejected with typed
//! errors, in-flight ones drain (or are cancelled at the drain deadline), and
//! every committed write is on disk before exit.
#![deny(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use snowq::snowdb::server::admission::AdmissionConfig;
use snowq::snowdb::server::ServerConfig;
use snowq::snowdb::Database;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

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
extern "C" fn on_sigint(_: i32) {
    // Async-signal-safe only: first press requests graceful shutdown, the
    // second exits immediately.
    if SHUTDOWN.swap(true, Ordering::SeqCst) {
        unsafe { ffi::_exit(130) }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: snowdb-server [--db dir] [--listen addr] [--max-concurrent n] \
         [--max-queued n] [--queue-timeout-ms ms] [--max-connections n] [--max-frame bytes]"
    );
    std::process::exit(2)
}

fn main() {
    #[cfg(unix)]
    #[allow(unsafe_code)] // FFI: installing the SIGINT handler
    unsafe {
        ffi::signal(ffi::SIGINT, on_sigint);
    }

    let mut db_dir: Option<String> = None;
    let mut listen = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut admission = AdmissionConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match arg.as_str() {
            "--db" => db_dir = Some(value("--db")),
            "--listen" => listen = value("--listen"),
            "--max-concurrent" => {
                admission.max_concurrent = parse(&value("--max-concurrent"), "--max-concurrent")
            }
            "--max-queued" => admission.max_queued = parse(&value("--max-queued"), "--max-queued"),
            "--queue-timeout-ms" => {
                admission.queue_timeout =
                    Duration::from_millis(parse(&value("--queue-timeout-ms"), "--queue-timeout-ms"))
            }
            "--max-connections" => {
                config.max_connections = parse(&value("--max-connections"), "--max-connections")
            }
            "--max-frame" => config.max_frame = parse(&value("--max-frame"), "--max-frame"),
            _ => usage(),
        }
    }
    config.admission = admission;

    let db = match &db_dir {
        Some(dir) => match Database::open(dir) {
            Ok(db) => {
                eprintln!("opened database '{dir}' (tables: {:?})", db.table_names());
                Arc::new(db)
            }
            Err(e) => {
                eprintln!("cannot open db {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            eprintln!("no --db given: serving a fresh in-memory database");
            Arc::new(Database::new())
        }
    };

    let handle = match snowq::snowdb::serve(db, listen.as_str(), config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot serve on {listen}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("listening on {} (Ctrl-C for graceful shutdown)", handle.addr());

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutting down: draining in-flight statements...");
    let stats = handle.admission_stats();
    handle.shutdown();
    eprintln!(
        "served {} statement(s) ({} rejected); goodbye",
        stats.admitted, stats.rejected
    );
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse '{s}'");
        usage()
    })
}
