//! `snowq-client` — a minimal SQL client for `snowdb-server`.
//!
//! ```text
//! snowq-client 127.0.0.1:7878 -e "SELECT count(*) FROM t"   # one-shot
//! snowq-client 127.0.0.1:7878                               # read stdin
//! ```
//!
//! One-shot mode runs each `-e` statement in order and exits non-zero on the
//! first error. Without `-e`, statements (terminated by `;`) are read from
//! stdin — pipe a script in, or type interactively. `SHOW SERVER STATUS`
//! works in both modes and reports the server's admission counters.
#![deny(unsafe_code)]

use std::io::BufRead;

use snowq::snowdb::server::client::{Client, RemoteOutcome};

fn main() {
    let mut addr: Option<String> = None;
    let mut statements: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "-e" {
            match args.next() {
                Some(sql) => statements.push(sql),
                None => {
                    eprintln!("-e needs a statement");
                    std::process::exit(2);
                }
            }
        } else if addr.is_none() {
            addr = Some(arg);
        } else {
            eprintln!("usage: snowq-client host:port [-e sql]...");
            std::process::exit(2);
        }
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:7878".to_string());

    let mut client = match Client::connect(&*addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("connected: {} (session {})", client.banner(), client.session());

    if !statements.is_empty() {
        for sql in &statements {
            if !run(&mut client, sql) {
                std::process::exit(1);
            }
        }
        client.goodbye();
        return;
    }

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin readable");
        buffer.push_str(&line);
        buffer.push('\n');
        if !line.trim_end().ends_with(';') {
            continue;
        }
        let sql = buffer.trim_end().trim_end_matches(';').to_string();
        buffer.clear();
        if !sql.trim().is_empty() {
            run(&mut client, &sql);
        }
    }
    client.goodbye();
}

fn run(client: &mut Client, sql: &str) -> bool {
    match client.execute(sql) {
        Ok(RemoteOutcome::Rows(r)) => {
            println!("{}", r.columns.join("\t"));
            for row in &r.rows {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join("\t"));
            }
            eprintln!(
                "({} rows; compile {}us, execute {}us, {} bytes scanned, queued {}ms)",
                r.done.rows, r.done.compile_us, r.done.exec_us, r.done.bytes_scanned,
                r.done.queued_ms
            );
            true
        }
        Ok(RemoteOutcome::Message(m)) => {
            println!("{m}");
            true
        }
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}
