//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!   repro [--quick] [--events N] [--lineorders N] [--runs N] [--cutoff SECS]
//!         [fig6|table2|fig7|fig8|fig9|scanned|fig10|fig11a|fig11b|ablation|all]
//!   repro kernels    (a microbenchmark, not a figure: not part of `all`)
//!   repro coldscan   (buffer-cache miss cost and hit rate: not part of `all`)
//!
//! Results print to stdout and are also written to `results/<id>.txt`.
#![deny(unsafe_code)]

use std::fs;
use std::time::Duration;

use bench::experiments::{self, Config};
use bench::report::Report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::default();
    let mut which: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = Config::quick(),
            "--events" => {
                i += 1;
                cfg.adl_events = args[i].parse().expect("--events N");
            }
            "--lineorders" => {
                i += 1;
                cfg.ssb_lineorders = args[i].parse().expect("--lineorders N");
            }
            "--runs" => {
                i += 1;
                cfg.runs = args[i].parse().expect("--runs N");
            }
            "--cutoff" => {
                i += 1;
                cfg.cutoff = Duration::from_secs(args[i].parse().expect("--cutoff SECS"));
            }
            "--sweep" => {
                i += 1;
                let parts: Vec<i32> =
                    args[i].split("..").map(|p| p.parse().expect("--sweep LO..HI")).collect();
                cfg.sweep = (parts[0], parts[1]);
            }
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = ["fig6", "table2", "fig7", "fig8", "fig9", "scanned", "fig10", "fig11a",
                 "fig11b", "ablation", "futurework"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    fs::create_dir_all("results").expect("create results dir");
    eprintln!(
        "config: adl_events={} ssb_lineorders={} runs={} warmup={} cutoff={}s sweep=2^{}..2^{}",
        cfg.adl_events,
        cfg.ssb_lineorders,
        cfg.runs,
        cfg.warmup,
        cfg.cutoff.as_secs(),
        cfg.sweep.0,
        cfg.sweep.1
    );

    for w in &which {
        let reports: Vec<Report> = match w.as_str() {
            "fig6" => vec![experiments::fig6_translation_time(&cfg)],
            "table2" => vec![experiments::table2_iterator_counts()],
            "fig7" => vec![experiments::fig7_compile_time(&cfg)],
            "fig8" => vec![experiments::fig8_exec_time(&cfg)],
            "fig9" => vec![experiments::fig9_end_to_end(&cfg)],
            "scanned" => vec![experiments::scanned_bytes(&cfg)],
            "fig10" => experiments::fig10_scalability(&cfg),
            "fig11a" => vec![experiments::fig11a_ssb_parity(&cfg)],
            "fig11b" => vec![experiments::fig11b_ssb_scaling(&cfg)],
            "ablation" => vec![experiments::ablation_nested_strategy(&cfg)],
            "futurework" => vec![experiments::futurework(&cfg)],
            "kernels" => vec![experiments::kernels(&cfg)],
            "pipelines" => vec![experiments::pipelines(&cfg)],
            "coldscan" => vec![experiments::coldscan(&cfg)],
            other => {
                eprintln!("unknown experiment '{other}'");
                std::process::exit(2);
            }
        };
        let mut file_out = String::new();
        for rep in &reports {
            let text = rep.render();
            println!("{text}");
            file_out.push_str(&text);
            file_out.push('\n');
        }
        let path = format!("results/{w}.txt");
        fs::write(&path, file_out).expect("write results file");
        eprintln!("wrote {path}");
    }
}
