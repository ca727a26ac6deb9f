//! `snowbench` — the repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! snowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object
//! snowbench [--seed <n>] [--seconds <s>] [--smoke]
//!     every workload, untraced and traced, each in a child process
//! snowbench --check-repeat [N] [--seed <n>] [--seconds <s>]
//!     the untraced suite as two sets of N runs; fails when the sets disagree
//! ```

mod digest;
mod embedded;
mod layers;
mod spec;
mod staged;
mod stats;
mod trace;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use snowdb::variant::parse_json;

use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use workload::{Checker, Metrics, Opts};

/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    opts: Opts,
    check_repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        check_repeat: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload '{name}'; the workloads are {names:?}"
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.opts.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.opts.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.opts.seconds > 0.0 && args.opts.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
            }
            "--trace" => args.opts.trace = value("0 or 1")? == "1",
            "--smoke" => args.opts.smoke = true,
            "--check-repeat" => {
                let n = it.peek().and_then(|v| v.parse::<usize>().ok());
                if n.is_some() {
                    it.next();
                }
                args.check_repeat = Some(n.unwrap_or(5).max(2));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snowbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Measure what a user gets: no engine knob from the environment.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SNOWDB_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let ok = match (&args.workload, args.check_repeat) {
        (Some(name), _) => {
            run_one(name, &args.opts);
            true
        }
        (None, Some(n)) => check_repeat(&args.opts, n),
        (None, None) => run_all(&args.opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One run of one workload in this process.
fn run_one(name: &str, opts: &Opts) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    println!("{name}: {why}");
    println!(
        "snowbench {name}: seed {} · {} s · trace {} · {threads} hardware thread(s){}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke { " · smoke" } else { "" }
    );
    let (chk, metrics): (Checker, Metrics) = match name {
        "adl_nested" => embedded::run(embedded::Kind::AdlNested, opts),
        "ssb_flat" => embedded::run(embedded::Kind::SsbFlat, opts),
        "compile_small" => embedded::run(embedded::Kind::CompileSmall, opts),
        "wire_churn" => wire::run(opts),
        other => unreachable!("parse_args admits only listed workloads, got {other}"),
    };
    let mut metrics = metrics;
    metrics.insert("peak_rss_mb", workload::peak_rss_mb());
    metrics.insert(
        "failed_share",
        stats::ratio(chk.failed as f64, chk.attempted as f64),
    );
    for (k, v) in &metrics {
        let (unit, better) = spec::unit_and_direction(k);
        println!("  {k:<46} {v:>16.4} {unit:<6} ({better} is better)");
    }
    println!("  attempted {} · failed {}", chk.attempted, chk.failed);
    let listed = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut line = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        chk.failed == 0,
        chk.attempted.max(1),
        chk.failed
    );
    for (i, m) in listed.iter().enumerate() {
        let value = metrics.get(m.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#,
            m.name,
            number(value),
            m.unit
        )
        .expect("write to String");
    }
    line.push_str("}}");
    println!("{line}");
}

/// The result line of a child run, parsed back.
struct ChildResult {
    failed: u64,
    attempted: u64,
    values: BTreeMap<String, f64>,
}

/// Runs one workload in a child process (so that `peak_rss_mb` is that
/// workload's alone), echoes its report, and parses its result line.
fn run_child(name: &str, opts: &Opts, trace: bool, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}");
    }
    if !output.status.success() {
        return Err(format!(
            "{name} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let doc = parse_json(last).map_err(|e| format!("{name}: result line does not parse: {e}"))?;
    let int = |key: &str| doc.get_field(key).as_i64().unwrap_or(0) as u64;
    let mut values = BTreeMap::new();
    if let Some(metrics) = doc.get_field("metrics").as_object() {
        for (k, v) in metrics.iter() {
            values.insert(k.to_string(), v.get_field("value").as_f64().unwrap_or(0.0));
        }
    }
    Ok(ChildResult {
        failed: int("failed"),
        attempted: int("attempted"),
        values,
    })
}

/// Every workload, untraced then traced; writes `target/snowbench/results.json`.
fn run_all(opts: &Opts) -> bool {
    let mut ok = true;
    let mut json = format!(
        r#"{{"seed": {}, "seconds": {}, "workloads": {{"#,
        opts.seed, opts.seconds
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        write!(
            json,
            r#"{}"{}": {{"#,
            if wi == 0 { "" } else { ", " },
            w.name
        )
        .expect("write to String");
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            match run_child(w.name, opts, trace, true) {
                Ok(r) => {
                    ok &= r.failed == 0;
                    let body: Vec<String> = r
                        .values
                        .iter()
                        .map(|(k, v)| format!(r#""{k}": {}"#, number(*v)))
                        .collect();
                    write!(
                        json,
                        r#""{key}": {{{}}}, "{key}_attempted": {}, "{key}_failed": {}{}"#,
                        body.join(", "),
                        r.attempted,
                        r.failed,
                        if trace { "" } else { ", " }
                    )
                    .expect("write to String");
                }
                Err(e) => {
                    ok = false;
                    eprintln!("snowbench: {e}");
                    write!(json, r#""{key}": {{}}{}"#, if trace { "" } else { ", " })
                        .expect("write to String");
                }
            }
        }
        json.push('}');
    }
    json.push_str("}}");
    let path = workload::output_dir().join("results.json");
    match std::fs::create_dir_all(workload::output_dir())
        .and_then(|()| std::fs::write(&path, json + "\n"))
    {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => eprintln!("snowbench: {}: {e}", path.display()),
    }
    println!(
        "{}",
        if ok {
            "every statement passed its check"
        } else {
            "FAILED: see above"
        }
    );
    ok
}

/// One metric of one workload over two sets of runs.
struct Repeat<'a> {
    workload: &'a str,
    metric: &'a MetricSpec,
    sets: [Vec<f64>; 2],
}

impl Repeat<'_> {
    /// Why the two sets do not agree within the metric's bound, if they do not.
    fn verdict(&self) -> Option<String> {
        let [a, b] = &self.sets;
        let drift = stats::rel_diff(stats::median(a), stats::median(b));
        if drift.abs() > self.metric.bound {
            return Some(format!("medians differ by {:+.1}%", drift * 100.0));
        }
        // The spread of set-up time is not gated, only its drift.
        let spread = stats::spread(a).max(stats::spread(b));
        (self.metric.name != "setup_s" && spread > self.metric.bound)
            .then(|| format!("spread {:.1}%", spread * 100.0))
    }
}

/// The untraced suite twice over, as two sets of `n` runs of every workload,
/// plus one traced run per set whose counts must repeat exactly.
fn check_repeat(opts: &Opts, n: usize) -> bool {
    let mut rows: Vec<Repeat> = WORKLOADS
        .iter()
        .flat_map(|w| {
            END_TO_END.iter().map(|m| Repeat {
                workload: w.name,
                metric: m,
                sets: [Vec::new(), Vec::new()],
            })
        })
        .collect();
    let mut counts: [BTreeMap<(&str, &str), f64>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut failed_runs = 0;
    for (set, counts) in counts.iter_mut().enumerate() {
        for rep in 0..=n {
            for w in WORKLOADS {
                // The last round of a set is the traced run.
                let traced = rep == n;
                match run_child(w.name, opts, traced, false) {
                    Ok(r) => {
                        failed_runs += usize::from(r.failed > 0);
                        for row in rows
                            .iter_mut()
                            .filter(|row| !traced && row.workload == w.name)
                        {
                            row.sets[set]
                                .push(r.values.get(row.metric.name).copied().unwrap_or(0.0));
                        }
                        for name in spec::EXACT.iter().filter(|_| traced) {
                            counts.insert(
                                (w.name, name),
                                r.values.get(*name).copied().unwrap_or(0.0),
                            );
                        }
                        let kind = if traced {
                            "traced run".to_string()
                        } else {
                            format!("run {}/{n}", rep + 1)
                        };
                        println!(
                            "set {} {kind} {}: {} attempted, {} failed",
                            set + 1,
                            w.name,
                            r.attempted,
                            r.failed
                        );
                    }
                    Err(e) => {
                        failed_runs += 1;
                        eprintln!("snowbench: {e}");
                    }
                }
            }
        }
    }
    println!(
        "\n{:<14} {:<20} {:>5} {:>34} {:>34} {:>8} {:>7}",
        "workload",
        "metric",
        "unit",
        "set 1 q1 / median / q3",
        "set 2 q1 / median / q3",
        "drift",
        "bound"
    );
    let mut demote = Vec::new();
    for row in rows.iter().filter(|r| r.sets.iter().all(|s| s.len() == n)) {
        let q = |s: &[f64]| {
            let (q1, med, q3) = stats::quartiles(s);
            format!("{q1:.4} / {med:.4} / {q3:.4}")
        };
        let drift = stats::rel_diff(stats::median(&row.sets[0]), stats::median(&row.sets[1]));
        let verdict = row.verdict();
        println!(
            "{:<14} {:<20} {:>5} {:>34} {:>34} {:>+7.1}% {:>6.0}%{}",
            row.workload,
            row.metric.name,
            row.metric.unit,
            q(&row.sets[0]),
            q(&row.sets[1]),
            drift * 100.0,
            row.metric.bound * 100.0,
            verdict
                .as_ref()
                .map_or(String::new(), |v| format!("  <- {v}"))
        );
        if verdict.is_some() {
            demote.push(format!("{} on {}", row.metric.name, row.workload));
        }
    }
    let differing: Vec<String> = counts[0]
        .iter()
        .filter(|(key, v)| counts[1].get(*key) != Some(*v))
        .map(|((w, name), v)| format!("{name} on {w}: {v} then {:?}", counts[1].get(&(*w, *name))))
        .collect();
    println!(
        "\n{} counts compared between the sets' traced runs, {} differ",
        counts[0].len(),
        differing.len()
    );
    for d in &differing {
        println!("  {d}");
    }
    if !demote.is_empty() {
        println!(
            "do not repeat within their bound, demote to per-layer: {}",
            demote.join("; ")
        );
    }
    if failed_runs > 0 {
        println!("{failed_runs} run(s) failed or reported wrong results");
    }
    demote.is_empty() && differing.is_empty() && failed_runs == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeat<'a>(metric: &'a MetricSpec, a: &[f64], b: &[f64]) -> Repeat<'a> {
        Repeat {
            workload: "w",
            metric,
            sets: [a.to_vec(), b.to_vec()],
        }
    }

    #[test]
    fn repeat_check_applies_the_bound_to_drift_and_spread() {
        let lat = END_TO_END
            .iter()
            .find(|m| m.name == "jsoniq_ms_geomean")
            .expect("listed");
        assert!(repeat(lat, &[10.0, 10.1, 10.2], &[10.3, 10.4, 10.5])
            .verdict()
            .is_none());
        assert!(repeat(lat, &[10.0, 10.1, 10.2], &[13.5, 13.6, 13.7])
            .verdict()
            .expect("drifted")
            .contains("medians"));
        assert!(repeat(lat, &[6.0, 10.0, 14.0], &[6.0, 10.0, 14.0])
            .verdict()
            .expect("wide")
            .contains("spread"));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("listed");
        assert!(repeat(setup, &[0.5, 1.0, 1.5], &[0.5, 1.0, 1.5])
            .verdict()
            .is_none());
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(1.25), "1.25");
    }
}
