//! Tier-1 check of the `jsoniq-repl` client: statements piped through stdin
//! answer the same under the translation and the interpreter, and an error is
//! printed once, with its kind once.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs the REPL on its demo collection with `script` on stdin; its stdout.
fn repl(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_jsoniq-repl"))
        .env("SNOWDB_THREADS", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the REPL starts");
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("the REPL exits");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn a_let_first_flwor_answers_like_the_interpreter_and_errors_print_once() {
    let query = "let $x := abs(-1) return $x + 1;\n";
    let out =
        repl(&format!("{query}\\interp\n{query}\\interp\nfor $x in (1, 2) return $x;\n\\q\n"));
    let answers: Vec<&str> =
        out.lines().map(|l| l.trim_start_matches("jsoniq> ")).filter(|l| *l == "2").collect();
    assert_eq!(answers, ["2", "2"], "translated, then interpreted:\n{out}");
    assert!(out.contains("(1 items, interpreted locally)"), "{out}");
    let errors: Vec<&str> = out.lines().filter(|l| l.contains("error")).collect();
    assert_eq!(errors.len(), 1, "{out}");
    assert_eq!(errors[0].matches("translation error").count(), 1, "{out}");
}
