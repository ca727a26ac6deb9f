//! Tier-1 referee for the JSONiq front end's cost and its depth bound.
//!
//! A counting global allocator (one counter per thread, so tests running in
//! parallel do not add to each other's counts) pins, per stage, how many heap
//! allocations translating each `compile_small` statement makes: lex, parse
//! (without its own lexing), rewrite, iterator tree, and dataframe (the
//! translator composing `snowpark` columns and frames, then rendering the
//! SQL text). The ceilings are the counts of the allocation-lean front end
//! plus about 10 %, so a change that starts copying again fails here with the
//! stage named. The SQL itself is pinned by `plan_smoke`.
//!
//! The depth cases run on a spawned thread with a 2 MiB stack, the size Rust
//! gives spawned threads: nesting deeper than [`MAX_DEPTH`] is refused with
//! [`JsoniqError::TooDeep`] instead of overflowing the stack, and nesting at
//! the bound runs through every stage — parse, rewrite, iterator tree,
//! translation and the interpreter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use snowq::adl::{self, generator::AdlConfig};
use snowq::jsoniq_core::interp::{Interpreter, MemoryCollections};
use snowq::jsoniq_core::snowflake::{NestedStrategy, Translator};
use snowq::jsoniq_core::{expr, itertree, lexer, parse, JsoniqError, MAX_DEPTH};
use snowq::snowdb::Database;
use snowq::snowpark::Session;
use snowq::ssb::{self, SsbConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `compile_small`'s database: 16 ADL events and the tiny SSB tables.
fn database() -> Arc<Database> {
    let db = Database::new();
    adl::generator::load_into(&db, "hep", &AdlConfig { events: 16, seed: 42, ..Default::default() });
    ssb::load_ssb_tiny(&db, &SsbConfig { seed: 42, ..Default::default() });
    Arc::new(db)
}

/// The 21 JSONiq statements of `compile_small`, each with the strategy the
/// paper runs it with.
fn statements() -> Vec<(String, String, NestedStrategy)> {
    let mut out = Vec::new();
    for q in adl::queries::queries("hep") {
        let strategy =
            if q.join_based { NestedStrategy::JoinBased } else { NestedStrategy::FlagColumn };
        out.push((format!("adl.{}", q.id), q.jsoniq, strategy));
    }
    for q in ssb::queries() {
        out.push((format!("ssb.{}", q.id), q.jsoniq, NestedStrategy::FlagColumn));
    }
    out
}

/// Allocations of one translation per stage: lex, parse, rewrite, iterator
/// tree, dataframe + render.
type Stages = [u64; 5];

fn stage_counts(db: &Arc<Database>, text: &str, strategy: NestedStrategy) -> Stages {
    let (lex, tokens) = counted(|| lexer::tokenize(text).unwrap().len());
    assert!(tokens > 0);
    let (parse_and_lex, module) = counted(|| parse(text).unwrap());
    let (rewrite, tree) = counted(|| expr::rewrite(&module).unwrap());
    let (build, iter) = counted(|| itertree::build(&tree).unwrap());
    let (frame, sql) = counted(|| {
        let mut t = Translator::new(Session::new(db.clone()), strategy);
        t.translate_iter(&iter).unwrap().sql().len()
    });
    assert!(sql > 0);
    [lex, parse_and_lex - lex, rewrite, build, frame]
}

/// Per statement, the most allocations each stage may make: the counts
/// recorded when the front end stopped copying, plus about 10 %. Then the 21
/// translations made 13,988 allocations in all (dataframe 6,289, parse 3,365,
/// rewrite 2,380, iterator tree 1,925, lex 29); before, 40,699 (dataframe
/// 21,358, rewrite 7,520, parse 5,020, lex 3,653, iterator tree 3,148).
const CEILINGS: [(&str, Stages); 21] = [
    ("adl.q1", [3, 277, 64, 39, 98]),
    ("adl.q2", [3, 278, 65, 40, 115]),
    ("adl.q3", [3, 282, 70, 47, 123]),
    ("adl.q4", [3, 289, 77, 56, 229]),
    ("adl.q5", [3, 312, 169, 131, 443]),
    ("adl.q6", [3, 329, 834, 534, 1143]),
    ("adl.q7", [3, 311, 175, 122, 615]),
    ("adl.q8", [3, 467, 367, 322, 1986]),
    ("ssb.q1.1", [2, 58, 43, 46, 106]),
    ("ssb.q1.2", [2, 63, 49, 51, 113]),
    ("ssb.q1.3", [2, 70, 54, 57, 118]),
    ("ssb.q2.1", [2, 76, 49, 51, 148]),
    ("ssb.q2.2", [2, 82, 54, 57, 154]),
    ("ssb.q2.3", [2, 75, 49, 51, 148]),
    ("ssb.q3.1", [2, 94, 63, 65, 188]),
    ("ssb.q3.2", [2, 94, 63, 65, 188]),
    ("ssb.q3.3", [2, 105, 74, 76, 201]),
    ("ssb.q3.4", [2, 102, 69, 71, 196]),
    ("ssb.q4.1", [2, 108, 73, 76, 191]),
    ("ssb.q4.2", [2, 124, 85, 88, 216]),
    ("ssb.q4.3", [2, 117, 80, 83, 210]),
];

#[test]
fn each_stage_allocates_at_most_its_recorded_ceiling() {
    let db = database();
    let statements = statements();
    assert_eq!(statements.len(), CEILINGS.len());
    let mut over = Vec::new();
    for ((id, text, strategy), (want_id, ceiling)) in statements.iter().zip(CEILINGS) {
        assert_eq!(id, want_id);
        let got = stage_counts(&db, text, *strategy);
        if got.iter().zip(ceiling).any(|(g, c)| *g > c) {
            over.push(format!("{id}: {got:?} above {ceiling:?}"));
        }
    }
    assert!(
        over.is_empty(),
        "allocations per stage (lex, parse, rewrite, iterator tree, dataframe):\n{}",
        over.join("\n")
    );
}

// ---- the depth bound ------------------------------------------------------

/// A query whose return expression nests `n` times, over `collection("t")`.
fn nested(shape: &str, n: usize) -> String {
    let head = r#"for $e in collection("t") return "#;
    match shape {
        "parentheses" => format!("{head}{}$e.A{}", "(".repeat(n), ")".repeat(n)),
        "unary minus" => format!("{head}{}$e.A", "- ".repeat(n)),
        "chained +" => format!("{head}{}", vec!["$e.A"; n].join(" + ")),
        "nested if" => format!(
            "{head}{}$e.A{}",
            "if ($e.A eq 1) then ".repeat(n),
            " else 0".repeat(n)
        ),
        // Each function calls the one before it: inlining nests the bodies.
        "inlined functions" => {
            let mut text = String::from("declare function f0($x) { $x + 1 };\n");
            for i in 1..n {
                text += &format!("declare function f{i}($x) {{ f{}($x) + 1 }};\n", i - 1);
            }
            text + &format!("{head}f{}($e.A)", n - 1)
        }
        _ => unreachable!("{shape}"),
    }
}

const SHAPES: [&str; 5] =
    ["parentheses", "unary minus", "chained +", "nested if", "inlined functions"];

/// Parses and rewrites `text`.
fn front(text: &str) -> Result<snowq::jsoniq_core::Expr, JsoniqError> {
    expr::rewrite(&parse(text)?)
}

/// Runs `f` on a thread with the 2 MiB stack Rust gives spawned threads.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a thread")
        .join()
        .expect("the thread finished");
}

/// Far past the bound, every shape is refused with the typed error — by the
/// parser, or for inlined functions by the rewrite — and nothing overflows.
#[test]
fn nesting_past_the_bound_is_a_typed_error() {
    on_small_stack(|| {
        for (shape, n) in [
            ("parentheses", 10_000),
            ("unary minus", 10_000),
            ("chained +", 4_000),
            ("nested if", 2_000),
            ("inlined functions", 300),
        ] {
            let err = front(&nested(shape, n)).expect_err(shape);
            assert_eq!(err, JsoniqError::TooDeep { limit: MAX_DEPTH }, "{shape}");
        }
        // A long FLWOR chains its clauses in the iterator tree.
        let lets: String = (0..200).map(|i| format!("let $v{i} := {i} ")).collect();
        let err = parse(&format!("{lets} return 1")).expect_err("200 lets");
        assert_eq!(err, JsoniqError::too_deep());
    });
}

/// At the bound, every stage runs: parse, rewrite, iterator tree,
/// translation and the interpreter, on a 2 MiB stack — in a debug build,
/// whose frames are the largest.
#[test]
fn nesting_at_the_bound_runs_through_every_stage() {
    let db = Database::new();
    db.execute("CREATE TABLE T (A INT)").unwrap();
    db.execute("INSERT INTO T VALUES (1), (2)").unwrap();
    let db = Arc::new(db);
    on_small_stack(move || {
        let mut rows = MemoryCollections::default();
        let row = |a| snowq::snowdb::variant::parse_json(&format!(r#"{{"A": {a}}}"#)).unwrap();
        rows.collections.insert("t".into(), vec![row(1), row(2)]);
        for shape in SHAPES {
            // The deepest instance the front end accepts.
            let n = (1..).take_while(|&n| front(&nested(shape, n)).is_ok()).last().expect(shape);
            assert!(n >= MAX_DEPTH / 4, "{shape}: refused at {}", n + 1);
            let err = front(&nested(shape, n + 1)).expect_err(shape);
            assert_eq!(err, JsoniqError::too_deep(), "{shape}");

            let tree = front(&nested(shape, n)).unwrap();
            let iter = itertree::build(&tree).unwrap();
            let mut translator = Translator::new(Session::new(db.clone()), NestedStrategy::FlagColumn);
            let sql = translator.translate_iter(&iter).map(|df| df.sql().len());
            assert!(matches!(sql, Ok(len) if len > 0), "{shape}: {sql:?}");
            let items = Interpreter::new(&rows).eval(&iter).unwrap();
            assert_eq!(items.len(), 2, "{shape}");
        }
    });
}

/// No corpus query and no query of the oracle's generators comes near either
/// bound: each JSONiq text parses and rewrites, its translation under either
/// strategy parses as SQL, and so does each SQL draw. Generated ADL q8, the
/// deepest translation, still parses inside eight more derived tables.
#[test]
fn no_corpus_or_generated_query_is_refused() {
    use snowq::jsoniq_core::verify::gen::{adl_schema, random_query};
    use snowq::snowdb::sql::parse_query;
    use snowq::snowdb::verify::gen::{adl_schema as sql_schema, load_irregular, SqlGen};
    use rand::{SeedableRng, StdRng};
    let db = database();
    load_irregular(&db, "IRR", 4, 0x1dd).unwrap();
    let sql_of = |text: &str, strategy| {
        let mut t = Translator::new(Session::new(db.clone()), strategy);
        let sql = t.translate(text).unwrap_or_else(|e| panic!("{text}: {e}")).sql().to_string();
        parse_query(&sql).unwrap_or_else(|e| panic!("{text} ({strategy:?}): {e}\n{sql}"));
        sql
    };
    let strategies = [NestedStrategy::FlagColumn, NestedStrategy::JoinBased];
    for (id, text, _) in statements() {
        front(&text).unwrap_or_else(|e| panic!("{id}: {e}"));
        for strategy in strategies {
            sql_of(&text, strategy);
        }
    }
    let schema = adl_schema("hep");
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..250 {
            let q = random_query(&mut rng, &schema);
            front(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            for strategy in strategies {
                sql_of(&q, strategy);
            }
        }
    }
    let schema = sql_schema("hep");
    for seed in 0..1000 {
        let sql = SqlGen::new(seed).random_sql(&schema);
        parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let q8 = adl::queries::queries("hep").into_iter().find(|q| q.id == "q8").expect("q8");
    let wrapped = format!(
        "{}{}{}",
        "SELECT * FROM (".repeat(8),
        sql_of(&q8.jsoniq, NestedStrategy::FlagColumn),
        ")".repeat(8)
    );
    parse_query(&wrapped).unwrap_or_else(|e| panic!("q8 in 8 derived tables: {e}"));
}
