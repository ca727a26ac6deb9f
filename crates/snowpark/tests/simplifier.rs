//! The SQL simplifier against the verbose emission it replaced.
//!
//! A chain of dataframe calls merges into the `SELECT` it wraps wherever SQL's
//! evaluation order allows. The reference is the same chain with every
//! intermediate frame re-entered through `Session::sql(prev.sql())`: such a
//! frame has no open `SELECT`, so every call wraps it — one nested `SELECT`
//! per call, the text the dataframe layer used to emit. Both must return the
//! same rows, or fail with the same kind of error, with the optimizer on and
//! off and the vectorized kernels on and off. The pinned cases at the end are
//! the places where a merge would change what the text means.

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};
use snowdb::storage::{ColumnDef, ColumnType, DEFAULT_PARTITION_ROWS};
use snowdb::variant::parse_json;
use snowdb::{Database, QueryOptions, Variant};
use snowpark::functions as f;
use snowpark::{Col, DataFrame, JoinType, Session, SortOrder};

/// `EVENTS` (ADL-shaped: an object column, an array of objects, zeros to
/// divide by), `LINEORDER` and `DDATE` (SSB-shaped), small enough to join.
fn session() -> Session {
    let db = Database::new();
    let events = (0..12i64).map(|i| {
        let jets: Vec<String> = (0..i % 3)
            .map(|j| format!(r#"{{"PT": {}, "ETA": {}}}"#, 10 * i + j, j - 1))
            .collect();
        vec![
            Variant::Int(i),
            Variant::Int(i % 4),
            Variant::Float(i as f64 * 1.5),
            parse_json(&format!(r#"{{"PT": {}, "PHI": {}}}"#, i * 3, i % 5)).unwrap(),
            parse_json(&format!("[{}]", jets.join(", "))).unwrap(),
        ]
    });
    db.load_table(
        "events",
        vec![
            ColumnDef::new("EVENT", ColumnType::Int),
            ColumnDef::new("N", ColumnType::Int),
            ColumnDef::new("X", ColumnType::Float),
            ColumnDef::new("MET", ColumnType::Variant),
            ColumnDef::new("JET", ColumnType::Variant),
        ],
        events,
        5,
    )
    .unwrap();
    let ints = |names: &[&str]| -> Vec<ColumnDef> {
        names.iter().map(|n| ColumnDef::new(*n, ColumnType::Int)).collect()
    };
    db.load_table(
        "lineorder",
        ints(&["LO_ORDERKEY", "LO_ORDERDATE", "LO_QUANTITY", "LO_REVENUE"]),
        (0..10i64).map(|i| vec![i.into(), (i % 4 + 1).into(), (i % 5).into(), (i * 7 % 11).into()]),
        4,
    )
    .unwrap();
    db.load_table(
        "ddate",
        ints(&["D_DATEKEY", "D_YEAR"]),
        (1..=4i64).map(|k| vec![k.into(), (1992 + k % 2).into()]),
        DEFAULT_PARTITION_ROWS,
    )
    .unwrap();
    Session::new(Arc::new(db))
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Num,
    /// An object with a numeric `PT`.
    Obj,
    /// An array of such objects.
    Objs,
    /// An array of numbers.
    Nums,
}

/// A column a later call may name.
#[derive(Clone)]
struct Column {
    rel: Option<String>,
    name: String,
    kind: Kind,
}

impl Column {
    fn bare(name: &str, kind: Kind) -> Column {
        Column { rel: None, name: name.to_string(), kind }
    }

    fn col(&self) -> Col {
        match &self.rel {
            Some(r) => f::col_of(r, &self.name),
            None => f::col(&self.name),
        }
    }
}

/// One dataframe call.
#[derive(Clone)]
enum Call {
    WithColumn(String, Col),
    Filter(Col),
    Select(Vec<(Col, Option<String>)>),
    Drop(String),
    Flatten(Col, String, bool),
    Agg(Vec<Col>, Vec<(Col, String)>),
    Sort(Vec<(Col, SortOrder)>),
    Limit(u64),
    Distinct,
    UnionWithItself,
    CrossJoin(&'static str),
    Join(&'static str, JoinType, Col),
}

impl Call {
    /// Applies the call to `df`; `table` opens another relation.
    fn apply(&self, df: &DataFrame, table: &dyn Fn(&str) -> DataFrame) -> DataFrame {
        match self {
            Call::WithColumn(name, e) => df.with_column(name, e),
            Call::Filter(c) => df.filter(c),
            Call::Select(items) => df.select(items.iter().map(|(c, a)| match a {
                Some(a) => c.alias(a),
                None => c.into(),
            })),
            Call::Drop(name) => df.drop_columns(&[name]),
            Call::Flatten(input, alias, outer) => df.flatten(input, alias, *outer),
            Call::Agg(keys, aggs) => df.group_by(keys).agg(aggs.iter().map(|(c, a)| c.alias(a))),
            Call::Sort(keys) => df.sort(keys),
            Call::Limit(n) => df.limit(*n),
            Call::Distinct => df.distinct(),
            Call::UnionWithItself => df.union_all(df),
            Call::CrossJoin(t) => df.cross_join(&table(t)),
            Call::Join(t, kind, on) => df.join(&table(t), *kind, "L", "R", Some(on)),
        }
    }
}

/// Draws random call chains over a shape, keeping track of the columns the
/// next call may name.
struct Chain<'a> {
    rng: &'a mut StdRng,
    cols: Vec<Column>,
    fresh: usize,
    joined: bool,
    ssb: bool,
}

impl Chain<'_> {
    fn name(&mut self, base: &str) -> String {
        self.fresh += 1;
        format!("{base}{}", self.fresh)
    }

    fn pick(&mut self, kind: Kind) -> Option<Column> {
        let of_kind: Vec<&Column> = self.cols.iter().filter(|c| c.kind == kind).collect();
        (!of_kind.is_empty()).then(|| of_kind[self.rng.gen_range(0..of_kind.len())].clone())
    }

    /// A numeric expression: it may divide by zero, number rows, or read the
    /// column the previous call defined.
    fn num(&mut self, depth: u32) -> Col {
        let leaf = |s: &mut Self| match s.rng.gen_range(0..8) {
            0 => f::lit(s.rng.gen_range(0..4)),
            1 => f::seq8(),
            2 => match s.pick(Kind::Obj) {
                Some(o) => o.col().subfield("PT"),
                None => f::lit(2),
            },
            3 => match s.pick(Kind::Objs).or_else(|| s.pick(Kind::Nums)) {
                Some(a) => f::array_size(&a.col()),
                None => f::lit(1),
            },
            _ => s.pick(Kind::Num).map_or_else(|| f::lit(3), |c| c.col()),
        };
        if depth == 0 || self.rng.gen_bool(0.4) {
            return leaf(self);
        }
        let (a, b) = (self.num(depth - 1), self.num(depth - 1));
        match self.rng.gen_range(0..6) {
            0 => a.add(&b),
            1 => a.sub(&b),
            2 => a.mul(&b),
            3 => a.div(&b),
            4 => f::iff(&a.gt(&b), &a, &b),
            _ => f::nvl(&a, &b),
        }
    }

    fn pred(&mut self) -> Col {
        let (a, b) = (self.num(1), self.num(1));
        let p = match self.rng.gen_range(0..4) {
            0 => a.gt(&b),
            1 => a.le(&b),
            2 => a.neq(&b),
            _ => a.is_not_null(),
        };
        if self.rng.gen_bool(0.3) {
            let q = self.pred();
            if self.rng.gen_bool(0.5) { p.and(&q) } else { p.or(&q) }
        } else {
            p
        }
    }

    fn call(&mut self) -> Call {
        loop {
            let call = match self.rng.gen_range(0..14) {
                0..=3 => {
                    let name = self.name("C");
                    let (e, kind) = match self.pick(Kind::Objs) {
                        Some(a) if self.rng.gen_bool(0.2) => (f::get(&a.col(), &f::lit(0)), Kind::Obj),
                        _ => (self.num(2), Kind::Num),
                    };
                    self.cols.push(Column::bare(&name, kind));
                    Call::WithColumn(name, e)
                }
                4 | 5 => Call::Filter(self.pred()),
                6 => {
                    let mut items = Vec::new();
                    let mut cols = Vec::new();
                    for c in self.cols.clone() {
                        if !self.rng.gen_bool(0.5) {
                            continue;
                        }
                        // A qualified column is renamed: its output name
                        // alone would not be unique.
                        let alias = c.rel.as_ref().map(|_| self.name("S"));
                        cols.push(Column::bare(alias.as_deref().unwrap_or(&c.name), c.kind));
                        items.push((c.col(), alias));
                    }
                    if items.is_empty() || self.rng.gen_bool(0.3) {
                        let name = self.name("S");
                        items.push((self.num(1), Some(name.clone())));
                        cols.push(Column::bare(&name, Kind::Num));
                    }
                    self.cols = cols;
                    Call::Select(items)
                }
                7 => {
                    let droppable: Vec<Column> =
                        self.cols.iter().filter(|c| c.rel.is_none()).cloned().collect();
                    if droppable.len() < 2 {
                        continue;
                    }
                    let c = &droppable[self.rng.gen_range(0..droppable.len())];
                    let name = c.name.clone();
                    self.cols.retain(|k| k.rel.is_some() || k.name != name);
                    Call::Drop(name)
                }
                8 => {
                    let Some(a) = self.pick(Kind::Objs).or_else(|| self.pick(Kind::Nums)) else { continue };
                    let alias = self.name("F");
                    let value = if a.kind == Kind::Objs { Kind::Obj } else { Kind::Num };
                    self.cols.push(Column { rel: Some(alias.clone()), name: "VALUE".into(), kind: value });
                    self.cols.push(Column { rel: Some(alias.clone()), name: "INDEX".into(), kind: Kind::Num });
                    Call::Flatten(a.col(), alias, self.rng.gen_bool(0.5))
                }
                9 => {
                    let key = if self.rng.gen_bool(0.8) { self.pick(Kind::Num) } else { None };
                    let mut cols: Vec<Column> = Vec::new();
                    let keys: Vec<Col> = key
                        .into_iter()
                        .map(|k| {
                            // The group key's output name is its column name.
                            cols.push(Column::bare(&k.name, Kind::Num));
                            k.col()
                        })
                        .collect();
                    let mut aggs = Vec::new();
                    for _ in 0..self.rng.gen_range(1..=3) {
                        let name = self.name("A");
                        let x = self.num(1);
                        let (agg, kind) = match self.rng.gen_range(0..5) {
                            0 => (f::count_star(), Kind::Num),
                            1 => (f::sum(&x), Kind::Num),
                            2 => (f::max(&x), Kind::Num),
                            3 => (f::array_agg(&x), Kind::Nums),
                            _ => (f::any_value(&x), Kind::Num),
                        };
                        cols.push(Column::bare(&name, kind));
                        aggs.push((agg, name));
                    }
                    self.cols = cols;
                    Call::Agg(keys, aggs)
                }
                10 => {
                    let keys = (0..self.rng.gen_range(1..=2))
                        .map(|_| {
                            let order = if self.rng.gen_bool(0.5) { SortOrder::Asc } else { SortOrder::Desc };
                            (self.num(1), order)
                        })
                        .collect();
                    Call::Sort(keys)
                }
                11 => {
                    if self.rng.gen_bool(0.5) {
                        Call::Limit(self.rng.gen_range(0..6))
                    } else {
                        Call::Distinct
                    }
                }
                12 => Call::UnionWithItself,
                _ => {
                    if self.joined {
                        continue;
                    }
                    self.joined = true;
                    let key = if self.ssb { "LO_ORDERDATE" } else { "N" };
                    let keyed = self.cols.iter().any(|c| c.rel.is_none() && c.name == key);
                    // Columns of the left side stay addressable by their
                    // (unique) bare names; qualified ones do not survive.
                    self.cols.retain(|c| c.rel.is_none());
                    self.cols.push(Column::bare("D_DATEKEY", Kind::Num));
                    self.cols.push(Column::bare("D_YEAR", Kind::Num));
                    if keyed && self.rng.gen_bool(0.5) {
                        let on = f::col_of("L", key).eq(&f::col_of("R", "D_DATEKEY"));
                        let kind = if self.rng.gen_bool(0.5) { JoinType::Inner } else { JoinType::LeftOuter };
                        Call::Join("ddate", kind, on)
                    } else {
                        Call::CrossJoin("ddate")
                    }
                }
            };
            return call;
        }
    }
}

/// What a statement returned: its columns and rows, or its error's kind.
type Outcome = Result<(Vec<String>, Vec<Vec<Variant>>), std::mem::Discriminant<snowdb::SnowError>>;

fn run(session: &Session, sql: &str, opts: &QueryOptions) -> Outcome {
    session
        .database()
        .query_with(sql, opts)
        .map(|r| (r.columns, r.rows))
        .map_err(|e| std::mem::discriminant(&e))
}

/// Random chains per run; odd seeds start from `LINEORDER`, even ones from
/// `EVENTS`.
const CHAINS: u64 = 200;

#[test]
fn merged_chains_mean_what_the_nested_chains_meant() {
    let session = session();
    let configs: Vec<QueryOptions> = [(true, true), (true, false), (false, true), (false, false)]
        .map(|(optimize, vectorize)| QueryOptions { optimize, vectorize, ..Default::default() })
        .into();
    let (mut flat_selects, mut nested_selects, mut failed) = (0, 0, 0);
    for seed in 0..CHAINS {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ssb = seed % 2 == 1;
        let (table, cols) = if ssb {
            let names = ["LO_ORDERKEY", "LO_ORDERDATE", "LO_QUANTITY", "LO_REVENUE"];
            ("lineorder", names.iter().map(|n| Column::bare(n, Kind::Num)).collect())
        } else {
            let cols = vec![
                Column::bare("EVENT", Kind::Num),
                Column::bare("N", Kind::Num),
                Column::bare("X", Kind::Num),
                Column::bare("MET", Kind::Obj),
                Column::bare("JET", Kind::Objs),
            ];
            ("events", cols)
        };
        let mut chain = Chain { rng, cols, fresh: 0, joined: false, ssb };
        let calls: Vec<Call> = (0..chain.rng.gen_range(1..=7)).map(|_| chain.call()).collect();

        let mut flat = session.table(table);
        let mut nested = session.sql(session.table(table).sql());
        for call in &calls {
            flat = call.apply(&flat, &|t| session.table(t));
            nested = call.apply(&session.sql(nested.sql()), &|t| session.sql(session.table(t).sql()));
        }
        let (flat_sql, nested_sql) = (flat.sql(), nested.sql());
        flat_selects += flat_sql.matches("SELECT").count();
        nested_selects += nested_sql.matches("SELECT").count();
        for opts in &configs {
            let want = run(&session, nested_sql, opts);
            failed += usize::from(want.is_err());
            assert_eq!(
                run(&session, flat_sql, opts),
                want,
                "seed {seed}, optimize={} vectorize={}\nflat:   {flat_sql}\nnested: {nested_sql}",
                opts.optimize,
                opts.vectorize
            );
        }
    }
    // The chains merged, and both outcomes were exercised.
    assert!(flat_selects * 3 < nested_selects * 2, "{flat_selects} vs {nested_selects} SELECTs");
    assert!(failed > 0 && failed < configs.len() * CHAINS as usize / 2, "{failed} failing runs");
}

// ---- where a merge would change the meaning: pinned -------------------------

/// Each chain's SQL text, and its rows against the nested reference.
#[test]
fn refused_merges_wrap_the_select() {
    let session = session();
    let t = || session.table("events");
    let n = || f::col("N");
    let cases: Vec<(DataFrame, &str)> = vec![
        // An alias read at its own level.
        (
            t().with_column("A", &n().add(&f::lit(1))).with_column("B", &f::col("A").mul(&f::lit(2))),
            r#"SELECT *, ("A" * 2) AS "B" FROM (SELECT *, ("N" + 1) AS "A" FROM "EVENTS")"#,
        ),
        // Two SEQ8()s in one projection.
        (
            t().with_column("R1", &f::seq8()).with_column("R2", &f::seq8()),
            r#"SELECT *, SEQ8() AS "R2" FROM (SELECT *, SEQ8() AS "R1" FROM "EVENTS")"#,
        ),
        // A filter after with_column.
        (
            t().with_column("A", &n().add(&f::lit(1))).filter(&f::col("A").gt(&f::lit(2))),
            r#"SELECT * FROM (SELECT *, ("N" + 1) AS "A" FROM "EVENTS") WHERE ("A" > 2)"#,
        ),
        // A filter over a filter.
        (
            t().filter(&n().gt(&f::lit(0))).filter(&f::lit(6).div(&n()).gt(&f::lit(2))),
            r#"SELECT * FROM (SELECT * FROM "EVENTS" WHERE ("N" > 0)) WHERE ((6 / "N") > 2)"#,
        ),
        // Sort and limit merge; a filter after them does not.
        (
            t().sort(&[(f::col("X"), SortOrder::Desc)]).limit(5).filter(&n().neq(&f::lit(1))),
            r#"SELECT * FROM (SELECT * FROM "EVENTS" ORDER BY "X" DESC LIMIT 5) WHERE ("N" <> 1)"#,
        ),
        // DISTINCT, then with_column.
        (
            t().select([n()]).distinct().with_column("M", &n().mul(&f::lit(10))),
            r#"SELECT *, ("N" * 10) AS "M" FROM (SELECT DISTINCT "N" FROM "EVENTS")"#,
        ),
        // A group key computed by with_column.
        (
            t().with_column("K", &n().rem(&f::lit(2))).group_by(&[f::col("K")]).agg([f::count_star().alias("C")]),
            r#"SELECT "K", COUNT(*) AS "C" FROM (SELECT *, ("N" % 2) AS "K" FROM "EVENTS") GROUP BY "K""#,
        ),
        // UNION ALL, then anything.
        (
            t().select([n()]).union_all(&t().select([n()])).filter(&n().gt(&f::lit(1))),
            r#"SELECT * FROM ((SELECT "N" FROM "EVENTS") UNION ALL (SELECT "N" FROM "EVENTS")) WHERE ("N" > 1)"#,
        ),
        // A column hidden by EXCLUDE is not read at that level.
        (
            t().drop_columns(&["X"]).with_column("Y", &f::col("X")),
            r#"SELECT *, "X" AS "Y" FROM (SELECT * EXCLUDE ("X") FROM "EVENTS")"#,
        ),
        // A computed column's error is not dropped by a select.
        (
            t().with_column("Q", &f::lit(6).div(&n())).select([f::col("EVENT")]),
            r#"SELECT "EVENT" FROM (SELECT *, (6 / "N") AS "Q" FROM "EVENTS")"#,
        ),
    ];
    for (df, sql) in cases {
        assert_eq!(df.sql(), sql);
        let reference = session.sql(sql).filter(&f::lit_b(true));
        assert_eq!(
            run(&session, df.sql(), &QueryOptions::default()),
            run(&session, reference.sql(), &QueryOptions::default()),
            "{sql}"
        );
    }
}

/// What does merge: one SELECT per clause order, flattens and cross joins
/// extend FROM, a bare table is its name.
#[test]
fn merges_follow_sql_evaluation_order() {
    let session = session();
    let df = session
        .table("events")
        .flatten(&f::col("JET"), "J", false)
        .filter(&f::col_of("J", "VALUE").subfield("PT").gt(&f::lit(20)))
        .with_column("P", &f::col_of("J", "VALUE").subfield("PT"))
        .with_column("E", &f::col("EVENT").mul(&f::lit(2)))
        .with_column("R", &f::seq8())
        .sort(&[(f::col("P"), SortOrder::Asc)])
        .limit(3);
    assert_eq!(
        df.sql(),
        r#"SELECT *, "J"."VALUE":"PT" AS "P", ("EVENT" * 2) AS "E", SEQ8() AS "R" FROM "EVENTS", LATERAL FLATTEN(INPUT => "JET") AS "J" WHERE ("J"."VALUE":"PT" > 20) ORDER BY "P" ASC LIMIT 3"#
    );
    let rows = df.collect().unwrap().rows;
    assert_eq!(rows.len(), 3);

    let joined = session
        .table("lineorder")
        .cross_join(&session.table("ddate"))
        .filter(&f::col("LO_ORDERDATE").eq(&f::col("D_DATEKEY")))
        .group_by(&[f::col("D_YEAR")])
        .agg([f::sum(&f::col("LO_REVENUE")).alias("REV")])
        .sort(&[(f::col("D_YEAR"), SortOrder::Asc)]);
    assert_eq!(
        joined.sql(),
        r#"SELECT "D_YEAR", SUM("LO_REVENUE") AS "REV" FROM "LINEORDER" CROSS JOIN "DDATE" WHERE ("LO_ORDERDATE" = "D_DATEKEY") GROUP BY "D_YEAR" ORDER BY "D_YEAR" ASC"#
    );
    assert_eq!(joined.collect().unwrap().rows.len(), 2);

    let aliased = session.table("lineorder").join(
        &session.table("ddate"),
        JoinType::LeftOuter,
        "L",
        "R",
        Some(&f::col_of("L", "LO_ORDERDATE").eq(&f::col_of("R", "D_DATEKEY"))),
    );
    assert_eq!(
        aliased.sql(),
        r#"SELECT * FROM "LINEORDER" AS "L" LEFT OUTER JOIN "DDATE" AS "R" ON ("L"."LO_ORDERDATE" = "R"."D_DATEKEY")"#
    );
    // Raw SQL is opaque: every call wraps it.
    let raw = session.sql("SELECT 1 AS A").filter(&f::col("A").eq(&f::lit(1)));
    assert_eq!(raw.sql(), r#"SELECT * FROM (SELECT 1 AS A) WHERE ("A" = 1)"#);
}
