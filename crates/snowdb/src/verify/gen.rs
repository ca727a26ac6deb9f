//! Seeded random SQL over a nested-table schema, for the configuration
//! lattice to referee, and the irregular table both random streams share.
//!
//! The JSONiq generator (`jsoniq_core::verify::gen`) reaches the engine only
//! through what the translator emits. This one writes SQL directly, and
//! spends its choices on the expression surface the batch evaluator covers:
//! math functions over path steps, `IFF`/`CASE` guards around `/` and `%`,
//! `NVL`, `GET`, `ARRAY_SIZE`, the two-argument aggregates `MIN_BY`/`MAX_BY`
//! (grouped and global), repeated subexpressions, and `SEQ8()` row ids joined
//! back. Every draw comes from a splitmix64 stream, so a corpus is a seed.
//! Results carry no float accumulation (`SUM`/`AVG` of floats), so every
//! configuration must return them bit for bit.
//!
//! Error identity: besides the unguarded division, the stream emits operands
//! that raise an error naming the row that raised it
//! (`CAST(IFF(<pred on key>, 'e' || <key>, <key>) AS INTEGER)` fails with
//! `cannot cast 'e3' to INTEGER`) and type-raising aggregate arguments (`SUM`
//! over a string, `BOOLAND_AGG` over a number), in join keys, in filters
//! above and below a `FLATTEN`, in group keys and in aggregate arguments;
//! divisions by zero in a subquery's select list and in a flatten's input
//! under an outer `WHERE`, and in `HAVING` conjuncts over the aggregates.
//! Every configuration must fail with the same error, the one of the first
//! failing row. [`RAISED`] lists every error the stream can raise.
//!
//! Data shapes: [`load_irregular`] writes the table of heterogeneous nested
//! values the ADL table never has, and [`SqlGen::random_sql`] queries it
//! freely — every SQL point shares the engine's one-null semantics.
//!
//! Joins: the ADL table joined inner, cross or left to the irregular one,
//! and now and then to a third relation, with a conjunct over both sides
//! that divides by zero or names the pair it fails on, beside, before and
//! after one-sided conjuncts and a `SEQ8()` test, in `WHERE` and in `ON` —
//! what the optimizer may move below or into the join, and which joins it
//! may reorder, and what not.
//!
//! Positions: pairs and triplets of flattened elements compared by `INDEX`
//! (the ADL pair queries' `A.INDEX < B.INDEX`, in every spelling the
//! optimizer turns into a flatten bound and some it must not), over ADL
//! arrays and over the irregular columns, one of which holds objects in
//! some rows — beside, before and after a conjunct that divides by zero.

use crate::engine::Database;
use crate::error::Result;
use crate::govern::chaos::splitmix64;
use crate::storage::{ColumnDef, ColumnType};
use crate::variant::{Object, Variant};

/// The errors the stream can raise, as message prefixes of
/// `SnowError::Exec`: the division, the row-naming cast, the two
/// type-raising aggregates and a comparison of a string with a number.
pub const RAISED: [&str; 5] = [
    "division by zero",
    "cannot cast '",
    "SUM expects numbers, got ",
    "BOOLAND_AGG expects booleans",
    "cannot compare values of types ",
];

/// The nested table a corpus is generated against.
#[derive(Clone, Debug)]
pub struct SqlSchema {
    pub table: String,
    /// Integer key column, one distinct value per row.
    pub int_col: &'static str,
    /// Float-valued variant paths of a row (`MET:PT`).
    pub float_paths: Vec<&'static str>,
    /// Array-of-object columns with the float members of their elements.
    pub arrays: Vec<(&'static str, Vec<&'static str>)>,
    /// The table [`load_irregular`] wrote.
    pub irregular: String,
}

/// The ADL HEP table (`adl::generator::schema`) and the irregular table
/// `IRR`.
pub fn adl_schema(table: &str) -> SqlSchema {
    SqlSchema {
        table: table.to_string(),
        int_col: "EVENT",
        float_paths: vec!["MET:PT", "MET:PHI"],
        arrays: vec![
            ("JET", vec!["PT", "ETA", "PHI", "MASS"]),
            ("MUON", vec!["PT", "ETA", "PHI", "MASS"]),
            ("ELECTRON", vec!["PT", "ETA", "PHI", "MASS"]),
        ],
        irregular: "IRR".to_string(),
    }
}

/// Loads `rows` seeded rows of the irregular table as `name`, in partitions
/// of 8 rows. Its columns:
///
/// - `ID`: the row number;
/// - `OPT`: an integer, JSON `null` in some documents and absent from others
///   — a table row has a cell for every column, so both load as the one
///   `Variant::Null` that also stands for SQL `NULL`;
/// - `MIX`: an integer, a float or a string;
/// - `XS`: an array of zero to four items: objects `{"ETA": …, "PT": …}`,
///   objects missing `PT`, objects whose `PT` is `null`, and integers;
/// - `RS`: the regular counterpart, `NULL` in one row in six and otherwise an
///   array of zero to three records `{"Q": …, "PT": …}` whose `PT` is `null`
///   in one in four — arrays of flat records, which a partition seals
///   shredded unless none of its rows holds an item;
/// - `OA`: an object of one to three integer members in one row in three,
///   otherwise an array of zero to five integers — a flatten of it emits
///   members, whose `INDEX` is NULL, beside array items.
///
/// `ETA` is present in every object, so a query may collect it into a
/// nested result; `PT` may be missing or `null`.
pub fn load_irregular(db: &Database, name: &str, rows: usize, seed: u64) -> Result<()> {
    let mut g = SqlGen::new(seed);
    // Its own stream, so the other columns hold what they always held.
    let mut h = SqlGen::new(!seed);
    let schema = vec![
        ColumnDef::new("ID", ColumnType::Int),
        ColumnDef::new("OPT", ColumnType::Variant),
        ColumnDef::new("MIX", ColumnType::Variant),
        ColumnDef::new("XS", ColumnType::Variant),
        ColumnDef::new("RS", ColumnType::Variant),
        ColumnDef::new("OA", ColumnType::Variant),
    ];
    // And `OA` its own, so that `RS` keeps its values too.
    let mut k = SqlGen::new(seed.rotate_left(32));
    let data: Vec<Vec<Variant>> = (0..rows as i64)
        .map(|id| {
            // Two in five `null`, one in five absent: both are `Null` here.
            let opt = if g.below(5) < 3 { Variant::Null } else { Variant::Int(g.below(40) as i64) };
            let mix = match g.below(3) {
                0 => Variant::Int(g.below(100) as i64),
                1 => Variant::Float(g.below(800) as f64 / 8.0),
                _ => Variant::from(format!("s{}", g.below(20))),
            };
            let xs = (0..g.below(5))
                .map(|_| {
                    let eta = Variant::Float(g.below(50) as f64 / 10.0 - 2.5);
                    let pt = Variant::Float(g.below(600) as f64 / 4.0);
                    match g.below(5) {
                        0 => Variant::Int(g.below(10) as i64),
                        1 => object([("ETA", eta)]),
                        2 => object([("ETA", eta), ("PT", Variant::Null)]),
                        _ => object([("ETA", eta), ("PT", pt)]),
                    }
                })
                .collect::<Vec<_>>();
            let rs = match h.below(6) {
                0 => Variant::Null,
                _ => Variant::array(
                    (0..h.below(4))
                        .map(|_| {
                            let q = Variant::Int(h.below(20) as i64);
                            let pt = match h.below(4) {
                                0 => Variant::Null,
                                _ => Variant::Float(h.below(600) as f64 / 4.0),
                            };
                            object([("Q", q), ("PT", pt)])
                        })
                        .collect(),
                ),
            };
            let oa = match k.below(3) {
                0 => {
                    let mut o = Object::with_capacity(3);
                    for key in ["A", "B", "C"].into_iter().take(1 + k.below(3) as usize) {
                        o.insert(key, Variant::Int(k.below(10) as i64));
                    }
                    Variant::object(o)
                }
                _ => {
                    let items = (0..k.below(6)).map(|_| Variant::Int(k.below(10) as i64));
                    Variant::array(items.collect())
                }
            };
            vec![Variant::Int(id), opt, mix, Variant::array(xs), rs, oa]
        })
        .collect();
    db.load_table(name, schema, data, 8)
}

fn object<const N: usize>(members: [(&str, Variant); N]) -> Variant {
    let mut o = Object::with_capacity(N);
    for (k, v) in members {
        o.insert(k, v);
    }
    Variant::object(o)
}

/// A seeded stream of SQL queries.
#[derive(Clone, Debug)]
pub struct SqlGen {
    state: u64,
}

impl SqlGen {
    /// The stream of `seed`; neighbouring seeds draw unrelated streams.
    pub fn new(seed: u64) -> SqlGen {
        SqlGen { state: splitmix64(seed) }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.state = self.state.wrapping_add(1);
        splitmix64(self.state) % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    fn math1(&mut self) -> &'static str {
        const FUNCS: [&str; 12] = [
            "SQRT", "COS", "SIN", "SINH", "COSH", "TANH", "ATAN", "EXP", "ABS", "FLOOR", "CEIL",
            "SIGN",
        ];
        FUNCS[self.below(FUNCS.len() as u64) as usize]
    }

    /// A float-valued expression over one object-valued SQL expression.
    fn member_expr(&mut self, obj: &str, members: &[&'static str]) -> String {
        let a = format!("{obj}:{}", self.pick(members));
        let b = format!("{obj}:{}", self.pick(members));
        match self.below(5) {
            0 => a,
            1 => format!("{}({a})", self.math1()),
            // pT·cos(φ), twice: one subexpression, two readers.
            2 => format!("(({a} * COS({b})) * ({a} * COS({b})))"),
            3 => format!("SQRT(ABS(({a} * {a}) - ({b} * {b})))"),
            _ => format!("ATAN2({a}, {b})"),
        }
    }

    /// An integer that is `key`, except on the rows `pred` holds for: there
    /// the cast fails naming the row, `cannot cast 'e3' to INTEGER`.
    fn raising_int(&mut self, key: &str, pred: &str) -> String {
        let letter = self.pick(&["e", "k", "w", "g"]);
        format!("CAST(IFF({pred}, '{letter}' || {key}, {key}) AS INTEGER)")
    }

    /// [`SqlGen::raising_int`] on the rows of [`SqlGen::key_pred`].
    fn raising_key(&mut self, key: &str) -> String {
        let pred = self.key_pred(key);
        self.raising_int(key, &pred)
    }

    /// A predicate on an integer key that holds for some rows, or none.
    fn key_pred(&mut self, key: &str) -> String {
        let k = 7 + self.below(300);
        format!("({key} % {k}) = {}", self.below(k.min(40)))
    }

    /// An aggregate whose argument raises a type error on the rows a key
    /// predicate holds for: `SUM` over a string, `BOOLAND_AGG` over a number.
    fn raising_agg(&mut self, key: &str) -> String {
        let pred = self.key_pred(key);
        if self.below(2) == 0 {
            format!("SUM(IFF({pred}, 'k' || {key}, {key}))")
        } else {
            format!("BOOLAND_AGG(IFF({pred}, {key}, {key} >= 0))")
        }
    }

    /// A scalar over a whole row, exercising guards and nested access.
    fn row_scalar(&mut self, s: &SqlSchema) -> String {
        let f = *self.pick(&s.float_paths);
        let g = *self.pick(&s.float_paths);
        let (arr, members) = self.pick(&s.arrays).clone();
        let m = *self.pick(&members);
        let k = 2 + self.below(4);
        let id = s.int_col;
        match self.below(9) {
            // The guard keeps the division off its zero divisors.
            0 => format!("IFF(({id} % {k}) = 0, NULL, {f} / ({id} % {k}))"),
            1 => format!(
                "CASE WHEN {f} < 20 THEN 0 WHEN ({id} % {k}) <> 0 THEN {g} / ({id} % {k}) ELSE {} END",
                self.member_expr("MET", &["PT", "PHI"])
            ),
            2 => format!("NVL(GET({arr}, {}):{m}, -1)", self.below(3)),
            3 => format!("ARRAY_SIZE({arr}) + NVL(ARRAY_SIZE(GET({arr}, 0):none), 0)"),
            4 => format!("{}({f}) + {}({g})", self.math1(), self.math1()),
            5 => format!("COALESCE({arr}[{}]:{m}, {f}, 0)", self.below(4)),
            6 => format!("OBJECT_CONSTRUCT('id', {id}, 'v', POWER({f}, 2), 'n', ARRAY_SIZE({arr}))"),
            7 => self.raising_key(id),
            // Unguarded: every configuration must report the same error.
            _ => format!("{f} / ({id} % {})", 40 + self.below(40)),
        }
    }

    fn row_pred(&mut self, s: &SqlSchema) -> String {
        let f = *self.pick(&s.float_paths);
        let (arr, _) = self.pick(&s.arrays).clone();
        let k = 2 + self.below(5);
        match self.below(5) {
            0 => format!("{f} > {}", 5 + self.below(60)),
            1 => format!("({} % {k}) = {}", s.int_col, self.below(k)),
            2 => format!(
                "ARRAY_SIZE({arr}) >= {} AND SQRT({f}) < {}",
                1 + self.below(3),
                3 + self.below(6)
            ),
            3 => format!("{} % 2 = 0", self.raising_key(s.int_col)),
            _ => format!(
                "IFF(ARRAY_SIZE({arr}) = 0, FALSE, {arr}[0]:PT / ARRAY_SIZE({arr}) > {})",
                2 + self.below(20)
            ),
        }
    }

    /// The next query of the stream: one in seven over the irregular table.
    pub fn random_sql(&mut self, s: &SqlSchema) -> String {
        let t = &s.table;
        let id = s.int_col;
        let (arr, members) = self.pick(&s.arrays).clone();
        match self.below(18) {
            16 => self.raising_below_a_filter(s),
            17 => self.raising_having(s),
            0 | 1 => format!(
                "SELECT {id}, {} AS V FROM {t} WHERE {}",
                self.row_scalar(s),
                self.row_pred(s)
            ),
            2 | 3 => {
                let mut filter = format!(
                    "{} > {}",
                    self.member_expr("X.VALUE", &members),
                    self.below(30)
                );
                // A raising conjunct over the row (a candidate to move below
                // the flatten) or over the element (it stays above).
                match self.below(4) {
                    0 => {
                        let raising = self.raising_key(&format!("H.{id}"));
                        filter = format!("{raising} > 3 AND {filter}");
                    }
                    1 => {
                        let pred = format!("X.VALUE:PT > {}", 20 + self.below(200));
                        let raising = self.raising_int(&format!("H.{id}"), &pred);
                        filter = format!("{filter} AND {raising} >= 0");
                    }
                    _ => {}
                }
                format!(
                    "SELECT H.{id}, X.INDEX, {} AS V FROM {t} H, LATERAL FLATTEN(INPUT => H.{arr}) X \
                     WHERE {filter}",
                    self.member_expr("X.VALUE", &members),
                )
            }
            4 | 5 => {
                let k = 2 + self.below(6);
                let key = format!("H.{id}");
                let group = if self.below(4) == 0 {
                    format!("{} % {k}", self.raising_key(&key))
                } else {
                    format!("{key} % {k}")
                };
                let extra = if self.below(3) == 0 {
                    format!(", {} AS E", self.raising_agg(&key))
                } else {
                    String::new()
                };
                format!(
                    "SELECT {group} AS G, MIN_BY(X.VALUE:PT, {}) AS LO, \
                     MAX_BY(X.INDEX, X.VALUE:PT) AS HI, COUNT(*) AS N{extra} \
                     FROM {t} H, LATERAL FLATTEN(INPUT => H.{arr}) X GROUP BY {group}",
                    self.member_expr("X.VALUE", &members),
                )
            }
            6 => format!(
                "SELECT MIN_BY({id}, {f}) AS A, MAX_BY({}, {id}) AS B, COUNT(*) AS N, {} AS E \
                 FROM {t} WHERE {}",
                self.row_scalar(s),
                self.raising_agg(id),
                self.row_pred(s),
                f = self.pick(&s.float_paths),
            ),
            7 => format!(
                "SELECT {id}, {}, {} FROM {t} WHERE {} ORDER BY {id}",
                self.row_scalar(s),
                self.row_scalar(s),
                self.row_pred(s),
            ),
            // Row ids stamped by two projections and joined back, as both
            // nested-query strategies of the translator do — or joined on a
            // key that raises on some rows.
            8 | 9 => {
                let (key, on) = if self.below(3) == 0 {
                    (self.raising_key(id), format!("L.{id} = R.K"))
                } else {
                    (id.to_string(), "L.RID = R.RID".to_string())
                };
                format!(
                    "SELECT L.RID, L.{id}, R.V FROM (SELECT SEQ8() AS RID, {id} FROM {t}) L \
                     JOIN (SELECT SEQ8() AS RID, {key} AS K, {} AS V FROM {t}) R ON {on} \
                     WHERE (L.{id} % {}) = 0",
                    self.row_scalar(s),
                    2 + self.below(3),
                )
            }
            // Pairs and triplets of one event's elements, selected by
            // position as the ADL pair queries are: the optimizer may make
            // the comparisons flatten bounds, but not across a raising
            // conjunct. Or pairs over the irregular table.
            10 | 11 if self.below(2) == 0 => self.irregular_pairs(&s.irregular),
            10 | 11 => {
                let (arr2, members2) = match self.below(3) {
                    0 => self.pick(&s.arrays).clone(),
                    _ => (arr, members.clone()),
                };
                let triplet = self.below(3) == 0;
                let mut conjuncts = vec![self.index_cmp("A", "B")];
                if triplet {
                    conjuncts.push(self.index_cmp("B", "C"));
                }
                conjuncts.push(format!(
                    "{} > {}",
                    self.member_expr("B.VALUE", &members2),
                    self.below(30)
                ));
                let raising = format!("10 / (H.{id} % {}) > 0", 5 + self.below(40));
                self.add_raising(&mut conjuncts, raising);
                let third = match triplet {
                    true => format!(", LATERAL FLATTEN(INPUT => H.{arr}) C"),
                    false => String::new(),
                };
                format!(
                    "SELECT H.{id}, A.INDEX, B.INDEX, {} AS V FROM {t} H, \
                     LATERAL FLATTEN(INPUT => H.{arr}) A, LATERAL FLATTEN(INPUT => H.{arr2}) B{third} \
                     WHERE {}",
                    self.member_expr("B.VALUE", &members2),
                    conjuncts.join(" AND "),
                )
            }
            14 | 15 => self.raising_join(s),
            _ => self.irregular_sql(&s.irregular),
        }
    }

    /// A division that raises on the rows where `ID % k = 0`, computed in a
    /// subquery's select list or in a flatten's input, under an outer
    /// `WHERE` that rejects exactly those rows — or some other rows: the
    /// projection and the flatten hold the filter above them, so the
    /// division still sees every row.
    fn raising_below_a_filter(&mut self, s: &SqlSchema) -> String {
        let (t, id) = (&s.table, s.int_col);
        let k = 2 + self.below(5);
        let pred = match self.below(2) {
            0 => format!("({id} % {k}) <> 0"),
            _ => self.key_pred(id),
        };
        let f = *self.pick(&s.float_paths);
        if self.below(2) == 0 {
            format!(
                "SELECT Y, {id} FROM (SELECT {f} / ({id} % {k}) AS Y, {id} FROM {t}) WHERE {pred} ORDER BY {id}"
            )
        } else {
            format!(
                "SELECT {id}, F.INDEX AS I, F.VALUE AS V FROM {t}, \
                 LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT(10 / ({id} % {k}), {id})) F WHERE {pred} ORDER BY {id}, I"
            )
        }
    }

    /// A grouped aggregate under a `HAVING` whose conjuncts over the
    /// aggregates divide by zero on some groups, before or after a
    /// selective one.
    fn raising_having(&mut self, s: &SqlSchema) -> String {
        let (t, id) = (&s.table, s.int_col);
        let k = 3 + self.below(8);
        let mut conjuncts = vec![format!("COUNT(*) > {}", self.below(20))];
        let raising = format!("10 / (MIN({id}) % {}) > 0", 2 + self.below(5));
        self.add_raising(&mut conjuncts, raising);
        format!(
            "SELECT {id} % {k} AS G, COUNT(*) AS N FROM {t} GROUP BY {id} % {k} HAVING {} ORDER BY G",
            conjuncts.join(" AND ")
        )
    }

    /// The ADL table joined inner, cross or left to the irregular one, with
    /// a conjunct over both sides that raises on some pairs — on pairs a
    /// one-sided conjunct rejects, now and then — beside that one-sided
    /// conjunct, a two-sided one that may never hold, a key, a division over
    /// one side and a `SEQ8()` test, in any order, each in `WHERE` or in
    /// `ON`, and now and then a third relation keyed to the second. Where a
    /// conjunct is NULL the filter goes on to the ones after it.
    fn raising_join(&mut self, s: &SqlSchema) -> String {
        let l = format!("L.{}", s.int_col);
        let r = "R.ID";
        let k = 2 + self.below(3);
        let one_sided = match self.below(4) {
            0 => format!("({r} % {k}) = {}", self.below(k)),
            1 => format!("({l} % {k}) = {}", self.below(k)),
            2 => format!("R.OPT > {}", self.below(40)),
            _ => "R.OPT IS NOT NULL".to_string(),
        };
        let d = self.below(20) as i64 - 10;
        let both = match self.below(3) {
            0 => format!("{} >= 0", self.raising_int(r, &format!("({l} - {r}) = {d}"))),
            1 => format!("10 / ({l} - {r} + {d} + 1000 * IFF({one_sided}, 1, 0)) > 0"),
            _ => format!("10 / ({l} - {r} + {d}) > 0"),
        };
        let mut conjuncts = vec![both, one_sided];
        match self.below(4) {
            0 => conjuncts.push(format!("{l} - {r} = {}", self.below(240) as i64 - 60)),
            1 => conjuncts.push(format!("({l} % {k}) = ({r} % {k})")),
            _ => {}
        }
        if self.below(2) == 0 {
            conjuncts.push(format!("10 / ({r} - {}) > 0", self.below(40)));
        }
        if self.below(4) == 0 {
            conjuncts.push(format!("SEQ8() % {} = 0", 2 + self.below(5)));
        }
        // A third relation, now and then: a cluster the reorderer may rebuild.
        let third = self.below(3) == 0;
        if third {
            conjuncts.push(format!("S.ID = {r}"));
        }
        for i in (1..conjuncts.len()).rev() {
            conjuncts.swap(i, self.below(i as u64 + 1) as usize);
        }
        let kind = *self.pick(&["JOIN", "CROSS JOIN", "LEFT JOIN"]);
        let (mut on, mut wh) = (Vec::new(), Vec::new());
        for c in conjuncts {
            match kind != "CROSS JOIN" && !c.starts_with("S.") && self.below(3) == 0 {
                true => on.push(c),
                false => wh.push(c),
            }
        }
        let on = match (kind, on.is_empty()) {
            ("CROSS JOIN", _) => String::new(),
            (_, true) => " ON TRUE".to_string(),
            _ => format!(" ON {}", on.join(" AND ")),
        };
        let wh = match wh.is_empty() {
            true => String::new(),
            false => format!(" WHERE {}", wh.join(" AND ")),
        };
        let (t, irr) = (&s.table, &s.irregular);
        match third {
            true => format!(
                "SELECT {l}, {r}, R.OPT, S.ID FROM {t} L {kind} {irr} R{on} \
                 CROSS JOIN (SELECT ID FROM {irr} WHERE ID < 10) S{wh}"
            ),
            false => format!("SELECT {l}, {r}, R.OPT FROM {t} L {kind} {irr} R{on}{wh}"),
        }
    }

    /// A comparison of the positions of two flatten aliases: `<`, `<=` and
    /// their mirrors, bare or with JSONiq's `+ 1` on both sides, now and
    /// then with different literals on the two sides or beside an
    /// `INDEX IS NOT NULL`.
    fn index_cmp(&mut self, a: &str, b: &str) -> String {
        let (x, y) = (format!("{a}.INDEX"), format!("{b}.INDEX"));
        let (x, y) = match self.below(4) {
            0 => (format!("{x} + 1"), format!("{y} + 1")),
            1 => (format!("{x} + 1"), format!("{y} + {}", self.below(3))),
            _ => (x, y),
        };
        let cmp = match self.below(4) {
            0 => format!("{x} < {y}"),
            1 => format!("{x} <= {y}"),
            2 => format!("{y} > {x}"),
            _ => format!("{y} >= {x}"),
        };
        match self.below(6) {
            0 => format!("{b}.INDEX IS NOT NULL AND {cmp}"),
            1 => format!("{a}.INDEX IS NOT NULL AND {cmp}"),
            _ => cmp,
        }
    }

    /// Puts `raising`, a conjunct that raises on some rows, at the front of
    /// `conjuncts` or at its end, or leaves them be.
    fn add_raising(&mut self, conjuncts: &mut Vec<String>, raising: String) {
        match self.below(4) {
            0 => conjuncts.insert(0, raising),
            1 | 2 => conjuncts.push(raising),
            _ => {}
        }
    }

    /// Pairs by position over the irregular table's arrays mixed with
    /// objects (`OA`), its irregular arrays and its shredded lists, with a
    /// division by zero on some rows, or on some rows whose value is an
    /// object: there a comparison of positions is NULL, not FALSE, and the
    /// filter goes on to the division.
    fn irregular_pairs(&mut self, t: &str) -> String {
        let col = *self.pick(&["OA", "OA", "OA", "OA", "XS", "RS"]);
        let mut conjuncts = vec![self.index_cmp("A", "B")];
        let m = 2 + self.below(6);
        let raising = match self.below(3) {
            0 => format!("10 / (T.ID % {m}) > 0"),
            _ => format!("10 / IFF(TYPEOF(T.{col}) = 'OBJECT', T.ID % {m}, 1) > 0"),
        };
        self.add_raising(&mut conjuncts, raising);
        format!(
            "SELECT T.ID, A.INDEX, B.INDEX, B.VALUE FROM {t} T, \
             LATERAL FLATTEN(INPUT => T.{col}) A, LATERAL FLATTEN(INPUT => T.{col}) B WHERE {}",
            conjuncts.join(" AND ")
        )
    }

    /// A query over the irregular table: `NULL`s, a mixed-type column,
    /// arrays with empty, member-less, `null`-member and scalar items, the
    /// regular arrays of records that seal shredded, and aggregates over
    /// `Int` keys that arrive in ascending runs — always, or in some
    /// partitions only.
    fn irregular_sql(&mut self, t: &str) -> String {
        let k = 2 + self.below(4);
        match self.below(11) {
            0 => format!(
                "SELECT ID, OPT, NVL(OPT, -1) AS N FROM {t} WHERE OPT IS NULL OR OPT > {}",
                self.below(40)
            ),
            1 => format!("SELECT MIX, COUNT(*) AS N FROM {t} GROUP BY MIX"),
            // Strings against a number: raises unless the filter keeps
            // only numbers.
            2 => {
                let guard = if self.below(2) == 0 { "TYPEOF(MIX) <> 'VARCHAR' AND " } else { "" };
                format!("SELECT ID FROM {t} WHERE {guard}MIX > {}", self.below(100))
            }
            3 => format!(
                "SELECT T.ID, X.INDEX, X.VALUE, X.VALUE:PT AS PT, X.VALUE:ETA AS ETA \
                 FROM {t} T, LATERAL FLATTEN(INPUT => T.XS{}) X WHERE X.VALUE:PT IS NULL",
                if self.below(2) == 0 { ", OUTER => TRUE" } else { "" }
            ),
            4 => format!(
                "SELECT T.ID % {k} AS G, COUNT(X.VALUE:PT) AS N, MAX(X.VALUE:ETA) AS E, \
                 ARRAY_SIZE(ARRAY_AGG(X.VALUE:PT)) AS A FROM {t} T, \
                 LATERAL FLATTEN(INPUT => T.XS, OUTER => TRUE) X GROUP BY T.ID % {k}"
            ),
            5 => format!(
                "SELECT ID, ARRAY_SIZE(XS) AS N, GET(XS, {}):PT AS P FROM {t} \
                 WHERE ARRAY_SIZE(XS) {} {}",
                self.below(3),
                self.pick(&["=", ">=", "<"]),
                self.below(3)
            ),
            // The flag-column translation's shape: a row id stamped before
            // the flatten, grouped on, with the nested query's kept records
            // collected and the row's own list carried through.
            7 => format!(
                "SELECT RID, COUNT(R.INDEX) AS N, NVL(ANY_VALUE(T.RS), ARRAY_CONSTRUCT()) AS RS, \
                 ARRAY_AGG(IFF(R.VALUE:Q > {}, OBJECT_CONSTRUCT('Q', R.VALUE:Q, 'PT', R.VALUE:PT), \
                 NULL)) AS KEPT FROM (SELECT SEQ8() AS RID, RS FROM {t}) T, \
                 LATERAL FLATTEN(INPUT => T.RS, OUTER => TRUE) R GROUP BY RID",
                self.below(20)
            ),
            // A key that ascends in some partitions of 8 rows and descends
            // in the others, or within one.
            8 => {
                let half = *self.pick(&[4, 8]);
                let key = format!(
                    "IFF((T.ID % {}) < {half}, T.ID, {} - T.ID)",
                    2 * half,
                    20 + self.below(60)
                );
                format!(
                    "SELECT {key} AS K, COUNT(*) AS N, ANY_VALUE(T.RS) AS RS, \
                     ARRAY_AGG(R.VALUE) AS VS FROM {t} T, \
                     LATERAL FLATTEN(INPUT => T.RS, OUTER => TRUE) R GROUP BY {key}"
                )
            }
            9 | 10 => self.irregular_pairs(t),
            // Flatten, field picks, sizes, indexing and concatenation of the
            // shredded lists, with their NULL rows and NULL fields.
            _ => format!(
                "SELECT T.ID, ARRAY_SIZE(T.RS) AS N, T.RS[{}]:PT AS P0, R.INDEX, R.VALUE, \
                 R.VALUE:Q AS Q, R.VALUE:PT AS PT FROM {t} T, \
                 LATERAL FLATTEN(INPUT => {}{}) R WHERE R.VALUE:Q IS NULL OR R.VALUE:Q > {}",
                self.below(3),
                self.pick(&["T.RS", "ARRAY_CAT(T.RS, T.RS)"]),
                if self.below(2) == 0 { ", OUTER => TRUE" } else { "" },
                self.below(20)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corpus_is_its_seed_and_parses() {
        let s = adl_schema("hep");
        let corpus = |seed| {
            let mut g = SqlGen::new(seed);
            (0..60).map(|_| g.random_sql(&s)).collect::<Vec<_>>()
        };
        assert_eq!(corpus(7), corpus(7));
        assert_ne!(corpus(7), corpus(8));
        for sql in corpus(7) {
            crate::sql::parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn the_irregular_table_has_every_shape() {
        let db = Database::new();
        load_irregular(&db, "irr", 40, 0x1dd).unwrap();
        let count = |sql: &str| match &db.query(sql).unwrap().rows[0][0] {
            Variant::Int(n) => *n,
            other => panic!("{sql}: {other:?}"),
        };
        let flat = "FROM irr, LATERAL FLATTEN(INPUT => XS) X WHERE";
        for (what, sql) in [
            ("null OPT", "SELECT COUNT(*) FROM irr WHERE OPT IS NULL".to_string()),
            ("string MIX", "SELECT COUNT(*) FROM irr WHERE TYPEOF(MIX) = 'VARCHAR'".into()),
            ("float MIX", "SELECT COUNT(*) FROM irr WHERE TYPEOF(MIX) = 'DOUBLE'".into()),
            ("empty XS", "SELECT COUNT(*) FROM irr WHERE ARRAY_SIZE(XS) = 0".into()),
            ("scalar item", format!("SELECT COUNT(*) {flat} TYPEOF(X.VALUE) = 'INTEGER'")),
            ("null or missing PT", format!("SELECT COUNT(*) {flat} X.VALUE:ETA IS NOT NULL AND X.VALUE:PT IS NULL")),
            ("PT", format!("SELECT COUNT(*) {flat} X.VALUE:PT IS NOT NULL")),
            ("null RS", "SELECT COUNT(*) FROM irr WHERE RS IS NULL".into()),
            ("object OA", "SELECT COUNT(*) FROM irr WHERE TYPEOF(OA) = 'OBJECT'".into()),
            ("array OA", "SELECT COUNT(*) FROM irr WHERE ARRAY_SIZE(OA) > 1".into()),
            ("empty RS", "SELECT COUNT(*) FROM irr WHERE ARRAY_SIZE(RS) = 0".into()),
            (
                "null RS field",
                "SELECT COUNT(*) FROM irr, LATERAL FLATTEN(INPUT => RS) R WHERE R.VALUE:PT IS NULL"
                    .into(),
            ),
        ] {
            assert!(count(&sql) > 0, "no {what}");
        }
    }
}
