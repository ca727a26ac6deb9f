//! Seeded random SQL over a nested-table schema, for the configuration
//! lattice to referee.
//!
//! The JSONiq generator (`jsoniq_core::verify::gen`) reaches the engine only
//! through what the translator emits. This one writes SQL directly, and
//! spends its choices on the expression surface the batch evaluator covers:
//! math functions over path steps, `IFF`/`CASE` guards around `/` and `%`,
//! `NVL`, `GET`, `ARRAY_SIZE`, the two-argument aggregates `MIN_BY`/`MAX_BY`
//! (grouped and global), repeated subexpressions, and `SEQ8()` row ids joined
//! back. Every draw comes from a splitmix64 stream, so a corpus is a seed.
//! Results carry no float accumulation (`SUM`/`AVG`), so every configuration
//! must return them bit for bit.

use crate::govern::chaos::splitmix64;

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
}

/// The ADL HEP table (`adl::generator::schema`).
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
    }
}

/// A seeded stream of SQL queries.
#[derive(Clone, Debug)]
pub struct SqlGen {
    state: u64,
}

impl SqlGen {
    pub fn new(seed: u64) -> SqlGen {
        SqlGen { state: seed }
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

    /// A scalar over a whole row, exercising guards and nested access.
    fn row_scalar(&mut self, s: &SqlSchema) -> String {
        let f = *self.pick(&s.float_paths);
        let g = *self.pick(&s.float_paths);
        let (arr, members) = self.pick(&s.arrays).clone();
        let m = *self.pick(&members);
        let k = 2 + self.below(4);
        let id = s.int_col;
        match self.below(8) {
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
            // Unguarded: every configuration must report the same error.
            _ => format!("{f} / ({id} % {})", 40 + self.below(40)),
        }
    }

    fn row_pred(&mut self, s: &SqlSchema) -> String {
        let f = *self.pick(&s.float_paths);
        let (arr, _) = self.pick(&s.arrays).clone();
        let k = 2 + self.below(5);
        match self.below(4) {
            0 => format!("{f} > {}", 5 + self.below(60)),
            1 => format!("({} % {k}) = {}", s.int_col, self.below(k)),
            2 => format!(
                "ARRAY_SIZE({arr}) >= {} AND SQRT({f}) < {}",
                1 + self.below(3),
                3 + self.below(6)
            ),
            _ => format!(
                "IFF(ARRAY_SIZE({arr}) = 0, FALSE, {arr}[0]:PT / ARRAY_SIZE({arr}) > {})",
                2 + self.below(20)
            ),
        }
    }

    /// The next query of the stream.
    pub fn random_sql(&mut self, s: &SqlSchema) -> String {
        let t = &s.table;
        let id = s.int_col;
        let (arr, members) = self.pick(&s.arrays).clone();
        match self.below(6) {
            0 => format!(
                "SELECT {id}, {} AS V FROM {t} WHERE {}",
                self.row_scalar(s),
                self.row_pred(s)
            ),
            1 => format!(
                "SELECT H.{id}, X.INDEX, {} AS V FROM {t} H, LATERAL FLATTEN(INPUT => H.{arr}) X \
                 WHERE {} > {}",
                self.member_expr("X.VALUE", &members),
                self.member_expr("X.VALUE", &members),
                self.below(30),
            ),
            2 => {
                let k = 2 + self.below(6);
                format!(
                    "SELECT H.{id} % {k} AS G, MIN_BY(X.VALUE:PT, {}) AS LO, \
                     MAX_BY(X.INDEX, X.VALUE:PT) AS HI, COUNT(*) AS N \
                     FROM {t} H, LATERAL FLATTEN(INPUT => H.{arr}) X GROUP BY H.{id} % {k}",
                    self.member_expr("X.VALUE", &members),
                )
            }
            3 => format!(
                "SELECT MIN_BY({id}, {f}) AS A, MAX_BY({}, {id}) AS B, COUNT(*) AS N FROM {t} WHERE {}",
                self.row_scalar(s),
                self.row_pred(s),
                f = self.pick(&s.float_paths),
            ),
            4 => format!(
                "SELECT {id}, {}, {} FROM {t} WHERE {} ORDER BY {id}",
                self.row_scalar(s),
                self.row_scalar(s),
                self.row_pred(s),
            ),
            // Row ids stamped by two projections and joined back, as both
            // nested-query strategies of the translator do.
            _ => format!(
                "SELECT L.RID, L.{id}, R.V FROM (SELECT SEQ8() AS RID, {id} FROM {t}) L \
                 JOIN (SELECT SEQ8() AS RID, {} AS V FROM {t}) R ON L.RID = R.RID \
                 WHERE (L.{id} % {}) = 0",
                self.row_scalar(s),
                2 + self.below(3),
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
}
