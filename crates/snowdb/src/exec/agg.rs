//! Aggregate accumulators for the hash aggregation operator.

use std::collections::HashSet;

use crate::column::ColumnVec;
use crate::error::{Result, SnowError};
use crate::plan::AggKind;
use crate::variant::{cmp_variants, Key, Variant};

/// True when [`Accumulator::update_column`] reproduces the serial row fold
/// exactly for this column representation — same values *and* same errors.
///
/// Kinds that can raise a type error mid-fold (`SUM`, `AVG`, `BOOLAND_AGG`,
/// `BOOLOR_AGG`) are only eligible when the column's type guarantees the
/// serial fold cannot error, so column-major agg evaluation never reorders an
/// error against another aggregate's row-major fold. Two-argument aggregates
/// (`MIN_BY`/`MAX_BY`) always take the row path.
pub fn column_eligible(kind: AggKind, col: &ColumnVec) -> bool {
    // Run-length columns fold like their per-run value type; the fold
    // decodes first (see `update_column`) so order-sensitive float sums stay
    // bit-identical to the serial row order.
    if let ColumnVec::Runs { values, .. } = col {
        return column_eligible(kind, values);
    }
    match kind {
        AggKind::CountStar
        | AggKind::Count
        | AggKind::CountDistinct
        | AggKind::Min
        | AggKind::Max
        | AggKind::ArrayAgg
        | AggKind::AnyValue => true,
        AggKind::Sum | AggKind::Avg => matches!(
            col,
            ColumnVec::Null(_) | ColumnVec::Int { .. } | ColumnVec::Float { .. }
        ),
        AggKind::BoolAnd | AggKind::BoolOr => {
            matches!(col, ColumnVec::Null(_) | ColumnVec::Bool { .. })
        }
        AggKind::MinBy | AggKind::MaxBy => false,
    }
}

/// Non-null count of a column without materializing any [`Variant`].
fn count_valid(col: &ColumnVec) -> i64 {
    match col {
        ColumnVec::Null(_) => 0,
        ColumnVec::Int { valid, .. }
        | ColumnVec::Float { valid, .. }
        | ColumnVec::Bool { valid, .. } => valid.count_valid() as i64,
        ColumnVec::Str(v) => v.iter().filter(|s| s.is_some()).count() as i64,
        // Encoded columns count without materializing: codes against the
        // NULL sentinel, runs by their lengths.
        ColumnVec::DictStr { codes, .. } => {
            codes.iter().filter(|&&c| c != crate::column::NULL_CODE).count() as i64
        }
        ColumnVec::Runs { ends, values } => {
            let mut n = 0i64;
            let mut start = 0u32;
            for (r, &end) in ends.iter().enumerate() {
                if !values.is_null_at(r) {
                    n += i64::from(end - start);
                }
                start = end;
            }
            n
        }
        ColumnVec::Objects(r) => r.valid.count_valid() as i64,
        ColumnVec::List(l) => l.valid.count_valid() as i64,
        ColumnVec::Var(v) => v.iter().filter(|x| !x.is_null()).count() as i64,
    }
}

/// One running aggregate state.
#[derive(Debug)]
pub enum Accumulator {
    CountStar(i64),
    Count(i64),
    CountDistinct(HashSet<Key>),
    Sum { acc: Option<Variant> },
    Min(Option<Variant>),
    Max(Option<Variant>),
    Avg { sum: f64, n: i64 },
    ArrayAgg(Vec<Variant>),
    AnyValue(Option<Variant>),
    BoolAnd(Option<bool>),
    BoolOr(Option<bool>),
    MinBy { key: Option<Variant>, value: Variant },
    MaxBy { key: Option<Variant>, value: Variant },
}

impl Accumulator {
    /// Fresh accumulator for an aggregate kind.
    pub fn new(kind: AggKind) -> Accumulator {
        match kind {
            AggKind::CountStar => Accumulator::CountStar(0),
            AggKind::Count => Accumulator::Count(0),
            AggKind::CountDistinct => Accumulator::CountDistinct(HashSet::new()),
            AggKind::Sum => Accumulator::Sum { acc: None },
            AggKind::Min => Accumulator::Min(None),
            AggKind::Max => Accumulator::Max(None),
            AggKind::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            AggKind::ArrayAgg => Accumulator::ArrayAgg(Vec::new()),
            AggKind::AnyValue => Accumulator::AnyValue(None),
            AggKind::BoolAnd => Accumulator::BoolAnd(None),
            AggKind::BoolOr => Accumulator::BoolOr(None),
            AggKind::MinBy => Accumulator::MinBy { key: None, value: Variant::Null },
            AggKind::MaxBy => Accumulator::MaxBy { key: None, value: Variant::Null },
        }
    }

    /// Feeds one input value (`Variant::Null` for `COUNT(*)`'s placeholder).
    pub fn update(&mut self, v: &Variant) -> Result<()> {
        self.update2(v, &Variant::Null)
    }

    /// Feeds row `r` of the argument column `v` (`None`: `COUNT(*)`) and of
    /// the key column `k` of `MIN_BY`/`MAX_BY`, reading a cell only when the
    /// state may keep it: `COUNT(*)` and a filled `ANY_VALUE` read nothing,
    /// `COUNT` and `COUNT(DISTINCT)` test for NULL and key the row unboxed,
    /// and a NULL argument or key — which every other state skips — is never
    /// built. The updates and errors are those of [`Accumulator::update2`]
    /// on the cells.
    pub fn update_at(
        &mut self,
        v: Option<&ColumnVec>,
        k: Option<&ColumnVec>,
        r: usize,
    ) -> Result<()> {
        let null_at = |c: Option<&ColumnVec>| c.is_none_or(|c| c.is_null_at(r));
        let cell = |c: Option<&ColumnVec>| c.map_or(Variant::Null, |c| c.get(r));
        match self {
            Accumulator::CountStar(n) => *n += 1,
            Accumulator::AnyValue(Some(_)) => {}
            Accumulator::AnyValue(None) => return self.update(&cell(v)),
            Accumulator::MinBy { .. } | Accumulator::MaxBy { .. } => {
                if !null_at(k) {
                    return self.update2(&cell(v), &cell(k));
                }
            }
            _ if null_at(v) => {}
            Accumulator::Count(n) => *n += 1,
            Accumulator::CountDistinct(set) => {
                set.insert(v.expect("a non-NULL argument").key_at(r));
            }
            _ => return self.update(&cell(v)),
        }
        Ok(())
    }

    /// Feeds one input value plus the key for two-argument aggregates
    /// (`MIN_BY`/`MAX_BY`); NULL keys are skipped, and ties keep the first row,
    /// matching the JSONiq min+filter+first idiom.
    pub fn update2(&mut self, v: &Variant, key: &Variant) -> Result<()> {
        match self {
            Accumulator::CountStar(n) => *n += 1,
            Accumulator::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Accumulator::CountDistinct(set) => {
                if !v.is_null() {
                    set.insert(Key::of(v));
                }
            }
            Accumulator::Sum { acc } => {
                if !v.is_null() {
                    let next = match acc.take() {
                        None => v.clone(),
                        Some(cur) => add(&cur, v)?,
                    };
                    *acc = Some(next);
                }
            }
            Accumulator::Min(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| cmp_variants(v, cur) == std::cmp::Ordering::Less)
                {
                    *m = Some(v.clone());
                }
            }
            Accumulator::Max(m) => {
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| cmp_variants(v, cur) == std::cmp::Ordering::Greater)
                {
                    *m = Some(v.clone());
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                } else if !v.is_null() {
                    return Err(SnowError::Exec(format!(
                        "AVG expects numbers, got {}",
                        v.type_name()
                    )));
                }
            }
            // ARRAY_AGG skips NULLs — the paper's flag-column translation for
            // nested queries depends on exactly this behaviour (§IV-C1).
            Accumulator::ArrayAgg(items) => {
                if !v.is_null() {
                    items.push(v.clone());
                }
            }
            Accumulator::AnyValue(slot) => {
                if slot.is_none() {
                    *slot = Some(v.clone());
                }
            }
            Accumulator::BoolAnd(b) => {
                if let Some(x) = v.as_bool() {
                    *b = Some(b.unwrap_or(true) && x);
                } else if !v.is_null() {
                    return Err(SnowError::Exec("BOOLAND_AGG expects booleans".into()));
                }
            }
            Accumulator::BoolOr(b) => {
                if let Some(x) = v.as_bool() {
                    *b = Some(b.unwrap_or(false) || x);
                } else if !v.is_null() {
                    return Err(SnowError::Exec("BOOLOR_AGG expects booleans".into()));
                }
            }
            Accumulator::MinBy { key: cur, value } => {
                if !key.is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| cmp_variants(key, c) == std::cmp::Ordering::Less)
                {
                    *cur = Some(key.clone());
                    *value = v.clone();
                }
            }
            Accumulator::MaxBy { key: cur, value } => {
                if !key.is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| cmp_variants(key, c) == std::cmp::Ordering::Greater)
                {
                    *cur = Some(key.clone());
                    *value = v.clone();
                }
            }
        }
        Ok(())
    }

    /// Folds a whole column into the state, replicating the serial
    /// row-at-a-time fold exactly (same values, same errors, same ties).
    /// Callers must check [`column_eligible`] for this accumulator's kind
    /// first; an ineligible column is an internal error.
    pub fn update_column(&mut self, col: &ColumnVec) -> Result<()> {
        // Run-length columns decode before folding: SUM/AVG float folds are
        // order-sensitive, and the decoded fold replays the serial row order
        // exactly. (Dictionary columns fold in place — every arm below goes
        // through the generic accessors.)
        if let ColumnVec::Runs { .. } = col {
            return self.update_column(&col.decoded());
        }
        match self {
            Accumulator::CountStar(n) => *n += col.len() as i64,
            Accumulator::Count(n) => *n += count_valid(col),
            Accumulator::CountDistinct(set) => {
                for r in 0..col.len() {
                    if !col.is_null_at(r) {
                        set.insert(col.key_at(r));
                    }
                }
            }
            Accumulator::Sum { acc } => return sum_column(acc, col),
            Accumulator::Avg { sum, n } => match col {
                ColumnVec::Null(_) => {}
                ColumnVec::Int { vals, valid } => {
                    for (i, &x) in vals.iter().enumerate() {
                        if valid.get(i) {
                            *sum += x as f64;
                            *n += 1;
                        }
                    }
                }
                ColumnVec::Float { vals, valid } => {
                    for (i, &x) in vals.iter().enumerate() {
                        if valid.get(i) {
                            *sum += x;
                            *n += 1;
                        }
                    }
                }
                _ => {
                    return Err(SnowError::Exec(
                        "internal: AVG column fold on non-numeric column".into(),
                    ))
                }
            },
            Accumulator::Min(m) => {
                for r in 0..col.len() {
                    let v = col.get(r);
                    if !v.is_null()
                        && m.as_ref()
                            .is_none_or(|cur| cmp_variants(&v, cur) == std::cmp::Ordering::Less)
                    {
                        *m = Some(v);
                    }
                }
            }
            Accumulator::Max(m) => {
                for r in 0..col.len() {
                    let v = col.get(r);
                    if !v.is_null()
                        && m.as_ref().is_none_or(|cur| {
                            cmp_variants(&v, cur) == std::cmp::Ordering::Greater
                        })
                    {
                        *m = Some(v);
                    }
                }
            }
            Accumulator::ArrayAgg(items) => {
                for r in 0..col.len() {
                    if !col.is_null_at(r) {
                        items.push(col.get(r));
                    }
                }
            }
            // The serial fold stores the first value even when it is NULL.
            Accumulator::AnyValue(slot) => {
                if slot.is_none() && !col.is_empty() {
                    *slot = Some(col.get(0));
                }
            }
            Accumulator::BoolAnd(b) => match col {
                ColumnVec::Null(_) => {}
                ColumnVec::Bool { vals, valid } => {
                    for (i, &x) in vals.iter().enumerate() {
                        if valid.get(i) {
                            *b = Some(b.unwrap_or(true) && x);
                        }
                    }
                }
                _ => {
                    return Err(SnowError::Exec(
                        "internal: BOOLAND_AGG column fold on non-bool column".into(),
                    ))
                }
            },
            Accumulator::BoolOr(b) => match col {
                ColumnVec::Null(_) => {}
                ColumnVec::Bool { vals, valid } => {
                    for (i, &x) in vals.iter().enumerate() {
                        if valid.get(i) {
                            *b = Some(b.unwrap_or(false) || x);
                        }
                    }
                }
                _ => {
                    return Err(SnowError::Exec(
                        "internal: BOOLOR_AGG column fold on non-bool column".into(),
                    ))
                }
            },
            Accumulator::MinBy { .. } | Accumulator::MaxBy { .. } => {
                return Err(SnowError::Exec(
                    "internal: column fold on a two-argument aggregate".into(),
                ))
            }
        }
        Ok(())
    }

    /// Folds another partial state of the same kind into this one.
    ///
    /// `other` must come from a *later* slice of the input than `self`:
    /// order-sensitive aggregates (`ARRAY_AGG` concatenation, `ANY_VALUE`
    /// first-wins, `MIN`/`MAX`/`MIN_BY`/`MAX_BY` first-among-ties) reproduce
    /// the serial row-order result only when partials merge in input order.
    /// `SUM`/`AVG` merges are mathematically correct but not guaranteed
    /// bit-identical to a serial fold for floats (addition is not
    /// associative); the parallel executor folds those kinds serially instead.
    pub fn merge(&mut self, other: Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::CountStar(n), Accumulator::CountStar(m))
            | (Accumulator::Count(n), Accumulator::Count(m)) => *n += m,
            (Accumulator::CountDistinct(set), Accumulator::CountDistinct(o)) => {
                set.extend(o);
            }
            (Accumulator::Sum { acc }, Accumulator::Sum { acc: o }) => {
                if let Some(v) = o {
                    let next = match acc.take() {
                        None => v,
                        Some(cur) => add(&cur, &v)?,
                    };
                    *acc = Some(next);
                }
            }
            (Accumulator::Min(m), Accumulator::Min(o)) => {
                if let Some(v) = o {
                    // Strict comparison keeps the earlier slice's value on
                    // ties, matching the serial first-among-equals choice.
                    if m.as_ref()
                        .is_none_or(|cur| cmp_variants(&v, cur) == std::cmp::Ordering::Less)
                    {
                        *m = Some(v);
                    }
                }
            }
            (Accumulator::Max(m), Accumulator::Max(o)) => {
                if let Some(v) = o {
                    if m.as_ref()
                        .is_none_or(|cur| cmp_variants(&v, cur) == std::cmp::Ordering::Greater)
                    {
                        *m = Some(v);
                    }
                }
            }
            (Accumulator::Avg { sum, n }, Accumulator::Avg { sum: s, n: m }) => {
                *sum += s;
                *n += m;
            }
            (Accumulator::ArrayAgg(items), Accumulator::ArrayAgg(o)) => {
                items.extend(o);
            }
            (Accumulator::AnyValue(slot), Accumulator::AnyValue(o)) => {
                if slot.is_none() {
                    *slot = o;
                }
            }
            (Accumulator::BoolAnd(b), Accumulator::BoolAnd(o)) => {
                if let Some(x) = o {
                    *b = Some(b.unwrap_or(true) && x);
                }
            }
            (Accumulator::BoolOr(b), Accumulator::BoolOr(o)) => {
                if let Some(x) = o {
                    *b = Some(b.unwrap_or(false) || x);
                }
            }
            (
                Accumulator::MinBy { key: cur, value },
                Accumulator::MinBy { key: Some(k), value: v },
            ) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| cmp_variants(&k, c) == std::cmp::Ordering::Less)
                {
                    *cur = Some(k);
                    *value = v;
                }
            }
            (
                Accumulator::MaxBy { key: cur, value },
                Accumulator::MaxBy { key: Some(k), value: v },
            ) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| cmp_variants(&k, c) == std::cmp::Ordering::Greater)
                {
                    *cur = Some(k);
                    *value = v;
                }
            }
            (Accumulator::MinBy { .. }, Accumulator::MinBy { key: None, .. })
            | (Accumulator::MaxBy { .. }, Accumulator::MaxBy { key: None, .. }) => {}
            _ => {
                return Err(SnowError::Exec(
                    "internal: merging mismatched accumulator kinds".into(),
                ))
            }
        }
        Ok(())
    }

    /// Final value of the aggregate.
    pub fn finish(self) -> Variant {
        match self {
            Accumulator::CountStar(n) | Accumulator::Count(n) => Variant::Int(n),
            Accumulator::CountDistinct(set) => Variant::Int(set.len() as i64),
            Accumulator::Sum { acc } => acc.unwrap_or(Variant::Null),
            Accumulator::Min(m) | Accumulator::Max(m) => m.unwrap_or(Variant::Null),
            Accumulator::Avg { sum, n } => {
                if n == 0 {
                    Variant::Null
                } else {
                    Variant::Float(sum / n as f64)
                }
            }
            Accumulator::ArrayAgg(items) => Variant::array(items),
            Accumulator::AnyValue(slot) => slot.unwrap_or(Variant::Null),
            Accumulator::BoolAnd(b) | Accumulator::BoolOr(b) => {
                b.map_or(Variant::Null, Variant::Bool)
            }
            Accumulator::MinBy { key, value } | Accumulator::MaxBy { key, value } => {
                if key.is_some() {
                    value
                } else {
                    Variant::Null
                }
            }
        }
    }
}

/// Column-major `SUM` fold that is element-for-element identical to the
/// serial `update` loop: first non-null stored as-is, `Int` additions
/// checked-then-promoted to `Float` on overflow, mixed pairs coerced through
/// the same `as f64` path as [`add`]. A non-numeric accumulator (possible
/// when an earlier batch fell back row-major and stored a non-numeric first
/// value) raises exactly the serial type error via [`add`].
fn sum_column(acc: &mut Option<Variant>, col: &ColumnVec) -> Result<()> {
    match col {
        ColumnVec::Null(_) => Ok(()),
        ColumnVec::Int { vals, valid } => {
            for (i, &x) in vals.iter().enumerate() {
                if !valid.get(i) {
                    continue;
                }
                let next = match acc.take() {
                    None => Variant::Int(x),
                    Some(Variant::Int(cur)) => match cur.checked_add(x) {
                        Some(v) => Variant::Int(v),
                        None => Variant::Float(cur as f64 + x as f64),
                    },
                    Some(Variant::Float(f)) => Variant::Float(f + x as f64),
                    Some(cur) => add(&cur, &Variant::Int(x))?,
                };
                *acc = Some(next);
            }
            Ok(())
        }
        ColumnVec::Float { vals, valid } => {
            for (i, &x) in vals.iter().enumerate() {
                if !valid.get(i) {
                    continue;
                }
                let next = match acc.take() {
                    None => Variant::Float(x),
                    Some(Variant::Int(cur)) => Variant::Float(cur as f64 + x),
                    Some(Variant::Float(f)) => Variant::Float(f + x),
                    Some(cur) => add(&cur, &Variant::Float(x))?,
                };
                *acc = Some(next);
            }
            Ok(())
        }
        _ => Err(SnowError::Exec(
            "internal: SUM column fold on non-numeric column".into(),
        )),
    }
}

fn add(a: &Variant, b: &Variant) -> Result<Variant> {
    use crate::variant::NumericPair;
    match NumericPair::coerce(a, b) {
        Some(NumericPair::Int(x, y)) => Ok(match x.checked_add(y) {
            Some(v) => Variant::Int(v),
            None => Variant::Float(x as f64 + y as f64),
        }),
        Some(NumericPair::Float(x, y)) => Ok(Variant::Float(x + y)),
        None => Err(SnowError::Exec(format!(
            "SUM expects numbers, got {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: AggKind, inputs: &[Variant]) -> Variant {
        let mut a = Accumulator::new(kind);
        for v in inputs {
            a.update(v).unwrap();
        }
        a.finish()
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let vals = [Variant::Int(1), Variant::Null, Variant::Int(2)];
        assert_eq!(run(AggKind::Count, &vals), Variant::Int(2));
        assert_eq!(run(AggKind::CountStar, &vals), Variant::Int(3));
    }

    #[test]
    fn count_distinct_unifies_numeric_types() {
        let vals = [Variant::Int(1), Variant::Float(1.0), Variant::Int(2), Variant::Null];
        assert_eq!(run(AggKind::CountDistinct, &vals), Variant::Int(2));
    }

    #[test]
    fn sum_over_empty_and_nulls() {
        assert_eq!(run(AggKind::Sum, &[]), Variant::Null);
        assert_eq!(run(AggKind::Sum, &[Variant::Null]), Variant::Null);
        assert_eq!(
            run(AggKind::Sum, &[Variant::Int(1), Variant::Float(2.5)]),
            Variant::Float(3.5)
        );
    }

    #[test]
    fn min_max_ignore_nulls() {
        let vals = [Variant::Null, Variant::Int(5), Variant::Int(3)];
        assert_eq!(run(AggKind::Min, &vals), Variant::Int(3));
        assert_eq!(run(AggKind::Max, &vals), Variant::Int(5));
    }

    #[test]
    fn array_agg_skips_nulls_and_keeps_order() {
        let vals = [Variant::Int(2), Variant::Null, Variant::Int(1)];
        assert_eq!(
            run(AggKind::ArrayAgg, &vals),
            Variant::array(vec![Variant::Int(2), Variant::Int(1)])
        );
        assert_eq!(run(AggKind::ArrayAgg, &[Variant::Null]), Variant::array(vec![]));
    }

    #[test]
    fn bool_aggregates() {
        assert_eq!(
            run(AggKind::BoolAnd, &[Variant::Bool(true), Variant::Bool(false)]),
            Variant::Bool(false)
        );
        assert_eq!(
            run(AggKind::BoolOr, &[Variant::Bool(false), Variant::Bool(true)]),
            Variant::Bool(true)
        );
        assert_eq!(run(AggKind::BoolAnd, &[Variant::Null]), Variant::Null);
    }

    #[test]
    fn avg_mixed_numeric() {
        assert_eq!(
            run(AggKind::Avg, &[Variant::Int(1), Variant::Float(2.0), Variant::Null]),
            Variant::Float(1.5)
        );
        assert_eq!(run(AggKind::Avg, &[]), Variant::Null);
    }

    #[test]
    fn merge_in_order_matches_serial_fold() {
        let vals = [
            Variant::Int(4),
            Variant::Null,
            Variant::Int(4),
            Variant::Int(1),
            Variant::Int(9),
        ];
        for kind in [
            AggKind::CountStar,
            AggKind::Count,
            AggKind::CountDistinct,
            AggKind::Min,
            AggKind::Max,
            AggKind::ArrayAgg,
            AggKind::AnyValue,
        ] {
            let serial = run(kind, &vals);
            for split in 0..=vals.len() {
                let mut a = Accumulator::new(kind);
                for v in &vals[..split] {
                    a.update(v).unwrap();
                }
                let mut b = Accumulator::new(kind);
                for v in &vals[split..] {
                    b.update(v).unwrap();
                }
                a.merge(b).unwrap();
                assert_eq!(a.finish(), serial, "kind {kind:?} split {split}");
            }
        }
    }

    #[test]
    fn merge_min_by_keeps_earlier_slice_on_ties() {
        let mut a = Accumulator::new(AggKind::MinBy);
        a.update2(&Variant::from("first"), &Variant::Int(1)).unwrap();
        let mut b = Accumulator::new(AggKind::MinBy);
        b.update2(&Variant::from("second"), &Variant::Int(1)).unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.finish(), Variant::from("first"));
    }

    #[test]
    fn column_fold_matches_row_fold() {
        let batches: Vec<Vec<Variant>> = vec![
            vec![Variant::Int(4), Variant::Null, Variant::Int(1)],
            vec![Variant::Float(2.5), Variant::Float(f64::NAN), Variant::Null],
            vec![Variant::Int(i64::MAX), Variant::Int(i64::MAX)],
            vec![Variant::Bool(true), Variant::Null, Variant::Bool(false)],
            vec![Variant::Null, Variant::Null],
        ];
        for kind in [
            AggKind::CountStar,
            AggKind::Count,
            AggKind::CountDistinct,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
            AggKind::ArrayAgg,
            AggKind::AnyValue,
            AggKind::BoolAnd,
            AggKind::BoolOr,
        ] {
            for batch in &batches {
                let col = ColumnVec::from_variants(batch.clone());
                if !column_eligible(kind, &col) {
                    continue;
                }
                let mut serial = Accumulator::new(kind);
                let mut serial_err = None;
                for v in batch {
                    if let Err(e) = serial.update(v) {
                        serial_err = Some(e);
                        break;
                    }
                }
                let mut columnar = Accumulator::new(kind);
                let col_res = columnar.update_column(&col);
                match (serial_err, col_res) {
                    (None, Ok(())) => {
                        assert_eq!(
                            columnar.finish(),
                            serial.finish(),
                            "kind {kind:?} batch {batch:?}"
                        );
                    }
                    (Some(_), Err(_)) => {}
                    (s, c) => panic!("kind {kind:?}: serial {s:?} vs column {c:?}"),
                }
            }
        }
    }

    #[test]
    fn sum_column_reproduces_serial_error_on_poisoned_accumulator() {
        // A row-major batch can store a non-numeric first value unchecked;
        // the column fold over a later numeric batch must raise the same
        // type error the serial fold would.
        let mut serial = Accumulator::new(AggKind::Sum);
        serial.update(&Variant::from("oops")).unwrap();
        let e1 = serial.update(&Variant::Int(1)).unwrap_err();
        let mut columnar = Accumulator::new(AggKind::Sum);
        columnar.update(&Variant::from("oops")).unwrap();
        let e2 = columnar
            .update_column(&ColumnVec::from_variants(vec![Variant::Int(1)]))
            .unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());
    }

    #[test]
    fn any_value_takes_first() {
        assert_eq!(
            run(AggKind::AnyValue, &[Variant::Int(7), Variant::Int(9)]),
            Variant::Int(7)
        );
    }
}
