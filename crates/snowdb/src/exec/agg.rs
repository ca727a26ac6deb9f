//! Aggregate states: typed per-group columns folded a column at a time
//! ([`GroupStates`]), and the per-cell [`Accumulator`] that folds what no
//! typed state takes.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;

use crate::column::{Bitmap, ColumnVec, RecordLists, Records, NULL_CODE};
use crate::error::{Result, SnowError};
use crate::plan::AggKind;
use crate::variant::{cmp_f64, cmp_variants, Key, Variant};

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

// ---------------------------------------------------------------------------
// Typed states: one aggregate's state of every group, folded a column at a time
// ---------------------------------------------------------------------------

/// Where the rows of a batch fold: `slots` names the group of each row, or
/// is `None` when every row folds into group 0 (a global aggregation);
/// `fresh` lists the first row of each group the batch opened, in order.
#[derive(Clone, Copy)]
pub struct Fold<'s> {
    pub rows: usize,
    pub slots: Option<&'s [u32]>,
    pub fresh: &'s [usize],
}

impl Fold<'_> {
    /// Calls `f(group, row)` for every row that `valid` marks.
    #[inline]
    fn each_valid(&self, valid: &Bitmap, mut f: impl FnMut(usize, usize)) {
        let all = valid.all_valid();
        match self.slots {
            None => (0..self.rows).filter(|&r| all || valid.get(r)).for_each(|r| f(0, r)),
            Some(slots) => {
                for (r, &g) in slots[..self.rows].iter().enumerate() {
                    if all || valid.get(r) {
                        f(g as usize, r);
                    }
                }
            }
        }
    }

    /// Calls `f(group, value)` for every valid value of a typed column.
    #[inline]
    fn each_value<T: Copy>(&self, vals: &[T], valid: &Bitmap, mut f: impl FnMut(usize, T)) {
        let vals = &vals[..self.rows];
        if valid.all_valid() {
            match self.slots {
                None => vals.iter().for_each(|&x| f(0, x)),
                Some(slots) => vals.iter().zip(slots).for_each(|(&x, &g)| f(g as usize, x)),
            }
        } else {
            self.each_valid(valid, |g, r| f(g, vals[r]));
        }
    }
}

/// The first row of each group a batch opened, in order, given the slot of
/// each row: groups from `old` up are new, and a new group's first row is
/// the first whose slot is the next one not seen yet (groups open in
/// first-seen order).
pub fn fresh_rows(slots: &[u32], old: usize) -> Vec<usize> {
    let mut next = old;
    let mut fresh = Vec::new();
    for (r, &g) in slots.iter().enumerate() {
        if g as usize == next {
            fresh.push(r);
            next += 1;
        }
    }
    fresh
}

/// The running `SUM` of a group (`Null` before its first value): the first
/// value as it came, then `Int` additions checked and promoted to `Float` on
/// overflow, and mixed pairs added as `f64` — the steps of [`add`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    Null,
    Int(i64),
    Float(f64),
}

impl Num {
    #[inline]
    fn add_int(self, x: i64) -> Num {
        match self {
            Num::Null => Num::Int(x),
            Num::Int(c) => c.checked_add(x).map_or(Num::Float(c as f64 + x as f64), Num::Int),
            Num::Float(f) => Num::Float(f + x as f64),
        }
    }

    #[inline]
    fn add_float(self, x: f64) -> Num {
        match self {
            Num::Null => Num::Float(x),
            Num::Int(c) => Num::Float(c as f64 + x),
            Num::Float(f) => Num::Float(f + x),
        }
    }

    fn add(self, other: Num) -> Num {
        match other {
            Num::Null => self,
            Num::Int(x) => self.add_int(x),
            Num::Float(x) => self.add_float(x),
        }
    }

    fn variant(self) -> Option<Variant> {
        match self {
            Num::Null => None,
            Num::Int(i) => Some(Variant::Int(i)),
            Num::Float(f) => Some(Variant::Float(f)),
        }
    }
}

/// The running `MIN` or `MAX` of each group, typed by the first column that
/// brought a value; `None` while a group has none.
#[derive(Debug)]
pub enum Extremes {
    /// No value yet in any group: the number of groups.
    Unset(usize),
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Bool(Vec<Option<bool>>),
}

/// The state of one aggregate in every group, indexed by group, for the
/// kinds whose fold a typed column can drive (DESIGN.md, "Grouped
/// aggregation"). Each is updated from a batch's [`Fold`] and its argument
/// column a column at a time, and reproduces [`Accumulator::update2`] in
/// serial row order: the same values, the same ties, and — as a state only
/// takes a column on which that fold cannot raise ([`GroupStates::takes`]) —
/// no error.
#[derive(Debug)]
pub enum GroupStates {
    /// `COUNT(*)` (`star`) and `COUNT`, over any representation.
    Count { star: bool, n: Vec<i64> },
    /// `SUM` over `Int` and `Float` columns.
    Sum(Vec<Num>),
    /// `AVG` over `Int` and `Float` columns.
    Avg { sum: Vec<f64>, n: Vec<i64> },
    /// `MIN` (`max` false) or `MAX` over `Int`, `Float` or `Bool` columns,
    /// under [`cmp_variants`]: NaN above every number, `-0.0` equal to
    /// `0.0`, the first of equal values kept.
    Extreme { max: bool, vals: Extremes },
    /// `BOOLAND_AGG` (`and`) or `BOOLOR_AGG` over `Bool` columns.
    Bool { and: bool, vals: Vec<Option<bool>> },
    /// `ANY_VALUE`: the cell of each group's first row, gathered in the
    /// argument's representation. NULL is a value like any other here.
    First(ColumnVec),
    /// `ARRAY_AGG` of shredded records: the non-NULL records folded, in row
    /// order (`None` until a batch brings one), `of` the group of each, and
    /// the number of groups. The output orders them by group, keeping row
    /// order within one — in run mode they already are — as the ranges of
    /// a [`RecordLists`] column.
    Items {
        items: Option<Records>,
        of: Vec<u32>,
        groups: usize,
    },
}

/// The column a kernel reads: run-length columns are decoded first, so
/// order-sensitive float sums replay the serial row order exactly.
fn flat(col: &ColumnVec) -> Cow<'_, ColumnVec> {
    match col {
        ColumnVec::Runs { .. } => Cow::Owned(col.decoded()),
        col => Cow::Borrowed(col),
    }
}

/// The representation a column's values have, looking through runs.
fn values_of(col: &ColumnVec) -> &ColumnVec {
    match col {
        ColumnVec::Runs { values, .. } => values,
        col => col,
    }
}

impl GroupStates {
    /// The typed state of an aggregate of `kind`, or `None` for the kinds
    /// only an [`Accumulator`] folds: `COUNT(DISTINCT)`, `MIN_BY` and
    /// `MAX_BY`.
    pub fn new(kind: AggKind) -> Option<GroupStates> {
        Some(match kind {
            AggKind::CountStar | AggKind::Count => GroupStates::Count {
                star: kind == AggKind::CountStar,
                n: Vec::new(),
            },
            AggKind::Sum => GroupStates::Sum(Vec::new()),
            AggKind::Avg => GroupStates::Avg { sum: Vec::new(), n: Vec::new() },
            AggKind::Min | AggKind::Max => GroupStates::Extreme {
                max: kind == AggKind::Max,
                vals: Extremes::Unset(0),
            },
            AggKind::BoolAnd | AggKind::BoolOr => GroupStates::Bool {
                and: kind == AggKind::BoolAnd,
                vals: Vec::new(),
            },
            AggKind::AnyValue => GroupStates::First(ColumnVec::new()),
            AggKind::ArrayAgg => GroupStates::Items {
                items: None,
                of: Vec::new(),
                groups: 0,
            },
            AggKind::CountDistinct | AggKind::MinBy | AggKind::MaxBy => return None,
        })
    }

    /// Whether the state folds `col` (`None`: `COUNT(*)`'s) typed: a count
    /// or a first cell any column, a sum or an average a numeric one, a
    /// boolean aggregate a `Bool` one, an extreme a column of the type its
    /// values have, an array records of the shape it holds — all NULL
    /// columns always. Every column refused here is one on which the serial
    /// fold may raise, one that would mix types in an extreme's state, or
    /// one whose cells an array would have to box.
    pub fn takes(&self, col: Option<&ColumnVec>) -> bool {
        let Some(col) = col.map(values_of) else {
            return matches!(self, GroupStates::Count { .. });
        };
        match (self, col) {
            (GroupStates::Items { items, .. }, ColumnVec::Objects(r)) => {
                items.as_ref().is_none_or(|i| i.same_shape(r))
            }
            (GroupStates::Items { .. }, c) => matches!(c, ColumnVec::Null(_)),
            (GroupStates::Count { .. } | GroupStates::First(_), _) | (_, ColumnVec::Null(_)) => {
                true
            }
            (GroupStates::Sum(_) | GroupStates::Avg { .. }, c) => {
                matches!(c, ColumnVec::Int { .. } | ColumnVec::Float { .. })
            }
            (GroupStates::Bool { .. }, c) => matches!(c, ColumnVec::Bool { .. }),
            (GroupStates::Extreme { vals, .. }, c) => matches!(
                (vals, c),
                (Extremes::Unset(_) | Extremes::Int(_), ColumnVec::Int { .. })
                    | (Extremes::Unset(_) | Extremes::Float(_), ColumnVec::Float { .. })
                    | (Extremes::Unset(_) | Extremes::Bool(_), ColumnVec::Bool { .. })
            ),
        }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        match self {
            GroupStates::Count { n, .. } | GroupStates::Avg { n, .. } => n.len(),
            GroupStates::Sum(v) => v.len(),
            GroupStates::Extreme { vals, .. } => match vals {
                Extremes::Unset(n) => *n,
                Extremes::Int(v) => v.len(),
                Extremes::Float(v) => v.len(),
                Extremes::Bool(v) => v.len(),
            },
            GroupStates::Bool { vals, .. } => vals.len(),
            GroupStates::First(col) => col.len(),
            GroupStates::Items { groups, .. } => *groups,
        }
    }

    /// Opens groups up to `groups` with no value folded: a count of 0, a
    /// NULL elsewhere — and a NULL first cell, which is what `ANY_VALUE`
    /// over no rows returns.
    pub fn resize(&mut self, groups: usize) {
        match self {
            GroupStates::Count { n, .. } => n.resize(groups, 0),
            GroupStates::Sum(v) => v.resize(groups, Num::Null),
            GroupStates::Avg { sum, n } => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            GroupStates::Extreme { vals, .. } => match vals {
                Extremes::Unset(n) => *n = groups,
                Extremes::Int(v) => v.resize(groups, None),
                Extremes::Float(v) => v.resize(groups, None),
                Extremes::Bool(v) => v.resize(groups, None),
            },
            GroupStates::Bool { vals, .. } => vals.resize(groups, None),
            GroupStates::First(col) => col.push_nulls(groups - col.len()),
            GroupStates::Items { groups: n, .. } => *n = groups,
        }
    }

    /// Folds a batch's argument column `col` (`None` for `COUNT(*)`) into
    /// `groups` groups, returning the cells of an encoded column a first
    /// cell had to box to meet the cells before it. `col` must be one the
    /// state [`takes`](GroupStates::takes).
    pub fn fold(&mut self, groups: usize, b: &Fold<'_>, col: Option<&ColumnVec>) -> u64 {
        if let GroupStates::First(first) = self {
            let col = col.expect("ANY_VALUE has an argument");
            return append_cells(first, col.gather(b.fresh));
        }
        self.resize(groups);
        let Some(col) = col else {
            let GroupStates::Count { n, .. } = self else {
                unreachable!("only COUNT(*) has no argument");
            };
            match b.slots {
                None => n[0] += b.rows as i64,
                Some(slots) => slots[..b.rows].iter().for_each(|&g| n[g as usize] += 1),
            }
            return 0;
        };
        let col = flat(col);
        match (self, &*col) {
            (_, ColumnVec::Null(_)) => {}
            (GroupStates::Count { n, .. }, col) => count_valid(n, b, col),
            (GroupStates::Sum(s), ColumnVec::Int { vals, valid }) => {
                b.each_value(vals, valid, |g, x| s[g] = s[g].add_int(x))
            }
            (GroupStates::Sum(s), ColumnVec::Float { vals, valid }) => {
                b.each_value(vals, valid, |g, x| s[g] = s[g].add_float(x))
            }
            (GroupStates::Avg { sum, n }, ColumnVec::Int { vals, valid }) => {
                b.each_value(vals, valid, |g, x| {
                    sum[g] += x as f64;
                    n[g] += 1;
                })
            }
            (GroupStates::Avg { sum, n }, ColumnVec::Float { vals, valid }) => {
                b.each_value(vals, valid, |g, x| {
                    sum[g] += x;
                    n[g] += 1;
                })
            }
            (GroupStates::Bool { and, vals: v }, ColumnVec::Bool { vals, valid }) => {
                let and = *and;
                b.each_value(vals, valid, |g, x| {
                    v[g] = Some(match and {
                        true => v[g].unwrap_or(true) && x,
                        false => v[g].unwrap_or(false) || x,
                    })
                })
            }
            (GroupStates::Items { items, of, .. }, ColumnVec::Objects(r)) => {
                let mut taken = Vec::new();
                b.each_valid(&r.valid, |g, row| {
                    of.push(g as u32);
                    taken.push(row);
                });
                let more = r.gather(&taken);
                match items {
                    Some(items) => items.append(more),
                    None => *items = Some(more),
                }
            }
            (GroupStates::Extreme { max, vals: state }, col) => {
                let replaces = |o: Ordering| o == if *max { Ordering::Greater } else { Ordering::Less };
                if let Extremes::Unset(n) = *state {
                    *state = match col {
                        ColumnVec::Int { .. } => Extremes::Int(vec![None; n]),
                        ColumnVec::Float { .. } => Extremes::Float(vec![None; n]),
                        _ => Extremes::Bool(vec![None; n]),
                    };
                }
                match (state, col) {
                    (Extremes::Int(s), ColumnVec::Int { vals, valid }) => {
                        extreme(s, b, vals, valid, |x, c| replaces(x.cmp(&c)))
                    }
                    (Extremes::Float(s), ColumnVec::Float { vals, valid }) => {
                        extreme(s, b, vals, valid, |x, c| replaces(cmp_f64(x, c)))
                    }
                    (Extremes::Bool(s), ColumnVec::Bool { vals, valid }) => {
                        extreme(s, b, vals, valid, |x, c| replaces(x.cmp(&c)))
                    }
                    _ => unreachable!("an extreme takes its own type only"),
                }
            }
            _ => unreachable!("a state takes only the columns it folds"),
        }
        0
    }

    /// Whether a later partial's states merge into these typed: an extreme
    /// only with one of its own type, records only with records of their
    /// shape.
    pub fn merges(&self, other: &GroupStates) -> bool {
        match (self, other) {
            (GroupStates::Items { items: Some(a), .. }, GroupStates::Items { items: Some(b), .. }) => {
                a.same_shape(b)
            }
            (GroupStates::Extreme { vals: a, .. }, GroupStates::Extreme { vals: b, .. }) => matches!(
                (a, b),
                (Extremes::Unset(_), _)
                    | (_, Extremes::Unset(_))
                    | (Extremes::Int(_), Extremes::Int(_))
                    | (Extremes::Float(_), Extremes::Float(_))
                    | (Extremes::Bool(_), Extremes::Bool(_))
            ),
            _ => true,
        }
    }

    /// Merges the states of a partial over a *later* slice of the input:
    /// its group `j` is this state's group `slots[j]`, `fresh` lists (in
    /// order) the `j` of the groups new here, and `groups` is the number of
    /// groups after the merge. An earlier value wins a tie and a first cell
    /// stays first, so merging in input order gives the serial fold's
    /// result; sums add as [`Accumulator::merge`] does. Returns the cells of
    /// encoded first cells boxed.
    pub fn merge(&mut self, other: GroupStates, groups: usize, slots: &[u32], fresh: &[usize]) -> u64 {
        if let (GroupStates::First(first), GroupStates::First(more)) = (&mut *self, &other) {
            return append_cells(first, more.gather(fresh));
        }
        if let GroupStates::Items { items, of, groups: n } = self {
            let GroupStates::Items { items: more, of: more_of, .. } = other else {
                unreachable!("partials of one aggregate have one kind of state");
            };
            *n = groups;
            of.extend(more_of.into_iter().map(|j| slots[j as usize]));
            match (items, more) {
                (Some(items), Some(more)) => items.append(more),
                (items, more) => *items = items.take().or(more),
            }
            return 0;
        }
        if let GroupStates::Extreme { vals: Extremes::Unset(_), .. } = self {
            if !matches!(other, GroupStates::Extreme { vals: Extremes::Unset(_), .. }) {
                // Take the other's type: its groups become the fresh ones.
                let mut typed = other.empty_like();
                typed.resize(groups);
                *self = typed;
            }
        }
        self.resize(groups);
        let into = |j: usize| slots[j] as usize;
        match (self, other) {
            (GroupStates::Count { n, .. }, GroupStates::Count { n: m, .. }) => {
                m.into_iter().enumerate().for_each(|(j, x)| n[into(j)] += x)
            }
            (GroupStates::Sum(s), GroupStates::Sum(t)) => {
                t.into_iter().enumerate().for_each(|(j, x)| s[into(j)] = s[into(j)].add(x))
            }
            (GroupStates::Avg { sum, n }, GroupStates::Avg { sum: s2, n: n2 }) => {
                for (j, (x, k)) in s2.into_iter().zip(n2).enumerate() {
                    sum[into(j)] += x;
                    n[into(j)] += k;
                }
            }
            (GroupStates::Bool { and, vals }, GroupStates::Bool { vals: more, .. }) => {
                for (j, x) in more.into_iter().enumerate() {
                    if let Some(x) = x {
                        let v = &mut vals[into(j)];
                        *v = Some(if *and { v.unwrap_or(true) && x } else { v.unwrap_or(false) || x });
                    }
                }
            }
            (GroupStates::Extreme { max, vals }, GroupStates::Extreme { vals: more, .. }) => {
                let replaces = |o: Ordering| o == if *max { Ordering::Greater } else { Ordering::Less };
                match (vals, more) {
                    (_, Extremes::Unset(_)) => {}
                    (Extremes::Int(s), Extremes::Int(t)) => merge_extreme(s, t, into, |x, c| replaces(x.cmp(&c))),
                    (Extremes::Float(s), Extremes::Float(t)) => {
                        merge_extreme(s, t, into, |x, c| replaces(cmp_f64(x, c)))
                    }
                    (Extremes::Bool(s), Extremes::Bool(t)) => merge_extreme(s, t, into, |x, c| replaces(x.cmp(&c))),
                    _ => unreachable!("merges() holds"),
                }
            }
            _ => unreachable!("partials of one aggregate have one kind of state"),
        }
        0
    }

    /// A state of the same kind and type with no group.
    fn empty_like(&self) -> GroupStates {
        match self {
            GroupStates::Count { star, .. } => GroupStates::Count { star: *star, n: Vec::new() },
            GroupStates::Sum(_) => GroupStates::Sum(Vec::new()),
            GroupStates::Avg { .. } => GroupStates::Avg { sum: Vec::new(), n: Vec::new() },
            GroupStates::Extreme { max, vals } => GroupStates::Extreme {
                max: *max,
                vals: match vals {
                    Extremes::Unset(_) => Extremes::Unset(0),
                    Extremes::Int(_) => Extremes::Int(Vec::new()),
                    Extremes::Float(_) => Extremes::Float(Vec::new()),
                    Extremes::Bool(_) => Extremes::Bool(Vec::new()),
                },
            },
            GroupStates::Bool { and, .. } => GroupStates::Bool { and: *and, vals: Vec::new() },
            GroupStates::First(_) => GroupStates::First(ColumnVec::new()),
            GroupStates::Items { .. } => GroupStates::Items {
                items: None,
                of: Vec::new(),
                groups: 0,
            },
        }
    }

    /// The states as the accumulators a row-by-row fold would hold, adding
    /// the cells boxed from an encoded first-cell column to `boxed`.
    pub fn into_accs(self, boxed: &mut u64) -> Vec<Accumulator> {
        match self {
            GroupStates::Count { star: true, n } => n.into_iter().map(Accumulator::CountStar).collect(),
            GroupStates::Count { star: false, n } => n.into_iter().map(Accumulator::Count).collect(),
            GroupStates::Sum(s) => s.into_iter().map(|x| Accumulator::Sum { acc: x.variant() }).collect(),
            GroupStates::Avg { sum, n } => {
                sum.into_iter().zip(n).map(|(sum, n)| Accumulator::Avg { sum, n }).collect()
            }
            GroupStates::Extreme { max, vals } => {
                let cells: Vec<Option<Variant>> = match vals {
                    Extremes::Unset(n) => vec![None; n],
                    Extremes::Int(v) => v.into_iter().map(|x| x.map(Variant::Int)).collect(),
                    Extremes::Float(v) => v.into_iter().map(|x| x.map(Variant::Float)).collect(),
                    Extremes::Bool(v) => v.into_iter().map(|x| x.map(Variant::Bool)).collect(),
                };
                let acc: fn(Option<Variant>) -> Accumulator = match max {
                    true => Accumulator::Max,
                    false => Accumulator::Min,
                };
                cells.into_iter().map(acc).collect()
            }
            GroupStates::Bool { and: true, vals } => vals.into_iter().map(Accumulator::BoolAnd).collect(),
            GroupStates::Bool { and: false, vals } => vals.into_iter().map(Accumulator::BoolOr).collect(),
            GroupStates::First(col) => {
                if boxes_cells(&col) {
                    *boxed += col.len() as u64;
                }
                (0..col.len()).map(|g| Accumulator::AnyValue(Some(col.get(g)))).collect()
            }
            GroupStates::Items { items, of, groups } => {
                let mut lists: Vec<Vec<Variant>> = vec![Vec::new(); groups];
                if let Some(items) = items {
                    *boxed += items.len() as u64;
                    of.iter().enumerate().for_each(|(i, &g)| lists[g as usize].push(items.get(i)));
                }
                lists.into_iter().map(Accumulator::ArrayAgg).collect()
            }
        }
    }

    /// The output column, a cell per group: what [`Accumulator::finish`]
    /// returns for each.
    pub fn into_column(self) -> ColumnVec {
        let groups = self.len();
        let typed = |col: ColumnVec, any: bool| if any { col } else { ColumnVec::Null(groups) };
        match self {
            GroupStates::Count { n, .. } => ColumnVec::Int { vals: n, valid: Bitmap::ones(groups) },
            GroupStates::Sum(s) => {
                let mut col = ColumnVec::new();
                s.into_iter().for_each(|x| col.push(x.variant().unwrap_or(Variant::Null)));
                col
            }
            GroupStates::Avg { sum, n } => {
                let valid = Bitmap::from_fn(groups, |g| n[g] > 0);
                let any = valid.count_valid() > 0;
                let vals = sum.iter().zip(&n).map(|(&s, &n)| if n > 0 { s / n as f64 } else { 0.0 }).collect();
                typed(ColumnVec::Float { vals, valid }, any)
            }
            GroupStates::Extreme { vals, .. } => match vals {
                Extremes::Unset(n) => ColumnVec::Null(n),
                Extremes::Int(v) => {
                    let (vals, valid, any) = unzip_cells(&v);
                    typed(ColumnVec::Int { vals, valid }, any)
                }
                Extremes::Float(v) => {
                    let (vals, valid, any) = unzip_cells(&v);
                    typed(ColumnVec::Float { vals, valid }, any)
                }
                Extremes::Bool(v) => {
                    let (vals, valid, any) = unzip_cells(&v);
                    typed(ColumnVec::Bool { vals, valid }, any)
                }
            },
            GroupStates::Bool { vals: v, .. } => {
                let (vals, valid, any) = unzip_cells(&v);
                typed(ColumnVec::Bool { vals, valid }, any)
            }
            GroupStates::First(col) => col,
            GroupStates::Items { items: Some(items), of, groups } => {
                let (offsets, order) = by_group(&of, groups);
                let items = match order {
                    Some(order) => items.gather(&order),
                    None => items,
                };
                ColumnVec::List(RecordLists::from_offsets(&offsets, Bitmap::ones(groups), items))
            }
            // No batch brought a record: every group's array is empty.
            GroupStates::Items { items: None, groups, .. } => {
                let mut col = ColumnVec::new();
                (0..groups).for_each(|_| col.push(Variant::array(Vec::new())));
                col
            }
        }
    }
}

/// The ranges of `groups` groups over items whose groups are `of`, as
/// offsets, and the order that sorts the items by group, keeping their
/// order within one — `None` when they are sorted already.
fn by_group(of: &[u32], groups: usize) -> (Vec<u32>, Option<Vec<usize>>) {
    let mut offsets = vec![0u32; groups + 1];
    of.iter().for_each(|&g| offsets[g as usize + 1] += 1);
    for g in 0..groups {
        offsets[g + 1] += offsets[g];
    }
    if of.windows(2).all(|w| w[0] <= w[1]) {
        return (offsets, None);
    }
    let mut next: Vec<u32> = offsets[..groups].to_vec();
    let mut order = vec![0; of.len()];
    for (i, &g) in of.iter().enumerate() {
        order[next[g as usize] as usize] = i;
        next[g as usize] += 1;
    }
    (offsets, Some(order))
}

/// Values (a default where NULL), validity, and whether any cell is valid.
fn unzip_cells<T: Copy + Default>(cells: &[Option<T>]) -> (Vec<T>, Bitmap, bool) {
    let vals = cells.iter().map(|c| c.unwrap_or_default()).collect();
    let valid = Bitmap::from_fn(cells.len(), |g| cells[g].is_some());
    let any = cells.iter().any(Option::is_some);
    (vals, valid, any)
}

/// Adds each group's non-NULL rows of `col` to its count, reading no cell.
fn count_valid(n: &mut [i64], b: &Fold<'_>, col: &ColumnVec) {
    match col {
        ColumnVec::Int { valid, .. }
        | ColumnVec::Float { valid, .. }
        | ColumnVec::Bool { valid, .. }
        | ColumnVec::Objects(Records { valid, .. })
        | ColumnVec::List(RecordLists { valid, .. }) => match b.slots {
            None if valid.len() == b.rows => n[0] += valid.count_valid() as i64,
            _ => b.each_valid(valid, |g, _| n[g] += 1),
        },
        col => {
            let mut each = |r: usize| match b.slots {
                None => n[0] += 1,
                Some(slots) => n[slots[r] as usize] += 1,
            };
            match col {
                ColumnVec::Str(v) => (0..b.rows).filter(|&r| v[r].is_some()).for_each(&mut each),
                ColumnVec::DictStr { codes, .. } => {
                    (0..b.rows).filter(|&r| codes[r] != NULL_CODE).for_each(&mut each)
                }
                col => (0..b.rows).filter(|&r| !col.is_null_at(r)).for_each(&mut each),
            }
        }
    }
}

/// Replaces each group's extreme by a valid value of `vals` that `better`
/// says beats it; the first of equal values stays.
#[inline]
fn extreme<T: Copy>(
    state: &mut [Option<T>],
    b: &Fold<'_>,
    vals: &[T],
    valid: &Bitmap,
    better: impl Fn(T, T) -> bool,
) {
    b.each_value(vals, valid, |g, x| {
        if state[g].is_none_or(|c| better(x, c)) {
            state[g] = Some(x);
        }
    })
}

/// Merges a later partial's extremes `more` into `state` (see
/// [`GroupStates::merge`]).
fn merge_extreme<T: Copy>(
    state: &mut [Option<T>],
    more: Vec<Option<T>>,
    into: impl Fn(usize) -> usize,
    better: impl Fn(T, T) -> bool,
) {
    for (j, x) in more.into_iter().enumerate() {
        let s = &mut state[into(j)];
        if let Some(x) = x {
            if s.is_none_or(|c| better(x, c)) {
                *s = Some(x);
            }
        }
    }
}

/// True for the representations whose cells are built to be read one at a
/// time: dictionary strings and shredded records and lists.
pub fn boxes_cells(col: &ColumnVec) -> bool {
    matches!(
        col,
        ColumnVec::DictStr { .. } | ColumnVec::Objects(_) | ColumnVec::List(_)
    )
}

/// Appends `more` to `col`, returning the cells of encoded columns boxed
/// when the two representations do not line up.
pub fn append_cells(col: &mut ColumnVec, more: ColumnVec) -> u64 {
    let held = [&*col, &more].map(|c| if boxes_cells(c) { c.len() as u64 } else { 0 });
    col.append(more);
    if boxes_cells(col) {
        0
    } else {
        held.iter().sum()
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

    /// Columns a typed state takes or refuses: NULLs, integers at the edge
    /// of overflow, doubles with NaN, `-0.0` and integral values, booleans,
    /// runs, dictionary strings, boxed mixed values and shredded records
    /// with a NULL.
    fn columns() -> Vec<ColumnVec> {
        let f = Variant::Float;
        let mut cols: Vec<ColumnVec> = [
            vec![Variant::Int(4), Variant::Null, Variant::Int(1), Variant::Int(4), Variant::Int(-2), Variant::Int(9)],
            vec![f(2.5), f(f64::NAN), Variant::Null, f(-0.0), f(0.0), f(3.0)],
            vec![Variant::Int(i64::MAX), Variant::Int(i64::MAX), Variant::Int(1), Variant::Null, Variant::Int(-5), Variant::Int(i64::MIN)],
            vec![Variant::Bool(true), Variant::Null, Variant::Bool(false), Variant::Bool(true), Variant::Null, Variant::Bool(false)],
            vec![Variant::Null; 6],
            vec![Variant::from("b"), Variant::Null, Variant::from("a"), Variant::from("b"), Variant::from("c"), Variant::Null],
            vec![Variant::Int(1), f(1.0), Variant::Null, f(0.5), Variant::Int(-1), Variant::Int(2)],
        ]
        .into_iter()
        .map(ColumnVec::from_variants)
        .collect();
        cols.push(ColumnVec::Runs {
            ends: vec![2, 3, 6],
            values: Box::new(ColumnVec::from_variants(vec![Variant::Int(7), Variant::Null, Variant::Int(3)])),
        });
        let keys: std::sync::Arc<[std::sync::Arc<str>]> = std::sync::Arc::from(vec![std::sync::Arc::<str>::from("PT")]);
        let valid = Bitmap::from_fn(6, |r| r != 2);
        let pt = ColumnVec::from_variants((0..6).map(|r| Variant::Float(r as f64 / 2.0)).collect());
        cols.push(ColumnVec::Objects(Records { keys, fields: vec![pt], valid }));
        cols
    }

    const TYPED: [AggKind; 10] = [
        AggKind::CountStar,
        AggKind::Count,
        AggKind::Sum,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
        AggKind::BoolAnd,
        AggKind::BoolOr,
        AggKind::AnyValue,
        AggKind::ArrayAgg,
    ];

    /// Groups of the six rows of [`columns`].
    const SLOTS: [u32; 6] = [0, 1, 0, 2, 1, 0];

    /// Each group's serial row fold of `col`, or its error.
    fn serial(kind: AggKind, col: &ColumnVec) -> Result<Vec<Variant>> {
        let mut accs: Vec<Accumulator> = (0..3).map(|_| Accumulator::new(kind)).collect();
        for (r, &g) in SLOTS.iter().enumerate() {
            let arg = (kind != AggKind::CountStar).then_some(col);
            accs[g as usize].update_at(arg, None, r)?;
        }
        Ok(accs.into_iter().map(Accumulator::finish).collect())
    }

    fn cells(col: &ColumnVec) -> String {
        format!("{:?}", (0..col.len()).map(|g| col.get(g)).collect::<Vec<_>>())
    }

    /// A typed state of `kind` over rows `lo..hi` of `col` whose groups are
    /// `slots`, or `None` when it does not take the column.
    fn folded(kind: AggKind, col: &ColumnVec, parts: &[(usize, usize, &[u32])]) -> Option<GroupStates> {
        let mut states = GroupStates::new(kind)?;
        let arg = (kind != AggKind::CountStar).then_some(col);
        states.takes(arg).then_some(())?;
        let mut groups = 0;
        for &(lo, hi, slots) in parts {
            let part = col.slice(lo, hi);
            let fresh = fresh_rows(slots, groups);
            groups += fresh.len();
            let b = Fold { rows: hi - lo, slots: Some(slots), fresh: &fresh };
            states.fold(groups, &b, arg.map(|_| &part));
        }
        Some(states)
    }

    /// Every typed state reproduces the serial fold per group — values,
    /// their types, ties — over batches split anywhere, and takes no column
    /// on which the serial fold raises.
    #[test]
    fn typed_states_fold_as_the_serial_rows() {
        for col in columns() {
            for kind in TYPED {
                for split in 0..=SLOTS.len() {
                    let parts = [(0, split, &SLOTS[..split]), (split, 6, &SLOTS[split..])];
                    let Some(states) = folded(kind, &col, &parts) else {
                        continue;
                    };
                    let want = serial(kind, &col)
                        .unwrap_or_else(|e| panic!("{kind:?} took {col:?}, on which rows raise {e}"));
                    let got = cells(&states.into_column());
                    assert_eq!(got, format!("{want:?}"), "{kind:?} over {col:?}, split {split}");
                }
            }
        }
    }

    /// A later partial merged in input order — typed, or boxed into
    /// accumulators — gives the serial fold of the whole. The first partial
    /// folds rows 0..3 (groups 0, 1), the second rows 3..6, whose groups
    /// 2, 1, 0 it numbers 0, 1, 2.
    #[test]
    fn typed_partials_merge_as_the_serial_rows() {
        for col in columns() {
            for kind in TYPED {
                let early = [(0, 3, &SLOTS[..3])];
                let late: [(usize, usize, &[u32]); 1] = [(3, 6, &[0, 1, 2])];
                let (Some(states), Some(more)) = (folded(kind, &col, &early), folded(kind, &col, &late)) else {
                    continue;
                };
                let want = format!("{:?}", serial(kind, &col).expect("takes"));
                let mut boxed = 0;
                let mut accs = states.into_accs(&mut boxed);
                for (j, acc) in more.into_accs(&mut boxed).into_iter().enumerate() {
                    match [2usize, 1, 0][j] {
                        g if g < accs.len() => accs[g].merge(acc).unwrap(),
                        _ => accs.push(acc),
                    }
                }
                let got: Vec<Variant> = accs.into_iter().map(Accumulator::finish).collect();
                assert_eq!(format!("{got:?}"), want, "{kind:?} over {col:?}, boxed");
                let (mut states, more) = (folded(kind, &col, &early).unwrap(), folded(kind, &col, &late).unwrap());
                if states.merges(&more) {
                    states.merge(more, 3, &[2, 1, 0], &[0]);
                    assert_eq!(cells(&states.into_column()), want, "{kind:?} over {col:?}, typed");
                }
            }
        }
    }

    #[test]
    fn any_value_takes_first() {
        assert_eq!(
            run(AggKind::AnyValue, &[Variant::Int(7), Variant::Int(9)]),
            Variant::Int(7)
        );
    }
}
