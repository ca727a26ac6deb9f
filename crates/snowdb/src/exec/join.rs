//! The hash join's one table, and what a probe finds in it.
//!
//! A join is a stage of the pipeline its left input runs in (see
//! [`super::pipeline`]): before that pipeline starts, the join's right input
//! is executed and [built](JoinTable::build) into a [`JoinTable`], and every
//! batch that reaches the stage is [probed](JoinTable::probe) against it, by
//! whichever worker holds the batch. The table is read-only once built.
//!
//! # Layout
//!
//! - `rows`: the right input concatenated into one [`Chunk`], so that a build
//!   row is an index;
//! - `keys`: the right key columns over `rows`, in the representation their
//!   expressions produced;
//! - `hashes`: one `u64` per build row;
//! - `heads` / `next`: power-of-two bucket heads and one chain link per row.
//!   A chain lists its rows in ascending order, so the matches of a probe row
//!   come out in right-row order — the order of a nested loop.
//!
//! A row with a NULL in its key is in no chain: NULL never matches. A join
//! without an equi-key has no `keys`; every build row is a candidate of every
//! probe row.
//!
//! # Hashing
//!
//! Hashes are computed a column at a time from each column's representation:
//! an `Int`, `Float` or `Bool` column is one pass over its values, a `Str`
//! column hashes each string, a `DictStr` column each dictionary entry once
//! (a row reads its code's hash), a `Runs` column each run once, and a `Var`
//! column each boxed value, element by element. Every representation of one
//! [`Key`] hashes alike — an integral double as its integer, `-0.0` as `0`,
//! every NaN as one NaN — so `1` in an `Int` column meets `1.0` in a `Float`
//! column. The mix is a folded multiply keyed by two words drawn from a
//! [`RandomState`] once per build, so where a key lands is not known to
//! whoever chose the keys.
//!
//! # Equality
//!
//! A candidate whose hash equals the probe row's is compared column by column
//! under [`Key`] equality: `1` = `1.0`, `-0.0` = `0.0`, NaN = NaN, arrays and
//! objects element by element. `Int` against `Int` compares the integers and
//! two `DictStr` columns over one dictionary compare codes; any other pair
//! compares [`ColumnVec::key_at`].

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::column::{Bitmap, ColumnVec, NULL_CODE};
use crate::error::{Result, SnowError};
use crate::plan::physical::{JoinExprs, OpExprs, PhysNode};
use crate::plan::{NodeKind, PExpr};
use crate::sql::JoinKind;
use crate::variant::{Key, Variant};

use super::pipeline::{charge_batch, concat_batches, eval_exprs, execute_physical, BATCH_ROWS};
use super::{eval, truth, Chunk, ExecCtx, RowView};

/// The end of a chain.
const NO_ROW: u32 = u32::MAX;

/// The right row of a left-outer row that matched nothing.
const UNMATCHED: usize = usize::MAX;

/// Words that keep values of different types apart before they are mixed.
const FLOAT_TAG: u64 = 0x243f_6a88_85a3_08d3;
const BOOL_TAG: u64 = 0x1319_8a2e_0370_7344;
const STR_TAG: u64 = 0xa409_3822_299f_31d0;
const ARRAY_TAG: u64 = 0x082e_fa98_ec4e_6c89;
const OBJECT_TAG: u64 = 0x4528_21e6_38d0_1377;
const NULL_WORD: u64 = 0xbe54_66cf_34e9_0c6c;

/// A join's key hash: a folded multiply keyed once per build.
#[derive(Clone, Copy)]
struct KeyHasher {
    seed: u64,
    mul: u64,
}

/// Per-row hashes of a key, and which rows have a NULL in it (empty when
/// none has).
struct RowHashes {
    hashes: Vec<u64>,
    null: Vec<bool>,
}

impl RowHashes {
    fn is_null(&self, r: usize) -> bool {
        self.null.get(r).copied().unwrap_or(false)
    }
}

impl KeyHasher {
    fn new() -> KeyHasher {
        let state = RandomState::new();
        KeyHasher {
            seed: state.hash_one(1u8),
            mul: state.hash_one(2u8) | 1,
        }
    }

    fn mix(&self, h: u64, word: u64) -> u64 {
        let p = u128::from(h ^ word) * u128::from(self.mul);
        (p as u64) ^ ((p >> 64) as u64)
    }

    fn str_word(&self, s: &str) -> u64 {
        let bytes = s.as_bytes();
        let mut h = self.mix(self.seed ^ STR_TAG, bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h = self.mix(h, u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            h = self.mix(h, u64::from_le_bytes(w));
        }
        h
    }

    /// The word of a value: equal [`Key`]s have equal words.
    fn value_word(&self, v: &Variant) -> u64 {
        match v {
            Variant::Null => NULL_WORD,
            Variant::Bool(b) => BOOL_TAG ^ u64::from(*b),
            Variant::Int(i) => *i as u64,
            Variant::Float(f) => float_word(*f),
            Variant::Str(s) => self.str_word(s),
            Variant::Array(items) => items
                .iter()
                .fold(self.mix(ARRAY_TAG, items.len() as u64), |h, x| {
                    self.mix(h, self.value_word(x))
                }),
            Variant::Object(obj) => obj
                .iter()
                .fold(self.mix(OBJECT_TAG, obj.len() as u64), |h, (k, x)| {
                    self.mix(self.mix(h, self.str_word(k)), self.value_word(x))
                }),
        }
    }

    /// Hashes `rows` rows of a key, a column at a time.
    fn hash_rows<'c>(
        &self,
        keys: impl IntoIterator<Item = &'c ColumnVec>,
        rows: usize,
    ) -> RowHashes {
        let mut out = RowHashes {
            hashes: vec![self.seed; rows],
            null: Vec::new(),
        };
        for col in keys {
            self.mix_column(col, &mut out);
        }
        out
    }

    /// Mixes one key column's words into the row hashes.
    fn mix_column(&self, col: &ColumnVec, out: &mut RowHashes) {
        let RowHashes { hashes, null } = out;
        let rows = hashes.len();
        let mut set_null = |r: usize| {
            if null.is_empty() {
                null.resize(rows, false);
            }
            null[r] = true;
        };
        let mut nulls_of = |valid: &Bitmap| {
            if !valid.all_valid() {
                (0..rows).filter(|&r| !valid.get(r)).for_each(&mut set_null);
            }
        };
        match col {
            ColumnVec::Null(_) => (0..rows).for_each(set_null),
            ColumnVec::Int { vals, valid } => {
                for (h, &v) in hashes.iter_mut().zip(vals) {
                    *h = self.mix(*h, v as u64);
                }
                nulls_of(valid);
            }
            ColumnVec::Float { vals, valid } => {
                for (h, &v) in hashes.iter_mut().zip(vals) {
                    *h = self.mix(*h, float_word(v));
                }
                nulls_of(valid);
            }
            ColumnVec::Bool { vals, valid } => {
                for (h, &v) in hashes.iter_mut().zip(vals) {
                    *h = self.mix(*h, BOOL_TAG ^ u64::from(v));
                }
                nulls_of(valid);
            }
            ColumnVec::Str(vals) => {
                for (r, (h, s)) in hashes.iter_mut().zip(vals).enumerate() {
                    match s {
                        Some(s) => *h = self.mix(*h, self.str_word(s)),
                        None => set_null(r),
                    }
                }
            }
            ColumnVec::DictStr { codes, dict } => {
                let words: Vec<u64> = dict.iter().map(|s| self.str_word(s)).collect();
                for (r, (h, &code)) in hashes.iter_mut().zip(codes).enumerate() {
                    match code {
                        NULL_CODE => set_null(r),
                        code => *h = self.mix(*h, words[code as usize]),
                    }
                }
            }
            ColumnVec::Runs { ends, values } => {
                let mut lo = 0;
                for (run, &end) in ends.iter().enumerate() {
                    let v = values.get(run);
                    let (lo_r, hi_r) = (lo, end as usize);
                    lo = hi_r;
                    if v.is_null() {
                        (lo_r..hi_r).for_each(&mut set_null);
                        continue;
                    }
                    let w = self.value_word(&v);
                    for h in &mut hashes[lo_r..hi_r] {
                        *h = self.mix(*h, w);
                    }
                }
            }
            ColumnVec::Var(vals) => {
                for (r, (h, v)) in hashes.iter_mut().zip(vals).enumerate() {
                    match v {
                        Variant::Null => set_null(r),
                        v => *h = self.mix(*h, self.value_word(v)),
                    }
                }
            }
        }
    }
}

/// The word of a double: an integral one is its integer's word, as its
/// [`Key`] is that integer's.
fn float_word(f: f64) -> u64 {
    match Key::of_f64(f) {
        Key::Int(i) => i as u64,
        Key::Float(bits) => bits ^ FLOAT_TAG,
        _ => unreachable!("a double's key is an Int or a Float"),
    }
}

/// Key equality of row `i` of `a` and row `j` of `b`, neither of them NULL.
fn same_key(a: &ColumnVec, i: usize, b: &ColumnVec, j: usize) -> bool {
    match (a, b) {
        (ColumnVec::Int { vals: x, .. }, ColumnVec::Int { vals: y, .. }) => x[i] == y[j],
        (ColumnVec::DictStr { codes: x, dict: dx }, ColumnVec::DictStr { codes: y, dict: dy })
            if Arc::ptr_eq(dx, dy) =>
        {
            x[i] == y[j]
        }
        _ => a.key_at(i) == b.key_at(j),
    }
}

/// A join's ON predicate as lowered: keys and residual conjuncts.
fn join_exprs<'p, 'a>(p: &'p PhysNode<'a>) -> Result<&'p JoinExprs<'a>> {
    match &p.exprs {
        OpExprs::Join(j) => Ok(j),
        _ => Err(SnowError::internal(
            p.op_name(),
            "the join was lowered without its keys",
        )),
    }
}

/// A join's built right side (see the module docs).
pub(super) struct JoinTable {
    rows: Chunk,
    keys: Vec<ColumnVec>,
    hashes: Vec<u64>,
    heads: Vec<u32>,
    next: Vec<u32>,
    hasher: KeyHasher,
    /// Wall time the build took once the right input was there.
    pub(super) built_in: Duration,
}

impl JoinTable {
    /// Executes join `p`'s right input and builds its table on the calling
    /// thread. The right keys are evaluated in row order over the whole
    /// input, so a volatile key numbers the right rows first.
    pub(super) fn build(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<JoinTable> {
        let JoinExprs { right, .. } = join_exprs(p)?;
        let batches = execute_physical(&p.children[1], ctx)?;
        let start = Instant::now();
        let arity = batches
            .first()
            .map_or(p.children[1].logical.arity(), |c| c.cols.len());
        let rows = concat_batches(batches, arity);
        let n = rows.rows;
        p.metrics.add_rows_in(n as u64);
        p.metrics.peak(n as u64);
        charge_batch(p, ctx, "Join", &rows)?;
        if n >= NO_ROW as usize {
            return Err(SnowError::Exec(format!(
                "a join's build side holds {n} rows"
            )));
        }
        let hasher = KeyHasher::new();
        let keys: Vec<ColumnVec> = match right.root_count() {
            0 => Vec::new(),
            _ => eval_exprs(right, &rows, ctx, None, None)
                .complete()?
                .into_iter()
                .map(|c| c.into_owned())
                .collect(),
        };
        let (mut hashes, mut heads, mut next) = (Vec::new(), vec![NO_ROW], Vec::new());
        if !keys.is_empty() {
            let hashed = hasher.hash_rows(&keys, n);
            heads = vec![NO_ROW; n.next_power_of_two()];
            next = vec![NO_ROW; n];
            let mask = heads.len() as u64 - 1;
            // Inserting at the head, last row first, leaves every chain in
            // ascending row order.
            for r in (0..n).rev() {
                if r % BATCH_ROWS == 0 {
                    ctx.gov.checkpoint("Join")?;
                }
                if !hashed.is_null(r) {
                    let bucket = (hashed.hashes[r] & mask) as usize;
                    next[r] = heads[bucket];
                    heads[bucket] = r as u32;
                }
            }
            hashes = hashed.hashes;
        }
        let built_in = start.elapsed();
        p.metrics.add_busy(built_in);
        Ok(JoinTable {
            rows,
            keys,
            hashes,
            heads,
            next,
            hasher,
            built_in,
        })
    }

    /// The pairs of probe batch `lb`: per left row in order, its matches in
    /// right-row order — candidates with an equal key for which every
    /// residual conjunct is true — and for a left-outer join an unmatched
    /// row once, paired with nothing. A volatile condition numbers the left
    /// keys of the batch, then the residuals of its candidates in (left row,
    /// right row) order; the first error in that order is returned.
    pub(super) fn probe(&self, p: &PhysNode<'_>, lb: &Chunk, wctx: &mut ExecCtx) -> Result<Pairs> {
        let JoinExprs { left, residual, .. } = join_exprs(p)?;
        let NodeKind::Join { kind, .. } = &p.logical.kind else {
            unreachable!("a join stage is a join node")
        };
        let lkeys = match self.keys.is_empty() {
            true => Vec::new(),
            false => eval_exprs(left, lb, wctx, None, Some(&p.metrics)).complete()?,
        };
        let hashed = self.hasher.hash_rows(lkeys.iter().map(|c| &**c), lb.rows);
        let mask = self.heads.len() as u64 - 1;
        let mut pairs = Pairs {
            left: Vec::with_capacity(lb.rows),
            right: Vec::with_capacity(lb.rows),
            one_each: true,
        };
        for lr in 0..lb.rows {
            let before = pairs.left.len();
            let mut pair = |rr: usize, wctx: &mut ExecCtx| -> Result<()> {
                if holds(residual, [(lb, lr), (&self.rows, rr)], wctx)? {
                    pairs.left.push(lr);
                    pairs.right.push(rr);
                }
                Ok(())
            };
            if self.keys.is_empty() {
                for rr in 0..self.rows.rows {
                    pair(rr, wctx)?;
                }
            } else if !hashed.is_null(lr) {
                let h = hashed.hashes[lr];
                let mut rr = self.heads[(h & mask) as usize];
                while rr != NO_ROW {
                    let r = rr as usize;
                    if self.hashes[r] == h
                        && lkeys
                            .iter()
                            .zip(&self.keys)
                            .all(|(l, k)| same_key(l, lr, k, r))
                    {
                        pair(r, wctx)?;
                    }
                    rr = self.next[r];
                }
            }
            if *kind == JoinKind::LeftOuter && pairs.left.len() == before {
                pairs.left.push(lr);
                pairs.right.push(UNMATCHED);
            }
            pairs.one_each &= pairs.left.len() == before + 1;
        }
        Ok(pairs)
    }
}

/// True when every residual conjunct is true for the pair of rows `parts`.
fn holds(residual: &[&PExpr], parts: [(&Chunk, usize); 2], wctx: &mut ExecCtx) -> Result<bool> {
    for e in residual {
        if truth(&eval(e, RowView::new(&parts), wctx)?)? != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The (left row, right row) pairs one probe batch produced.
pub(super) struct Pairs {
    left: Vec<usize>,
    right: Vec<usize>,
    /// Every left row produced exactly one pair.
    one_each: bool,
}

impl Pairs {
    /// The join's output for the batch, cut into pieces of at most
    /// [`BATCH_ROWS`] rows, each gathered when it is asked for. A batch
    /// whose every row made one pair and which fits one piece hands its own
    /// columns on.
    pub(super) fn pieces(
        self,
        mut lb: Chunk,
        table: &JoinTable,
    ) -> impl Iterator<Item = Chunk> + '_ {
        let n = self.left.len();
        let moves = self.one_each && n <= BATCH_ROWS;
        (0..n.div_ceil(BATCH_ROWS)).map(move |i| {
            let range = i * BATCH_ROWS..((i + 1) * BATCH_ROWS).min(n);
            let (l, r) = (&self.left[range.clone()], &self.right[range]);
            let mut cols: Vec<ColumnVec> = match moves {
                true => std::mem::take(&mut lb.cols),
                false => lb.cols.iter().map(|c| c.gather(l)).collect(),
            };
            if r.contains(&UNMATCHED) {
                let r: Vec<Option<usize>> = r
                    .iter()
                    .map(|&rr| (rr != UNMATCHED).then_some(rr))
                    .collect();
                cols.extend(table.rows.cols.iter().map(|c| c.gather_opt(&r)));
            } else {
                cols.extend(table.rows.cols.iter().map(|c| c.gather(r)));
            }
            Chunk {
                cols,
                rows: l.len(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash of every row whose key has no NULL, and which rows have one.
    fn hashes(h: &KeyHasher, col: &ColumnVec) -> (Vec<Option<u64>>, Vec<bool>) {
        let out = h.hash_rows([col], col.len());
        let null: Vec<bool> = (0..col.len()).map(|r| out.is_null(r)).collect();
        (
            out.hashes
                .iter()
                .zip(&null)
                .map(|(&h, &n)| (!n).then_some(h))
                .collect(),
            null,
        )
    }

    /// One value in every representation that can hold it hashes alike, and
    /// exactly the NULL rows are flagged.
    #[test]
    fn every_representation_of_a_key_hashes_alike() {
        let h = KeyHasher::new();
        let ints = ColumnVec::from_variants(vec![Variant::Int(1), Variant::Null, Variant::Int(0)]);
        let floats = ColumnVec::from_variants(vec![
            Variant::Float(1.0),
            Variant::Null,
            Variant::Float(-0.0),
        ]);
        let mixed = ColumnVec::Var(vec![Variant::Float(1.0), Variant::Null, Variant::Int(0)]);
        let runs = ColumnVec::Runs {
            ends: vec![1, 2, 3],
            values: Box::new(ColumnVec::from_variants(vec![
                Variant::Int(1),
                Variant::Null,
                Variant::Int(0),
            ])),
        };
        let want = hashes(&h, &ints);
        assert_eq!(want.1, [false, true, false]);
        for col in [&floats, &mixed, &runs] {
            assert_eq!(hashes(&h, col), want, "{col:?}");
        }
        let strs =
            ColumnVec::from_variants(vec![Variant::str("ab"), Variant::Null, Variant::str("")]);
        let dict: Arc<Vec<Arc<str>>> = Arc::new(vec![Arc::from(""), Arc::from("ab")]);
        let coded = ColumnVec::DictStr {
            codes: vec![1, NULL_CODE, 0],
            dict,
        };
        let boxed = ColumnVec::Var(vec![Variant::str("ab"), Variant::Null, Variant::str("")]);
        let want = hashes(&h, &strs);
        assert_eq!(hashes(&h, &coded), want);
        assert_eq!(hashes(&h, &boxed), want);
        // NaN is one key; arrays hash element by element under Key equality.
        let nan =
            ColumnVec::from_variants(vec![Variant::Float(f64::NAN), Variant::Float(-f64::NAN)]);
        let (nan, _) = hashes(&h, &nan);
        assert_eq!(nan[0], nan[1]);
        let arrays = ColumnVec::Var(vec![
            Variant::array(vec![Variant::Int(2), Variant::Null]),
            Variant::array(vec![Variant::Float(2.0), Variant::Null]),
        ]);
        let (arrays, _) = hashes(&h, &arrays);
        assert_eq!(arrays[0], arrays[1]);
    }

    #[test]
    fn keys_compare_under_key_equality() {
        let ints = ColumnVec::from_variants(vec![Variant::Int(1), Variant::Int(0)]);
        let floats = ColumnVec::from_variants(vec![Variant::Float(1.0), Variant::Float(-0.0)]);
        let dict: Arc<Vec<Arc<str>>> = Arc::new(vec![Arc::from("a"), Arc::from("b")]);
        let a = ColumnVec::DictStr {
            codes: vec![0, 1],
            dict: dict.clone(),
        };
        let b = ColumnVec::DictStr {
            codes: vec![1, 0],
            dict,
        };
        let other = ColumnVec::DictStr {
            codes: vec![0],
            dict: Arc::new(vec![Arc::from("b")]),
        };
        assert!(same_key(&ints, 0, &floats, 0) && same_key(&ints, 1, &floats, 1));
        assert!(!same_key(&ints, 0, &floats, 1));
        assert!(same_key(&a, 0, &b, 1) && !same_key(&a, 0, &b, 0));
        assert!(same_key(&a, 1, &other, 0) && !same_key(&a, 0, &other, 0));
    }
}
