//! Equality, ordering, hashing, and numeric coercion for [`Variant`].

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use super::Variant;

/// Numeric coercion result for binary arithmetic: either both sides are integers
/// or both are promoted to doubles, mirroring Snowflake's numeric tower as far as
/// the workloads require.
pub enum NumericPair {
    Int(i64, i64),
    Float(f64, f64),
}

impl NumericPair {
    /// Coerces two variants to a common numeric representation, or `None` when
    /// either side is not a number.
    pub fn coerce(a: &Variant, b: &Variant) -> Option<NumericPair> {
        match (a, b) {
            (Variant::Int(x), Variant::Int(y)) => Some(NumericPair::Int(*x, *y)),
            (Variant::Int(x), Variant::Float(y)) => Some(NumericPair::Float(*x as f64, *y)),
            (Variant::Float(x), Variant::Int(y)) => Some(NumericPair::Float(*x, *y as f64)),
            (Variant::Float(x), Variant::Float(y)) => Some(NumericPair::Float(*x, *y)),
            _ => None,
        }
    }
}

impl PartialEq for Variant {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Variant::Null, Variant::Null) => true,
            (Variant::Bool(a), Variant::Bool(b)) => a == b,
            (Variant::Str(a), Variant::Str(b)) => a == b,
            (Variant::Array(a), Variant::Array(b)) => a == b,
            (Variant::Object(a), Variant::Object(b)) => a == b,
            (Variant::Int(x), Variant::Int(y)) => x == y,
            // Mixed Int/Float equality goes through the exact comparison, not
            // `x as f64`: the conversion rounds for |x| > 2^53, which made
            // distinct values compare equal (corrupting ORDER BY, join keys,
            // and DISTINCT).
            (Variant::Int(x), Variant::Float(y)) => {
                cmp_i64_f64(*x, *y) == Ordering::Equal
            }
            (Variant::Float(x), Variant::Int(y)) => {
                cmp_i64_f64(*y, *x) == Ordering::Equal
            }
            // Equality is the Equal case of the same total order that
            // drives sorting, MIN/MAX, and pruning: NaN equals itself
            // (and sorts after every other number, Snowflake's rule).
            // IEEE `==` would make `eq` disagree with `cmp_variants`, and
            // pruning built on the total order would then drop
            // partitions whose rows the equality-based filter keeps.
            (Variant::Float(x), Variant::Float(y)) => {
                cmp_f64(*x, *y) == Ordering::Equal
            }
            _ => false,
        }
    }
}

impl Variant {
    /// Strict identity: the same type and the same bits, all the way down.
    /// [`PartialEq`] above is SQL equality, under which `1 = 1.0` and
    /// `0.0 = -0.0`; `TYPEOF`, integer overflow and a result's printed form
    /// tell those apart, so whatever decides that two plans or two
    /// expressions *compute the same thing* compares literals with this.
    pub fn identical(&self, other: &Variant) -> bool {
        match (self, other) {
            (Variant::Null, Variant::Null) => true,
            (Variant::Bool(x), Variant::Bool(y)) => x == y,
            (Variant::Int(x), Variant::Int(y)) => x == y,
            (Variant::Float(x), Variant::Float(y)) => x.to_bits() == y.to_bits(),
            (Variant::Str(x), Variant::Str(y)) => x == y,
            (Variant::Array(x), Variant::Array(y)) => {
                x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| p.identical(q))
            }
            (Variant::Object(x), Variant::Object(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y.iter()).all(|((k, p), (l, q))| k == l && p.identical(q))
            }
            _ => false,
        }
    }

    /// Feeds `h` exactly what [`Variant::identical`] compares: two values
    /// write the same sequence iff they are identical.
    pub fn hash_identical(&self, h: &mut impl Hasher) {
        std::mem::discriminant(self).hash(h);
        match self {
            Variant::Null => {}
            Variant::Bool(b) => b.hash(h),
            Variant::Int(i) => i.hash(h),
            Variant::Float(f) => f.to_bits().hash(h),
            Variant::Str(s) => s.hash(h),
            Variant::Array(a) => {
                a.len().hash(h);
                a.iter().for_each(|x| x.hash_identical(h));
            }
            Variant::Object(o) => {
                o.len().hash(h);
                for (k, x) in o.iter() {
                    k.hash(h);
                    x.hash_identical(h);
                }
            }
        }
    }
}

/// Total order over variants, used by `ORDER BY`, `MIN`/`MAX`, and pruning.
///
/// Type rank: numbers < strings < booleans < arrays < objects < NULL, so that an
/// ascending sort puts `NULL`s last (Snowflake's default). `NaN` equals itself
/// and sorts after all other numbers (Snowflake's rule); [`PartialEq`] above is
/// exactly the `Equal` case of this order, so equality filters, hash keys, sort
/// order, and partition pruning can never disagree about NaN. Cross-type numeric
/// values compare numerically.
pub fn cmp_variants(a: &Variant, b: &Variant) -> Ordering {
    fn rank(v: &Variant) -> u8 {
        match v {
            Variant::Int(_) | Variant::Float(_) => 0,
            Variant::Str(_) => 1,
            Variant::Bool(_) => 2,
            Variant::Array(_) => 3,
            Variant::Object(_) => 4,
            Variant::Null => 5,
        }
    }
    match (a, b) {
        (Variant::Bool(x), Variant::Bool(y)) => x.cmp(y),
        (Variant::Str(x), Variant::Str(y)) => x.cmp(y),
        (Variant::Array(x), Variant::Array(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                let c = cmp_variants(xi, yi);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Variant::Object(x), Variant::Object(y)) => {
            // Lexicographic over (key, value) pairs in insertion order; arbitrary
            // but total, which is all sorting requires.
            for ((kx, vx), (ky, vy)) in x.iter().zip(y.iter()) {
                let c = kx.cmp(ky);
                if c != Ordering::Equal {
                    return c;
                }
                let c = cmp_variants(vx, vy);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Variant::Int(x), Variant::Int(y)) => x.cmp(y),
        (Variant::Int(x), Variant::Float(y)) => cmp_i64_f64(*x, *y),
        (Variant::Float(x), Variant::Int(y)) => cmp_i64_f64(*y, *x).reverse(),
        (Variant::Float(x), Variant::Float(y)) => cmp_f64(*x, *y),
        (a, b) => rank(a).cmp(&rank(b)),
    }
}

/// Exact comparison of an `i64` against an `f64`, without converting the
/// integer to `f64` first (that conversion rounds for |x| > 2^53 and made
/// distinct values compare equal). Follows the shared NaN rule: NaN sorts
/// after every number, so an integer is always `Less` than NaN.
pub fn cmp_i64_f64(x: i64, y: f64) -> Ordering {
    if y.is_nan() {
        return Ordering::Less;
    }
    // Every i64 lies strictly below 2^63; a float at or above that bound
    // (including +inf) exceeds every integer, and symmetrically below -2^63.
    // Both bounds are exactly representable as f64.
    if y >= 9_223_372_036_854_775_808.0 {
        return Ordering::Less;
    }
    if y < -9_223_372_036_854_775_808.0 {
        return Ordering::Greater;
    }
    // Finite y with -2^63 <= y < 2^63: the truncation fits in i64 exactly.
    let t = y.trunc() as i64;
    match x.cmp(&t) {
        Ordering::Equal => {
            let frac = y - y.trunc();
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        o => o,
    }
}

/// The shared float order: IEEE for comparable values, NaN == NaN, and NaN
/// greater than everything else. `partial_cmp` returns `None` only when at
/// least one side is NaN.
pub fn cmp_f64(x: f64, y: f64) -> Ordering {
    match x.partial_cmp(&y) {
        Some(o) => o,
        None => match (x.is_nan(), y.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            _ => Ordering::Less,
        },
    }
}

/// A hashable canonical form of a [`Variant`], used as a group-by / distinct /
/// join key. Integral doubles canonicalize to integers so that `1` and `1.0`
/// land in the same group, consistent with [`PartialEq`] above.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Key {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(Arc<str>),
    Array(Vec<Key>),
    Object(Vec<(Arc<str>, Key)>),
}

impl Key {
    /// Builds the canonical key for a variant.
    pub fn of(v: &Variant) -> Key {
        match v {
            Variant::Null => Key::Null,
            Variant::Bool(b) => Key::Bool(*b),
            Variant::Int(i) => Key::Int(*i),
            Variant::Float(f) => Key::of_f64(*f),
            Variant::Str(s) => Key::Str(s.clone()),
            Variant::Array(a) => Key::Array(a.iter().map(Key::of).collect()),
            Variant::Object(o) => Key::Object(
                o.iter().map(|(k, v)| (Arc::from(k), Key::of(v))).collect(),
            ),
        }
    }

    /// Canonical key for a double, shared between [`Key::of`] and the typed
    /// column kernels so grouping cannot diverge between the two paths.
    ///
    /// Integral doubles that convert to `i64` exactly canonicalize to
    /// `Key::Int` so `1` and `1.0` land in one group; the upper bound is
    /// *strict* `< 2^63` because 2^63 itself is not an i64 (the old guard used
    /// `<= i64::MAX as f64`, which rounds the bound up to 2^63, so
    /// `9.223372036854776e18` passed and the saturating cast collided it with
    /// `i64::MAX`). `-0.0` has zero fract and casts to `0`, unifying it with
    /// `0.0` and `0`; NaN canonicalizes to one bit pattern, matching the
    /// NaN == NaN total order. Within the bounds, a double is integral
    /// exactly when truncating it to `i64` and back returns it, which is
    /// what `fract() == 0.0` asks without a call to `trunc`.
    #[inline]
    pub fn of_f64(f: f64) -> Key {
        if f.is_nan() {
            Key::Float(f64::NAN.to_bits())
        } else if (-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&f)
            && (f as i64) as f64 == f
        {
            Key::Int(f as i64)
        } else {
            Key::Float(f.to_bits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Object;

    #[test]
    fn numeric_equality_across_types() {
        assert_eq!(Variant::Int(3), Variant::Float(3.0));
        assert_ne!(Variant::Int(3), Variant::Float(3.5));
        assert_ne!(Variant::Int(1), Variant::Bool(true));
        assert_ne!(Variant::Int(0), Variant::Null);
    }

    #[test]
    fn ordering_puts_nulls_last() {
        let mut vals = [Variant::Null, Variant::Int(2), Variant::Float(1.5)];
        vals.sort_by(cmp_variants);
        assert_eq!(vals[0], Variant::Float(1.5));
        assert_eq!(vals[1], Variant::Int(2));
        assert!(vals[2].is_null());
    }

    #[test]
    fn nan_sorts_after_numbers() {
        assert_eq!(
            cmp_variants(&Variant::Float(f64::NAN), &Variant::Float(1.0)),
            Ordering::Greater
        );
    }

    #[test]
    fn nan_equality_agrees_with_total_order() {
        let nan = Variant::Float(f64::NAN);
        // One coherent total order: eq, cmp, and Key all say NaN == NaN.
        assert_eq!(nan, Variant::Float(f64::NAN));
        assert_eq!(cmp_variants(&nan, &Variant::Float(f64::NAN)), Ordering::Equal);
        assert_eq!(Key::of(&nan), Key::of(&Variant::Float(-f64::NAN)));
        // ...while NaN stays unequal to every comparable value.
        assert_ne!(nan, Variant::Float(1.0));
        assert_ne!(nan, Variant::Int(1));
        assert_ne!(nan, Variant::Null);
        // eq must be exactly the Equal case of cmp_variants for every float pair.
        for a in [f64::NAN, f64::INFINITY, -0.0, 0.0, 1.5] {
            for b in [f64::NAN, f64::NEG_INFINITY, -0.0, 0.0, 1.5] {
                assert_eq!(
                    Variant::Float(a) == Variant::Float(b),
                    cmp_variants(&Variant::Float(a), &Variant::Float(b)) == Ordering::Equal,
                    "eq/cmp disagree on ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn array_ordering_is_lexicographic() {
        let a = Variant::array(vec![Variant::Int(1), Variant::Int(2)]);
        let b = Variant::array(vec![Variant::Int(1), Variant::Int(3)]);
        let c = Variant::array(vec![Variant::Int(1)]);
        assert_eq!(cmp_variants(&a, &b), Ordering::Less);
        assert_eq!(cmp_variants(&c, &a), Ordering::Less);
    }

    #[test]
    fn large_int_float_comparison_is_exact() {
        // 2^53 is the first point where f64 can no longer represent every
        // integer; the old `x as f64` coercion collapsed neighbors here.
        let p53 = 1i64 << 53; // 9007199254740992
        let f53 = p53 as f64; // exact
        assert_eq!(Variant::Int(p53), Variant::Float(f53));
        assert_ne!(Variant::Int(p53 + 1), Variant::Float(f53));
        assert_eq!(
            cmp_variants(&Variant::Int(p53 + 1), &Variant::Float(f53)),
            Ordering::Greater
        );
        assert_eq!(
            cmp_variants(&Variant::Float(f53), &Variant::Int(p53 + 1)),
            Ordering::Less
        );
        assert_ne!(Variant::Int(-(p53 + 1)), Variant::Float(-f53));
        assert_eq!(
            cmp_variants(&Variant::Int(-(p53 + 1)), &Variant::Float(-f53)),
            Ordering::Less
        );
        // i64::MAX as f64 rounds up to 2^63, which is strictly greater than
        // every i64 — the two must not compare equal.
        let max_f = i64::MAX as f64; // 2^63
        assert_ne!(Variant::Int(i64::MAX), Variant::Float(max_f));
        assert_eq!(
            cmp_variants(&Variant::Int(i64::MAX), &Variant::Float(max_f)),
            Ordering::Less
        );
        // i64::MIN as f64 is exactly -2^63, so that pair *is* equal.
        assert_eq!(Variant::Int(i64::MIN), Variant::Float(i64::MIN as f64));
        // Fractional parts break ties on the integer part.
        assert_eq!(cmp_i64_f64(5, 5.5), Ordering::Less);
        assert_eq!(cmp_i64_f64(-5, -5.5), Ordering::Greater);
        // Infinities and NaN: ints below +inf and NaN, above -inf.
        assert_eq!(cmp_i64_f64(i64::MAX, f64::INFINITY), Ordering::Less);
        assert_eq!(cmp_i64_f64(i64::MIN, f64::NEG_INFINITY), Ordering::Greater);
        assert_eq!(cmp_i64_f64(i64::MAX, f64::NAN), Ordering::Less);
    }

    #[test]
    fn eq_is_equal_case_of_cmp_for_mixed_numeric() {
        let ints = [0, 1, -1, (1i64 << 53) + 1, i64::MAX, i64::MIN];
        let floats = [
            0.0,
            -0.0,
            0.5,
            (1i64 << 53) as f64,
            9.223372036854776e18,
            -9.223372036854776e18,
            f64::NAN,
            f64::INFINITY,
        ];
        for &x in &ints {
            for &y in &floats {
                assert_eq!(
                    Variant::Int(x) == Variant::Float(y),
                    cmp_variants(&Variant::Int(x), &Variant::Float(y)) == Ordering::Equal,
                    "eq/cmp disagree on ({x}, {y})"
                );
                assert_eq!(
                    cmp_variants(&Variant::Int(x), &Variant::Float(y)),
                    cmp_variants(&Variant::Float(y), &Variant::Int(x)).reverse(),
                    "cmp not antisymmetric on ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn out_of_range_floats_do_not_collide_group_keys() {
        // 9.223372036854776e18 is 2^63: the old `<= i64::MAX as f64` guard
        // admitted it and the saturating cast collided it with i64::MAX.
        let big = 9.223372036854776e18;
        assert_ne!(Key::of(&Variant::Float(big)), Key::of(&Variant::Int(i64::MAX)));
        assert_eq!(Key::of(&Variant::Float(big)), Key::of(&Variant::Float(big)));
        // -2^63 is exactly representable, so it unifies with i64::MIN...
        assert_eq!(
            Key::of(&Variant::Float(-9.223372036854776e18)),
            Key::of(&Variant::Int(i64::MIN))
        );
        // ...but the next representable double below must not.
        let below = (-9.223372036854776e18f64).next_down();
        assert_ne!(Key::of(&Variant::Float(below)), Key::of(&Variant::Int(i64::MIN)));
        // Key unification must agree with equality: equal values share a key,
        // distinct values get distinct keys.
        for v in [big, -9.223372036854776e18, below] {
            assert_eq!(
                Variant::Float(v) == Variant::Int(i64::MAX),
                Key::of(&Variant::Float(v)) == Key::of(&Variant::Int(i64::MAX))
            );
            assert_eq!(
                Variant::Float(v) == Variant::Int(i64::MIN),
                Key::of(&Variant::Float(v)) == Key::of(&Variant::Int(i64::MIN))
            );
        }
    }

    #[test]
    fn zero_and_nan_keys_stay_coherent() {
        assert_eq!(Key::of(&Variant::Float(-0.0)), Key::of(&Variant::Float(0.0)));
        assert_eq!(Key::of(&Variant::Float(-0.0)), Key::of(&Variant::Int(0)));
        let nan_key = Key::of(&Variant::Float(f64::NAN));
        assert_eq!(nan_key, Key::of(&Variant::Float(-f64::NAN)));
        assert_ne!(nan_key, Key::of(&Variant::Float(f64::INFINITY)));
        assert_ne!(Key::of(&Variant::Float(f64::INFINITY)), Key::of(&Variant::Float(f64::NEG_INFINITY)));
    }

    #[test]
    fn keys_unify_int_and_integral_float() {
        assert_eq!(Key::of(&Variant::Int(4)), Key::of(&Variant::Float(4.0)));
        assert_ne!(Key::of(&Variant::Int(4)), Key::of(&Variant::Float(4.5)));
        // Negative zero unifies with zero.
        assert_eq!(Key::of(&Variant::Float(-0.0)), Key::of(&Variant::Int(0)));
    }

    #[test]
    fn object_keys_include_structure() {
        let mut o1 = Object::new();
        o1.insert("a", Variant::Int(1));
        let mut o2 = Object::new();
        o2.insert("a", Variant::Int(2));
        assert_ne!(Key::of(&Variant::object(o1)), Key::of(&Variant::object(o2)));
    }
}
