//! Canonical ordering and epsilon-aware equality for result comparison.
//!
//! Two configurations "agree" when their result multisets are equal under a
//! canonical row order and a tolerant notion of value equality: floating-point
//! aggregates may legitimately differ in the last bits between plans that
//! accumulate in different orders (hash join vs. nested loop, serial vs.
//! merged partial aggregates), so numbers compare with a relative epsilon and
//! `NaN` equals `NaN`.

use crate::variant::{cmp_variants, NumericPair, Variant};

/// Sorts rows into the canonical order: lexicographic by [`cmp_variants`],
/// shorter rows first on a shared prefix. Queries without a total `ORDER BY`
/// may return rows in any order (and parallel plans do), so every comparison
/// starts from this normal form.
pub fn canonical_rows(mut rows: Vec<Vec<Variant>>) -> Vec<Vec<Variant>> {
    rows.sort_by(|a, b| {
        let mut prefix = a.iter().zip(b).map(|(x, y)| cmp_variants(x, y));
        prefix.find(|c| c.is_ne()).unwrap_or_else(|| a.len().cmp(&b.len()))
    });
    rows
}

/// Epsilon-aware value equality: numbers within relative `epsilon` are equal,
/// `NaN` equals `NaN`, containers compare element-wise (objects key-wise,
/// order-insensitively), everything else falls back to exact equality.
fn variant_eq_eps(a: &Variant, b: &Variant, epsilon: f64) -> bool {
    match (a, b) {
        (Variant::Array(x), Variant::Array(y)) => {
            x.len() == y.len()
                && x.iter().zip(y.iter()).all(|(xi, yi)| variant_eq_eps(xi, yi, epsilon))
        }
        (Variant::Object(x), Variant::Object(y)) => {
            x.len() == y.len()
                && x.iter().all(|(k, vx)| {
                    y.iter()
                        .find(|(ky, _)| *ky == k)
                        .is_some_and(|(_, vy)| variant_eq_eps(vx, vy, epsilon))
                })
        }
        _ => match NumericPair::coerce(a, b) {
            Some(NumericPair::Int(x, y)) => x == y,
            Some(NumericPair::Float(x, y)) => float_eq_eps(x, y, epsilon),
            None => a == b,
        },
    }
}

/// Relative-epsilon float equality with `NaN == NaN`.
fn float_eq_eps(x: f64, y: f64, epsilon: f64) -> bool {
    if x == y || (x.is_nan() && y.is_nan()) {
        return true;
    }
    (x - y).abs() <= epsilon * x.abs().max(y.abs()).max(1.0)
}

/// Row equality under [`variant_eq_eps`].
fn rows_eq_eps(a: &[Variant], b: &[Variant], epsilon: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| variant_eq_eps(x, y, epsilon))
}

/// `(row index, row from a, row from b)`; a `None` side means that result set
/// ran out of rows first.
pub type RowDiff<'a> = (usize, Option<&'a [Variant]>, Option<&'a [Variant]>);

/// Finds the first position where two canonicalized result sets differ.
pub fn first_diff<'a>(
    a: &'a [Vec<Variant>],
    b: &'a [Vec<Variant>],
    epsilon: f64,
) -> Option<RowDiff<'a>> {
    for i in 0..a.len().max(b.len()) {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if rows_eq_eps(x, y, epsilon) => continue,
            (x, y) => return Some((i, x.map(Vec::as_slice), y.map(Vec::as_slice))),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_deterministic() {
        let rows = vec![
            vec![Variant::Int(2)],
            vec![Variant::Null],
            vec![Variant::Int(1), Variant::Int(9)],
            vec![Variant::Int(1)],
        ];
        let sorted = canonical_rows(rows);
        assert_eq!(sorted[0], vec![Variant::Int(1)]);
        assert_eq!(sorted[1], vec![Variant::Int(1), Variant::Int(9)]);
        assert_eq!(sorted[2], vec![Variant::Int(2)]);
        assert!(sorted[3][0].is_null());
    }

    #[test]
    fn epsilon_absorbs_accumulation_order_noise() {
        let a = Variant::Float(1.0e15);
        let b = Variant::Float(1.0e15 + 1.0);
        assert!(variant_eq_eps(&a, &b, 1e-9));
        assert!(!variant_eq_eps(&a, &b, 1e-18));
        // NaN agrees with NaN, and ints stay exact.
        assert!(variant_eq_eps(
            &Variant::Float(f64::NAN),
            &Variant::Float(f64::NAN),
            1e-9
        ));
        assert!(!variant_eq_eps(&Variant::Int(1), &Variant::Int(2), 1e-9));
    }

    #[test]
    fn first_diff_reports_row_and_length_mismatches() {
        let a = vec![vec![Variant::Int(1)], vec![Variant::Int(2)]];
        let b = vec![vec![Variant::Int(1)], vec![Variant::Int(3)]];
        let (i, x, y) = first_diff(&a, &b, 1e-9).unwrap();
        assert_eq!(i, 1);
        assert_eq!(x.unwrap()[0], Variant::Int(2));
        assert_eq!(y.unwrap()[0], Variant::Int(3));

        let short = vec![vec![Variant::Int(1)]];
        let (i, x, y) = first_diff(&a, &short, 1e-9).unwrap();
        assert_eq!(i, 1);
        assert!(x.is_some() && y.is_none());
        assert!(first_diff(&a, &a, 1e-9).is_none());
    }
}
