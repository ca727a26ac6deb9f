//! Arithmetic behind every reported number: medians, quartiles, percentiles,
//! geometric means and relative differences.

/// Sorted copy (ascending; the benchmark never produces NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method) —
/// the referee computes spreads this way, so `--check-repeat` must too.
/// With fewer than two samples all three collapse onto the one value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the referee's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile (`p` in 0..=1) — an observed sample, never an
/// interpolation, so a p95 over N samples has ⌊0.05·N⌋ samples beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The latency a statement has when the machine is not taken away from it:
/// the 10th percentile of its samples (their minimum below ten samples).
///
/// The sandbox shares its cores; other tenants take them away in bursts
/// shorter than a second that inflate about a third of all samples, by up to
/// 70%, and how many they hit differs from run to run. The median moves with
/// them (4-15% between runs of one commit), the low percentile does not
/// (2-5%), and a change to the program moves both alike.
pub fn typical(values: &[f64]) -> f64 {
    percentile(values, 0.10)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `(b - a) / a`: how much `b` differs from the base `a`, as a share of `a`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    }
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[9.0], 0.95), 9.0);
        // 20 samples: p95 is the 19th, leaving exactly one beyond it.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 19.0);
    }

    #[test]
    fn typical_is_the_tenth_percentile_or_the_minimum() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(typical(&v), 10.0);
        assert_eq!(typical(&[5.0, 3.0, 9.0]), 3.0);
        assert_eq!(typical(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn rel_diff_is_relative_to_the_first_argument() {
        assert!((rel_diff(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((rel_diff(10.0, 9.0) + 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(0.0, 1.0), f64::INFINITY);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
