//! Offline stand-in for the `rand` crate (the 0.8 API slice this workspace
//! uses: `StdRng::seed_from_u64` plus `Rng::gen_range` over integer and float
//! ranges).
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — not the ChaCha12
//! generator of the real `StdRng`, but statistically solid for synthetic data
//! generation, and fully deterministic for a given seed, which is all the ADL
//! and SSB generators rely on.
#![deny(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core entropy source: 64-bit output per step.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_f64(&mut self) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// The output type is a trait parameter (as in rand 0.8) so integer
    /// literals in the range infer their type from the call site.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// True with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }
}

impl<T: RngCore> Rng for T {}

/// The workspace's standard generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        // SplitMix64 expansion of the seed, as recommended by the xoshiro
        // authors; guarantees a non-zero state for every seed.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng { s: [next(), next(), next(), next()] }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

pub mod rngs {
    pub use super::StdRng;
}

/// Uniform sampling from a range, mirroring `rand::distributions::uniform`.
///
/// Implemented as blanket impls over [`SampleUniform`] element types — exactly
/// like rand 0.8 — so the range's literal type unifies with the call site's
/// expected output type during inference.
pub trait SampleRange<T> {
    fn sample<R: RngCore>(self, rng: &mut R) -> T;
}

/// Element types that can be drawn uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform value in `[lo, hi)` or `[lo, hi]` depending on `inclusive`.
    fn sample_between<R: RngCore>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range in gen_range");
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range in gen_range");
        T::sample_between(lo, hi, true, rng)
    }
}

/// Unbiased integer in `[0, n)` via Lemire's multiply-shift with rejection.
fn uniform_below<R: RngCore>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    // 2^64 mod n: samples whose low product word falls below this threshold
    // land in the over-represented fringe and are rejected.
    let threshold = n.wrapping_neg() % n;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                let span = if inclusive { span.wrapping_add(1) } else { span };
                if span == 0 {
                    // Inclusive full 64-bit domain.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore>(lo: f64, hi: f64, _inclusive: bool, rng: &mut R) -> f64 {
        lo + rng.next_f64() * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_between<R: RngCore>(lo: f32, hi: f32, _inclusive: bool, rng: &mut R) -> f32 {
        lo + (rng.next_f64() as f32) * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.gen_range(0..3usize);
            assert!(u < 3);
        }
    }

    #[test]
    fn covers_whole_small_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn float_uniform_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
