//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors a
//! deterministic strategy-based testing core with the API slice its property
//! tests use: `Strategy` with `prop_map`/`prop_recursive`, `Just`, `any`,
//! range and regex-pattern strategies, tuple strategies,
//! `prop::collection::vec`, the `proptest!`/`prop_oneof!`/`prop_assert*`
//! macros, and `ProptestConfig::with_cases`.
//!
//! Differences from real proptest: no shrinking (a failing case reports its
//! inputs instead), and the RNG is seeded from the test name, so runs are
//! reproducible without a persistence file.
#![deny(unsafe_code)]

mod pattern;

use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// Deterministic generator backing all strategies (xoshiro256++ seeded via
/// SplitMix64 from a test-name hash).
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds from an arbitrary label (typically the test path) so every test
    /// gets an independent, reproducible stream.
    pub fn for_test(label: &str) -> TestRng {
        // FNV-1a over the label.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut x = h;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng { s: [next(), next(), next(), next()] }
    }

    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform value in `[0, n)` (Lemire multiply-shift with rejection).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Runner configuration; only the case count is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A failed property check, produced by the `prop_assert*` macros.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A generator of values of one type.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<U, F>(self, f: F) -> SBox<U>
    where
        Self: Sized + 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        SBox::new(move |rng| f(self.generate(rng)))
    }

    /// Builds recursive structures: `self` is the leaf strategy, `f` wraps a
    /// strategy into one that nests it one level deeper. `depth` bounds the
    /// nesting; the size/branch hints of real proptest are ignored.
    fn prop_recursive<F>(self, depth: u32, _desired_size: u32, _expected_branch: u32, f: F) -> SBox<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(SBox<Self::Value>) -> SBox<Self::Value>,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let deeper = f(current);
            let shallow = leaf.clone();
            // Mix leaves back in at every level so shallow values stay common.
            current = SBox::new(move |rng| {
                if rng.below(2) == 0 {
                    shallow.generate(rng)
                } else {
                    deeper.generate(rng)
                }
            });
        }
        current
    }

    /// Type-erases the strategy.
    fn boxed(self) -> SBox<Self::Value>
    where
        Self: Sized + 'static,
    {
        SBox::new(move |rng| self.generate(rng))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct SBox<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> SBox<T> {
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> SBox<T> {
        SBox(Rc::new(f))
    }
}

impl<T> Clone for SBox<T> {
    fn clone(&self) -> SBox<T> {
        SBox(Rc::clone(&self.0))
    }
}

impl<T> Strategy for SBox<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "arbitrary value" strategy.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        // Occasionally inject boundary values, which uniform sampling would
        // essentially never produce.
        if rng.below(16) == 0 {
            const EDGES: [i64; 5] = [0, 1, -1, i64::MIN, i64::MAX];
            EDGES[rng.below(EDGES.len() as u64) as usize]
        } else {
            rng.next_u64() as i64
        }
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

/// Strategy producing arbitrary values of `T`.
pub fn any<T: Arbitrary + 'static>() -> SBox<T> {
    SBox::new(|rng| T::arbitrary(rng))
}

/// Uniform choice between type-erased alternatives (used by `prop_oneof!`).
pub fn one_of<T: 'static>(arms: Vec<SBox<T>>) -> SBox<T> {
    assert!(!arms.is_empty(), "prop_oneof! requires at least one alternative");
    SBox::new(move |rng| {
        let pick = rng.below(arms.len() as u64) as usize;
        arms[pick].generate(rng)
    })
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// String strategies from regex-like patterns (see [`pattern`]).
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::gen_string(self, rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy!((A, B) (A, B, C) (A, B, C, D));

pub mod prop {
    pub mod collection {
        use super::super::{SBox, Strategy};
        use std::ops::Range;

        /// Vector of values from `element`, with a length drawn from `size`.
        pub fn vec<S>(element: S, size: Range<usize>) -> SBox<Vec<S::Value>>
        where
            S: Strategy + 'static,
            S::Value: 'static,
        {
            assert!(size.start < size.end, "empty size range in prop::collection::vec");
            SBox::new(move |rng| {
                let span = (size.end - size.start) as u64;
                let n = size.start + rng.below(span) as usize;
                (0..n).map(|_| element.generate(rng)).collect()
            })
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)+));
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}: {}", l, r, format!($($fmt)+));
    }};
}

/// Declares property tests: each function body runs `cases` times with fresh
/// inputs drawn from its strategies. On failure the inputs are reported (no
/// shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let described =
                    [$(format!("{} = {:?}", stringify!($arg), &$arg)),+].join(", ");
                let outcome = (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property '{}' failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name),
                        case,
                        config.cases,
                        e,
                        described
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Tree {
        Leaf(i64),
        Node(Vec<Tree>),
    }

    fn depth(t: &Tree) -> usize {
        match t {
            Tree::Leaf(_) => 0,
            Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3i64..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_lengths_respected(xs in prop::collection::vec(0i64..10, 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|&v| (0..10).contains(&v)));
        }

        #[test]
        fn tuples_and_oneof(pair in (any::<bool>(), 0i64..3), v in prop_oneof![Just(1i64), Just(2)]) {
            prop_assert!((0..3).contains(&pair.1));
            prop_assert!(v == 1 || v == 2);
        }

        #[test]
        fn strings_match_pattern(s in "[a-c]{2,4}") {
            prop_assert!(s.len() >= 2 && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn recursive_strategy_bounds_depth() {
        let strat = (0i64..10).prop_map(Tree::Leaf).prop_recursive(3, 24, 4, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(Tree::Node).boxed()
        });
        let mut rng = crate::TestRng::for_test("recursive");
        let mut max_depth = 0;
        for _ in 0..500 {
            max_depth = max_depth.max(depth(&strat.generate(&mut rng)));
        }
        assert!(max_depth >= 1, "recursion never fired");
        assert!(max_depth <= 3, "depth bound exceeded: {max_depth}");
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[allow(unused)]
            fn always_fails(x in 0i64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
