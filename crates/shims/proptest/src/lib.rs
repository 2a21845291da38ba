//! Offline stand-in for [`proptest`](https://docs.rs/proptest).
//!
//! Implements the strategy combinators and macros this workspace's
//! property tests use — `Strategy` with `prop_map`/`prop_flat_map`,
//! range and tuple strategies, `any::<T>()`, `collection::vec`, the
//! `proptest!`/`prop_assert*` macros and `ProptestConfig` — over a
//! deterministic SplitMix64 stream seeded from the test name, so runs
//! are reproducible. The one behavioural difference from real
//! proptest: failures are reported with the generated case number but
//! are **not shrunk** to a minimal counterexample.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Deterministic per-test random stream (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        x: u64,
    }

    impl TestRng {
        /// Seed from the test name so each test gets a stable stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { x: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }

    /// Mirror of `proptest::test_runner::Config` for the fields used.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+)),+) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy!(
        (A),
        (A, B),
        (A, B, C),
        (A, B, C, D),
        (A, B, C, D, E),
        (A, B, C, D, E, G),
        (A, B, C, D, E, G, H),
        (A, B, C, D, E, G, H, I)
    );

    /// Strategy yielding a constant value on every case.
    #[derive(Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `any::<T>()` result: full-domain generation for `T`.
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Any<T> {
        pub(crate) fn new() -> Self {
            Any {
                _marker: std::marker::PhantomData,
            }
        }
    }

    /// Full-domain generation, the `Arbitrary` stand-in.
    pub trait ArbitraryValue {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbitraryValue for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Generate any value of `T` (integers and bool supported).
pub fn any<T: strategy::ArbitraryValue>() -> strategy::Any<T> {
    strategy::Any::new()
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec()`]: an exact count or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`: a vector of `size` elements drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig};
}

/// Run each `fn name(pat in strategy) { body }` as a `#[test]` over
/// `config.cases` deterministic cases. No shrinking on failure; the
/// panic message carries the case index for reproduction.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                // Multiple `pat in strategy` bindings draw from one
                // tuple strategy, like real proptest.
                let strat = ($($strat,)+);
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let ($($pat,)+) = $crate::strategy::Strategy::generate(&strat, &mut rng);
                    let result = (move || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        Ok(())
                    })();
                    if let Err(msg) = result {
                        panic!(
                            "proptest case {case}/{} failed: {msg}",
                            config.cases
                        );
                    }
                }
            }
        )*
    };
}

/// `prop_assert!`: fail the current case (returns `Err` internally).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`: {}\n  left: `{:?}`\n right: `{:?}`",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(v in 3usize..10) {
            prop_assert!((3..10).contains(&v));
        }

        #[test]
        fn composite_strategies_work(
            script in (2usize..5, 8usize..33).prop_flat_map(|(a, b)| {
                collection::vec((0..a, 0..b, any::<i32>()), 1..4)
                    .prop_map(move |v| (a, b, v))
            })
        ) {
            let (a, b, v) = script;
            prop_assert!(!v.is_empty() && v.len() < 4);
            for (x, y, _z) in v {
                prop_assert!(x < a && y < b);
            }
        }
    }
}
