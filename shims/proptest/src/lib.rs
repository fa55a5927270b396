//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the [`strategy::Strategy`]
//! trait (ranges, tuples, `Just`, `prop_map`, `prop_oneof!`,
//! `prop::collection::vec`, `any::<T>()`) and the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` macros. Unlike real proptest there is
//! no shrinking — a failing case reports its deterministic case index so it
//! can be replayed by rerunning the test. Sampling is seeded per
//! (test-name, case), so runs are fully reproducible.

pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
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

    /// A failed property (produced by `prop_assert!`-style macros).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Deterministic splitmix64 RNG driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name and case index (FNV-1a over the name).
        pub fn deterministic(name: &str, case: u64) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// A generator of random values. Object-safe: combinators that need
    /// `Sized` carry a `where Self: Sized` bound so `Box<dyn Strategy>`
    /// works for `prop_oneof!`.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `strategy.prop_map(f)`.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].sample(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

    impl Strategy for Range<u128> {
        type Value = u128;

        fn sample(&self, rng: &mut TestRng) -> u128 {
            assert!(self.start < self.end, "empty range strategy");
            let span = self.end - self.start;
            self.start + (rng.next_u64() as u128 % span)
        }
    }

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as f64;
                    let hi = self.end as f64;
                    (lo + rng.next_f64() * (hi - lo)) as $t
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
    }

    /// Types with a canonical "sample anything" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.next_u64() as u32
        }
    }

    impl Arbitrary for usize {
        fn arbitrary(rng: &mut TestRng) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// `any::<T>()` — the canonical strategy for `T`.
    #[derive(Debug, Clone)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Lengths accepted by [`vec()`]: a fixed size or a `Range<usize>`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Mirrors `proptest::prelude::prop::...` paths (`prop::collection::vec`).
pub mod prop {
    pub use super::collection;
}

pub mod prelude {
    pub use super::prop;
    pub use super::strategy::{any, Arbitrary, Just, Strategy};
    pub use super::test_runner::Config as ProptestConfig;
    pub use super::test_runner::{TestCaseError, TestRng};
    pub use super::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if !(l == r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...)` body runs
/// for `cases` deterministic samples (default 64, override with
/// `#![proptest_config(ProptestConfig::with_cases(n))]`).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest_fns!{ ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::proptest_fns!{ ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! proptest_fns {
    ( ($config:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                for case in 0..config.cases as u64 {
                    let mut rng =
                        $crate::test_runner::TestRng::deterministic(stringify!($name), case);
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Rotate(usize),
        Barrier,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![(1usize..20).prop_map(Op::Rotate), Just(Op::Barrier)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(n in 3usize..9, x in -2.0f32..2.0, s in any::<u64>()) {
            let _ = s;
            prop_assert!((3..9).contains(&n));
            prop_assert!((-2.0..2.0).contains(&x));
        }

        #[test]
        fn vec_strategy_sizes(v in prop::collection::vec(1u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| (1..5).contains(&x)));
        }

        #[test]
        fn oneof_and_map_compose(o in op(), pair in (1usize..4, 0u64..10)) {
            match o {
                Op::Rotate(n) => prop_assert!((1..20).contains(&n)),
                Op::Barrier => {}
            }
            prop_assert_eq!(pair.0.min(3), pair.0);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = (1usize..100, 0.0f64..1.0);
        let mut a = TestRng::deterministic("x", 3);
        let mut b = TestRng::deterministic("x", 3);
        assert_eq!(s.sample(&mut a).0, s.sample(&mut b).0);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(n in 0usize..10) {
                prop_assert!(n > 100, "n was {}", n);
            }
        }
        always_fails();
    }
}
