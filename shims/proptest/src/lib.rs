//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! The build container cannot fetch the real `proptest` crate, so this
//! path crate re-implements the API surface the repository's property
//! tests rely on: the [`strategy::Strategy`] trait with `prop_map`,
//! `prop_flat_map` and `boxed`; strategies for integer/float ranges,
//! tuples, `Vec<Strategy>`; [`collection::vec`]; the
//! [`test_runner::ProptestConfig`] knobs; and the `proptest!`,
//! `prop_assert!` and `prop_assert_eq!` macros.
//!
//! Semantics differences from upstream, all acceptable for these tests:
//! values are drawn from a fixed deterministic seed per case index (so
//! failures reproduce exactly), and there is **no shrinking** — a failing
//! case panics with the full `Debug` rendering of its inputs instead.

#![forbid(unsafe_code)]

pub mod strategy {
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// The RNG handed to strategies (deterministic per test case).
    pub type TestRng = SmallRng;

    /// Generates values of `Self::Value` (no shrinking in this shim).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Derives a dependent strategy from each generated value.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Object-safe view of [`Strategy`].
    trait DynStrategy {
        type Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy (cheaply cloneable).
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(S0 / 0);
    impl_tuple_strategy!(S0 / 0, S1 / 1);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);

    /// One independent strategy per element (upstream's `Vec<S>` impl).
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }
}

pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Element-count specification for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    /// A strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec` — vectors of `size` elements.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.min..=self.size.max_inclusive);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Runner knobs (subset; only `cases` is honoured).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
        /// Accepted for struct-update compatibility; unused (no shrinking).
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The property was violated.
        Fail(String),
        /// The inputs were rejected (counted, not a failure).
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Per-case result type of property bodies.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic per-case RNG: same case index, same values, every
    /// run — failures printed by `proptest!` reproduce exactly.
    pub fn rng_for_case(case: u32) -> SmallRng {
        SmallRng::seed_from_u64(0x000A_5EED_5EED ^ ((case as u64) << 20) ^ case as u64)
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests. See the crate docs for supported forms.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$attr:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::rng_for_case(__case);
                $(
                    let $arg = $crate::strategy::Strategy::generate(
                        &($strat),
                        &mut __rng,
                    );
                )+
                let __result: $crate::test_runner::TestCaseResult = (|| {
                    { $body }
                    ::core::result::Result::Ok(())
                })();
                match __result {
                    ::core::result::Result::Ok(()) => {}
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(_),
                    ) => {}
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(__msg),
                    ) => {
                        panic!(
                            "proptest case {} failed: {}\ninputs: {:#?}",
                            __case,
                            __msg,
                            ($(&$arg,)+)
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
}

/// Asserts a condition inside a property body (returns `Err` on failure
/// so the runner can report the generated inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}", l, r, format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_strategies_generate_in_bounds() {
        let mut rng = crate::test_runner::rng_for_case(0);
        let s = collection::vec(0..10usize, 3..=5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..=5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn flat_map_and_boxed_compose() {
        let mut rng = crate::test_runner::rng_for_case(1);
        let s = (2..6usize).prop_flat_map(|n| {
            let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
            (parents, collection::vec(0..3usize, n - 1)).prop_map(|(p, t)| (p, t))
        });
        for _ in 0..100 {
            let (parents, tags) = s.generate(&mut rng);
            assert_eq!(parents.len(), tags.len());
            for (i, &p) in parents.iter().enumerate() {
                assert!(p <= i, "parent {p} of node {}", i + 1);
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let s = (0..1000u32, 0.0f64..1.0);
        let a = s.generate(&mut crate::test_runner::rng_for_case(7));
        let b = s.generate(&mut crate::test_runner::rng_for_case(7));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn the_macro_itself_works(a in 0..50usize, b in 0..50usize) {
            prop_assert!(a < 50 && b < 50);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, a + b + 1);
        }
    }
}
