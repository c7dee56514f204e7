//! Offline stand-in for `proptest`.
//!
//! Supports the API surface `tests/prop_invariants.rs` uses: the
//! [`proptest!`] macro with an inline `proptest_config` attribute, range and
//! tuple strategies, [`collection::vec`], `prop_map`, and the
//! `prop_assert*`/`prop_assume!` macros. Cases are generated from a fixed
//! deterministic RNG (no failure persistence or shrinking — a failing case
//! panics with the generated values via the assertion message, and rerunning
//! reproduces it exactly).

#![warn(missing_docs)]

/// Deterministic RNG driving case generation (splitmix64).
pub struct TestRng(u64);

impl TestRng {
    /// A fixed-seed RNG; every test run sees the same case sequence.
    pub fn deterministic() -> Self {
        TestRng(0x9e37_79b9_7f4a_7c15)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Generates values of `Self::Value` from an RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u64, u32, u16, u8, usize);

/// Types with a full-range strategy via [`any`].
pub trait Arbitrary: Sized {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The unconstrained strategy for `T` — mirrors `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: an exact size or a half-open range.
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
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy yielding vectors of `element` draws with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Fixed-size array strategies (the `proptest::array` subset in use).
pub mod array {
    use super::{Strategy, TestRng};

    /// Strategy yielding `[S::Value; 8]` from 8 independent element draws.
    pub fn uniform8<S: Strategy>(element: S) -> Uniform8<S> {
        Uniform8 { element }
    }

    /// Strategy returned by [`uniform8`].
    pub struct Uniform8<S> {
        element: S,
    }

    impl<S: Strategy> Strategy for Uniform8<S> {
        type Value = [S::Value; 8];

        fn generate(&self, rng: &mut TestRng) -> [S::Value; 8] {
            std::array::from_fn(|_| self.element.generate(rng))
        }
    }
}

/// Per-block configuration accepted by `#![proptest_config(..)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Upper bound on `prop_assume!` rejections before a case set is
    /// considered exhausted (accepted for API parity; this shim does not
    /// regenerate rejected cases, it simply skips them).
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64, max_global_rejects: 65_536 }
    }
}

/// The common imports: strategy machinery plus the assertion macros.
pub mod prelude {
    pub use crate::{any, collection, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ..)` runs
/// `cases` times over freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { @cfg ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { @cfg ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (@cfg ($cfg:expr); ) => {};
    // The attribute repetition swallows `#[test]` together with any doc
    // comments; re-emitting it puts `#[test]` back on the generated fn.
    (@cfg ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic();
            for _case in 0..cfg.cases {
                // One closure per case: `prop_assume!` rejects by returning.
                // (`mut` in case the body mutates captured state.)
                #[allow(unused_mut)]
                let mut case = |rng: &mut $crate::TestRng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                    $body
                };
                case(&mut rng);
            }
        }
        $crate::__proptest_tests! { @cfg ($cfg); $($rest)* }
    };
}

/// Skips the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Asserts within a property (plain panic; the generated inputs appear in
/// the formatted message the caller provides).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 50, ..ProptestConfig::default() })]

        /// Ranges respect their bounds.
        #[test]
        fn range_in_bounds(x in 10u64..20) {
            prop_assert!((10..20).contains(&x));
        }

        /// Tuples and maps compose.
        #[test]
        fn tuple_and_vec((a, b) in (0u64..5, 0u64..5), v in collection::vec(0u64..3, 2..6)) {
            prop_assert!(a < 5 && b < 5);
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 3));
        }

        /// Assume rejects without failing.
        #[test]
        fn assume_filters(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn prop_map_applies() {
        let doubled = (0u64..10).prop_map(|x| x * 2);
        let mut rng = crate::TestRng::deterministic();
        for _ in 0..100 {
            assert_eq!(doubled.generate(&mut rng) % 2, 0);
        }
    }
}
