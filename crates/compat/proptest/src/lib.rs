//! Offline stand-in for the `proptest` crate.
//!
//! Supports the API subset this workspace's property tests use: range and
//! tuple strategies, `prop_map`/`prop_flat_map`, `Just`, `any::<bool>()`,
//! `prop::collection::vec`, the `proptest!` macro with an optional
//! `#![proptest_config(...)]` header, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from real proptest: cases are generated from a fixed
//! deterministic seed derived from the test name (fully reproducible
//! runs), and failing cases are reported but **not shrunk**. As in real
//! proptest, `PROPTEST_CASES` sets the default case count.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values for one proptest argument.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Build a dependent strategy from generated values.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
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
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    #[allow(clippy::cast_possible_truncation)]
                    let u = rng.unit_f64() as $t;
                    self.start + (self.end - self.start) * u
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    #[allow(clippy::cast_possible_truncation)]
                    let u = rng.unit_f64() as $t;
                    lo + (hi - lo) * u
                }
            }
        )*};
    }

    impl_float_strategy!(f32, f64);

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                #[allow(clippy::cast_lossless, clippy::cast_possible_wrap)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (u128::from(rng.next_u64()) % span) as i128;
                    (self.start as i128 + offset) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                #[allow(clippy::cast_lossless, clippy::cast_possible_wrap)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let offset = (u128::from(rng.next_u64()) % span) as i128;
                    (lo as i128 + offset) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);

    /// A vector of strategies generates element-wise (fixed length).
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Strategy for [`any`].
    #[derive(Debug, Default)]
    pub struct Any<T>(PhantomData<T>);

    /// `any::<T>()`: the canonical strategy for `T`.
    #[must_use]
    pub fn any<T>() -> Any<T> {
        Any(PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            // Finite, sign-balanced, spanning many magnitudes.
            let mag = rng.unit_f64() * 600.0 - 300.0;
            let sign = if rng.next_u64() & 1 == 1 { 1.0 } else { -1.0 };
            sign * 10f64.powf(mag / 100.0)
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Element-count specification for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing vectors with strategy-generated elements.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, sizes)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            #[allow(clippy::cast_possible_truncation)]
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-proptest configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Override the case count.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl ProptestConfig {
        /// The default case count, overridden by a positive integer in
        /// `PROPTEST_CASES` as in real proptest (unset or malformed keeps
        /// 64).
        pub(crate) fn cases_from_env(value: Option<&str>) -> u32 {
            value
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(64)
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let env = std::env::var("PROPTEST_CASES").ok();
            Self {
                cases: Self::cases_from_env(env.as_deref()),
            }
        }
    }

    /// A failed property.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        msg: String,
    }

    impl TestCaseError {
        /// Fail with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            Self { msg: msg.into() }
        }

        /// Alias kept for API parity with real proptest.
        pub fn reject(msg: impl Into<String>) -> Self {
            Self::fail(msg)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.msg)
        }
    }

    /// Deterministic SplitMix64 stream seeded from the test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from an arbitrary label (the `proptest!` macro passes the
        /// test function name, so every test has its own fixed stream).
        #[must_use]
        pub fn deterministic(label: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            #[allow(clippy::cast_precision_loss)]
            let x = (self.next_u64() >> 11) as f64;
            x * (1.0 / 9_007_199_254_740_992.0)
        }
    }
}

pub mod prelude {
    /// `prop::collection::vec(...)`-style paths.
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Assert inside a proptest body (early-returns a `TestCaseError`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: {:?} != {:?}", l, r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, $($fmt)+);
            }
        }
    };
}

/// Define property tests over strategy-generated arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@body ($cfg) $($rest)*);
    };
    (@body ($cfg:expr) $($(#[$meta:meta])* fn $name:ident(
        $($arg:pat_param in $strat:expr),+ $(,)?
    ) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut rng =
                $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::core::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (move || {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed at deterministic case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(
            @body ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, f in -1.5f64..1.5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-1.5..1.5).contains(&f));
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec((0u32..5, any::<bool>()), 1..8),
            w in (1usize..4).prop_flat_map(|n| {
                (0..n).map(|_| 0i32..10).collect::<Vec<_>>()
            }),
            j in Just(7u8),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(!w.is_empty() && w.len() < 4);
            prop_assert_eq!(j, 7u8);
            for (a, _) in &v {
                prop_assert!(*a < 5, "element {} escaped its range", a);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Config headers parse and bound the case count.
        #[test]
        fn config_header_is_honored(x in 0f32..1.0) {
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn default_case_count_reads_proptest_cases() {
        use crate::test_runner::ProptestConfig;
        assert_eq!(ProptestConfig::cases_from_env(None), 64);
        assert_eq!(ProptestConfig::cases_from_env(Some("4096")), 4096);
        assert_eq!(ProptestConfig::cases_from_env(Some(" 7\n")), 7);
        for bad in ["", "many", "-3", "0", "1e3", "99999999999"] {
            assert_eq!(ProptestConfig::cases_from_env(Some(bad)), 64, "{bad:?}");
        }
    }

    #[test]
    fn prop_assert_produces_a_test_case_error() {
        let run = |x: u8| -> Result<(), TestCaseError> {
            prop_assert!(x > 200, "x was {}", x);
            Ok(())
        };
        assert!(run(250).is_ok());
        let err = run(3).unwrap_err();
        assert_eq!(err.to_string(), "x was 3");
    }
}
