//! Offline shim for the subset of the [`proptest`] API used by
//! `tests/properties.rs`.
//!
//! The build environment has no network access, so the real `proptest` crate
//! cannot be fetched. This shim keeps the same surface — the [`proptest!`]
//! macro, [`Strategy`] with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], `prop_assert*` — backed by a deterministic
//! SplitMix64 generator. There is no shrinking: a failing case reports its
//! case index and panics with the assertion message. Swapping this path
//! dependency for the crates.io `proptest` requires no source changes.
//!
//! [`proptest`]: https://docs.rs/proptest

use std::ops::Range;

/// Deterministic SplitMix64 generator driving all value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound = 0` yields 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of test values (the shim's take on proptest's `Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<B, F: Fn(Self::Value) -> B>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, build a dependent strategy from it with `f`, and
    /// generate from that.
    fn prop_flat_map<B: Strategy, F: Fn(Self::Value) -> B>(self, f: F) -> FlatMap<Self, F>
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

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, B, F: Fn(S::Value) -> B> Strategy for Map<S, F> {
    type Value = B;
    fn generate(&self, rng: &mut TestRng) -> B {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, B: Strategy, F: Fn(S::Value) -> B> Strategy for FlatMap<S, F> {
    type Value = B::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).saturating_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Collection strategies.
pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// Length specification for [`vec()`]: an exact `usize` or a `Range<usize>`.
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            Self(len..len + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self(r)
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate a `Vec` whose length is drawn from `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.0.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration (case count only in the shim).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Assert a condition inside a property; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property; panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests: each `fn name(pat in strategy, …) { body }` becomes
/// a `#[test]` running `body` over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @impl ($cfg); $($rest)* }
    };
    (@impl ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new(
                    0x5DEE_CE66_D000_0001u64 ^ stringify!($name).as_bytes().iter()
                        .fold(0u64, |h, &b| h.wrapping_mul(131).wrapping_add(b as u64)),
                );
                let strat = ($($strat,)*);
                for case in 0..cfg.cases {
                    let ($($arg,)*) = $crate::Strategy::generate(&strat, &mut rng);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body));
                    if let Err(payload) = result {
                        eprintln!(
                            "proptest shim: property {} failed at case {}/{} (no shrinking)",
                            stringify!($name), case, cfg.cases,
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @impl ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Everything `tests/properties.rs` imports via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}
