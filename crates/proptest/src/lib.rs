//! Vendored stand-in for the `proptest` crate.
//!
//! The workspace's property tests use a small slice of proptest's API;
//! this offline-friendly shim provides exactly that slice:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] /
//!   [`prop_assume!`],
//! * strategies: integer and `f64` ranges, tuples, [`Just`],
//!   [`prop_oneof!`], [`Strategy::prop_map`], [`collection::vec`], and
//!   [`bool::ANY`].
//!
//! Semantics differ from real proptest in two deliberate ways: cases are
//! drawn from a *fixed* seed derived from the test name (every run tests
//! the same inputs, so failures reproduce without a persistence file), and
//! there is no shrinking (the failing values are printed instead).

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// How a [`proptest!`] block runs its cases.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-test generator: the seed is an FNV-1a hash of the
/// test name, so each test explores its own fixed input sequence.
pub fn test_rng(test_name: &str) -> SmallRng {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SmallRng::seed_from_u64(h)
}

/// A value generator. Unlike real proptest there is no shrink tree; a
/// strategy is just a deterministic function of the RNG stream.
pub trait Strategy {
    /// The type of generated values.
    type Value: std::fmt::Debug;

    /// Draw one value.
    fn sample(&self, rng: &mut SmallRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: std::fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy (used by [`prop_oneof!`] to mix arms of
    /// different concrete types).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: std::fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        (**self).sample(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: std::fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut SmallRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform choice among boxed arms — the engine of [`prop_oneof!`].
pub struct OneOf<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T: std::fmt::Debug> OneOf<T> {
    /// Choose uniformly among `arms` each sample.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<T: std::fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        let i = rng.random_range(0..self.arms.len());
        self.arms[i].sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies.
pub mod collection {
    use super::Strategy;
    use rand::rngs::SmallRng;
    use rand::RngExt;

    /// Strategy for `Vec`s with lengths drawn from `sizes` and elements
    /// from `element`.
    pub struct VecStrategy<S> {
        element: S,
        sizes: std::ops::Range<usize>,
    }

    /// A `Vec` of values from `element`, with a length in `sizes`.
    pub fn vec<S: Strategy>(element: S, sizes: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(sizes.start < sizes.end, "empty size range");
        VecStrategy { element, sizes }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.random_range(self.sizes.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::Strategy;
    use rand::rngs::SmallRng;
    use rand::RngExt;

    /// Strategy producing fair booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct BoolAny;

    /// A fair boolean.
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn sample(&self, rng: &mut SmallRng) -> bool {
            rng.random()
        }
    }
}

/// The usual imports for property tests.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Declare property tests: each `#[test] fn name(arg in strategy, ...)`
/// becomes a normal `#[test]` that samples its arguments `cases` times
/// from a fixed per-test RNG and runs the body on each sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( #[test] fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            #[test]
            fn $name() {
                #[allow(unused_imports)]
                use $crate::Strategy as _;
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $( let $arg = ($strat).sample(&mut rng); )+
                    // Err(()) marks a case discarded by prop_assume!.
                    let case = || -> ::std::result::Result<(), ()> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    };
                    let _outcome = case();
                }
            }
        )*
    };
}

/// Uniform choice among strategy arms (arms may have different concrete
/// strategy types as long as their `Value`s agree).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        #[allow(unused_imports)]
        use $crate::Strategy as _;
        $crate::OneOf::new(vec![$(($arm).boxed()),+])
    }};
}

/// Assert within a property body (no shrinking; behaves like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality within a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Discard the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::std::result::Result::Err(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small() -> impl Strategy<Value = u32> {
        prop_oneof![Just(1u32), Just(2u32), (10u32..20).prop_map(|x| x * 2)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0usize..4, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_and_tuple_shapes(v in crate::collection::vec((0u8..8, crate::bool::ANY), 1..9)) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            for (a, _b) in v {
                prop_assert!(a < 8);
            }
        }

        #[test]
        fn oneof_and_assume(x in small(), gate in 0u32..10) {
            prop_assume!(gate > 0);
            prop_assert!(x == 1 || x == 2 || (20..40).contains(&x));
            prop_assert_ne!(gate, 0);
        }
    }

    #[test]
    fn fixed_seed_reproduces() {
        let mut a = crate::test_rng("name");
        let mut b = crate::test_rng("name");
        let s = 0u64..100;
        for _ in 0..100 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }
}
