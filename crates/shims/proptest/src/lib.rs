//! In-tree stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate implements
//! the subset of the proptest 1.x API the workspace's property tests use:
//!
//! * the [`Strategy`](strategy::Strategy) trait with `prop_map`,
//!   `prop_filter` and `prop_recursive`,
//! * ranges and tuples of strategies, [`any`](strategy::any) for primitives,
//! * [`collection::vec`], the [`prop_oneof!`], [`proptest!`],
//!   [`prop_assert!`] and [`prop_assert_eq!`] macros,
//! * a deterministic per-test RNG (seeded from the test name), so failures
//!   reproduce exactly on re-run.
//!
//! There is **no shrinking**: a failing case panics with the generated inputs
//! formatted into the panic message instead of a minimised counterexample.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Strategies over collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Generates a `Vec` whose length is drawn from `len` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Asserts a condition inside a [`proptest!`] test body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a [`proptest!`] test body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::BoxedStrategy::new($strategy)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body on `config.cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                let _ = case;
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                $body
            }
        }
    )*};
}
