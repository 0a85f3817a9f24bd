//! The [`Strategy`] trait and the combinators the workspace uses.

use crate::test_runner::TestRng;
use rand::{Rng, RngCore, SampleRange};
use std::sync::Arc;

/// A recipe for generating random values of one type.
///
/// Unlike real proptest there is no value tree and no shrinking; `generate`
/// simply draws one value.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Draws one random value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms every generated value with `map`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, map }
    }

    /// Rejects generated values failing `predicate` (regenerating instead).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: &'static str,
        predicate: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason,
            predicate,
        }
    }

    /// Builds a recursive strategy: `recurse` receives a strategy for the
    /// inner level and returns the strategy for one level up.  `depth` bounds
    /// the nesting; `_desired_size` and `_branch_size` are accepted for API
    /// compatibility and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = BoxedStrategy::new(self);
        let mut current = leaf.clone();
        for _ in 0..depth {
            let deeper = BoxedStrategy::new(recurse(current));
            // Each level mixes in the leaf again so generated values vary in
            // depth rather than always bottoming out at `depth`.
            current = BoxedStrategy::new(WeightedUnion {
                choices: vec![(1, leaf.clone()), (3, deeper)],
            });
        }
        current
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy::new(self)
    }
}

/// A cheaply clonable, type-erased strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> BoxedStrategy<T> {
    /// Erases `strategy`.
    pub fn new<S: Strategy<Value = T> + 'static>(strategy: S) -> Self {
        Self(Arc::new(strategy))
    }
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    map: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.map)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone, Debug)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    predicate: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let value = self.inner.generate(rng);
            if (self.predicate)(&value) {
                return value;
            }
        }
        panic!("prop_filter({:?}) rejected 10000 candidates", self.reason);
    }
}

/// Uniform choice among type-erased strategies (built by
/// [`prop_oneof!`](crate::prop_oneof)).
pub struct Union<T> {
    choices: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union drawing uniformly from `choices`.
    pub fn new(choices: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        Self { choices }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Self {
            choices: self.choices.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let index = rng.rng.gen_range(0..self.choices.len());
        self.choices[index].generate(rng)
    }
}

/// Weighted union used by `prop_recursive` to mix leaves into deep levels.
pub(crate) struct WeightedUnion<T> {
    pub(crate) choices: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Strategy for WeightedUnion<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u32 = self.choices.iter().map(|(w, _)| *w).sum();
        let mut draw = rng.rng.gen_range(0..total);
        for (weight, strategy) in &self.choices {
            if draw < *weight {
                return strategy.generate(rng);
            }
            draw -= weight;
        }
        unreachable!("weights cover the draw range")
    }
}

// ---------------------------------------------------------------------- //
// Primitive strategies
// ---------------------------------------------------------------------- //

/// Strategy for any value of a primitive type (mirrors `proptest::arbitrary`).
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The full-range strategy for a primitive type.
pub fn any<T: ArbitraryPrimitive>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Primitive types supported by [`any`].
pub trait ArbitraryPrimitive: Sized {
    /// Draws one uniformly distributed value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryPrimitive for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl ArbitraryPrimitive for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryPrimitive for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.rng.next_u64() as u128) << 64) | rng.rng.next_u64() as u128
    }
}

impl<T: ArbitraryPrimitive> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// Ranges are strategies, as in real proptest.
macro_rules! impl_range_strategy {
    ($($range:ident),*) => {$(
        impl<T> Strategy for std::ops::$range<T>
        where
            T: Clone,
            std::ops::$range<T>: SampleRange<T>,
        {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                self.clone().sample(&mut rng.rng)
            }
        }
    )*};
}

impl_range_strategy!(Range, RangeInclusive, RangeFrom);

// Tuples of strategies are strategies over tuples.
macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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
