//! Exact model counting: one traversal, a fixed-width fast path, and a memo
//! shared by every count made through one counter.
//!
//! The number of satisfying assignments of a function over `c` counted
//! variables is at most `2^c`.  While `c ≤ 127` every intermediate value of
//! the traversal — node counts, complements `2^e − m` and level-gap shifts —
//! fits in a `u128`, so the counter runs on machine words and allocates
//! nothing but its memo.  Above 127 counted variables the same traversal
//! runs on [`UBig`].  Both widths give the identical exact count; only the
//! result's conversion to `UBig` differs.
//!
//! # The shared memo
//!
//! A memo entry maps a **regular** node to its models over the counted
//! variables at or below its own level.  That value depends on the node and
//! the variable order only, not on the root it was reached from, so one
//! [`ModelCounter`] can count many roots and every node shared between them
//! is visited once.
//!
//! The counter owns its memo and takes the manager by `&Manager` on every
//! count, so a memo can outlive one borrow: a bit-sliced state keeps one
//! counter for all the readings of one state, from the first probability
//! query after a gate to the end of the sampling descent.  Why an entry
//! stays valid:
//!
//! * between two counts the manager may only build nodes (`and`,
//!   `cofactor`, …) or run an exclusive phase.  A node it builds gets an
//!   id that no memoised node holds, and the stored nodes it reuses never
//!   change;
//! * an exclusive phase that may free a node (whose id a later node could
//!   reuse) or change the order (which moves the levels a count was taken
//!   over) advances [`Manager::generation`].  The counter records the
//!   generation it was built at, and the first count after it moved starts
//!   from an empty memo, so a stale entry is never read.
//!
//! The memo holds one entry per regular node the counter has visited, and
//! it is freed only with the counter.
//!
//! A counter is tied to the manager it was built from; counting a node of
//! another manager through it is a logic error the generation cannot see.

use crate::hash::FxHashMap;
use crate::manager::{Manager, NodeId};
use sliq_bignum::UBig;

/// Most counted variables whose counts fit a `u128`: the tautology over
/// them has `2^127` models.
const NARROW_MAX_VARS: u32 = 127;

/// An exact model counter over the variables `0..nvars` of one manager,
/// with a memo that persists across [`ModelCounter::count`] calls until the
/// manager's [`Manager::generation`] moves (see the module docs for why
/// that is sound).
///
/// ```
/// use sliq_bdd::{Manager, ModelCounter};
/// let mut mgr = Manager::new(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.and(a, b);
/// let mut counter = ModelCounter::new(&mgr, 3);
/// assert_eq!(counter.count(&mgr, f), sliq_bignum::UBig::from(2u64));
/// // The second root reuses the memoised nodes of the first.
/// assert_eq!(counter.count(&mgr, mgr.not(f)), sliq_bignum::UBig::from(6u64));
/// // A garbage collection frees every node here, so the next count
/// // starts from an empty memo, whatever ids the new nodes reuse.
/// mgr.collect_garbage(&[]);
/// let g = mgr.or(mgr.var(0), mgr.var(1));
/// assert_eq!(counter.count(&mgr, g), sliq_bignum::UBig::from(6u64));
/// ```
#[derive(Debug, Clone)]
pub struct ModelCounter {
    nvars: usize,
    /// The manager generation that `prefix` and `memo` belong to.
    generation: u64,
    /// `prefix[l]` = number of counted variables (index `< nvars`) at
    /// levels `< l`; the exponent of a level gap `[a, b)` is
    /// `prefix[b] − prefix[a]`.
    prefix: Vec<u32>,
    memo: Memo,
}

/// The memo, in the count width chosen once from the counted-variable total.
#[derive(Debug, Clone)]
enum Memo {
    Narrow(FxHashMap<NodeId, u128>),
    Wide(FxHashMap<NodeId, UBig>),
}

impl ModelCounter {
    /// A counter over the variables `0..nvars` of `mgr` in its current
    /// order.  The counted variables need not occupy contiguous levels.
    pub fn new(mgr: &Manager, nvars: usize) -> Self {
        let n = mgr.num_vars();
        let mut prefix = vec![0u32; n + 1];
        for l in 0..n {
            prefix[l + 1] = prefix[l] + u32::from((mgr.level_to_var[l] as usize) < nvars);
        }
        let memo = if prefix[n] <= NARROW_MAX_VARS {
            Memo::Narrow(FxHashMap::default())
        } else {
            Memo::Wide(FxHashMap::default())
        };
        Self {
            nvars,
            generation: mgr.generation(),
            prefix,
            memo,
        }
    }

    /// Drops the memo if `mgr` may have freed a node or changed the order
    /// since it was built.
    fn refresh(&mut self, mgr: &Manager) {
        if self.generation != mgr.generation() {
            *self = Self::new(mgr, self.nvars);
        }
    }

    /// The number of satisfying assignments of `f` over the counted
    /// variables.  `f` must be a node of the manager the counter was built
    /// from, and must not depend on variables `≥ nvars`.
    pub fn count(&mut self, mgr: &Manager, f: NodeId) -> UBig {
        self.refresh(mgr);
        match &mut self.memo {
            Memo::Narrow(memo) => UBig::from(count_edge(mgr, f, 0, &self.prefix, memo)),
            Memo::Wide(memo) => count_edge(mgr, f, 0, &self.prefix, memo),
        }
    }

    /// The same exact count as [`ModelCounter::count`] as a `u128`, or
    /// `None` when the counter runs on [`UBig`] (more than 127 counted
    /// variables).  Lets callers sum counts on machine words.
    pub fn count_narrow(&mut self, mgr: &Manager, f: NodeId) -> Option<u128> {
        self.refresh(mgr);
        match &mut self.memo {
            Memo::Narrow(memo) => Some(count_edge(mgr, f, 0, &self.prefix, memo)),
            Memo::Wide(_) => None,
        }
    }
}

/// The arithmetic the traversal needs; every result is exact.
trait Count: Clone {
    fn zero() -> Self;
    fn pow2(exp: u32) -> Self;
    fn plus(&self, other: &Self) -> Self;
    /// `self − other`, with `other ≤ self`.
    fn minus(&self, other: &Self) -> Self;
    fn shl(&self, bits: u32) -> Self;
}

/// Exact while at most [`NARROW_MAX_VARS`] variables are counted: no value
/// exceeds `2^127`, so no operation overflows.
impl Count for u128 {
    fn zero() -> Self {
        0
    }
    fn pow2(exp: u32) -> Self {
        1 << exp
    }
    fn plus(&self, other: &Self) -> Self {
        self + other
    }
    fn minus(&self, other: &Self) -> Self {
        self - other
    }
    fn shl(&self, bits: u32) -> Self {
        self << bits
    }
}

impl Count for UBig {
    fn zero() -> Self {
        UBig::zero()
    }
    fn pow2(exp: u32) -> Self {
        UBig::pow2(exp as usize)
    }
    fn plus(&self, other: &Self) -> Self {
        UBig::add(self, other)
    }
    fn minus(&self, other: &Self) -> Self {
        UBig::sub(self, other)
    }
    fn shl(&self, bits: u32) -> Self {
        UBig::shl(self, bits as usize)
    }
}

/// Models of the function reached through edge `f` over the counted
/// variables at levels `≥ from` (all of which are at or below `f`'s level).
/// Complemented edges count by subtraction: `|¬g| = 2^(vars below) − |g|`.
fn count_edge<C: Count>(
    mgr: &Manager,
    f: NodeId,
    from: u32,
    prefix: &[u32],
    memo: &mut FxHashMap<NodeId, C>,
) -> C {
    let total = prefix[prefix.len() - 1];
    if f.is_true() {
        return C::pow2(total - prefix[from as usize]);
    }
    if f.is_false() {
        return C::zero();
    }
    let fr = f.regular();
    let level = mgr.level(fr);
    debug_assert!(
        (mgr.var_of(fr) as usize) < prefix.len() - 1
            && prefix[level as usize + 1] > prefix[level as usize],
        "function depends on variables beyond nvars"
    );
    let models = match memo.get(&fr) {
        Some(c) => c.clone(),
        None => {
            let low = count_edge(mgr, mgr.raw_low(fr), level + 1, prefix, memo);
            let high = count_edge(mgr, mgr.raw_high(fr), level + 1, prefix, memo);
            let sum = low.plus(&high);
            memo.insert(fr, sum.clone());
            sum
        }
    };
    let models = if f.is_complemented() {
        C::pow2(total - prefix[level as usize]).minus(&models)
    } else {
        models
    };
    models.shl(prefix[level as usize] - prefix[from as usize])
}
