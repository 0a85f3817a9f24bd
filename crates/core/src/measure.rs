//! Measurement and probability calculation (Section III-E of the paper).
//!
//! The probability of a measurement outcome is
//!
//! ```text
//! Pr = s² · (1/2ᵏ) · Σᵢ |aᵢω³ + bᵢω² + cᵢω + dᵢ|²
//!    = s² · (1/2ᵏ) · Σᵢ [(aᵢ²+bᵢ²+cᵢ²+dᵢ²) + √2·(aᵢbᵢ + bᵢcᵢ + cᵢdᵢ − aᵢdᵢ)]
//! ```
//!
//! restricted to the basis states compatible with the outcome.  Every sum of
//! products `Σᵢ uᵢ·vᵢ` expands over the bit slices into weighted *SAT counts*
//! of slice conjunctions: one query counts `10·r²` conjunctions (four
//! squares and four cross products, `r²` slice pairs each).  The whole
//! quantity is accumulated as an exact `x + y·√2` with big-integer
//! coefficients and only the final division by `2ᵏ` is performed in floating
//! point.  This computes the same value as the paper's monolithic-BDD
//! traversal, with the same "only the last step rounds" property.
//!
//! # Counting
//!
//! Each query builds one [`ModelCounter`] and counts all of its
//! conjunctions through it:
//!
//! * **Fixed width.**  Over at most 127 qubits every model count fits a
//!   `u128`, so the traversal does machine-word arithmetic and allocates no
//!   big integers; wider registers switch to arbitrary precision.  Either
//!   way the count is exact, so the probabilities are bit-identical to
//!   counting every conjunction separately in big integers.
//! * **One memo per query.**  The conjunctions of one query share most of
//!   their nodes, and the counter's memo lets each shared node be counted
//!   once.  The memo is dropped when the query returns, so it holds only
//!   the nodes of one query and peak memory stays flat.
//! * **Why the memo stays valid.**  A memo entry is keyed by a node and
//!   depends only on that node and the variable order.  The counter borrows
//!   `&Manager`; garbage collection and reordering need `&mut Manager`, so
//!   neither can free a node or change the order while it lives.  The
//!   `and` calls that build the conjunctions mid-query share the borrow,
//!   and the nodes they create get fresh ids that no memo entry holds.

use crate::state::{shrink_slices, BitSliceState, FAMILIES};
use sliq_bdd::{Manager, ModelCounter, NodeId};
use sliq_bignum::{IBig, Sqrt2Big};

/// `Σᵢ uᵢ·vᵢ` over the basis states selected by `restriction` (all states
/// when `None`), where `u`/`v` are two of the coefficient vectors of
/// `slices`.  A free function over `(&Manager, slices)` so both the state
/// and the non-mutating sampling views ([`ConditionedView`]) share one
/// implementation — and therefore bit-identical floating-point behaviour.
fn weighted_inner_product_of(
    mgr: &Manager,
    counter: &mut ModelCounter<'_>,
    slices: &[Vec<NodeId>; 4],
    r: usize,
    u: usize,
    v: usize,
    restriction: Option<NodeId>,
) -> IBig {
    let mut total = IBig::zero();
    for j in 0..r {
        let fu = slices[u][j];
        if fu.is_false() {
            continue;
        }
        for (l, &fv) in slices[v].iter().enumerate().take(r) {
            if fv.is_false() {
                continue;
            }
            let mut conj = mgr.and(fu, fv);
            if let Some(lit) = restriction {
                conj = mgr.and(conj, lit);
            }
            if conj.is_false() {
                continue;
            }
            let count = counter.count(conj);
            // Two's-complement weights: the top slice weighs −2^{r−1}.
            let negative = (j == r - 1) != (l == r - 1);
            let term = IBig::from_sign_magnitude(negative, count).shl(j + l);
            total += term;
        }
    }
    total
}

/// The exact value of `2ᵏ · Σ |αᵢ|²` over the selected basis states as an
/// `x + y·√2` pair (before the `1/2ᵏ` scaling and the `s²` factor).  All
/// `10·r²` conjunction counts go through one [`ModelCounter`], dropped on
/// return (see the module docs).
fn unscaled_probability_of(
    mgr: &Manager,
    slices: &[Vec<NodeId>; 4],
    r: usize,
    n: usize,
    restriction: Option<NodeId>,
) -> Sqrt2Big {
    let [a, b, c, d] = [0usize, 1, 2, 3];
    let mut counter = ModelCounter::new(mgr, n);
    let mut inner = |u: usize, v: usize| {
        weighted_inner_product_of(mgr, &mut counter, slices, r, u, v, restriction)
    };
    let mut square_sum = IBig::zero();
    for family in FAMILIES {
        square_sum += inner(family as usize, family as usize);
    }
    let mut cross = inner(a, b);
    cross += inner(b, c);
    cross += inner(c, d);
    cross += -inner(a, d);
    Sqrt2Big::new(square_sum, cross)
}

/// An immutable, unregistered view of a (possibly conditioned) bit-sliced
/// state: the `4·r` slice roots plus the scalars, **without** root-registry
/// pins.  The batched-sampling descent conditions views functionally —
/// `view.condition(mgr, q, v)` returns a new view, the original stays valid
/// — so independent subtrees of the outcome trie can be explored
/// concurrently through the kernel's `&Manager` apply operations.
///
/// Safety of the missing pins: a view's nodes are only guaranteed alive
/// while no garbage collection runs, and GC needs `&mut Manager` — which
/// cannot coexist with the `&Manager` the view's methods borrow.  The
/// borrow checker therefore enforces the "no GC during descent" discipline;
/// run one afterwards to reclaim the transient conditioned slices.
#[derive(Debug, Clone)]
pub struct ConditionedView {
    slices: [Vec<NodeId>; 4],
    r: usize,
    k: i64,
    num_qubits: usize,
    norm_factor: f64,
}

impl ConditionedView {
    /// A view of the state as it currently is.
    pub fn of_state(state: &BitSliceState) -> Self {
        Self {
            slices: state.slices.clone(),
            r: state.r,
            k: state.k,
            num_qubits: state.num_qubits,
            norm_factor: state.norm_factor,
        }
    }

    /// The view restricted to `qubit = value` **without renormalising** —
    /// the same slice conjunctions and width normalisation as
    /// [`BitSliceState::condition_on`], as a pure function.
    pub fn condition(&self, mgr: &Manager, qubit: usize, value: bool) -> Self {
        let literal = if value {
            mgr.var(qubit)
        } else {
            mgr.nvar(qubit)
        };
        let mut slices = self.slices.clone();
        for family in slices.iter_mut() {
            for slice in family.iter_mut() {
                *slice = mgr.and(*slice, literal);
            }
        }
        let mut r = self.r;
        let mut k = self.k;
        shrink_slices(&mut slices, &mut r, &mut k);
        Self {
            slices,
            r,
            k,
            num_qubits: self.num_qubits,
            norm_factor: self.norm_factor,
        }
    }

    /// Every slice root the view references (`4·r` edges, family-major) —
    /// the set a caller must pin ([`BitSliceState::pin_root`]) to keep a
    /// view alive across later garbage collections, e.g. when caching views
    /// between sampling calls.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slices.iter().flatten().copied()
    }

    /// The joint probability `Pr[conditions ∧ qubit = 1]` (an exact SAT
    /// count, rounded only at the final conversion).
    pub fn joint_probability_of_one(&self, mgr: &Manager, qubit: usize) -> f64 {
        let literal = mgr.var(qubit);
        let unscaled =
            unscaled_probability_of(mgr, &self.slices, self.r, self.num_qubits, Some(literal));
        unscaled.to_f64_div_pow2(self.k) * self.norm_factor * self.norm_factor
    }

    /// The joint probability of every condition applied so far.
    pub fn total_probability(&self, mgr: &Manager) -> f64 {
        let unscaled = unscaled_probability_of(mgr, &self.slices, self.r, self.num_qubits, None);
        unscaled.to_f64_div_pow2(self.k) * self.norm_factor * self.norm_factor
    }
}

impl BitSliceState {
    /// The exact value of `2ᵏ · Σ |αᵢ|²` over the selected basis states.
    fn unscaled_probability(&self, restriction: Option<NodeId>) -> Sqrt2Big {
        unscaled_probability_of(
            &self.mgr,
            &self.slices,
            self.r,
            self.num_qubits,
            restriction,
        )
    }

    /// The probability that measuring `qubit` yields `value`.
    pub fn probability_of(&self, qubit: usize, value: bool) -> f64 {
        let literal = if value {
            self.mgr.var(qubit)
        } else {
            self.mgr.nvar(qubit)
        };
        let unscaled = self.unscaled_probability(Some(literal));
        unscaled.to_f64_div_pow2(self.k) * self.norm_factor * self.norm_factor
    }

    /// The probability of observing the complete basis state `bits`,
    /// computed from the exact weighted SAT count restricted to the minterm
    /// of `bits` (valid for any coefficient width).
    pub fn probability_of_basis(&self, bits: &[bool]) -> f64 {
        let literals: Vec<(usize, bool)> = bits.iter().enumerate().map(|(q, &b)| (q, b)).collect();
        let minterm = self.mgr.cube(&literals);
        let unscaled = self.unscaled_probability(Some(minterm));
        unscaled.to_f64_div_pow2(self.k) * self.norm_factor * self.norm_factor
    }

    /// The total probability `Σᵢ Pr[i]`, computed exactly and converted to
    /// `f64` at the very end.  Equal to 1 up to the float conversion for any
    /// state produced by unitary evolution.
    pub fn total_probability(&self) -> f64 {
        let unscaled = self.unscaled_probability(None);
        unscaled.to_f64_div_pow2(self.k) * self.norm_factor * self.norm_factor
    }

    /// Exactness check: returns `true` iff the sum of all squared amplitude
    /// magnitudes is *exactly* `2ᵏ` (i.e. the state is exactly normalised as
    /// an algebraic identity — no tolerance involved).  Only meaningful while
    /// no measurement has been performed (`normalization_factor() == 1`).
    pub fn is_exactly_normalized(&self) -> bool {
        let unscaled = self.unscaled_probability(None);
        self.k >= 0 && unscaled.eq_pow2(self.k as usize)
    }

    /// Measures `qubit`, using `u ∈ [0, 1)` to pick the outcome, collapses
    /// the state (Eq. 13: the surviving amplitudes keep their algebraic form,
    /// the `1/√p` renormalisation goes into the floating point factor `s`)
    /// and returns the outcome.
    pub fn measure_with(&mut self, qubit: usize, u: f64) -> bool {
        let p_one = self.probability_of(qubit, true);
        let outcome = u < p_one;
        let p_outcome = if outcome { p_one } else { 1.0 - p_one };
        let literal = if outcome {
            self.mgr.var(qubit)
        } else {
            self.mgr.nvar(qubit)
        };
        for family in 0..4 {
            for j in 0..self.r {
                let old = self.slices[family][j];
                self.slices[family][j] = self.mgr.and(old, literal);
            }
        }
        self.norm_factor /= p_outcome.sqrt();
        self.shrink();
        self.sync_registered_roots();
        self.maybe_collect_garbage();
        outcome
    }

    /// Restricts the state to the subspace where `qubit` reads `value`
    /// **without renormalising**: every slice is conjoined with the literal,
    /// but `s` stays untouched, so [`BitSliceState::total_probability`]
    /// afterwards reports the joint probability of all conditions applied so
    /// far.  This is the building block of non-collapsing conditional-
    /// probability descent (batched sampling): condition, read a conditional
    /// probability, then roll back via [`BitSliceState::restore`].
    ///
    /// Like [`BitSliceState::measure_with`] this shrinks the coefficient
    /// width and may trigger a registered-roots garbage collection —
    /// snapshots are registered, so they survive it; restoring one undoes
    /// both the restriction and the width change.
    pub fn condition_on(&mut self, qubit: usize, value: bool) {
        let literal = if value {
            self.mgr.var(qubit)
        } else {
            self.mgr.nvar(qubit)
        };
        for family in 0..4 {
            for j in 0..self.r {
                let old = self.slices[family][j];
                self.slices[family][j] = self.mgr.and(old, literal);
            }
        }
        self.shrink();
        self.sync_registered_roots();
        self.maybe_collect_garbage();
    }

    /// Measures every qubit (in index order) using the supplied uniform
    /// random values, one per qubit, **collapsing the state** to the sampled
    /// basis state — the historical `sample_all` behaviour under a name that
    /// says what it does.  For repeated sampling use
    /// [`BitSliceState::sample_all`], which restores the state afterwards,
    /// or the batched `Session::sample` API in `sliq_exec`, which draws many
    /// shots for one simulation.
    ///
    /// # Panics
    ///
    /// Panics if `us.len() != num_qubits()`.
    pub fn measure_all_collapsing(&mut self, us: &[f64]) -> Vec<bool> {
        assert_eq!(us.len(), self.num_qubits, "one random value per qubit");
        us.iter()
            .enumerate()
            .map(|(q, &u)| self.measure_with(q, u))
            .collect()
    }

    /// Samples a complete measurement of all qubits (in index order) using
    /// the supplied uniform random values, one per qubit, and **restores the
    /// pre-measurement state** before returning (snapshot → collapse →
    /// rollback).  Use [`BitSliceState::measure_all_collapsing`] when the
    /// collapsed state itself is wanted.
    ///
    /// # Panics
    ///
    /// Panics if `us.len() != num_qubits()`.
    pub fn sample_all(&mut self, us: &[f64]) -> Vec<bool> {
        let snapshot = self.snapshot();
        let outcome = self.measure_all_collapsing(us);
        self.restore(&snapshot);
        self.release_snapshot(snapshot);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use sliq_circuit::Gate;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basis_state_probabilities() {
        let state = BitSliceState::with_initial_bits(&[true, false]);
        assert!(close(state.probability_of(0, true), 1.0));
        assert!(close(state.probability_of(1, true), 0.0));
        assert!(close(state.probability_of_basis(&[true, false]), 1.0));
        assert!(close(state.total_probability(), 1.0));
        assert!(state.is_exactly_normalized());
    }

    #[test]
    fn bell_state_probabilities_and_exactness() {
        let mut state = BitSliceState::new(2);
        gates::apply(&mut state, &Gate::H(0));
        gates::apply(
            &mut state,
            &Gate::Cnot {
                control: 0,
                target: 1,
            },
        );
        assert!(close(state.probability_of(0, true), 0.5));
        assert!(close(state.probability_of(1, false), 0.5));
        assert!(close(state.probability_of_basis(&[true, true]), 0.5));
        assert!(close(state.probability_of_basis(&[true, false]), 0.0));
        assert!(state.is_exactly_normalized());
        assert!(close(state.total_probability(), 1.0));
    }

    #[test]
    fn t_rich_circuit_stays_exactly_normalized() {
        // A circuit whose floating-point simulation accumulates rounding
        // error; the algebraic state must remain *exactly* normalised.
        let mut state = BitSliceState::new(3);
        for layer in 0..10 {
            for q in 0..3 {
                gates::apply(&mut state, &Gate::H(q));
                gates::apply(&mut state, &Gate::T(q));
            }
            gates::apply(
                &mut state,
                &Gate::Cnot {
                    control: layer % 3,
                    target: (layer + 1) % 3,
                },
            );
        }
        assert!(state.is_exactly_normalized());
        assert!(close(state.total_probability(), 1.0));
    }

    #[test]
    fn measurement_collapses_ghz_state() {
        let mut state = BitSliceState::new(3);
        gates::apply(&mut state, &Gate::H(0));
        gates::apply(
            &mut state,
            &Gate::Cnot {
                control: 0,
                target: 1,
            },
        );
        gates::apply(
            &mut state,
            &Gate::Cnot {
                control: 1,
                target: 2,
            },
        );
        let outcome = state.measure_with(0, 0.25); // u < 0.5 ⇒ outcome 1
        assert!(outcome);
        for q in 1..3 {
            assert!(close(state.probability_of(q, true), 1.0));
        }
        assert!(close(state.total_probability(), 1.0));
        assert!((state.normalization_factor() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn sample_all_follows_forced_random_values_and_restores_the_state() {
        let mut state = BitSliceState::new(2);
        gates::apply(&mut state, &Gate::H(0));
        gates::apply(
            &mut state,
            &Gate::Cnot {
                control: 0,
                target: 1,
            },
        );
        // Force qubit 0 to outcome 1; qubit 1 must follow deterministically.
        let sample = state.sample_all(&[0.0, 0.99]);
        assert_eq!(sample, vec![true, true]);
        // Non-destructive: the Bell state survives and can be sampled again,
        // this time forcing the other branch.
        assert!(close(state.probability_of(0, true), 0.5));
        assert!(close(state.normalization_factor(), 1.0));
        let sample = state.sample_all(&[0.99, 0.99]);
        assert_eq!(sample, vec![false, false]);
    }

    #[test]
    fn measure_all_collapsing_collapses() {
        let mut state = BitSliceState::new(2);
        gates::apply(&mut state, &Gate::H(0));
        gates::apply(
            &mut state,
            &Gate::Cnot {
                control: 0,
                target: 1,
            },
        );
        let sample = state.measure_all_collapsing(&[0.0, 0.99]);
        assert_eq!(sample, vec![true, true]);
        assert!(close(state.probability_of(0, true), 1.0));
        assert!((state.normalization_factor() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn condition_on_tracks_joint_probabilities_and_snapshots_roll_back() {
        // GHZ(3): Pr[q0=1] = 1/2, Pr[q0=1 ∧ q1=1] = 1/2, Pr[q0=1 ∧ q1=0] = 0.
        let mut state = BitSliceState::new(3);
        gates::apply(&mut state, &Gate::H(0));
        for (c, t) in [(0, 1), (1, 2)] {
            gates::apply(
                &mut state,
                &Gate::Cnot {
                    control: c,
                    target: t,
                },
            );
        }
        let snapshot = state.snapshot();
        state.condition_on(0, true);
        assert!(close(state.total_probability(), 0.5));
        // A conditional read on the restricted state: Pr[cond ∧ q1=1].
        assert!(close(state.probability_of(1, true), 0.5));
        state.condition_on(1, false);
        assert!(close(state.total_probability(), 0.0));
        // Roll back: the full GHZ state returns, including width and k.
        state.restore(&snapshot);
        assert!(close(state.total_probability(), 1.0));
        assert!(close(state.probability_of(0, true), 0.5));
        assert!(state.is_exactly_normalized());
        // The snapshot survives GC while registered.
        state.collect_garbage();
        state.restore(&snapshot);
        assert!(close(state.total_probability(), 1.0));
        state.release_snapshot(snapshot);
    }

    /// A seeded random Clifford+T circuit on `n` qubits (splitmix64).
    fn random_clifford_t(n: usize, gates: usize, seed: u64) -> Vec<Gate> {
        let mut state = seed;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        (0..gates)
            .map(|_| {
                let q = next(n);
                let other = (q + 1 + next(n.max(2) - 1)) % n.max(2);
                match next(if n > 1 { 9 } else { 7 }) {
                    0 => Gate::H(q),
                    1 => Gate::T(q),
                    2 => Gate::Tdg(q),
                    3 => Gate::S(q),
                    4 => Gate::Sdg(q),
                    5 => Gate::X(q),
                    6 => Gate::Y(q),
                    7 => Gate::Cnot {
                        control: q,
                        target: other,
                    },
                    _ => Gate::Cz {
                        control: q,
                        target: other,
                    },
                }
            })
            .collect()
    }

    /// The exact `Σ N(i)` over the basis states `select` accepts, where
    /// `N(i) = (a²+b²+c²+d²) + √2(ab+bc+cd−ad)` and every coefficient is
    /// the two's-complement value of its slices, read with
    /// [`Manager::eval`] at basis state `i`.
    fn brute_force(
        mgr: &Manager,
        slices: &[Vec<NodeId>; 4],
        r: usize,
        n: usize,
        select: impl Fn(&[bool]) -> bool,
    ) -> Sqrt2Big {
        let (mut int, mut sqrt2) = (0i128, 0i128);
        for index in 0..1usize << n {
            let bits: Vec<bool> = (0..n).map(|q| index >> q & 1 == 1).collect();
            if !select(&bits) {
                continue;
            }
            let [a, b, c, d] = [0, 1, 2, 3].map(|family| {
                (0..r)
                    .filter(|&j| mgr.eval(slices[family][j], &bits))
                    .map(|j| {
                        if j == r - 1 {
                            -(1i128 << j)
                        } else {
                            1i128 << j
                        }
                    })
                    .sum::<i128>()
            });
            int += a * a + b * b + c * c + d * d;
            sqrt2 += a * b + b * c + c * d - a * d;
        }
        Sqrt2Big::new(IBig::from(int), IBig::from(sqrt2))
    }

    #[test]
    fn weighted_counts_equal_the_brute_force_sum_exactly() {
        for n in 1..=6usize {
            for seed in 0..6u64 {
                for forced_reorder in [false, true] {
                    let mut state = BitSliceState::new(n);
                    for gate in random_clifford_t(n, 8 * n, seed * 31 + n as u64) {
                        gates::apply(&mut state, &gate);
                    }
                    if forced_reorder {
                        state.reorder();
                        if n > 1 && state.mgr.current_order() == (0..n).collect::<Vec<_>>() {
                            state.mgr.swap_adjacent_levels(0);
                        }
                    }
                    check_against_brute_force(&state, &format!("n={n} seed={seed}"));
                }
            }
        }
    }

    fn check_against_brute_force(state: &BitSliceState, case: &str) {
        let (mgr, slices, r, n, k) = (
            &state.mgr,
            &state.slices,
            state.r,
            state.num_qubits,
            state.k,
        );
        let exact = |restriction| unscaled_probability_of(mgr, slices, r, n, restriction);

        // No restriction; the public readings round the same exact value.
        let all = brute_force(mgr, slices, r, n, |_| true);
        assert_eq!(exact(None), all, "{case}: total");
        assert!(
            state.is_exactly_normalized() && all.eq_pow2(k as usize),
            "{case}"
        );
        assert_eq!(state.total_probability(), all.to_f64_div_pow2(k), "{case}");

        // Every single-qubit literal.
        for q in 0..n {
            for value in [false, true] {
                let literal = if value { mgr.var(q) } else { mgr.nvar(q) };
                let expected = brute_force(mgr, slices, r, n, |bits| bits[q] == value);
                assert_eq!(exact(Some(literal)), expected, "{case}: q{q}={value}");
                assert_eq!(
                    state.probability_of(q, value),
                    expected.to_f64_div_pow2(k),
                    "{case}: Pr[q{q}={value}]"
                );
            }
        }

        // One full minterm.
        let minterm_bits: Vec<bool> = (0..n).map(|q| q % 3 != 1).collect();
        let minterm = mgr.cube(&minterm_bits.iter().copied().enumerate().collect::<Vec<_>>());
        let expected = brute_force(mgr, slices, r, n, |bits| bits == minterm_bits.as_slice());
        assert_eq!(exact(Some(minterm)), expected, "{case}: minterm");
        assert_eq!(
            state.probability_of_basis(&minterm_bits),
            expected.to_f64_div_pow2(k),
            "{case}: minterm probability"
        );

        // A view two conditions deep: its own (shrunk) slices against the
        // state's slices under both conditions, rescaled by the powers of
        // two the shrink factored out of the coefficients.
        let (q1, q2) = (0, n - 1);
        let view = ConditionedView::of_state(state)
            .condition(mgr, q1, true)
            .condition(mgr, q2, false);
        let rescale = (k - view.k) as usize;
        let conditioned = |bits: &[bool]| bits[q1] && !bits[q2];
        let expected = brute_force(mgr, slices, r, n, conditioned);
        let view_exact = |restriction| {
            unscaled_probability_of(mgr, &view.slices, view.r, view.num_qubits, restriction)
        };
        assert_eq!(
            view_exact(None).shl(rescale),
            expected,
            "{case}: view total"
        );
        assert_eq!(
            view.total_probability(mgr),
            expected.to_f64_div_pow2(k),
            "{case}"
        );
        let q3 = n / 2;
        let expected = brute_force(mgr, slices, r, n, |bits| conditioned(bits) && bits[q3]);
        assert_eq!(
            view_exact(Some(mgr.var(q3))).shl(rescale),
            expected,
            "{case}: view joint q{q3}=1"
        );
        assert_eq!(
            view.joint_probability_of_one(mgr, q3),
            expected.to_f64_div_pow2(k),
            "{case}: view joint probability"
        );
    }

    #[test]
    fn probabilities_respect_the_normalization_factor() {
        let mut state = BitSliceState::new(2);
        gates::apply(&mut state, &Gate::H(0));
        gates::apply(&mut state, &Gate::H(1));
        state.measure_with(0, 0.9); // outcome 0 with probability 1/2
                                    // After collapsing qubit 0, qubit 1 is still uniform and the total
                                    // probability is 1 again thanks to the factor s.
        assert!(close(state.probability_of(1, true), 0.5));
        assert!(close(state.total_probability(), 1.0));
    }
}
