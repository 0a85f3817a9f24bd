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
//! of slice conjunctions: one reading counts up to `8·r²` conjunctions
//! (four squares and four cross products, `r²` slice pairs each).  The whole
//! quantity is accumulated as an exact `x + y·√2` and only the final
//! division by `2ᵏ` is performed in floating point.  This computes the same
//! value as the paper's monolithic-BDD traversal, with the same "only the
//! last step rounds" property.
//!
//! # The term list
//!
//! With two's-complement slices, `Σᵢ uᵢ·vᵢ = Σⱼ,ₗ ±2ʲ⁺ˡ·|uⱼ ∧ vₗ|`, where
//! the sign is negative when exactly one of `j`, `l` is the sign slice.  A
//! reading first builds the *term list*: one entry per non-FALSE
//! conjunction `uⱼ ∧ vₗ` of the eight products, with its weight `±2ʲ⁺ˡ`
//! (negated once more for the `a·d` product) and a flag for the integer or
//! the `√2` part.  A reading restricted by `R` is then
//! `Σ weight · |term ∧ R|`.
//!
//! # Conditioned views
//!
//! The sampling descent reads one state under growing prefixes of
//! conditions `q₀ = v₀, q₁ = v₁, …`.  Since `(u ∧ P) ∧ (v ∧ P) = (u ∧ v) ∧
//! P`, the terms do not depend on the prefix `P`: a [`ConditionedView`]
//! builds them once and conditions by replacing every term with its
//! cofactor `term|_{q=v}`, which in an unsifted state is a child pointer.
//! A cofactor no longer depends on its variable, so over all `n` variables
//! it has two models for every model of `term ∧ literal`: a view conditioned
//! on `f` qubits divides its counts by `2^(k+f)` instead of `2ᵏ`.  The
//! integers agree up to that power of two and the float conversion is
//! correctly rounded at every scale, so the readings are bit-identical to
//! conjoining the literals.
//!
//! # Counting
//!
//! * **Fixed width.**  Over at most 127 qubits every model count fits a
//!   `u128`, so the traversal does machine-word arithmetic and allocates no
//!   big integers; wider registers switch to arbitrary precision.  Either
//!   way the count is exact, so the probabilities are bit-identical to
//!   counting every conjunction separately in big integers.
//! * **Machine-word sums.**  The weighted counts are summed in `i128` with
//!   checked arithmetic; on an overflow, or above 127 counted variables,
//!   the reading is summed again in [`IBig`].
//! * **One memo per query, or per descent.**  The terms of a reading share
//!   most of their nodes, and a [`ModelCounter`]'s memo counts each shared
//!   node once.  A state query keeps one counter for the query; the
//!   sampling descent keeps one for the whole sample and passes it to every
//!   view's reading, so each node of the term DAGs — and of their cofactors
//!   — is counted once per sample.
//! * **Why the memo stays valid.**  A memo entry is keyed by a node and
//!   depends only on that node and the variable order.  The counter borrows
//!   `&Manager`; garbage collection and reordering need `&mut Manager`, so
//!   neither can free a node or change the order while it lives.  The
//!   `and` and `cofactor` calls that build terms mid-count share the
//!   borrow, and the nodes they create get fresh ids that no memo entry
//!   holds.

use crate::state::BitSliceState;
use sliq_bdd::{Manager, ModelCounter, NodeId};
use sliq_bignum::{IBig, Sqrt2Big};

/// One weighted conjunction `uⱼ ∧ vₗ` of the probability formula (see the
/// module docs).
#[derive(Debug, Clone, Copy)]
struct Term {
    node: NodeId,
    /// `j + l`: the weight is `±2^shift`.
    shift: u32,
    negative: bool,
    /// The term counts towards the `√2` part rather than the integer part.
    sqrt2: bool,
}

/// The eight products of the formula as `(u, v, √2 part, negated)` over the
/// family indices `a, b, c, d = 0, 1, 2, 3`.
const PRODUCTS: [(usize, usize, bool, bool); 8] = [
    (0, 0, false, false),
    (1, 1, false, false),
    (2, 2, false, false),
    (3, 3, false, false),
    (0, 1, true, false),
    (1, 2, true, false),
    (2, 3, true, false),
    (0, 3, true, true),
];

/// The term list of `slices` (width `r`): every non-FALSE `uⱼ ∧ vₗ` of the
/// eight products with its weight.
fn terms_of(mgr: &Manager, slices: &[Vec<NodeId>; 4], r: usize) -> Vec<Term> {
    let mut terms = Vec::new();
    for (u, v, sqrt2, negated) in PRODUCTS {
        for (j, &fu) in slices[u].iter().enumerate() {
            if fu.is_false() {
                continue;
            }
            for (l, &fv) in slices[v].iter().enumerate() {
                let node = mgr.and(fu, fv);
                if node.is_false() {
                    continue;
                }
                // Two's-complement weights: the top slice weighs −2^{r−1}.
                let negative = (j == r - 1) != (l == r - 1);
                terms.push(Term {
                    node,
                    shift: (j + l) as u32,
                    negative: negative != negated,
                    sqrt2,
                });
            }
        }
    }
    terms
}

/// `Σ weight · |restrict(term)|` over `terms` as an exact `x + y·√2`.
fn weighted_count(
    counter: &mut ModelCounter<'_>,
    terms: &[Term],
    mut restrict: impl FnMut(NodeId) -> NodeId,
) -> Sqrt2Big {
    if let Some(sum) = narrow_weighted_count(counter, terms, &mut restrict) {
        return sum;
    }
    let mut parts = [IBig::zero(), IBig::zero()];
    for term in terms {
        let node = restrict(term.node);
        if !node.is_false() {
            let count = IBig::from_sign_magnitude(term.negative, counter.count(node));
            parts[usize::from(term.sqrt2)] += count.shl(term.shift as usize);
        }
    }
    let [int, sqrt2] = parts;
    Sqrt2Big::new(int, sqrt2)
}

/// [`weighted_count`] on machine words: `None` if a count needs more than
/// 127 variables or any product or partial sum overflows `i128`.
fn narrow_weighted_count(
    counter: &mut ModelCounter<'_>,
    terms: &[Term],
    restrict: &mut impl FnMut(NodeId) -> NodeId,
) -> Option<Sqrt2Big> {
    let mut parts = [0i128; 2];
    for term in terms {
        let node = restrict(term.node);
        if node.is_false() {
            continue;
        }
        let count = i128::try_from(counter.count_narrow(node)?).ok()?;
        let weight = (term.shift < 127).then(|| 1i128 << term.shift)?;
        let weighted = count.checked_mul(weight)?;
        let part = &mut parts[usize::from(term.sqrt2)];
        *part = if term.negative {
            part.checked_sub(weighted)?
        } else {
            part.checked_add(weighted)?
        };
    }
    let [int, sqrt2] = parts;
    Some(Sqrt2Big::new(IBig::from(int), IBig::from(sqrt2)))
}

/// The exact value of `2ᵏ · Σ |αᵢ|²` over the selected basis states as an
/// `x + y·√2` pair (before the `1/2ᵏ` scaling and the `s²` factor): the
/// term list restricted by conjunction with `restriction` (no restriction
/// when `None`), counted through one [`ModelCounter`] dropped on return.
fn unscaled_probability_of(
    mgr: &Manager,
    slices: &[Vec<NodeId>; 4],
    r: usize,
    n: usize,
    restriction: Option<NodeId>,
) -> Sqrt2Big {
    let terms = terms_of(mgr, slices, r);
    let mut counter = ModelCounter::new(mgr, n);
    weighted_count(&mut counter, &terms, |node| match restriction {
        Some(restriction) => mgr.and(node, restriction),
        None => node,
    })
}

/// An immutable, unregistered view of a bit-sliced state under a prefix of
/// measurement conditions: the term list of its probability formula with
/// every term cofactored by the conditions, plus the scalars.  The
/// batched-sampling descent conditions views functionally —
/// `view.condition(mgr, q, v)` returns a new view, the original stays valid
/// — so a descent can keep every view on its path while it builds
/// cofactors through the kernel's `&Manager` operations.
///
/// The readings take a [`ModelCounter`] over the state's qubits, which the
/// descent shares across every view it reads (see the module docs).
///
/// Each qubit may be conditioned at most once, and a view is read only on
/// unconditioned qubits: a cofactor by an already conditioned variable
/// changes nothing, so it would read as a further halving.  The descent
/// conditions qubits 0, 1, 2, … in order and reads the next one.
///
/// Why unregistered nodes stay alive: a view's nodes are only guaranteed
/// alive while no garbage collection runs, and GC needs `&mut Manager` —
/// which cannot coexist with the `&Manager` the view's methods borrow.  The
/// borrow checker therefore enforces the "no GC during descent" discipline;
/// run one afterwards to reclaim the transient terms and cofactors.
#[derive(Debug, Clone)]
pub struct ConditionedView {
    terms: Vec<Term>,
    /// The number `f` of conditioned qubits: every count is `2^f` times
    /// the count of the conditioned conjunction.
    conditioned: i64,
    k: i64,
    norm_factor: f64,
}

impl ConditionedView {
    /// A view of the state as it currently is (no conditions).
    pub fn of_state(state: &BitSliceState) -> Self {
        Self {
            terms: terms_of(&state.mgr, &state.slices, state.r),
            conditioned: 0,
            k: state.k,
            norm_factor: state.norm_factor,
        }
    }

    /// The view restricted to `qubit = value` **without renormalising**:
    /// every term replaced by its cofactor, FALSE ones dropped.  `qubit`
    /// must not be conditioned already.
    pub fn condition(&self, mgr: &Manager, qubit: usize, value: bool) -> Self {
        let terms = self
            .terms
            .iter()
            .filter_map(|term| {
                let node = mgr.cofactor(term.node, qubit, value);
                (!node.is_false()).then_some(Term { node, ..*term })
            })
            .collect();
        Self {
            terms,
            conditioned: self.conditioned + 1,
            k: self.k,
            norm_factor: self.norm_factor,
        }
    }

    /// The joint probability `Pr[conditions ∧ qubit = 1]` (an exact SAT
    /// count, rounded only at the final conversion).  `counter` counts the
    /// state's qubits; `qubit` must not be conditioned.
    pub fn joint_probability_of_one(
        &self,
        mgr: &Manager,
        counter: &mut ModelCounter<'_>,
        qubit: usize,
    ) -> f64 {
        let unscaled = weighted_count(counter, &self.terms, |node| mgr.cofactor(node, qubit, true));
        self.reading(&unscaled, self.conditioned + 1)
    }

    /// The joint probability of every condition applied so far.  `counter`
    /// counts the state's qubits.
    pub fn total_probability(&self, counter: &mut ModelCounter<'_>) -> f64 {
        let unscaled = weighted_count(counter, &self.terms, |node| node);
        self.reading(&unscaled, self.conditioned)
    }

    /// `s² · unscaled / 2^(k + freed)`, where `freed` cofactored variables
    /// doubled every count.
    fn reading(&self, unscaled: &Sqrt2Big, freed: i64) -> f64 {
        unscaled.to_f64_div_pow2(self.k + freed) * self.norm_factor * self.norm_factor
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

    /// Measures every qubit (in index order) using the supplied uniform
    /// random values, one per qubit, **collapsing the state** to the sampled
    /// basis state.  Take a [`BitSliceState::snapshot`] first to roll the
    /// collapse back; for many shots use the batched `Session::sample` API
    /// in `sliq_exec`, which draws them all from one simulation without
    /// collapsing anything.
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
    fn snapshots_roll_back_collapses_and_survive_gc() {
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
        // Collapse q0 to 1: the GHZ correlation forces q1 = q2 = 1 and the
        // factor s becomes √2.
        assert!(state.measure_with(0, 0.25));
        assert!(close(state.probability_of(1, true), 1.0));
        assert!((state.normalization_factor() - std::f64::consts::SQRT_2).abs() < 1e-12);
        // Roll back: the full GHZ state returns, including width, k and s.
        state.restore(&snapshot);
        assert!(close(state.normalization_factor(), 1.0));
        assert!(close(state.total_probability(), 1.0));
        assert!(close(state.probability_of(0, true), 0.5));
        assert!(state.is_exactly_normalized());
        // The snapshot survives a forced GC while registered, even after a
        // second collapse left its nodes unreachable from the live state.
        assert!(!state.measure_with(0, 0.75));
        state.collect_garbage();
        state.restore(&snapshot);
        assert!(close(state.total_probability(), 1.0));
        assert!(close(state.probability_of(0, true), 0.5));
        assert!(state.is_exactly_normalized());
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

    /// The full gate set on four qubits: phases, entanglement, `Ry(π/2)`,
    /// `Rx(π/2)`, Toffoli and Fredkin.
    fn full_gate_set_circuit() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::T(0),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::H(2),
            Gate::S(2),
            Gate::Cz {
                control: 2,
                target: 3,
            },
            Gate::RyPi2(3),
            Gate::Toffoli {
                controls: vec![0, 2],
                target: 3,
            },
            Gate::RxPi2(1),
            Gate::Fredkin {
                controls: vec![3],
                target1: 0,
                target2: 2,
            },
            Gate::Tdg(1),
        ]
    }

    #[test]
    fn the_full_gate_set_matches_the_brute_force_sum_exactly() {
        for forced_reorder in [false, true] {
            let mut state = BitSliceState::new(4);
            for gate in &full_gate_set_circuit() {
                gates::apply(&mut state, gate);
            }
            if forced_reorder {
                state.mgr.swap_adjacent_levels(1);
                state.reorder();
            }
            check_against_brute_force(&state, &format!("full gate set, reorder {forced_reorder}"));
        }
    }

    #[test]
    fn collapsed_states_match_the_brute_force_sum_exactly() {
        // A collapse keeps the slices exact and moves the 1/√p
        // renormalisation into the float factor s, which every public
        // reading multiplies in twice.
        let mut state = BitSliceState::new(4);
        for gate in &full_gate_set_circuit() {
            gates::apply(&mut state, gate);
        }
        state.measure_with(0, 0.2);
        check_against_brute_force(&state, "one collapse");
        state.measure_with(3, 0.7);
        check_against_brute_force(&state, "two collapses");

        // A GHZ-style correlation: collapsing qubit 0 decides qubit 2.
        let mut ghz = BitSliceState::new(3);
        gates::apply(&mut ghz, &Gate::H(0));
        gates::apply(
            &mut ghz,
            &Gate::Cnot {
                control: 0,
                target: 2,
            },
        );
        let outcome = ghz.measure_with(0, 0.2);
        check_against_brute_force(&ghz, "ghz collapse");
        assert_eq!(ghz.probability_of(2, !outcome), 0.0);
        assert!(close(ghz.probability_of(2, outcome), 1.0));
    }

    fn check_against_brute_force(state: &BitSliceState, case: &str) {
        let (mgr, slices, r, n, k, s) = (
            &state.mgr,
            &state.slices,
            state.r,
            state.num_qubits,
            state.k,
            state.norm_factor,
        );
        let exact = |restriction| unscaled_probability_of(mgr, slices, r, n, restriction);
        // The public readings: the exact value rounded once, times s².
        let reading = |exact: &Sqrt2Big| exact.to_f64_div_pow2(k) * s * s;

        // No restriction; the public readings round the same exact value.
        let all = brute_force(mgr, slices, r, n, |_| true);
        assert_eq!(exact(None), all, "{case}: total");
        if s == 1.0 {
            assert!(
                state.is_exactly_normalized() && all.eq_pow2(k as usize),
                "{case}"
            );
        }
        assert_eq!(state.total_probability(), reading(&all), "{case}");

        // Every single-qubit literal.
        for q in 0..n {
            for value in [false, true] {
                let literal = if value { mgr.var(q) } else { mgr.nvar(q) };
                let expected = brute_force(mgr, slices, r, n, |bits| bits[q] == value);
                assert_eq!(exact(Some(literal)), expected, "{case}: q{q}={value}");
                assert_eq!(
                    state.probability_of(q, value),
                    reading(&expected),
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
            reading(&expected),
            "{case}: minterm probability"
        );

        // Every view of the sampling descent: each prefix of qubits 0..d in
        // descent order (1 before 0), with one counter over the whole walk.
        // A view conditioned on d qubits counts 2^d times the conditioned
        // sum exactly, and its public readings equal the state's.
        let mut counter = ModelCounter::new(mgr, n);
        let mut walk = vec![(ConditionedView::of_state(state), Vec::<bool>::new())];
        while let Some((view, prefix)) = walk.pop() {
            let d = prefix.len();
            let on_prefix = |bits: &[bool]| bits[..d] == prefix[..];
            let expected = brute_force(mgr, slices, r, n, on_prefix);
            assert_eq!(
                weighted_count(&mut counter, &view.terms, |node| node),
                expected.shl(d),
                "{case}: view total under {prefix:?}"
            );
            assert_eq!(
                view.total_probability(&mut counter),
                reading(&expected),
                "{case}: view total probability under {prefix:?}"
            );
            if d == n {
                continue;
            }
            let expected = brute_force(mgr, slices, r, n, |bits| on_prefix(bits) && bits[d]);
            assert_eq!(
                view.joint_probability_of_one(mgr, &mut counter, d),
                reading(&expected),
                "{case}: view joint q{d}=1 under {prefix:?}"
            );
            for value in [false, true] {
                let mut next = prefix.clone();
                next.push(value);
                walk.push((view.condition(mgr, d, value), next));
            }
        }
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
