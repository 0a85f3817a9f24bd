//! The pre-characterised Boolean update formulas of Table II.
//!
//! Each supported gate updates the `4·r` slice BDDs directly — no unitary
//! matrix is ever materialised.  Permutation-style gates (X, CNOT, Toffoli,
//! Fredkin) only rearrange rows; diagonal and rotation gates additionally run
//! the symbolic two's-complement adders from [`crate::arith`].
//!
//! Every row permutation is the kernel's controlled flip
//! ([`Manager::controlled_flip`]): X, CNOT and Toffoli make one flip pass
//! per slice, with the control cube built once per gate, and SWAP and
//! Fredkin make three, by the exact identity
//! `CSWAP(C; t₁, t₂) = CX(t₂→t₁) · CCX(C ∪ {t₁} → t₂) · CX(t₂→t₁)`.
//!
//! The formulas were re-derived from the gate matrices (several overlines in
//! the published table are typographically ambiguous) and are cross-checked
//! against the dense state-vector oracle by the crate's property tests.
//!
//! # Slice application
//!
//! Every gate decomposes into per-slice BDD updates, applied in plain
//! loops on the state's single-owner manager.  They come in two shapes:
//!
//! * **permutation-shaped stages** (the controlled flips of
//!   X/CNOT/Toffoli/Fredkin and of the half-swaps inside Y and Rx, the
//!   family multiplexer of S/S†/T/T†) update each of the `4·r` slices on
//!   its own;
//! * **adder-shaped stages** (the ripple-carry chains of H/Ry/Rx and the
//!   conditional negations of Z/CZ/Y/S-family) carry a dependency across
//!   the slices of one family but none across families.
//!
//! H and Ry(π/2) make one kernel pass per slice: the kernel's
//! [`Manager::hadamard_step`] takes the slice's cofactors by the target,
//! applies the row sign and returns the adder's sum and carry together, so
//! the chain is one call per slice.  Rx(π/2) adds a swapped copy through
//! [`arith::add_sliced`], and the conditional negations run
//! [`arith::negate_where`].
//!
//! Both shapes run family-major, least significant slice first, so a gate
//! always issues the same sequence of kernel operations — which is what
//! makes the kernel's work counters repeat exactly from run to run.

use crate::arith;
use crate::state::{BitSliceState, Family};
use sliq_bdd::{Manager, NodeId};
use sliq_circuit::Gate;

/// Applies `gate` to the bit-sliced state and re-registers the new slice
/// roots with the manager (the registry is what keeps the roots valid
/// across garbage collection and automatic variable reordering).
pub(crate) fn apply(state: &mut BitSliceState, gate: &Gate) {
    apply_inner(state, gate);
    state.sync_registered_roots();
}

fn apply_inner(state: &mut BitSliceState, gate: &Gate) {
    match gate {
        Gate::X(t) => flip_all(state, NodeId::TRUE, *t),
        Gate::Cnot { control, target } => {
            let control = state.mgr.var(*control);
            flip_all(state, control, *target);
        }
        Gate::Toffoli { controls, target } => {
            let controls = all_set(&state.mgr, controls.iter().copied());
            flip_all(state, controls, *target);
        }
        Gate::Fredkin {
            controls,
            target1,
            target2,
        } => {
            let (t1, t2) = (*target1, *target2);
            let outer = state.mgr.var(t2);
            let inner = all_set(&state.mgr, controls.iter().copied().chain([t1]));
            flip_all(state, outer, t1);
            flip_all(state, inner, t2);
            flip_all(state, outer, t1);
        }
        Gate::Z(t) => {
            state.extend(1);
            let cond = state.mgr.var(*t);
            negate_all_where(state, cond);
            state.shrink();
        }
        Gate::Cz { control, target } => {
            state.extend(1);
            let qc = state.mgr.var(*control);
            let qt = state.mgr.var(*target);
            let cond = state.mgr.and(qc, qt);
            negate_all_where(state, cond);
            state.shrink();
        }
        Gate::S(t) => apply_phase_family_rotation(state, *t, PhaseRotation::I),
        Gate::Sdg(t) => apply_phase_family_rotation(state, *t, PhaseRotation::MinusI),
        Gate::T(t) => apply_phase_family_rotation(state, *t, PhaseRotation::Omega),
        Gate::Tdg(t) => apply_phase_family_rotation(state, *t, PhaseRotation::OmegaInv),
        Gate::Y(t) => apply_y(state, *t),
        Gate::H(t) => apply_hadamard_like(state, *t, HadamardKind::H),
        Gate::RyPi2(t) => apply_hadamard_like(state, *t, HadamardKind::RyPi2),
        Gate::RxPi2(t) => apply_rx_pi2(state, *t),
        // Dynamic operations are interpreted by the session layer (which
        // drives `measure_with` / collapse directly); the simulator-facing
        // `apply_gate` rejects them before reaching this table.
        Gate::Measure { .. } | Gate::Reset { .. } | Gate::Conditional { .. } => {
            unreachable!("dynamic operation `{gate}` reached the unitary update table")
        }
    }
}

/// The positive cube of `qubits`: the rows where every one of them is 1.
fn all_set(mgr: &Manager, qubits: impl Iterator<Item = usize>) -> NodeId {
    let literals: Vec<(usize, bool)> = qubits.map(|q| (q, true)).collect();
    mgr.cube(&literals)
}

/// Flips qubit `t` on the rows where the positive cube `controls` holds,
/// in every slice of every family.
fn flip_all(state: &mut BitSliceState, controls: NodeId, t: usize) {
    let mgr = &state.mgr;
    for slice in state.slices.iter_mut().flatten() {
        *slice = mgr.controlled_flip(*slice, controls, t);
    }
}

/// Conditionally negates every family where `cond` holds (used by Z and CZ):
/// one carry chain per family.
fn negate_all_where(state: &mut BitSliceState, cond: NodeId) {
    let mgr = &state.mgr;
    for family in state.slices.iter_mut() {
        *family = arith::negate_where(mgr, family, cond);
    }
}

/// The four phase rotations of the form `diag(1, φ)` whose φ is a power of ω:
/// they permute the coefficient families on rows where the target is 1.
#[derive(Debug, Clone, Copy)]
enum PhaseRotation {
    /// S: multiply by `i = ω²`, i.e. `(a, b, c, d) → (c, d, −a, −b)`.
    I,
    /// S†: multiply by `−i`, i.e. `(a, b, c, d) → (−c, −d, a, b)`.
    MinusI,
    /// T: multiply by `ω`, i.e. `(a, b, c, d) → (b, c, d, −a)`.
    Omega,
    /// T†: multiply by `ω⁻¹`, i.e. `(a, b, c, d) → (−d, a, b, c)`.
    OmegaInv,
}

fn apply_phase_family_rotation(state: &mut BitSliceState, t: usize, rotation: PhaseRotation) {
    state.extend(1);
    let qt = state.mgr.var(t);
    let r = state.r;
    let a = state.slices[Family::A as usize].clone();
    let b = state.slices[Family::B as usize].clone();
    let c = state.slices[Family::C as usize].clone();
    let d = state.slices[Family::D as usize].clone();
    // For each output family: which input family feeds the rows with qₜ = 1,
    // and whether that contribution is negated there.
    let plan: [(&Vec<NodeId>, &Vec<NodeId>, bool); 4] = match rotation {
        PhaseRotation::I => [
            (&c, &a, false),
            (&d, &b, false),
            (&a, &c, true),
            (&b, &d, true),
        ],
        PhaseRotation::MinusI => [
            (&c, &a, true),
            (&d, &b, true),
            (&a, &c, false),
            (&b, &d, false),
        ],
        PhaseRotation::Omega => [
            (&b, &a, false),
            (&c, &b, false),
            (&d, &c, false),
            (&a, &d, true),
        ],
        PhaseRotation::OmegaInv => [
            (&d, &a, true),
            (&a, &b, false),
            (&b, &c, false),
            (&c, &d, false),
        ],
    };
    let mgr = &state.mgr;
    // Stage 1: the per-row family selection — one multiplexer per slice.
    let mut mixed: [Vec<NodeId>; 4] = std::array::from_fn(|family| {
        let (source_when_set, keep_otherwise, _) = plan[family];
        (0..r)
            .map(|j| mgr.mux(qt, source_when_set[j], keep_otherwise[j]))
            .collect()
    });
    // Stage 2: the conditional negations — one carry chain per family.
    for (family, slices) in mixed.iter_mut().enumerate() {
        if plan[family].2 {
            *slices = arith::negate_where(mgr, slices, qt);
        }
    }
    state.slices = mixed;
    state.shrink();
}

/// Applies the "swap halves along qubit `t`" permutation (the value at
/// every row with qubit `t` flipped) to every slice of every family,
/// returning the permuted copies (originals untouched).
fn swap_all_families(state: &BitSliceState, t: usize) -> [Vec<NodeId>; 4] {
    std::array::from_fn(|family| {
        state.slices[family]
            .iter()
            .map(|&f| state.mgr.controlled_flip(f, NodeId::TRUE, t))
            .collect()
    })
}

/// Pauli-Y: swap the two halves along the target and rotate the coefficient
/// families by `±i` depending on the row.
fn apply_y(state: &mut BitSliceState, t: usize) {
    state.extend(1);
    let qt = state.mgr.var(t);
    let not_qt = state.mgr.not(qt);
    let swapped = swap_all_families(state, t);
    // new a = ±swap(c): negated on rows with qₜ = 0 (−i branch), and so on;
    // each conditional negation is a per-family carry chain.
    let plan: [(&Vec<NodeId>, NodeId); 4] = [
        (&swapped[Family::C as usize], not_qt),
        (&swapped[Family::D as usize], not_qt),
        (&swapped[Family::A as usize], qt),
        (&swapped[Family::B as usize], qt),
    ];
    let mgr = &state.mgr;
    state.slices =
        std::array::from_fn(|family| arith::negate_where(mgr, plan[family].0, plan[family].1));
    state.shrink();
}

/// H and Ry(π/2) share the same structure: the new value is
/// `F|_{qₜ=0} ± F|_{qₜ=1}` with the sign depending on the row, and `k`
/// increases by one for the `1/√2` factor (Proposition 1 of the paper).
#[derive(Debug, Clone, Copy)]
enum HadamardKind {
    H,
    RyPi2,
}

fn apply_hadamard_like(state: &mut BitSliceState, t: usize, kind: HadamardKind) {
    state.extend(1);
    // H:      new = F|₀ + F|₁ on qₜ=0 rows, F|₀ − F|₁ on qₜ=1 rows.
    // Ry(π/2): new = F|₀ − F|₁ on qₜ=0 rows, F|₀ + F|₁ on qₜ=1 rows.
    // The subtraction complements F|₁ on the rows of the sign literal, and
    // the sign literal is also the least significant slice's carry-in.
    let negate_on = matches!(kind, HadamardKind::H);
    let sign = if negate_on {
        state.mgr.var(t)
    } else {
        state.mgr.nvar(t)
    };
    let mgr = &state.mgr;
    // One ripple-carry chain per family, one kernel pass per slice; the
    // most significant slice needs no carry-out.
    for family in state.slices.iter_mut() {
        let (top, below) = family.split_last_mut().expect("a state has slices");
        let mut carry = sign;
        for slice in below {
            (*slice, carry) = mgr.hadamard_step(*slice, carry, t, negate_on);
        }
        *top = mgr.hadamard_sum(*top, carry, t, negate_on);
    }
    state.k += 1;
    state.shrink();
}

/// `Rx(π/2)`: the new value is `old − i·old_swapped` on qₜ=0 rows and
/// `−i·old_swapped + old` on qₜ=1 rows — uniformly `old + (−i)·swap(old)`.
fn apply_rx_pi2(state: &mut BitSliceState, t: usize) {
    state.extend(1);
    let swapped = swap_all_families(state, t);
    // (−i)·(a, b, c, d) = (−c, −d, a, b): subtract swap(c)/swap(d) from a/b and
    // add swap(a)/swap(b) to c/d.
    let a_old = state.slices[Family::A as usize].clone();
    let b_old = state.slices[Family::B as usize].clone();
    let c_old = state.slices[Family::C as usize].clone();
    let d_old = state.slices[Family::D as usize].clone();
    // Whole-vector negation is 2·r complement-bit flips — the kernel's
    // complement edges make these O(1), no traversal or allocation.
    let not_sc: Vec<NodeId> = swapped[Family::C as usize]
        .iter()
        .map(|&f| state.mgr.not(f))
        .collect();
    let not_sd: Vec<NodeId> = swapped[Family::D as usize]
        .iter()
        .map(|&f| state.mgr.not(f))
        .collect();
    // One ripple-carry chain per family.
    let plan: [(&Vec<NodeId>, &Vec<NodeId>, NodeId); 4] = [
        (&a_old, &not_sc, NodeId::TRUE),
        (&b_old, &not_sd, NodeId::TRUE),
        (&c_old, &swapped[Family::A as usize], NodeId::FALSE),
        (&d_old, &swapped[Family::B as usize], NodeId::FALSE),
    ];
    let mgr = &state.mgr;
    state.slices = std::array::from_fn(|family| {
        let (x, y, carry_in) = plan[family];
        arith::add_sliced(mgr, x, y, carry_in)
    });
    state.k += 1;
    state.shrink();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_math::Algebraic;

    fn amp(state: &mut BitSliceState, bits: &[bool]) -> Algebraic {
        state.amplitude(bits)
    }

    #[test]
    fn x_flips_the_target_bit() {
        let mut state = BitSliceState::new(2);
        apply(&mut state, &Gate::X(1));
        assert_eq!(amp(&mut state, &[false, true]), Algebraic::one());
        assert_eq!(amp(&mut state, &[false, false]), Algebraic::zero());
    }

    #[test]
    fn hadamard_creates_an_equal_superposition() {
        let mut state = BitSliceState::new(1);
        apply(&mut state, &Gate::H(0));
        let expected = Algebraic::one().div_sqrt2();
        assert!(amp(&mut state, &[false]).value_eq(&expected));
        assert!(amp(&mut state, &[true]).value_eq(&expected));
        assert_eq!(state.k(), 1);
        // H·H = identity, exactly.
        apply(&mut state, &Gate::H(0));
        let one_scaled = Algebraic::one().with_k(state.k() as i32);
        assert_eq!(amp(&mut state, &[false]), one_scaled);
        assert!(amp(&mut state, &[true]).is_zero());
    }

    #[test]
    fn hadamard_on_one_gives_a_minus_sign() {
        let mut state = BitSliceState::with_initial_bits(&[true]);
        apply(&mut state, &Gate::H(0));
        let plus = Algebraic::one().div_sqrt2();
        assert!(amp(&mut state, &[false]).value_eq(&plus));
        assert!(amp(&mut state, &[true]).value_eq(&(-plus)));
    }

    #[test]
    fn z_and_s_and_t_phases() {
        // On |1⟩: Z → −1, S → i, T → ω.
        let mut z_state = BitSliceState::with_initial_bits(&[true]);
        apply(&mut z_state, &Gate::Z(0));
        assert_eq!(amp(&mut z_state, &[true]), -Algebraic::one());

        let mut s_state = BitSliceState::with_initial_bits(&[true]);
        apply(&mut s_state, &Gate::S(0));
        assert_eq!(amp(&mut s_state, &[true]), Algebraic::i());

        let mut t_state = BitSliceState::with_initial_bits(&[true]);
        apply(&mut t_state, &Gate::T(0));
        assert_eq!(amp(&mut t_state, &[true]), Algebraic::omega());

        // And on |0⟩ they all act trivially.
        let mut id_state = BitSliceState::new(1);
        apply(&mut id_state, &Gate::Z(0));
        apply(&mut id_state, &Gate::S(0));
        apply(&mut id_state, &Gate::T(0));
        assert_eq!(amp(&mut id_state, &[false]), Algebraic::one());
    }

    #[test]
    fn y_on_basis_states() {
        // Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩.
        let mut state0 = BitSliceState::new(1);
        apply(&mut state0, &Gate::Y(0));
        assert!(amp(&mut state0, &[false]).is_zero());
        assert_eq!(amp(&mut state0, &[true]), Algebraic::i());

        let mut state1 = BitSliceState::with_initial_bits(&[true]);
        apply(&mut state1, &Gate::Y(0));
        assert_eq!(amp(&mut state1, &[false]), -Algebraic::i());
        assert!(amp(&mut state1, &[true]).is_zero());
    }

    #[test]
    fn daggers_undo_their_gates_exactly() {
        let mut state = BitSliceState::new(1);
        apply(&mut state, &Gate::H(0));
        apply(&mut state, &Gate::T(0));
        apply(&mut state, &Gate::Tdg(0));
        apply(&mut state, &Gate::S(0));
        apply(&mut state, &Gate::Sdg(0));
        apply(&mut state, &Gate::H(0));
        // Back to |0⟩ up to the 1/√2² factor from the two Hadamards.
        assert!(amp(&mut state, &[true]).is_zero());
        assert!(amp(&mut state, &[false]).value_eq(&Algebraic::one()));
    }

    #[test]
    fn t_to_the_eighth_is_identity() {
        let mut state = BitSliceState::with_initial_bits(&[true]);
        for _ in 0..8 {
            apply(&mut state, &Gate::T(0));
        }
        assert_eq!(amp(&mut state, &[true]), Algebraic::one());
    }

    #[test]
    fn cnot_and_toffoli_permute_basis_states() {
        let mut state = BitSliceState::with_initial_bits(&[true, false, false]);
        apply(
            &mut state,
            &Gate::Cnot {
                control: 0,
                target: 1,
            },
        );
        assert_eq!(amp(&mut state, &[true, true, false]), Algebraic::one());
        apply(
            &mut state,
            &Gate::Toffoli {
                controls: vec![0, 1],
                target: 2,
            },
        );
        assert_eq!(amp(&mut state, &[true, true, true]), Algebraic::one());
        // Control below target.
        apply(
            &mut state,
            &Gate::Cnot {
                control: 2,
                target: 0,
            },
        );
        assert_eq!(amp(&mut state, &[false, true, true]), Algebraic::one());
    }

    #[test]
    fn fredkin_swaps_under_control() {
        let mut state = BitSliceState::with_initial_bits(&[true, true, false]);
        apply(
            &mut state,
            &Gate::Fredkin {
                controls: vec![0],
                target1: 1,
                target2: 2,
            },
        );
        assert_eq!(amp(&mut state, &[true, false, true]), Algebraic::one());
        // Without its control satisfied nothing moves.
        let mut idle = BitSliceState::with_initial_bits(&[false, true, false]);
        apply(
            &mut idle,
            &Gate::Fredkin {
                controls: vec![0],
                target1: 1,
                target2: 2,
            },
        );
        assert_eq!(amp(&mut idle, &[false, true, false]), Algebraic::one());
    }

    #[test]
    fn bell_state_amplitudes_are_exact() {
        let mut state = BitSliceState::new(2);
        apply(&mut state, &Gate::H(0));
        apply(
            &mut state,
            &Gate::Cnot {
                control: 0,
                target: 1,
            },
        );
        let h = Algebraic::one().div_sqrt2();
        assert!(amp(&mut state, &[false, false]).value_eq(&h));
        assert!(amp(&mut state, &[true, true]).value_eq(&h));
        assert!(amp(&mut state, &[true, false]).is_zero());
        assert!(amp(&mut state, &[false, true]).is_zero());
    }

    #[test]
    fn width_grows_and_shrinks_with_hadamard_ladders() {
        let mut state = BitSliceState::new(1);
        let start = state.width();
        // H then X then H then X … amplitudes stay within ±2, so the width
        // must stay small thanks to shrink().
        for _ in 0..20 {
            apply(&mut state, &Gate::H(0));
            apply(&mut state, &Gate::X(0));
        }
        assert!(state.width() <= start + 21);
        assert!(state.width() >= start);
    }

    #[test]
    fn rx_and_ry_match_their_matrices_on_basis_states() {
        // Rx(π/2)|0⟩ = (|0⟩ − i|1⟩)/√2.
        let mut state = BitSliceState::new(1);
        apply(&mut state, &Gate::RxPi2(0));
        let inv_sqrt2 = Algebraic::one().div_sqrt2();
        assert!(amp(&mut state, &[false]).value_eq(&inv_sqrt2));
        assert!(amp(&mut state, &[true]).value_eq(&(-Algebraic::i()).div_sqrt2()));
        assert_eq!(state.k(), 1);

        // Ry(π/2)|0⟩ = (|0⟩ + |1⟩)/√2, Ry(π/2)|1⟩ = (−|0⟩ + |1⟩)/√2.
        let mut state0 = BitSliceState::new(1);
        apply(&mut state0, &Gate::RyPi2(0));
        assert!(amp(&mut state0, &[false]).value_eq(&inv_sqrt2));
        assert!(amp(&mut state0, &[true]).value_eq(&inv_sqrt2));
        let mut state1 = BitSliceState::with_initial_bits(&[true]);
        apply(&mut state1, &Gate::RyPi2(0));
        assert!(amp(&mut state1, &[false]).value_eq(&(-inv_sqrt2)));
        assert!(amp(&mut state1, &[true]).value_eq(&inv_sqrt2));
    }

    #[test]
    fn cz_adds_a_phase_only_on_the_11_row() {
        let mut state = BitSliceState::new(2);
        apply(&mut state, &Gate::H(0));
        apply(&mut state, &Gate::H(1));
        apply(
            &mut state,
            &Gate::Cz {
                control: 0,
                target: 1,
            },
        );
        let quarter = Algebraic::one().div_sqrt2().div_sqrt2();
        assert!(amp(&mut state, &[false, false]).value_eq(&quarter));
        assert!(amp(&mut state, &[true, false]).value_eq(&quarter));
        assert!(amp(&mut state, &[false, true]).value_eq(&quarter));
        assert!(amp(&mut state, &[true, true]).value_eq(&(-quarter)));
    }
}
