//! The exact amplitude oracle: a dense state vector over
//! [`sliq_math::Algebraic`] applies every unitary gate from its matrix, with
//! no rounding anywhere, and the bit-sliced simulator must reproduce it
//! entry by entry — at the fixed variable order, with the order sifted after
//! every gate, and with a garbage collection after every gate.  Random
//! circuits cover the whole gate set over up to six qubits, including
//! Toffoli with 0–3 controls and SWAP/Fredkin with 0–2 controls placed
//! above, between and below the targets.  A Hadamard-heavy case draws only
//! H, Ry(π/2), T, S, CX and CZ over longer circuits, so the adder's carries
//! ripple across more slices.  In the same three modes a snapshot is taken
//! at a random cut, a random qubit is measured there, and both the
//! collapsed run and the restored snapshot must stay exact.

use proptest::prelude::*;
use sliq_circuit::{Gate, Simulator};
use sliq_core::BitSliceSimulator;
use sliq_math::Algebraic;

/// The dense exact reference: `amps[i]` is the amplitude of the basis state
/// whose qubit `q` is bit `q` of `i`.
struct ExactState {
    amps: Vec<Algebraic>,
}

impl ExactState {
    fn new(n: usize) -> Self {
        let mut amps = vec![Algebraic::zero(); 1 << n];
        amps[0] = Algebraic::one();
        Self { amps }
    }

    /// Applies `gate` from its matrix: every new amplitude is a sum of at
    /// most two old ones times a power of ω, over √2 for H, Rx and Ry.
    fn apply(&mut self, gate: &Gate) {
        let old = std::mem::take(&mut self.amps);
        let set = |i: usize, q: usize| i >> q & 1 == 1;
        let all_set = |i: usize, qs: &[usize]| qs.iter().all(|&q| set(i, q));
        // (amplitude at qubit t = 0, amplitude at qubit t = 1) of row i's pair.
        let pair = |i: usize, t: usize| (old[i & !(1 << t)], old[i | 1 << t]);
        let phase = |i: usize, t: usize, power: i32| {
            if set(i, t) {
                old[i].mul_omega_pow(power)
            } else {
                old[i]
            }
        };
        self.amps = (0..old.len())
            .map(|i| {
                let amp = match gate {
                    Gate::X(t) => old[i ^ 1 << t],
                    // Y = [[0, −i], [i, 0]].
                    Gate::Y(t) => old[i ^ 1 << t].mul_omega_pow(if set(i, *t) { 2 } else { -2 }),
                    Gate::Z(t) => phase(i, *t, 4),
                    Gate::S(t) => phase(i, *t, 2),
                    Gate::Sdg(t) => phase(i, *t, -2),
                    Gate::T(t) => phase(i, *t, 1),
                    Gate::Tdg(t) => phase(i, *t, -1),
                    // H = [[1, 1], [1, −1]] / √2.
                    Gate::H(t) => {
                        let (a0, a1) = pair(i, *t);
                        let sum = if set(i, *t) { a0 - a1 } else { a0 + a1 };
                        sum.div_sqrt2()
                    }
                    // Ry(π/2) = [[1, −1], [1, 1]] / √2.
                    Gate::RyPi2(t) => {
                        let (a0, a1) = pair(i, *t);
                        let sum = if set(i, *t) { a0 + a1 } else { a0 - a1 };
                        sum.div_sqrt2()
                    }
                    // Rx(π/2) = [[1, −i], [−i, 1]] / √2.
                    Gate::RxPi2(t) => {
                        let (a0, a1) = pair(i, *t);
                        let minus_i = |a: Algebraic| a.mul_omega_pow(-2);
                        let sum = if set(i, *t) {
                            minus_i(a0) + a1
                        } else {
                            a0 + minus_i(a1)
                        };
                        sum.div_sqrt2()
                    }
                    Gate::Cnot { control, target } if set(i, *control) => old[i ^ 1 << target],
                    Gate::Cz { control, target } if set(i, *control) => phase(i, *target, 4),
                    Gate::Toffoli { controls, target } if all_set(i, controls) => {
                        old[i ^ 1 << target]
                    }
                    Gate::Fredkin {
                        controls,
                        target1,
                        target2,
                    } if all_set(i, controls) && set(i, *target1) != set(i, *target2) => {
                        old[i ^ (1 << target1 | 1 << target2)]
                    }
                    Gate::Cnot { .. }
                    | Gate::Cz { .. }
                    | Gate::Toffoli { .. }
                    | Gate::Fredkin { .. } => old[i],
                    Gate::Measure { .. } | Gate::Reset { .. } | Gate::Conditional { .. } => {
                        unreachable!("the oracle applies unitary gates only")
                    }
                };
                amp.reduced()
            })
            .collect();
    }
}

/// The qubits `0..n` in an order drawn from `seed` (Fisher–Yates), so the
/// operands of a gate built from its prefix are distinct and its controls
/// land anywhere relative to its targets.
fn shuffled_qubits(n: usize, mut seed: u64) -> Vec<usize> {
    let mut qubits: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let choices = i as u64 + 1;
        qubits.swap(i, (seed % choices) as usize);
        seed /= choices;
    }
    qubits
}

/// Gate `kind` (0..14, the whole unitary gate set) on qubits drawn from
/// `seed`; `n ≥ 4` leaves room for a Toffoli with three controls and a
/// Fredkin with two.
fn random_gate(n: usize, kind: u8, seed: u64) -> Gate {
    let q = shuffled_qubits(n, seed);
    let extra = (seed >> 32) as usize;
    match kind {
        0 => Gate::X(q[0]),
        1 => Gate::Y(q[0]),
        2 => Gate::Z(q[0]),
        3 => Gate::H(q[0]),
        4 => Gate::S(q[0]),
        5 => Gate::Sdg(q[0]),
        6 => Gate::T(q[0]),
        7 => Gate::Tdg(q[0]),
        8 => Gate::RxPi2(q[0]),
        9 => Gate::RyPi2(q[0]),
        10 => Gate::Cnot {
            control: q[1],
            target: q[0],
        },
        11 => Gate::Cz {
            control: q[1],
            target: q[0],
        },
        12 => Gate::Toffoli {
            controls: q[1..1 + extra % 4].to_vec(),
            target: q[0],
        },
        _ => Gate::Fredkin {
            controls: q[2..2 + extra % 3].to_vec(),
            target1: q[0],
            target2: q[1],
        },
    }
}

/// What runs between gates.
#[derive(Debug, Clone, Copy)]
enum Mode {
    FixedOrder,
    SiftEveryGate,
    CollectEveryGate,
}

const MODES: [Mode; 3] = [
    Mode::FixedOrder,
    Mode::SiftEveryGate,
    Mode::CollectEveryGate,
];

/// Applies `gates` to `sim`, with `mode`'s work after each one.
fn run_in_mode(sim: &mut BitSliceSimulator, gates: &[Gate], mode: Mode) {
    for gate in gates {
        sim.apply_gate(gate).unwrap();
        settle(sim, mode);
    }
}

fn settle(sim: &mut BitSliceSimulator, mode: Mode) {
    match mode {
        Mode::FixedOrder => {}
        Mode::SiftEveryGate => {
            sim.reorder();
        }
        Mode::CollectEveryGate => {
            sim.state_mut().collect_garbage();
        }
    }
}

/// The kinds of the Hadamard-heavy case: H, Ry(π/2), T, S, CX and CZ.
const HADAMARD_HEAVY: [u8; 6] = [3, 9, 6, 4, 10, 11];

fn random_gates(n: usize, draws: &[(u8, u64)]) -> Vec<Gate> {
    draws
        .iter()
        .map(|&(kind, seed)| random_gate(n, kind, seed))
        .collect()
}

fn reference_after(n: usize, gates: &[Gate]) -> ExactState {
    let mut reference = ExactState::new(n);
    for gate in gates {
        reference.apply(gate);
    }
    reference
}

/// Runs `gates` in every mode and requires the exact reference's
/// amplitudes at the end.
fn assert_exact_in_every_mode(n: usize, gates: &[Gate]) {
    let reference = reference_after(n, gates);
    for mode in MODES {
        let mut sim = BitSliceSimulator::new(n);
        run_in_mode(&mut sim, gates, mode);
        let got = sim.state_mut().to_algebraic_vector();
        if let Some(what) = mismatch(&got, &reference.amps) {
            panic!("{mode:?}, {what}\ncircuit: {gates:?}");
        }
    }
}

/// Whether `got` equals `expected` exactly, entry by entry; the first
/// mismatch otherwise.
fn mismatch(got: &[Algebraic], expected: &[Algebraic]) -> Option<String> {
    got.iter()
        .zip(expected)
        .enumerate()
        .find(|(_, (amp, reference))| !amp.value_eq(reference))
        .map(|(i, (amp, reference))| {
            format!("basis index {i}: bit-sliced {amp} vs exact {reference}")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_sliced_amplitudes_equal_the_exact_reference(
        n in 4..7usize,
        draws in proptest::collection::vec((0..14u8, any::<u64>()), 0..32),
    ) {
        assert_exact_in_every_mode(n, &random_gates(n, &draws));
    }

    #[test]
    fn hadamard_heavy_circuits_equal_the_exact_reference(
        n in 4..7usize,
        draws in proptest::collection::vec((0..HADAMARD_HEAVY.len(), any::<u64>()), 0..49),
    ) {
        let draws: Vec<(u8, u64)> = draws
            .into_iter()
            .map(|(kind, seed)| (HADAMARD_HEAVY[kind], seed))
            .collect();
        assert_exact_in_every_mode(n, &random_gates(n, &draws));
    }

    #[test]
    fn snapshot_collapse_and_restore_stay_exact(
        n in 4..7usize,
        draws in proptest::collection::vec((0..14u8, any::<u64>()), 0..32),
        probe in any::<u64>(),
        u_bits in any::<u64>(),
    ) {
        let gates = random_gates(n, &draws);
        let cut = (probe % (gates.len() as u64 + 1)) as usize;
        let qubit = (probe >> 32) as usize % n;
        let u = (u_bits >> 11) as f64 / (1u64 << 53) as f64;
        let at_cut = reference_after(n, &gates[..cut]);
        for mode in MODES {
            let mut sim = BitSliceSimulator::new(n);
            run_in_mode(&mut sim, &gates[..cut], mode);
            let snapshot = sim.snapshot();
            // The collapse keeps the surviving amplitudes' algebraic form
            // (the 1/√p goes into the float factor), so the reference only
            // zeroes the other branch.
            let outcome = sim.state_mut().measure_with(qubit, u);
            settle(&mut sim, mode);
            let mut collapsed = ExactState {
                amps: at_cut.amps.clone(),
            };
            for (i, amp) in collapsed.amps.iter_mut().enumerate() {
                if (i >> qubit & 1 == 1) != outcome {
                    *amp = Algebraic::zero();
                }
            }
            run_in_mode(&mut sim, &gates[cut..], mode);
            for gate in &gates[cut..] {
                collapsed.apply(gate);
            }
            let got = sim.state_mut().to_algebraic_vector();
            if let Some(what) = mismatch(&got, &collapsed.amps) {
                prop_assert!(
                    false,
                    "{:?}, measured q{} = {} after gate {}: {}\ncircuit: {:?}",
                    mode, qubit, outcome, cut, what, gates
                );
            }
            sim.restore(&snapshot);
            prop_assert_eq!(sim.state().normalization_factor(), 1.0);
            let got = sim.state_mut().to_algebraic_vector();
            if let Some(what) = mismatch(&got, &at_cut.amps) {
                prop_assert!(
                    false,
                    "{:?}, restored at gate {}: {}\ncircuit: {:?}",
                    mode, cut, what, gates
                );
            }
        }
    }
}
