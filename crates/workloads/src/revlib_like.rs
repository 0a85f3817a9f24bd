//! RevLib-like reversible benchmark circuits (the paper's second benchmark
//! set, Table IV).
//!
//! The exact RevLib netlists are an external download, so this module
//! synthesises structurally comparable reversible circuits — pure
//! Toffoli/Fredkin/CNOT/NOT networks over a few hundred lines — and applies
//! the paper's modification of inserting a Hadamard on every input whose
//! initial value is unspecified, which turns a classically-simulatable
//! circuit into one with genuine superposition (the regime where DDSIM runs
//! out of memory in Table IV).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sliq_circuit::{Circuit, RealMetadata};

/// A named reversible benchmark: the circuit plus RevLib-style metadata
/// (which inputs are constant, which outputs are garbage).
#[derive(Debug, Clone)]
pub struct ReversibleBenchmark {
    /// Benchmark name (mirrors the RevLib naming style).
    pub name: String,
    /// The reversible circuit.
    pub circuit: Circuit,
    /// Input/garbage metadata.
    pub metadata: RealMetadata,
}

impl ReversibleBenchmark {
    /// The paper's Table IV modification: prepend an H gate on every input
    /// whose initial value is unspecified, creating an initial superposition.
    pub fn with_superposition_inputs(&self) -> Circuit {
        let mut modified = Circuit::new(self.circuit.num_qubits());
        for q in self.metadata.free_inputs() {
            modified.h(q);
        }
        modified.append(&self.circuit);
        modified
    }
}

/// A CDKM-style ripple-carry adder on two `bits`-bit registers plus carry
/// lines, built from Toffoli and CNOT gates.
///
/// Register layout: qubits `0..bits` hold `a`, `bits..2·bits` hold `b`
/// (overwritten with the sum), qubit `2·bits` is the carry ancilla.
pub fn ripple_carry_adder(bits: usize) -> ReversibleBenchmark {
    let n = 2 * bits + 1;
    let carry = 2 * bits;
    let mut circuit = Circuit::new(n);
    let a = |i: usize| i;
    let b = |i: usize| bits + i;
    // A standard MAJ/UMA ladder.
    let mut majs: Vec<(usize, usize, usize)> = Vec::new();
    let mut prev_carry = carry;
    for i in 0..bits {
        // MAJ(prev_carry, b_i, a_i)
        circuit.cx(a(i), b(i));
        circuit.cx(a(i), prev_carry);
        circuit.ccx(prev_carry, b(i), a(i));
        majs.push((prev_carry, b(i), a(i)));
        prev_carry = a(i);
    }
    // Unwind with UMA gates.
    for &(c, bq, aq) in majs.iter().rev() {
        circuit.ccx(c, bq, aq);
        circuit.cx(aq, c);
        circuit.cx(c, bq);
    }
    let metadata = RealMetadata {
        variables: (0..n).map(|i| format!("x{i}")).collect(),
        // The carry ancilla is a constant-0 input; a and b are free inputs.
        constants: (0..n)
            .map(|i| if i == carry { Some(false) } else { None })
            .collect(),
        garbage: (0..n).map(|i| i < bits).collect(),
    };
    ReversibleBenchmark {
        name: format!("add{}_{}", bits, n),
        circuit,
        metadata,
    }
}

/// A reversible equality comparator: computes whether two `bits`-bit
/// registers are equal into a result ancilla (multi-controlled Toffoli over
/// XNOR lines).
pub fn equality_comparator(bits: usize) -> ReversibleBenchmark {
    let n = 2 * bits + 1;
    let result = 2 * bits;
    let mut circuit = Circuit::new(n);
    // b_i ^= a_i, then flip b_i so that b_i == 1 iff original bits matched.
    for i in 0..bits {
        circuit.cx(i, bits + i);
        circuit.x(bits + i);
    }
    circuit.mcx((bits..2 * bits).collect(), result);
    // Uncompute the XNOR lines.
    for i in (0..bits).rev() {
        circuit.x(bits + i);
        circuit.cx(i, bits + i);
    }
    let metadata = RealMetadata {
        variables: (0..n).map(|i| format!("x{i}")).collect(),
        constants: (0..n)
            .map(|i| if i == result { Some(false) } else { None })
            .collect(),
        garbage: (0..n).map(|i| i != result).collect(),
    };
    ReversibleBenchmark {
        name: format!("cmp{}_{}", bits, n),
        circuit,
        metadata,
    }
}

/// A random Toffoli/Fredkin/CNOT network in the style of synthesised RevLib
/// control logic (e.g. the `callif`/`cpu_control_unit` family): a cascade of
/// gates with small control sets over a wide register, with a handful of
/// constant-0 ancilla lines.
pub fn random_control_logic(lines: usize, gates: usize, seed: u64) -> ReversibleBenchmark {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(lines);
    for _ in 0..gates {
        let mut qs: Vec<usize> = (0..lines).collect();
        qs.shuffle(&mut rng);
        match rng.gen_range(0..10) {
            0..=1 => {
                circuit.x(qs[0]);
            }
            2..=4 => {
                circuit.cx(qs[0], qs[1]);
            }
            5..=7 => {
                circuit.ccx(qs[0], qs[1], qs[2]);
            }
            8 => {
                circuit.mcx(vec![qs[0], qs[1], qs[2]], qs[3]);
            }
            _ => {
                circuit.cswap(qs[0], qs[1], qs[2]);
            }
        }
    }
    // Roughly a quarter of the lines are constant-0 ancillas, as is typical
    // for synthesised RevLib circuits.
    let metadata = RealMetadata {
        variables: (0..lines).map(|i| format!("x{i}")).collect(),
        constants: (0..lines)
            .map(|i| if i % 4 == 3 { Some(false) } else { None })
            .collect(),
        garbage: vec![false; lines],
    };
    ReversibleBenchmark {
        name: format!("ctrl{lines}_{seed}"),
        circuit,
        metadata,
    }
}

/// A hidden-weighted-bit-style permutation built from controlled cyclic
/// shifts (a classic hard case for decision diagrams).
pub fn hidden_weighted_bit_like(bits: usize) -> ReversibleBenchmark {
    let n = bits;
    let mut circuit = Circuit::new(n);
    // For each qubit treated as a "weight contributor", conditionally rotate
    // the register by one position using controlled swaps.
    for c in 0..n {
        for i in 0..(n - 1) {
            if i != c && (i + 1) != c {
                circuit.cswap(c, i, i + 1);
            }
        }
    }
    let metadata = RealMetadata {
        variables: (0..n).map(|i| format!("x{i}")).collect(),
        constants: vec![None; n],
        garbage: vec![false; n],
    };
    ReversibleBenchmark {
        name: format!("hwb{n}"),
        circuit,
        metadata,
    }
}

/// The default Table IV-like suite: a spread of adders, comparators, control
/// logic and HWB-style permutations with qubit counts in the RevLib range.
pub fn table4_suite() -> Vec<ReversibleBenchmark> {
    vec![
        ripple_carry_adder(8),
        ripple_carry_adder(16),
        equality_comparator(12),
        hidden_weighted_bit_like(9),
        random_control_logic(32, 160, 11),
        random_control_logic(48, 240, 12),
        random_control_logic(64, 320, 13),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_circuit::{Gate, Simulator};
    use sliq_core::BitSliceSimulator;
    use sliq_dense::DenseSimulator;

    #[test]
    fn adder_computes_sums_classically() {
        let bits = 4;
        let bench = ripple_carry_adder(bits);
        assert!(bench.circuit.validate().is_ok());
        for (a_val, b_val) in [(3u32, 5u32), (9, 9), (15, 1), (0, 0), (7, 12)] {
            let mut init = vec![false; 2 * bits + 1];
            for i in 0..bits {
                init[i] = a_val >> i & 1 == 1;
                init[bits + i] = b_val >> i & 1 == 1;
            }
            let mut sim = DenseSimulator::with_initial_bits(&init);
            sim.run(&bench.circuit).unwrap();
            let expected = (a_val + b_val) & 0xf;
            let mut out_bits = init.clone();
            for i in 0..bits {
                out_bits[bits + i] = expected >> i & 1 == 1;
            }
            // a register is restored, b holds the sum (mod 2^bits), carry
            // ancilla back to 0.
            assert!(
                sim.probability_of_basis_state(&out_bits) > 0.99,
                "{a_val}+{b_val}"
            );
        }
    }

    #[test]
    fn comparator_detects_equality() {
        let bits = 3;
        let bench = equality_comparator(bits);
        for (a_val, b_val, equal) in [(5u32, 5u32, true), (5, 3, false), (0, 0, true)] {
            let mut init = vec![false; 2 * bits + 1];
            for i in 0..bits {
                init[i] = a_val >> i & 1 == 1;
                init[bits + i] = b_val >> i & 1 == 1;
            }
            let mut sim = DenseSimulator::with_initial_bits(&init);
            sim.run(&bench.circuit).unwrap();
            assert!(
                (sim.probability_of_one(2 * bits) - if equal { 1.0 } else { 0.0 }).abs() < 1e-9
            );
        }
    }

    #[test]
    fn superposition_modification_prepends_hadamards_on_free_inputs() {
        let bench = ripple_carry_adder(4);
        let modified = bench.with_superposition_inputs();
        let free = bench.metadata.free_inputs().len();
        assert_eq!(modified.len(), bench.circuit.len() + free);
        assert_eq!(modified.gate_counts()["h"], free);
        // The modified circuit still simulates exactly on the BDD backend.
        let mut sim = BitSliceSimulator::new(modified.num_qubits());
        sim.run(&modified).unwrap();
        assert!(sim.is_exactly_normalized());
    }

    #[test]
    fn suite_has_table4_like_sizes() {
        let suite = table4_suite();
        assert!(suite.len() >= 6);
        for bench in &suite {
            assert!(bench.circuit.validate().is_ok(), "{}", bench.name);
            assert!(bench.circuit.num_qubits() >= 9);
            assert!(!bench.circuit.is_empty());
            // Every benchmark is a pure reversible (classical) circuit.
            assert!(bench.circuit.iter().all(|g| matches!(
                g,
                Gate::X(_) | Gate::Cnot { .. } | Gate::Toffoli { .. } | Gate::Fredkin { .. }
            )));
        }
    }

    #[test]
    fn wide_multi_controlled_circuits_round_trip_through_qasm() {
        // A 16-control Toffoli, plus 3-control Toffolis and Fredkins.
        for bench in [equality_comparator(16), random_control_logic(24, 200, 11)] {
            for circuit in [bench.circuit.clone(), bench.with_superposition_inputs()] {
                let text = sliq_circuit::qasm::emit(&circuit);
                let parsed = sliq_circuit::qasm::parse(&text).unwrap();
                assert_eq!(parsed, circuit, "{}", bench.name);
            }
        }
    }

    #[test]
    fn suite_serialises_to_real_format() {
        for bench in table4_suite() {
            let text = sliq_circuit::real::emit(&bench.circuit, &bench.metadata).unwrap();
            let parsed = sliq_circuit::real::parse(&text).unwrap();
            assert_eq!(parsed.circuit, bench.circuit, "{}", bench.name);
        }
    }
}
