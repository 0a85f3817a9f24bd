//! The central correctness property of the reproduction: on random circuits
//! over the full supported gate set, the bit-sliced BDD simulator must agree
//! amplitude-by-amplitude with the dense state-vector oracle — and, unlike
//! the floating-point backends, it must stay *exactly* normalised.

use proptest::prelude::*;
use sliq_circuit::{Circuit, Gate, Simulator};
use sliq_core::BitSliceSimulator;
use sliq_dense::DenseSimulator;

const NQ: usize = 4;

fn any_gate() -> impl Strategy<Value = Gate> {
    let distinct2 = (0..NQ, 0..NQ).prop_filter("distinct", |(a, b)| a != b);
    let distinct3 =
        (0..NQ, 0..NQ, 0..NQ).prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c);
    prop_oneof![
        (0..NQ).prop_map(Gate::X),
        (0..NQ).prop_map(Gate::Y),
        (0..NQ).prop_map(Gate::Z),
        (0..NQ).prop_map(Gate::H),
        (0..NQ).prop_map(Gate::S),
        (0..NQ).prop_map(Gate::Sdg),
        (0..NQ).prop_map(Gate::T),
        (0..NQ).prop_map(Gate::Tdg),
        (0..NQ).prop_map(Gate::RxPi2),
        (0..NQ).prop_map(Gate::RyPi2),
        distinct2
            .clone()
            .prop_map(|(control, target)| Gate::Cnot { control, target }),
        distinct2.prop_map(|(control, target)| Gate::Cz { control, target }),
        distinct3
            .clone()
            .prop_map(|(c0, c1, target)| Gate::Toffoli {
                controls: vec![c0, c1],
                target
            }),
        distinct3.prop_map(|(c, target1, target2)| Gate::Fredkin {
            controls: vec![c],
            target1,
            target2
        }),
    ]
}

fn all_basis_states() -> impl Iterator<Item = Vec<bool>> {
    (0..(1usize << NQ)).map(|i| (0..NQ).map(|q| i >> q & 1 == 1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn amplitudes_match_dense_oracle(gates in proptest::collection::vec(any_gate(), 0..35)) {
        let mut circuit = Circuit::new(NQ);
        circuit.extend(gates);
        let mut dense = DenseSimulator::new(NQ);
        let mut bitslice = BitSliceSimulator::new(NQ);
        dense.run(&circuit).unwrap();
        bitslice.run(&circuit).unwrap();
        for bits in all_basis_states() {
            let expected = dense.amplitude(&bits);
            let got = bitslice.amplitude(&bits).to_complex();
            prop_assert!(
                expected.approx_eq(&got, 1e-9),
                "basis {:?}: dense {} vs bit-sliced {}", bits, expected, got
            );
            // The width-independent floating point accessor agrees too.
            let got_f64 = bitslice.amplitude_complex(&bits);
            prop_assert!(expected.approx_eq(&got_f64, 1e-9));
        }
    }

    #[test]
    fn always_exactly_normalized(gates in proptest::collection::vec(any_gate(), 0..35)) {
        let mut circuit = Circuit::new(NQ);
        circuit.extend(gates);
        let mut bitslice = BitSliceSimulator::new(NQ);
        bitslice.run(&circuit).unwrap();
        // Exact integer identity — no epsilon anywhere.
        prop_assert!(bitslice.is_exactly_normalized());
        prop_assert!((bitslice.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_probabilities_match_dense(gates in proptest::collection::vec(any_gate(), 0..30), q in 0..NQ) {
        let mut circuit = Circuit::new(NQ);
        circuit.extend(gates);
        let mut dense = DenseSimulator::new(NQ);
        let mut bitslice = BitSliceSimulator::new(NQ);
        dense.run(&circuit).unwrap();
        bitslice.run(&circuit).unwrap();
        let pd = dense.probability_of_one(q);
        let pb = bitslice.probability_of_one(q);
        prop_assert!((pd - pb).abs() < 1e-9, "qubit {}: dense {} bitslice {}", q, pd, pb);
    }

    #[test]
    fn measurement_collapse_matches_dense(gates in proptest::collection::vec(any_gate(), 0..25), q in 0..NQ, u in 0.0f64..1.0) {
        let mut circuit = Circuit::new(NQ);
        circuit.extend(gates);
        let mut dense = DenseSimulator::new(NQ);
        let mut bitslice = BitSliceSimulator::new(NQ);
        dense.run(&circuit).unwrap();
        bitslice.run(&circuit).unwrap();
        let p = dense.probability_of_one(q);
        // Skip draws that land on the decision boundary within float noise.
        if (u - p).abs() > 1e-6 {
            let od = dense.measure_with(q, u);
            let ob = bitslice.measure_with(q, u);
            prop_assert_eq!(od, ob);
            for k in 0..NQ {
                let pd = dense.probability_of_one(k);
                let pb = bitslice.probability_of_one(k);
                prop_assert!((pd - pb).abs() < 1e-9, "post-collapse qubit {}: {} vs {}", k, pd, pb);
            }
            prop_assert!((bitslice.total_probability() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn clifford_t_circuit_then_inverse_restores_identity(gates in proptest::collection::vec(any_gate(), 0..20)) {
        // Filter to invertible gates (everything except Rx/Ry π/2 rotations).
        let gates: Vec<Gate> = gates
            .into_iter()
            .filter(|g| !matches!(g, Gate::RxPi2(_) | Gate::RyPi2(_)))
            .collect();
        let mut circuit = Circuit::new(NQ);
        circuit.extend(gates);
        let inverse = circuit.inverse().expect("filtered to invertible gates");
        let mut bitslice = BitSliceSimulator::new(NQ);
        bitslice.run(&circuit).unwrap();
        bitslice.run(&inverse).unwrap();
        // The state must be |0…0⟩ again (up to the exact global 1/√2ᵏ bookkeeping).
        prop_assert!((bitslice.probability_of_basis_state(&[false; NQ]) - 1.0).abs() < 1e-9);
        prop_assert!(bitslice.is_exactly_normalized());
    }

    #[test]
    fn amplitudes_match_dense_oracle_under_constant_reordering(gates in proptest::collection::vec(any_gate(), 0..35)) {
        // End-to-end reordering equivalence: with the auto-reorder trigger
        // forced to fire after every gate (threshold 1),
        // the slice roots must survive every sift and the final state must
        // still agree amplitude-by-amplitude with the dense oracle.
        let mut circuit = Circuit::new(NQ);
        circuit.extend(gates);
        let mut dense = DenseSimulator::new(NQ);
        let mut bitslice = BitSliceSimulator::new(NQ).with_auto_reorder(true);
        bitslice.state_mut().set_reorder_threshold(1);
        dense.run(&circuit).unwrap();
        bitslice.run(&circuit).unwrap();
        for bits in all_basis_states() {
            let expected = dense.amplitude(&bits);
            let got = bitslice.amplitude_complex(&bits);
            prop_assert!(
                expected.approx_eq(&got, 1e-9),
                "basis {:?}: dense {} vs reordered bit-sliced {}", bits, expected, got
            );
        }
        for q in 0..NQ {
            let pd = dense.probability_of_one(q);
            let pb = bitslice.probability_of_one(q);
            prop_assert!((pd - pb).abs() < 1e-9, "qubit {}: dense {} reordered {}", q, pd, pb);
        }
        prop_assert!(bitslice.is_exactly_normalized());
    }

    #[test]
    fn random_circuit_state_respects_complement_canonicity(gates in proptest::collection::vec(any_gate(), 0..35)) {
        // The kernel's complement-edge canonical form must survive whole
        // circuits: walking every live slice BDD of the final state, no
        // stored low edge may carry the complement bit, and the sharing
        // report must be consistent with the reachable-node walk.
        let mut circuit = Circuit::new(NQ);
        circuit.extend(gates);
        let mut bitslice = BitSliceSimulator::new(NQ);
        bitslice.run(&circuit).unwrap();
        let state = bitslice.state();
        let mgr = state.manager();
        let mut stack: Vec<_> = state.all_roots().iter().map(|f| f.regular()).collect();
        let mut seen = std::collections::HashSet::new();
        while let Some(f) = stack.pop() {
            if f.is_terminal() || !seen.insert(f) {
                continue;
            }
            let (_, low, high) = mgr.node(f).expect("non-terminal");
            prop_assert!(!low.is_complemented(), "stored low edge is complemented");
            stack.push(low);
            stack.push(high.regular());
        }
        let (complemented, nodes) = state.complement_edge_count();
        prop_assert_eq!(nodes, seen.len());
        prop_assert!(complemented <= nodes);
    }
}
