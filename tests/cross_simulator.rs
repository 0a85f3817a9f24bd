//! Workspace-level integration tests: all backends must agree with one
//! another on every workload family, driven solely through the public facade.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliqsim::circuit::Simulator;
use sliqsim::prelude::*;
use sliqsim::workloads::{algorithms, random, revlib_like, supremacy};

fn all_basis_states(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..(1usize << n)).map(move |i| (0..n).map(|q| i >> q & 1 == 1).collect())
}

/// Runs a circuit on the bit-sliced, QMDD and dense backends and checks that
/// every amplitude agrees.
fn assert_backends_agree(circuit: &Circuit) {
    let n = circuit.num_qubits();
    assert!(n <= 12, "oracle comparison only for small circuits");
    let mut dense = DenseSimulator::new(n);
    let mut qmdd = QmddSimulator::new(n);
    let mut bitslice = BitSliceSimulator::new(n);
    dense.run(circuit).unwrap();
    qmdd.run(circuit).unwrap();
    bitslice.run(circuit).unwrap();
    for bits in all_basis_states(n) {
        let reference = dense.amplitude(&bits);
        let from_qmdd = qmdd.amplitude(&bits);
        let from_bitslice = bitslice.amplitude(&bits).to_complex();
        assert!(
            reference.approx_eq(&from_qmdd, 1e-6),
            "qmdd deviates on {bits:?}: {reference} vs {from_qmdd}"
        );
        assert!(
            reference.approx_eq(&from_bitslice, 1e-9),
            "bitslice deviates on {bits:?}: {reference} vs {from_bitslice}"
        );
    }
    assert!(bitslice.is_exactly_normalized());
}

#[test]
fn random_clifford_t_circuits_agree_across_backends() {
    for seed in 0..6 {
        let circuit = random::random_circuit(
            &random::RandomCircuitConfig {
                num_qubits: 6,
                num_gates: 30,
                initial_hadamard_layer: true,
                gate_set: random::RandomGateSet::PaperTable3,
            },
            seed,
        );
        assert_backends_agree(&circuit);
    }
}

#[test]
fn full_gate_set_circuits_agree_across_backends() {
    for seed in 0..4 {
        let circuit = random::random_circuit(
            &random::RandomCircuitConfig {
                num_qubits: 5,
                num_gates: 40,
                initial_hadamard_layer: false,
                gate_set: random::RandomGateSet::Full,
            },
            100 + seed,
        );
        assert_backends_agree(&circuit);
    }
}

#[test]
fn clifford_circuits_also_agree_with_the_stabilizer_backend() {
    for seed in 0..5 {
        let circuit = random::random_circuit(
            &random::RandomCircuitConfig {
                num_qubits: 6,
                num_gates: 40,
                initial_hadamard_layer: true,
                gate_set: random::RandomGateSet::CliffordOnly,
            },
            200 + seed,
        );
        let mut stab = StabilizerSimulator::new(6);
        let mut bitslice = BitSliceSimulator::new(6);
        stab.run(&circuit).unwrap();
        bitslice.run(&circuit).unwrap();
        for q in 0..6 {
            let ps = stab.probability_of_one(q);
            let pb = bitslice.probability_of_one(q);
            assert!(
                (ps - pb).abs() < 1e-9,
                "seed {seed} qubit {q}: {ps} vs {pb}"
            );
        }
    }
}

#[test]
fn parallel_bitslice_agrees_with_the_dense_oracle_at_every_thread_count() {
    // Bit-sliced sessions running side by side on 1, 2, 4 and 8 threads
    // (each thread owns its simulator and kernel) must each agree with an
    // independent oracle, exactly as a session running alone does.
    for seed in 0..3 {
        let circuit = random::random_circuit(
            &random::RandomCircuitConfig {
                num_qubits: 6,
                num_gates: 36,
                initial_hadamard_layer: true,
                gate_set: random::RandomGateSet::PaperTable3,
            },
            300 + seed,
        );
        let mut dense = DenseSimulator::new(6);
        dense.run(&circuit).unwrap();
        let reference: Vec<Complex> = all_basis_states(6)
            .map(|bits| dense.amplitude(&bits))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let start = std::sync::Barrier::new(threads);
            std::thread::scope(|scope| {
                for thread in 0..threads {
                    let (circuit, reference, start) = (&circuit, &reference, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut bitslice = BitSliceSimulator::new(6);
                        bitslice.run(circuit).unwrap();
                        bitslice
                            .state()
                            .manager()
                            .check_integrity()
                            .unwrap_or_else(|e| {
                                panic!("seed {seed}, thread {thread}/{threads}: {e}")
                            });
                        for (bits, expected) in all_basis_states(6).zip(reference) {
                            let ours = bitslice.amplitude(&bits).to_complex();
                            assert!(
                                expected.approx_eq(&ours, 1e-9),
                                "seed {seed}, thread {thread}/{threads} deviates on {bits:?}"
                            );
                        }
                        assert!(bitslice.is_exactly_normalized());
                    });
                }
            });
        }
    }
}

#[test]
fn supremacy_circuits_agree_on_a_small_lattice() {
    let lattice = supremacy::Lattice::new(3, 3);
    for seed in 0..3 {
        let circuit = supremacy::supremacy_circuit(lattice, 5, seed);
        assert_backends_agree(&circuit);
    }
}

#[test]
fn revlib_like_benchmarks_agree_with_and_without_superposition() {
    let bench = revlib_like::ripple_carry_adder(3);
    assert_backends_agree(&bench.circuit);
    assert_backends_agree(&bench.with_superposition_inputs());
    let cmp = revlib_like::equality_comparator(3);
    assert_backends_agree(&cmp.with_superposition_inputs());
}

#[test]
fn ghz_and_bv_agree_with_the_oracle() {
    assert_backends_agree(&algorithms::ghz(8));
    assert_backends_agree(&algorithms::bernstein_vazirani(&[
        true, false, true, true, false, true, false,
    ]));
}

#[test]
fn sampling_distributions_match_between_bitslice_and_dense() {
    // Sample repeatedly from the same 3-qubit state on both backends using
    // identical random draws; the outcomes must match draw-for-draw.
    let mut circuit = Circuit::new(3);
    circuit.h(0).t(0).h(1).cx(1, 2).s(2).h(2);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20 {
        let us: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut dense = DenseSimulator::new(3);
        dense.run(&circuit).unwrap();
        let mut bitslice = BitSliceSimulator::new(3);
        bitslice.run(&circuit).unwrap();
        let dense_sample: Vec<bool> = (0..3).map(|q| dense.measure_with(q, us[q])).collect();
        let bitslice_sample: Vec<bool> = (0..3).map(|q| bitslice.measure_with(q, us[q])).collect();
        assert_eq!(dense_sample, bitslice_sample);
    }
}

#[test]
fn batched_sampling_histograms_identical_across_all_four_backends() {
    // A 4-qubit Clifford circuit: every outcome probability is dyadic
    // (0 or 2^-k), so all four backends compute bit-identical conditional
    // probabilities and the shared-seed descent produces the exact same
    // histogram — per-outcome frequency equality, not just statistical
    // agreement.
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 1).h(2).cx(2, 3).cx(1, 2).s(3).z(0);
    let shots = 10_000;
    let seed = 99;
    let mut histograms = Vec::new();
    for kind in BackendKind::ALL {
        let mut session = Session::for_circuit(&circuit, SessionConfig::with_backend(kind))
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        session.run(&circuit).unwrap();
        let sample = session.sample(shots, seed).unwrap();
        assert_eq!(sample.histogram.shots(), shots, "{kind}");
        histograms.push((kind, sample.histogram));
    }
    let (first_kind, reference) = &histograms[0];
    for (kind, histogram) in &histograms[1..] {
        assert_eq!(
            histogram, reference,
            "histogram of {kind} deviates from {first_kind} under the shared seed"
        );
    }
    // And the shared histogram matches the exact distribution: frequencies
    // within 5σ of the dense-oracle probabilities.
    let mut dense = DenseSimulator::new(4);
    dense.run(&circuit).unwrap();
    for outcome in 0..16u64 {
        let bits: Vec<bool> = (0..4).map(|q| outcome >> q & 1 == 1).collect();
        let p = dense.probability_of_basis_state(&bits);
        let sigma = (p * (1.0 - p) / shots as f64).sqrt();
        let observed = reference.frequency(outcome);
        assert!(
            (observed - p).abs() <= 5.0 * sigma + 1e-12,
            "outcome {outcome:04b}: frequency {observed} vs probability {p}"
        );
    }
}

#[test]
fn ghz_sampling_chi_square_sanity_at_10k_shots() {
    let circuit = algorithms::ghz(4);
    // Auto routes the Clifford-only GHZ circuit to the stabilizer backend.
    let mut session = Session::for_circuit(&circuit, SessionConfig::default()).unwrap();
    assert_eq!(session.kind(), BackendKind::Stabilizer);
    session.run(&circuit).unwrap();
    let sample = session.sample(10_000, 2021).unwrap();
    let hist = &sample.histogram;
    // Only the two GHZ outcomes ever occur.
    assert_eq!(hist.count_of(0b0000) + hist.count_of(0b1111), 10_000);
    // χ² against the exact half/half distribution, 1 degree of freedom:
    // values above ~11 have p < 0.001; the seeded draw is deterministic, so
    // this can never flake.
    let chi = hist.chi_square(|o| if o == 0b0000 || o == 0b1111 { 0.5 } else { 0.0 });
    assert!(chi.is_finite() && chi < 11.0, "χ² = {chi}");
}

#[test]
fn bernstein_vazirani_sampling_chi_square_at_10k_shots() {
    let secret = [true, false, true, true, false];
    let circuit = algorithms::bernstein_vazirani(&secret);
    let n = circuit.num_qubits();
    // Pin the bit-sliced backend: this exercises the non-collapsing
    // conditional-probability descent over the BDD state.
    let mut session =
        Session::for_circuit(&circuit, SessionConfig::with_backend(BackendKind::BitSlice)).unwrap();
    session.run(&circuit).unwrap();
    let sample = session.sample(10_000, 2021).unwrap();
    let hist = &sample.histogram;
    // Data qubits are deterministic (the secret); only the |−⟩ ancilla is
    // uniform, so exactly two outcomes occur.
    let secret_word = secret
        .iter()
        .enumerate()
        .fold(0u64, |acc, (q, &b)| acc | (u64::from(b) << q));
    let ancilla = 1u64 << (n - 1);
    assert_eq!(
        hist.count_of(secret_word) + hist.count_of(secret_word | ancilla),
        10_000
    );
    let chi = hist.chi_square(|o| {
        if o & !ancilla == secret_word {
            0.5
        } else {
            0.0
        }
    });
    assert!(chi.is_finite() && chi < 11.0, "χ² = {chi}");
    // Sampling is non-collapsing: the session state is still the full BV
    // output superposition.
    assert!((session.probability_of_one(n - 1) - 0.5).abs() < 1e-12);
}

#[test]
fn batched_sampling_matches_the_exact_distribution_on_non_dyadic_states() {
    // T gates make the outcome probabilities irrational — the backends may
    // legitimately differ in the last ulp here, so the check is statistical
    // (5σ per outcome) rather than bit-exact, on both exact backends.
    let mut circuit = Circuit::new(3);
    circuit.h(0).t(0).h(0).h(1).cx(1, 2).t(2).h(2);
    let shots = 20_000u64;
    let mut dense = DenseSimulator::new(3);
    dense.run(&circuit).unwrap();
    for kind in [BackendKind::BitSlice, BackendKind::Qmdd] {
        let mut session =
            Session::for_circuit(&circuit, SessionConfig::with_backend(kind)).unwrap();
        session.run(&circuit).unwrap();
        let sample = session.sample(shots, 5).unwrap();
        for outcome in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|q| outcome >> q & 1 == 1).collect();
            let p = dense.probability_of_basis_state(&bits);
            let sigma = (p * (1.0 - p) / shots as f64).sqrt();
            assert!(
                (sample.histogram.frequency(outcome) - p).abs() <= 5.0 * sigma + 1e-9,
                "{kind}, outcome {outcome:03b}"
            );
        }
    }
}

#[test]
fn peephole_optimization_preserves_the_state() {
    for seed in 0..5 {
        let circuit = random::random_circuit(
            &random::RandomCircuitConfig {
                num_qubits: 5,
                num_gates: 60,
                initial_hadamard_layer: true,
                gate_set: random::RandomGateSet::Full,
            },
            300 + seed,
        );
        let (optimized, stats) = sliqsim::circuit::optimize(&circuit);
        assert!(optimized.len() <= circuit.len());
        let mut reference = DenseSimulator::new(5);
        reference.run(&circuit).unwrap();
        let mut pruned = DenseSimulator::new(5);
        pruned.run(&optimized).unwrap();
        for bits in all_basis_states(5) {
            assert!(
                reference
                    .amplitude(&bits)
                    .approx_eq(&pruned.amplitude(&bits), 1e-9),
                "seed {seed}, basis {bits:?}, removed {} merged {}",
                stats.cancelled,
                stats.merged
            );
        }
    }
}

#[test]
fn grover_search_agrees_across_backends() {
    let marked = [true, false, true, true];
    let circuit = sliqsim::workloads::grover::grover_optimal(&marked);
    assert_backends_agree(&circuit);
    let mut sim = BitSliceSimulator::new(marked.len());
    sim.run(&circuit).unwrap();
    assert!(sim.probability_of_basis_state(&marked) > 0.9);
}

#[test]
fn qasm_round_trip_simulates_identically() {
    let circuit = random::random_clifford_t(6, 99);
    let text = sliqsim::circuit::qasm::emit(&circuit);
    let parsed = sliqsim::circuit::qasm::parse(&text).unwrap();
    assert_eq!(parsed, circuit);
    assert_backends_agree(&parsed);
}
