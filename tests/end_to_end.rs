//! End-to-end scenarios exercising the headline capabilities of the paper:
//! exact simulation of large-but-structured circuits, the accuracy
//! advantage over floating-point decision diagrams, and the session layer's
//! batched sampling (many shots from one simulation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliqsim::circuit::Simulator;
use sliqsim::prelude::*;
use sliqsim::workloads::{algorithms, random, revlib_like};
use std::time::Instant;

#[test]
fn bernstein_vazirani_at_two_hundred_qubits_is_exact_and_fast() {
    // Far beyond the 30-qubit dense limit; the BDD state stays tiny.
    let data_qubits = 200;
    let secret: Vec<bool> = (0..data_qubits).map(|i| i % 3 != 0).collect();
    let circuit = algorithms::bernstein_vazirani(&secret);
    let mut sim = BitSliceSimulator::new(circuit.num_qubits());
    sim.run(&circuit).unwrap();
    for (q, &bit) in secret.iter().enumerate() {
        let p = sim.probability_of_one(q);
        assert!((p - if bit { 1.0 } else { 0.0 }).abs() < 1e-12, "qubit {q}");
    }
    assert!(sim.is_exactly_normalized());
    // The representation stays small: the state after BV is a basis state on
    // the data qubits tensored with |−⟩ on the ancilla.
    assert!(sim.node_count() < 2_000, "got {} nodes", sim.node_count());
}

#[test]
fn ghz_at_five_hundred_qubits_has_half_probability_everywhere() {
    let n = 500;
    let circuit = algorithms::ghz(n);
    let mut sim = BitSliceSimulator::new(n);
    sim.run(&circuit).unwrap();
    for q in [0, 1, n / 2, n - 1] {
        assert!((sim.probability_of_one(q) - 0.5).abs() < 1e-12);
    }
    assert!(sim.is_exactly_normalized());
    // Collapse the first qubit and verify the rest follow.
    let outcome = sim.measure_with(0, 0.1);
    assert!(outcome);
    assert!((sim.probability_of_one(n - 1) - 1.0).abs() < 1e-12);
}

#[test]
fn op_caches_that_never_hit_keep_their_initial_size() {
    // A GHZ chain's controlled flips never repeat a lookup, and neither do
    // the AND steps of the conditional negations when Z then hits every
    // qubit.  An op cache doubles only once enough of its lookups hit, so
    // these stay at their initial 2^12 entries however many misses they
    // take.  Flip entries are three words and AND entries two, so the one
    // circuit covers both entry layouts.
    let mut circuit = algorithms::entanglement(300);
    for q in 0..300 {
        circuit.z(q);
    }
    let config = SessionConfig::with_backend(BackendKind::BitSlice);
    let mut session = Session::for_circuit(&circuit, config).unwrap();
    session.run(&circuit).unwrap();
    let stats = session.stats().bdd.expect("bit-sliced kernel counters");
    for (name, cache) in stats.caches() {
        if ["flip", "and"].contains(&name) {
            assert_eq!(cache.hits, 0, "{name}");
            assert!(cache.misses > 1 << 12, "{name}: {} misses", cache.misses);
            assert_eq!(cache.entries, 1 << 12, "{name}");
        }
    }
    let sim = session.bitslice_mut().expect("bit-sliced session");
    assert!(sim.is_exactly_normalized());
}

#[test]
fn adder_in_superposition_encodes_every_sum_exactly() {
    let bits = 5;
    let bench = revlib_like::ripple_carry_adder(bits);
    let circuit = bench.with_superposition_inputs();
    let mut sim = BitSliceSimulator::new(circuit.num_qubits());
    sim.run(&circuit).unwrap();
    assert!(sim.is_exactly_normalized());
    // For a handful of (a, b) pairs, the amplitude of |a, a+b, 0⟩ must be
    // exactly (1/√2)^(2·bits) and the amplitude of any wrong sum must be 0.
    let free_inputs = bench.metadata.free_inputs().len();
    let expected = {
        let mut x = sliqsim::math::Algebraic::one();
        for _ in 0..free_inputs {
            x = x.div_sqrt2();
        }
        x
    };
    for (a, b) in [(0usize, 0usize), (7, 9), (31, 31), (12, 19)] {
        let sum = (a + b) & ((1 << bits) - 1);
        let mut witness = vec![false; circuit.num_qubits()];
        for i in 0..bits {
            witness[i] = a >> i & 1 == 1;
            witness[bits + i] = sum >> i & 1 == 1;
        }
        let amp = sim.amplitude(&witness);
        assert!(amp.value_eq(&expected), "a={a} b={b}: {amp}");
        // The carry ancilla is always uncomputed back to |0⟩: any basis state
        // with the ancilla set has exactly zero amplitude.
        let mut ancilla_set = witness.clone();
        ancilla_set[2 * bits] = true;
        assert!(sim.amplitude(&ancilla_set).is_zero());
    }
}

#[test]
fn deep_phase_circuit_stays_exact_while_remaining_normalised() {
    // 400 T gates and 200 Hadamards on 2 qubits: the kind of depth where
    // repeated floating-point rounding starts to show, yet the algebraic
    // state remains exactly normalised (integer identity).
    let mut circuit = Circuit::new(2);
    for i in 0..200 {
        circuit.h(i % 2);
        circuit.t(i % 2);
        circuit.t((i + 1) % 2);
        if i % 3 == 0 {
            circuit.cx(0, 1);
        }
    }
    let mut sim = BitSliceSimulator::new(2);
    sim.run(&circuit).unwrap();
    assert!(sim.is_exactly_normalized());
    assert!((sim.total_probability() - 1.0).abs() < 1e-12);
    // Each Hadamard increments k; common powers of two are factored back out
    // of the coefficients, so k never exceeds the Hadamard count.
    assert!(sim.k() <= 200 && sim.k() >= 0, "k = {}", sim.k());

    // The QMDD baseline still gets the probabilities approximately right on
    // this small case, but only approximately — its Σp is no longer an exact
    // integer identity.
    let mut qmdd = QmddSimulator::new(2);
    qmdd.run(&circuit).unwrap();
    assert!((qmdd.total_probability() - 1.0).abs() < 1e-6);
}

#[test]
fn facade_prelude_exposes_every_backend() {
    let mut circuit = Circuit::new(2);
    circuit.h(0).cx(0, 1);
    let mut backends: Vec<Box<dyn Simulator>> = vec![
        Box::new(BitSliceSimulator::new(2)),
        Box::new(DenseSimulator::new(2)),
        Box::new(QmddSimulator::new(2)),
        Box::new(StabilizerSimulator::new(2)),
    ];
    for backend in backends.iter_mut() {
        backend.run(&circuit).unwrap();
        assert!(
            (backend.probability_of_one(1) - 0.5).abs() < 1e-9,
            "{}",
            backend.name()
        );
    }
}

/// Measures the wall-clock cost of drawing one shot by full re-simulation
/// (fresh simulator + run + collapse), the pre-session way of sampling.
fn resimulation_secs_per_shot(circuit: &Circuit, shots: usize, rng: &mut StdRng) -> f64 {
    let n = circuit.num_qubits();
    let start = Instant::now();
    for _ in 0..shots {
        let mut sim = BitSliceSimulator::new(n);
        sim.run(circuit).unwrap();
        let us: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let _ = sim.state_mut().measure_all_collapsing(&us);
    }
    start.elapsed().as_secs_f64() / shots as f64
}

#[test]
fn batched_sampling_beats_resimulation_by_10x_per_shot() {
    // The acceptance bar scaled to debug-test size: batched Session::sample
    // must be ≥ 10× cheaper per shot than sequential re-simulation on a
    // random Clifford+T workload (the release-mode rc_t(16)/10k-shot
    // numbers live in CHANGES.md; see the SLIQ_PERF_TEST variant below).
    let circuit = random::random_clifford_t(12, 3);
    let mut rng = StdRng::seed_from_u64(1);
    let resim_per_shot = resimulation_secs_per_shot(&circuit, 4, &mut rng);
    let mut session =
        Session::for_circuit(&circuit, SessionConfig::with_backend(BackendKind::BitSlice)).unwrap();
    session.run(&circuit).unwrap();
    let shots = 4000u64;
    let start = Instant::now();
    let sample = session.sample(shots, 1).unwrap();
    let batched_per_shot = start.elapsed().as_secs_f64() / shots as f64;
    assert_eq!(sample.histogram.shots(), shots);
    assert!(
        batched_per_shot * 10.0 <= resim_per_shot,
        "batched sampling must be ≥ 10× faster per shot: \
         {batched_per_shot:.2e}s batched vs {resim_per_shot:.2e}s resimulated"
    );
}

#[test]
fn acceptance_rc_t16_10k_shots_at_least_10x_faster() {
    // The full acceptance measurement (release-sized); run explicitly with
    //   SLIQ_PERF_TEST=1 cargo test --release acceptance_rc_t16
    if std::env::var_os("SLIQ_PERF_TEST").is_none() {
        return;
    }
    let circuit = random::random_clifford_t(16, 1);
    let mut rng = StdRng::seed_from_u64(1);
    let resim_per_shot = resimulation_secs_per_shot(&circuit, 20, &mut rng);
    let mut session =
        Session::for_circuit(&circuit, SessionConfig::with_backend(BackendKind::BitSlice)).unwrap();
    session.run(&circuit).unwrap();
    let start = Instant::now();
    let sample = session.sample(10_000, 1).unwrap();
    let batched = start.elapsed().as_secs_f64();
    let equivalent_resim = resim_per_shot * 10_000.0;
    println!(
        "rc_t(16), 10k shots: batched {batched:.3}s vs {equivalent_resim:.1}s resimulated \
         ({:.0}x, {:.0} shots/s, {} distinct outcomes)",
        equivalent_resim / batched,
        10_000.0 / batched,
        sample.histogram.counts().len()
    );
    assert!(batched * 10.0 <= equivalent_resim);
}

#[test]
fn session_checkpoint_survives_further_gates_and_sampling() {
    // One session serves interleaved strong and weak simulation: run a
    // prefix, checkpoint, extend the circuit, sample, roll back, and verify
    // the prefix state returns bit-exactly.
    let mut prefix = Circuit::new(4);
    prefix.h(0).cx(0, 1).t(1).cx(1, 2).h(3);
    let mut session = Session::for_circuit(&prefix, SessionConfig::default()).unwrap();
    session.run(&prefix).unwrap();
    let p_before: Vec<f64> = (0..4).map(|q| session.probability_of_one(q)).collect();
    let checkpoint = session.snapshot();
    let mut suffix = Circuit::new(4);
    suffix.cx(2, 3).t(3).h(2).s(0);
    session.run(&suffix).unwrap();
    let _ = session.sample(500, 8).unwrap();
    let outcome = session.measure_with(0, 0.4);
    let _ = outcome;
    session.restore(&checkpoint).unwrap();
    session.discard(checkpoint).unwrap();
    for (q, &expected) in p_before.iter().enumerate() {
        let p = session.probability_of_one(q);
        assert!(
            (p - expected).abs() < 1e-12,
            "qubit {q}: {p} after restore vs {expected}"
        );
    }
    assert_eq!(session.gates_applied(), prefix.len());
}

#[test]
fn measurement_order_does_not_change_joint_statistics() {
    // Paper §III-E: "when some qubits are to be measured, the order of
    // measuring them is immaterial."
    let mut circuit = Circuit::new(3);
    circuit.h(0).cx(0, 1).t(1).h(2).cz(0, 2);
    let draws = [0.3, 0.7, 0.2];
    let run_order = |order: [usize; 3]| {
        let mut sim = BitSliceSimulator::new(3);
        sim.run(&circuit).unwrap();
        let mut outcome = [false; 3];
        for &q in &order {
            outcome[q] = sim.measure_with(q, draws[q]);
        }
        outcome
    };
    // Joint probabilities are invariant under measurement order, therefore
    // probabilities of each outcome combination must agree; we check the
    // weaker but deterministic statement that the marginal probability of
    // qubit 2 before any measurement equals the probability derived from the
    // joint distribution in either order.
    let mut sim = BitSliceSimulator::new(3);
    sim.run(&circuit).unwrap();
    let p2 = sim.probability_of_one(2);
    let mut joint_p2 = 0.0;
    for basis in 0..8usize {
        let bits: Vec<bool> = (0..3).map(|q| basis >> q & 1 == 1).collect();
        if bits[2] {
            joint_p2 += sim.probability_of_basis_state(&bits);
        }
    }
    assert!((p2 - joint_p2).abs() < 1e-9);
    // And the two concrete orders must both produce valid collapsed states.
    let _ = run_order([0, 1, 2]);
    let _ = run_order([2, 1, 0]);
}
