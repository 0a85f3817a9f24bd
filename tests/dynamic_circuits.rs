//! Dynamic-circuit correctness across every backend: mid-circuit
//! measurement, classical feed-forward and reset must produce *identical*
//! seeded trajectories on every backend that supports them, and the result
//! cache must never serve a dynamic run recorded under one measurement
//! seed to a session running under another.

use sliqsim::exec::dynamic_fingerprint;
use sliqsim::prelude::*;
use std::sync::Arc;

/// Standard teleportation of a 1-qubit payload from q0 to q2, with the
/// payload preparation supplied by the caller: Bell pair on (q1, q2), Bell
/// measurement of (q0, q1) into (c0, c1), feed-forward corrections on q2.
fn teleport(prepare: impl FnOnce(&mut Circuit)) -> Circuit {
    let mut c = Circuit::with_clbits(3, 2);
    prepare(&mut c);
    c.h(1)
        .cx(1, 2)
        .cx(0, 1)
        .h(0)
        .measure(0, 0)
        .measure(1, 1)
        .if_bit(1, Gate::X(2))
        .if_bit(0, Gate::Z(2));
    c
}

/// A repeat-until-success-shaped circuit, unrolled to two rounds: each
/// round entangles an ancilla with the work qubit, measures it, and on the
/// failure outcome resets the ancilla and conditionally repairs the work
/// qubit before retrying.
fn repeat_until_success() -> Circuit {
    let mut c = Circuit::with_clbits(2, 2);
    for round in 0..2 {
        c.h(0).cx(0, 1).measure(1, round).reset(1);
        c.if_bit(round, Gate::X(0));
    }
    c
}

fn session_for(kind: BackendKind, seed: u64) -> SessionConfig {
    SessionConfig::with_backend(kind).measurement_seed(seed)
}

fn run_on(kind: BackendKind, circuit: &Circuit, seed: u64) -> (Session, RunResult) {
    let mut session =
        Session::for_circuit(circuit, session_for(kind, seed)).expect("session opens");
    let result = session.run(circuit).expect("dynamic run completes");
    (session, result)
}

#[test]
fn teleportation_of_a_basis_state_agrees_on_all_four_backends() {
    // Payload |1⟩: the teleported state is |1⟩ on q2 for every possible
    // measurement outcome, so this checks both the seeded readout and the
    // feed-forward corrections on every backend.
    let circuit = teleport(|c| {
        c.x(0);
    });
    assert!(circuit.is_clifford(), "teleporting |1⟩ is Clifford");
    for seed in [0u64, 1, 7, 42, 1234] {
        let mut readouts = Vec::new();
        for kind in BackendKind::ALL {
            let (mut session, result) = run_on(kind, &circuit, seed);
            let readout = result
                .readout
                .clone()
                .expect("dynamic runs carry a readout");
            assert_eq!(readout.len(), 2, "{kind}: two clbits");
            assert!(
                (session.probability_of_one(2) - 1.0).abs() < 1e-9,
                "{kind}, seed {seed}: q2 must hold the teleported |1⟩"
            );
            assert!(
                (result.total_probability - 1.0).abs() < 1e-9,
                "{kind}: collapse must renormalise"
            );
            readouts.push((kind, readout));
        }
        let (_, reference) = &readouts[0];
        for (kind, readout) in &readouts[1..] {
            assert_eq!(
                readout, reference,
                "{kind} disagrees with {} on the seed-{seed} readout",
                readouts[0].0
            );
        }
    }
}

#[test]
fn non_clifford_teleportation_matches_across_the_universal_backends() {
    // Payload T·H|0⟩ is non-Clifford, so the stabilizer sits this one out;
    // the three universal backends must still walk identical seeded
    // trajectories and leave q2 in the same state.
    let circuit = teleport(|c| {
        c.h(0).t(0);
    });
    assert!(!circuit.is_clifford());
    let universal = [BackendKind::BitSlice, BackendKind::Qmdd, BackendKind::Dense];
    for seed in [3u64, 8, 21] {
        let mut outcomes = Vec::new();
        for kind in universal {
            let (mut session, result) = run_on(kind, &circuit, seed);
            let p1 = session.probability_of_one(2);
            let histogram = session
                .sample(2048, seed)
                .expect("sampling the teleported state")
                .histogram;
            outcomes.push((kind, result.readout.unwrap(), p1, histogram));
        }
        let (_, ref readout, p1, ref histogram) = outcomes[0];
        for (kind, other_readout, other_p1, other_histogram) in &outcomes[1..] {
            assert_eq!(other_readout, readout, "{kind}: readout, seed {seed}");
            assert!(
                (other_p1 - p1).abs() < 1e-9,
                "{kind}: teleported amplitude, seed {seed}"
            );
            assert_eq!(
                other_histogram, histogram,
                "{kind}: seeded histogram, seed {seed}"
            );
        }
        // T·H|0⟩ has Pr[1] = sin²(π/8) + … = ½ exactly (the T phase does
        // not move populations), teleported faithfully.
        assert!((p1 - 0.5).abs() < 1e-9);
    }
}

#[test]
fn repeat_until_success_rounds_agree_and_resets_clear_the_ancilla() {
    let circuit = repeat_until_success();
    for seed in 0..8u64 {
        let mut readouts = Vec::new();
        for kind in BackendKind::ALL {
            let (mut session, result) = run_on(kind, &circuit, seed);
            assert!(
                session.probability_of_one(1) < 1e-9,
                "{kind}, seed {seed}: the final reset must leave the ancilla in |0⟩"
            );
            readouts.push((kind, result.readout.unwrap()));
        }
        for (kind, readout) in &readouts[1..] {
            assert_eq!(readout, &readouts[0].1, "{kind} diverges at seed {seed}");
        }
    }
}

#[test]
fn dynamic_runs_are_deterministic_in_the_seed_and_vary_across_seeds() {
    let circuit = teleport(|c| {
        c.h(0).t(0);
    });
    let (_, first) = run_on(BackendKind::BitSlice, &circuit, 11);
    let (_, again) = run_on(BackendKind::BitSlice, &circuit, 11);
    assert_eq!(first.readout, again.readout, "same seed ⇒ same trajectory");
    // Bell measurement outcomes are uniform over 4 possibilities, so some
    // nearby seed must take a different trajectory.
    let reference = first.readout.unwrap();
    let diverged = (0..64u64).any(|seed| {
        let (_, result) = run_on(BackendKind::BitSlice, &circuit, seed);
        result.readout.unwrap() != reference
    });
    assert!(diverged, "64 seeds with identical Bell outcomes");
}

#[test]
fn result_cache_keys_dynamic_runs_by_measurement_seed() {
    // One coin-flip measurement: the readout is exactly the trajectory, so
    // a stale cache hit across seeds would be directly visible.
    let mut circuit = Circuit::with_clbits(1, 1);
    circuit.h(0).measure(0, 0);

    // Find two seeds whose trajectories differ.
    let readout_for = |seed: u64| {
        let (_, result) = run_on(BackendKind::BitSlice, &circuit, seed);
        result.readout.unwrap()[0]
    };
    let seed_one = (0..64u64)
        .find(|&s| readout_for(s))
        .expect("a 1-readout seed");
    let seed_zero = (0..64u64)
        .find(|&s| !readout_for(s))
        .expect("a 0-readout seed");

    let fingerprint = circuit_fingerprint(&circuit);
    assert_ne!(
        dynamic_fingerprint(fingerprint, seed_one),
        dynamic_fingerprint(fingerprint, seed_zero),
        "seeds must key distinct cache entries"
    );

    let cache = Arc::new(ResultCache::new(1 << 20));
    let run_cached = |seed: u64| {
        let mut session = Session::for_circuit(&circuit, session_for(BackendKind::BitSlice, seed))
            .expect("session opens");
        session.attach_result_cache(Arc::clone(&cache));
        let result = session.run(&circuit).expect("run completes");
        (session, result)
    };

    // Publish under seed_one, then run under seed_zero: the second run
    // must NOT be served the first run's outcome.
    let (_, published) = run_cached(seed_one);
    assert_eq!(published.readout, Some(vec![true]));
    let misses_before = cache.stats().misses;
    let (_, other) = run_cached(seed_zero);
    assert_eq!(
        other.readout,
        Some(vec![false]),
        "a dynamic run must never see another seed's cached outcome"
    );
    assert!(
        cache.stats().misses > misses_before,
        "cross-seed lookup must miss"
    );

    // Same seed again: now a hit is sound, and the lazily-replayed state
    // must match the cached readout bit-for-bit.
    let hits_before = cache.stats().hits;
    let (mut replayed, hit) = run_cached(seed_one);
    assert_eq!(hit.readout, Some(vec![true]));
    assert!(
        cache.stats().hits > hits_before,
        "same-seed lookup must hit"
    );
    assert!(
        (replayed.probability_of_one(0) - 1.0).abs() < 1e-9,
        "cache-hit replay must reproduce the published trajectory"
    );
}

#[test]
fn sampling_after_a_dynamic_run_is_cross_backend_identical() {
    // After measuring one half of a Bell pair the state is classical; the
    // batched sampler must agree with the readout on every backend.
    let mut circuit = Circuit::with_clbits(2, 1);
    circuit.h(0).cx(0, 1).measure(0, 0);
    for seed in [2u64, 5, 13] {
        let mut histograms = Vec::new();
        for kind in BackendKind::ALL {
            let (mut session, result) = run_on(kind, &circuit, seed);
            let bit = result.readout.unwrap()[0];
            let sample = session.sample(256, seed).expect("sampling works");
            let expected_outcome = if bit { 0b11 } else { 0b00 };
            assert_eq!(
                sample.histogram.count_of(expected_outcome),
                256,
                "{kind}, seed {seed}: collapsed Bell pair has one outcome"
            );
            histograms.push((kind, sample.histogram));
        }
        for (kind, histogram) in &histograms[1..] {
            assert_eq!(histogram, &histograms[0].1, "{kind} histogram, seed {seed}");
        }
    }
}

mod remote {
    //! End-to-end: a QASM program with `measure` and feed-forward runs
    //! through a live `sliq-serve` over the wire protocol and returns the
    //! same seeded readout as direct `Session` execution — on more than one
    //! backend.  Before dynamic circuits existed these statements were the
    //! silently-ignored kind, so this is also the regression test that
    //! nothing on the serving path drops them.

    use super::*;
    use sliqsim::serve::{Client, RetryPolicy, RunOptions, Server, ServerConfig};

    const TELEPORT_QASM: &str = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[3];
        creg c[2];
        x q[0];
        h q[1];
        cx q[1], q[2];
        cx q[0], q[1];
        h q[0];
        measure q[0] -> c[0];
        measure q[1] -> c[1];
        if (c[1] == 1) x q[2];
        if (c[0] == 1) z q[2];
    "#;

    #[test]
    fn remote_dynamic_qasm_matches_local_sessions_on_multiple_backends() {
        let handle = Server::bind("127.0.0.1:0", ServerConfig::default().workers(2))
            .expect("bind")
            .spawn()
            .expect("spawn");
        let addr = handle.addr();
        let circuit = sliqsim::circuit::qasm::parse(TELEPORT_QASM).expect("teleport parses");
        assert!(circuit.is_dynamic(), "measure/if must reach the IR");

        let mut client = Client::connect(addr).expect("client connects");
        for backend in [
            BackendKind::Auto,
            BackendKind::BitSlice,
            BackendKind::Stabilizer,
            BackendKind::Dense,
        ] {
            for seed in [0u64, 5, 19] {
                let outcome = client
                    .run_qasm_with_retry(
                        TELEPORT_QASM,
                        &RunOptions {
                            backend,
                            shots: 128,
                            seed,
                            ..RunOptions::default()
                        },
                        &RetryPolicy::default(),
                    )
                    .expect("remote dynamic run completes");

                // Local reference under the identical configuration.
                let config = SessionConfig::with_backend(backend).measurement_seed(seed);
                let mut session =
                    Session::for_circuit(&circuit, config).expect("local session opens");
                let local = session.run(&circuit).expect("local run completes");
                let local_sample = session.sample(128, seed).expect("local sampling");

                assert_eq!(outcome.backend, local.backend, "{backend}, seed {seed}");
                assert_eq!(
                    outcome.readout.as_deref(),
                    local.readout.as_deref(),
                    "{backend}, seed {seed}: remote and local readouts must agree"
                );
                assert_eq!(
                    outcome.total_probability.to_bits(),
                    local.total_probability.to_bits(),
                    "{backend}, seed {seed}"
                );
                let histogram = outcome.histogram.expect("shots were requested");
                let local_counts: Vec<(u64, u64)> = local_sample
                    .histogram
                    .counts()
                    .iter()
                    .map(|(&o, &n)| (o, n))
                    .collect();
                assert_eq!(histogram.counts, local_counts, "{backend}, seed {seed}");
                // Teleported |1⟩: every shot ends with q2 = 1.
                let teleported: u64 = histogram
                    .counts
                    .iter()
                    .filter(|(outcome, _)| outcome & 0b100 != 0)
                    .map(|(_, count)| count)
                    .sum();
                assert_eq!(teleported, 128, "{backend}, seed {seed}");
            }
        }
        handle.shutdown();
    }

    #[test]
    fn unparseable_statements_error_on_the_wire_instead_of_being_dropped() {
        let handle = Server::bind("127.0.0.1:0", ServerConfig::default().workers(1))
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut client = Client::connect(handle.addr()).expect("client connects");
        let err = client
            .run_qasm(
                "OPENQASM 2.0;\nqreg q[1];\nu3(0.1, 0.2, 0.3) q[0];\n",
                RunOptions::default(),
            )
            .expect_err("unsupported statements must be rejected, never skipped");
        match err {
            sliqsim::serve::ClientError::Remote { code, message } => {
                assert_eq!(code, sliqsim::serve::codes::PARSE);
                assert!(
                    message.contains("line 3"),
                    "parse errors carry position: {message}"
                );
            }
            other => panic!("expected a parse rejection, got {other}"),
        }
        handle.shutdown();
    }
}
