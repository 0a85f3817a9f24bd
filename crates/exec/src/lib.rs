//! # sliq-exec
//!
//! The session/executor layer of the workspace: one API over every
//! simulator backend, realising the paper's claim that a single bit-sliced
//! representation serves both strong simulation (exact amplitudes) and weak
//! simulation (measurement sampling) — and extending that surface to the
//! baseline backends so callers never hand-roll backend construction.
//!
//! * [`BackendKind`] / [`Capabilities`] — the backend registry with
//!   capability negotiation ([`BackendKind::Auto`] picks the stabilizer
//!   tableau for Clifford-only circuits, the bit-sliced BDD otherwise).
//! * [`Session`] — owns a backend; streams gates ([`Session::apply_gate`])
//!   or runs circuits ([`Session::run`] → structured [`RunResult`]),
//!   checkpoints ([`Session::snapshot`] / [`Session::restore`]).
//! * [`Session::sample`] — **batched multi-shot sampling**: `shots`
//!   measurement shots from one simulated state, via non-collapsing
//!   conditional-probability descent (orders of magnitude faster than
//!   re-simulating the circuit per shot; see [`sample`]).
//! * [`ResultCache`] — the serving-scale layer above all of that: memoised
//!   `RunResult`s and histograms behind a stable canonical-circuit
//!   fingerprint, so repeated requests for the same circuit skip
//!   simulation entirely (see [`cache`]).
//! * [`ExecError`] — the unified failure taxonomy.
//!
//! ```
//! use sliq_exec::{BackendKind, Session, SessionConfig};
//! use sliq_circuit::Circuit;
//!
//! let mut circuit = Circuit::new(3);
//! circuit.h(0).cx(0, 1).cx(1, 2).t(2);   // non-Clifford ⇒ Auto → bitslice
//! let mut session = Session::for_circuit(&circuit, SessionConfig::default())?;
//! assert_eq!(session.kind(), BackendKind::BitSlice);
//! let result = session.run(&circuit)?;
//! assert!(result.probability_error() < 1e-12);
//! let shots = session.sample(2000, 7)?;
//! assert_eq!(shots.histogram.shots(), 2000);
//! # Ok::<(), sliq_exec::ExecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod cache;
mod error;
pub mod sample;
mod session;

pub use backend::{BackendKind, Capabilities};
pub use cache::{circuit_fingerprint, dynamic_fingerprint, ResultCache, ResultCacheStats};
pub use error::{wire, CapacityResource, ExecError};
pub use sample::Histogram;
pub use session::{ExecStats, RunResult, SampleResult, Session, SessionConfig, Snapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_circuit::Circuit;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c
    }

    #[test]
    fn session_runs_and_reports_structured_results() {
        let mut circuit = ghz(4);
        circuit.t(3); // force the bit-sliced backend
        let config = SessionConfig::default().expectations(true);
        let mut session = Session::for_circuit(&circuit, config).unwrap();
        assert_eq!(session.kind(), BackendKind::BitSlice);
        let result = session.run(&circuit).unwrap();
        assert_eq!(result.gates_applied, 5);
        assert!(result.probability_error() < 1e-12);
        let expectations = result.expectations_z.as_ref().unwrap();
        assert_eq!(expectations.len(), 4);
        // GHZ marginals are uniform: ⟨Z⟩ = 0 on every qubit (T adds a phase
        // only).
        for &z in expectations {
            assert!(z.abs() < 1e-9);
        }
        assert!(result.stats.live_nodes.unwrap() > 0);
        assert!(result.stats.memory_mib > 0.0);
        assert!(result.stats.bdd.is_some());
    }

    #[test]
    fn streaming_and_whole_circuit_execution_agree() {
        let circuit = ghz(3);
        let mut streamed = Session::new(3, SessionConfig::with_backend(BackendKind::Qmdd)).unwrap();
        for gate in circuit.iter() {
            streamed.apply_gate(gate).unwrap();
        }
        let mut whole = Session::new(3, SessionConfig::with_backend(BackendKind::Qmdd)).unwrap();
        whole.run(&circuit).unwrap();
        assert_eq!(streamed.gates_applied(), whole.gates_applied());
        for bits in [[false; 3], [true; 3]] {
            let a = streamed.probability_of_basis_state(&bits);
            let b = whole.probability_of_basis_state(&bits);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn qubit_mismatch_is_rejected() {
        let mut session = Session::new(3, SessionConfig::with_backend(BackendKind::Dense)).unwrap();
        let err = session.run(&ghz(4)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::QubitMismatch {
                session: 3,
                circuit: 4
            }
        ));
    }

    #[test]
    fn invalid_operands_are_errors_on_every_backend() {
        use sliq_circuit::{CircuitError, Gate};
        let out_of_range = |e: &ExecError| {
            matches!(
                e,
                ExecError::Circuit(CircuitError::QubitOutOfRange { qubit: 7, .. })
            )
        };
        let repeated = |e: &ExecError| {
            matches!(
                e,
                ExecError::Circuit(CircuitError::DuplicateOperands { .. })
            )
        };
        for kind in BackendKind::ALL {
            let mut session = Session::new(3, SessionConfig::with_backend(kind)).unwrap();
            let mut wide = Circuit::new(3);
            wide.h(0).x(7);
            assert!(out_of_range(&session.run(&wide).unwrap_err()), "{kind}");
            let mut self_controlled = Circuit::new(3);
            self_controlled.h(0).cx(1, 1);
            assert!(
                repeated(&session.run(&self_controlled).unwrap_err()),
                "{kind}"
            );
            let err = session.apply_gate(&Gate::X(7)).unwrap_err();
            assert!(out_of_range(&err), "{kind}");
            let err = session
                .apply_gate(&Gate::Cnot {
                    control: 1,
                    target: 1,
                })
                .unwrap_err();
            assert!(repeated(&err), "{kind}");
            // Nothing ran: the session is still |000⟩ and keeps working.
            assert_eq!(session.gates_applied(), 0, "{kind}");
            assert!((session.probability_of_basis_state(&[false; 3]) - 1.0).abs() < 1e-12);
            let result = session.run(&ghz(3)).unwrap();
            assert!(result.probability_error() < 1e-12, "{kind}");
        }
    }

    #[test]
    fn snapshots_roll_back_every_backend() {
        for kind in BackendKind::ALL {
            let mut session = Session::new(2, SessionConfig::with_backend(kind)).unwrap();
            session.run(&ghz(2)).unwrap();
            let snapshot = session.snapshot();
            let gates_at_snapshot = session.gates_applied();
            // Collapse qubit 0 to a definite outcome.
            let outcome = session.measure_with(0, 0.3);
            let collapsed = session.probability_of_one(0);
            assert!(
                (collapsed - if outcome { 1.0 } else { 0.0 }).abs() < 1e-9,
                "{kind}"
            );
            session.restore(&snapshot).unwrap();
            assert_eq!(session.gates_applied(), gates_at_snapshot);
            assert!(
                (session.probability_of_one(0) - 0.5).abs() < 1e-9,
                "{kind}: snapshot must restore the superposition"
            );
            session.discard(snapshot).unwrap();
        }
    }

    #[test]
    fn foreign_snapshots_are_rejected() {
        // Cross-backend and cross-session (same backend) snapshots both
        // fail instead of corrupting manager-internal handles.
        let mut dense = Session::new(2, SessionConfig::with_backend(BackendKind::Dense)).unwrap();
        let mut qmdd_a = Session::new(2, SessionConfig::with_backend(BackendKind::Qmdd)).unwrap();
        let mut qmdd_b = Session::new(2, SessionConfig::with_backend(BackendKind::Qmdd)).unwrap();
        let dense_snapshot = dense.snapshot();
        assert!(matches!(
            qmdd_a.restore(&dense_snapshot),
            Err(ExecError::ForeignSnapshot { .. })
        ));
        let a_snapshot = qmdd_a.snapshot();
        assert!(matches!(
            qmdd_b.restore(&a_snapshot),
            Err(ExecError::ForeignSnapshot { backend: "qmdd" })
        ));
        assert!(qmdd_b.discard(a_snapshot).is_err());
        dense.discard(dense_snapshot).unwrap();
    }

    #[test]
    fn sampling_is_reproducible_and_distribution_shaped() {
        let circuit = ghz(5);
        let mut session = Session::for_circuit(&circuit, SessionConfig::default()).unwrap();
        assert_eq!(session.kind(), BackendKind::Stabilizer);
        session.run(&circuit).unwrap();
        let a = session.sample(4000, 3).unwrap();
        let b = session.sample(4000, 3).unwrap();
        assert_eq!(a.histogram, b.histogram);
        let c = session.sample(4000, 4).unwrap();
        assert_ne!(a.histogram, c.histogram);
        // Only the two GHZ outcomes occur.
        assert_eq!(
            a.histogram.count_of(0) + a.histogram.count_of(0b11111),
            4000
        );
        assert!(a.shots_per_sec() > 0.0);
    }

    #[test]
    fn bitslice_sampling_is_repeatable_and_follows_state_mutations() {
        let mut circuit = ghz(4);
        circuit.t(3); // non-Clifford ⇒ bit-sliced backend
        let config = SessionConfig::with_backend(BackendKind::BitSlice);
        let mut session = Session::for_circuit(&circuit, config).unwrap();
        session.run(&circuit).unwrap();
        let first = session.sample(3000, 11).unwrap();
        let repeat = session.sample(3000, 11).unwrap();
        assert_eq!(first.histogram, repeat.histogram);
        let mut fresh = Session::for_circuit(&circuit, config).unwrap();
        fresh.run(&circuit).unwrap();
        assert_eq!(fresh.sample(3000, 11).unwrap().histogram, first.histogram);
        // After a mutation the next sample reflects the new state.
        let mut flip = Circuit::new(4);
        flip.x(0);
        session.run(&flip).unwrap();
        let after = session.sample(3000, 11).unwrap();
        assert_ne!(after.histogram, first.histogram);
        fresh.run(&flip).unwrap();
        assert_eq!(fresh.sample(3000, 11).unwrap().histogram, after.histogram);
    }

    #[test]
    fn bitslice_sampling_pins_nothing() {
        let mut circuit = Circuit::new(5);
        circuit.h(0).cx(0, 1).t(1).h(2).t(2).h(2).cx(2, 3).h(4);
        let config = SessionConfig::with_backend(BackendKind::BitSlice);
        let mut session = Session::for_circuit(&circuit, config).unwrap();
        session.run(&circuit).unwrap();
        let roots_before = session
            .bitslice_mut()
            .unwrap()
            .state()
            .manager()
            .registered_roots()
            .to_vec();
        let first = session.sample(2000, 5).unwrap();
        let sim = session.bitslice_mut().unwrap();
        assert_eq!(
            sim.state().manager().registered_roots(),
            roots_before.as_slice()
        );
        sim.state().manager().check_integrity().unwrap();
        // A forced GC reclaims every transient view and keeps the state.
        sim.state_mut().collect_garbage();
        sim.state().manager().check_integrity().unwrap();
        assert!(sim.is_exactly_normalized());
        let second = session.sample(2000, 5).unwrap();
        assert_eq!(second.histogram, first.histogram);
        let mut fresh = Session::for_circuit(&circuit, config).unwrap();
        fresh.run(&circuit).unwrap();
        assert_eq!(fresh.sample(2000, 5).unwrap().histogram, second.histogram);
    }

    /// FNV-1a over the `(outcome, count)` pairs in ascending outcome order.
    fn histogram_digest(histogram: &Histogram) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (&outcome, &count) in histogram.counts() {
            for byte in outcome.to_le_bytes().into_iter().chain(count.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// The bit-sliced histogram of `circuit`; with `sifted`, the state is
    /// sifted away from the identity variable order before sampling.
    fn bitslice_histogram(circuit: &Circuit, shots: u64, seed: u64, sifted: bool) -> Histogram {
        let config = SessionConfig::with_backend(BackendKind::BitSlice);
        let mut session = Session::new(circuit.num_qubits(), config).unwrap();
        session.run(circuit).unwrap();
        if sifted {
            let sim = session.bitslice_mut().unwrap();
            sim.reorder();
            let identity: Vec<usize> = (0..circuit.num_qubits()).collect();
            assert_ne!(sim.state().manager().current_order(), identity);
        }
        Histogram::clone(&session.sample(shots, seed).unwrap().histogram)
    }

    #[test]
    fn bitslice_histograms_match_their_recorded_digests() {
        use sliq_workloads::random::random_clifford_t;
        // Irrational outcome probabilities: every partition of the descent
        // depends on exact SAT counts rounded once, so any change to the
        // sampler's arithmetic shows up here.  The histograms may not
        // depend on the variable order either: under a sifted order the
        // descent's cofactors build nodes that its one counter then counts.
        for sifted in [false, true] {
            for (circuit_seed, digest, distinct) in [
                (1, 0x45a9_db7b_cad1_aed3, 363),
                (2, 0x5f7a_d08d_4cc1_e5b8, 253),
                (3, 0x4913_4424_7068_7b95, 443),
            ] {
                let circuit = random_clifford_t(10, circuit_seed);
                let histogram = bitslice_histogram(&circuit, 1024, 7, sifted);
                let case = format!("rc_t(10, {circuit_seed}), sifted {sifted}");
                assert_eq!(histogram.counts().len(), distinct, "{case}");
                assert_eq!(histogram_digest(&histogram), digest, "{case}");
            }
            // A wide descent: more than 2048 distinct outcomes, so more
            // than 1024 distinct prefixes one qubit above the leaves.
            let wide = bitslice_histogram(&random_clifford_t(14, 1), 8192, 7, sifted);
            assert_eq!(wide.counts().len(), 3610, "sifted {sifted}");
            assert_eq!(histogram_digest(&wide), 0x61cb_57ae_42e1_31cf);
        }
        // One and two qubits: the root's branches are already leaves, or
        // the leaves' parents.
        let mut one = Circuit::new(1);
        one.h(0).t(0).h(0);
        assert_eq!(
            bitslice_histogram(&one, 1000, 7, false),
            Histogram::from_counts(1, [(0, 845), (1, 155)])
        );
        let mut two = Circuit::new(2);
        two.h(0).t(0).h(0).cx(0, 1).h(1).t(1).h(1);
        assert_eq!(
            bitslice_histogram(&two, 1000, 7, false),
            Histogram::from_counts(2, [(0, 729), (1, 17), (2, 116), (3, 138)])
        );
    }

    #[test]
    fn an_unallocatable_shot_count_is_an_error() {
        let config = SessionConfig::with_backend(BackendKind::BitSlice);
        let mut session = Session::new(3, config).unwrap();
        session.run(&ghz(3)).unwrap();
        assert!(matches!(
            session.sample(u64::MAX, 1),
            Err(ExecError::Resource { .. })
        ));
        // The session stays usable.
        assert_eq!(session.sample(100, 1).unwrap().histogram.shots(), 100);
    }

    #[test]
    fn node_limit_surfaces_as_a_resource_error() {
        let mut circuit = Circuit::new(12);
        for q in 0..12 {
            circuit.h(q);
        }
        for q in 0..11 {
            circuit.cx(q, q + 1);
            circuit.t(q);
            circuit.h(q);
        }
        let config = SessionConfig::with_backend(BackendKind::BitSlice).max_nodes(16);
        let mut session = Session::for_circuit(&circuit, config).unwrap();
        assert!(matches!(
            session.run(&circuit),
            Err(ExecError::Resource { .. })
        ));
    }
}
