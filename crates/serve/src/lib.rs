//! # sliq-serve
//!
//! The serving front-end of the workspace: a concurrent TCP simulation
//! service over the shared session layer, turning the kernel into
//! something a fleet of clients can hit.  Everything is `std`-only —
//! `std::net` sockets, `std::thread` workers — because the serving story
//! of the paper's kernel is about the *simulator* scaling, not an async
//! runtime.
//!
//! * [`protocol`] — the length-prefixed wire protocol (see `PROTOCOL.md`
//!   at the workspace root for the normative spec): QASM or compact
//!   binary circuits in, run results with sampling histograms out, stable
//!   numeric error codes shared with [`sliq_exec::wire`].
//! * [`Scheduler`] — bounded, connection-fair admission queue; when it is
//!   full the server answers `Overloaded` instead of queueing, so memory
//!   stays bounded under any load.
//! * [`Server`] / [`ServerConfig`] — the accept loop, per-connection
//!   decoding threads, a fixed worker pool executing runs, per-tenant
//!   byte budgets enforced through [`sliq_exec::SessionConfig`], and a
//!   process-wide [`sliq_exec::ResultCache`] attached to every session so
//!   repeated circuits are served from memory.
//! * [`Client`] — a small blocking client (used by `sliq --connect`, the
//!   load generator, and the differential tests), with a pipelining
//!   escape hatch.
//!
//! ```no_run
//! use sliq_serve::{Client, RunOptions, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let handle = server.spawn()?;
//! let mut client = Client::connect(handle.addr())?;
//! let outcome = client.run_qasm(
//!     "qreg q[2]; h q[0]; cx q[0], q[1];",
//!     RunOptions { shots: 1000, ..RunOptions::default() },
//! )?;
//! assert_eq!(outcome.histogram.unwrap().shots, 1000);
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{
    codes, Request, Response, RunOptions, RunOutcome, StatsSnapshot, WireError, WireHistogram,
    PROTOCOL_VERSION,
};
pub use scheduler::{Refusal, Scheduler};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_circuit::Circuit;
    use sliq_exec::BackendKind;

    fn spawn_server(config: ServerConfig) -> ServerHandle {
        Server::bind("127.0.0.1:0", config)
            .expect("bind ephemeral port")
            .spawn()
            .expect("spawn server")
    }

    #[test]
    fn ping_run_stats_over_a_live_socket() {
        let handle = spawn_server(ServerConfig::default().workers(2));
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();

        let outcome = client
            .run_qasm(
                "qreg q[3]; h q[0]; cx q[0], q[1]; cx q[1], q[2]; t q[2];",
                RunOptions {
                    shots: 500,
                    seed: 7,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(outcome.backend, BackendKind::BitSlice);
        assert_eq!(outcome.gates_applied, 4);
        assert!((outcome.total_probability - 1.0).abs() < 1e-9);
        let histogram = outcome.histogram.expect("shots were requested");
        assert_eq!(histogram.shots, 500);
        assert_eq!(histogram.counts.iter().map(|(_, c)| c).sum::<u64>(), 500);
        // GHZ (up to the T phase): only |000⟩ and |111⟩ occur.
        for (outcome, _) in &histogram.counts {
            assert!(*outcome == 0 || *outcome == 0b111);
        }

        let stats = client.server_stats().unwrap();
        assert_eq!(stats.get("requests_ok"), Some(1));
        assert!(stats.get("gates_applied").unwrap() >= 4);
        handle.shutdown();
    }

    #[test]
    fn binary_circuits_match_qasm_submissions() {
        let handle = spawn_server(ServerConfig::default().workers(1));
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut circuit = Circuit::new(2);
        circuit.h(0).cx(0, 1).t(1);
        let options = RunOptions {
            shots: 300,
            seed: 3,
            ..RunOptions::default()
        };
        let binary = client.run_circuit(&circuit, options.clone()).unwrap();
        let qasm = client
            .run_qasm("qreg q[2]; h q[0]; cx q[0], q[1]; t q[1];", options)
            .unwrap();
        assert_eq!(binary.gates_applied, qasm.gates_applied);
        assert_eq!(
            binary.total_probability.to_bits(),
            qasm.total_probability.to_bits()
        );
        let binary_hist = binary.histogram.unwrap();
        let qasm_hist = qasm.histogram.unwrap();
        assert_eq!(binary_hist.shots, qasm_hist.shots);
        assert_eq!(binary_hist.counts, qasm_hist.counts);
        handle.shutdown();
    }

    #[test]
    fn too_many_controls_are_refused_before_sending_and_the_connection_survives() {
        let handle = spawn_server(ServerConfig::default().workers(1));
        let mut client = Client::connect(handle.addr()).unwrap();
        let toffoli = |controls: usize| {
            let mut circuit = Circuit::new(controls + 1);
            circuit.x(0).mcx((0..controls).collect(), controls);
            circuit
        };
        match client.run_circuit(&toffoli(256), RunOptions::default()) {
            Err(ClientError::Wire(WireError::Malformed(what))) => {
                assert!(what.contains("256 controls"), "{what}")
            }
            other => panic!("expected a local refusal, got {other:?}"),
        }
        client.ping().unwrap();
        let outcome = client
            .run_circuit(&toffoli(255), RunOptions::default())
            .unwrap();
        assert_eq!(outcome.gates_applied, 2);
        assert_eq!(outcome.total_probability, 1.0);
        handle.shutdown();
    }

    #[test]
    fn parse_and_capability_failures_come_back_as_stable_codes() {
        let handle = spawn_server(ServerConfig::default().workers(1));
        let mut client = Client::connect(handle.addr()).unwrap();
        // Garbage QASM → protocol-level parse code, with the position.
        let err = client
            .run_qasm("qreg q[2]; frobnicate q[0];", RunOptions::default())
            .unwrap_err();
        match err {
            ClientError::Remote { code, message } => {
                assert_eq!(code, codes::PARSE);
                assert!(message.contains("line 1"), "{message}");
            }
            other => panic!("expected a remote parse error, got {other}"),
        }
        // A non-Clifford circuit forced onto the stabilizer backend →
        // execution-layer code.
        let mut circuit = Circuit::new(2);
        circuit.h(0).t(0);
        let err = client
            .run_circuit(
                &circuit,
                RunOptions {
                    backend: BackendKind::Stabilizer,
                    ..RunOptions::default()
                },
            )
            .unwrap_err();
        match err {
            ClientError::Remote { code, .. } => {
                assert_eq!(code, sliq_exec::wire::UNSUPPORTED);
            }
            other => panic!("expected a remote capability error, got {other}"),
        }
        // The connection survives both rejections.
        client.ping().unwrap();
        handle.shutdown();
    }

    #[test]
    fn tenant_byte_budgets_reject_dense_sessions_at_admission() {
        let handle = spawn_server(
            ServerConfig::default()
                .workers(1)
                .tenant_budget("cramped", 1024),
        );
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut circuit = Circuit::new(12);
        circuit.h(0).t(0);
        // 16·2¹² bytes of dense amplitudes blows a 1 KiB budget at
        // admission time.
        let err = client
            .run_circuit(
                &circuit,
                RunOptions {
                    backend: BackendKind::Dense,
                    tenant: "cramped".into(),
                    ..RunOptions::default()
                },
            )
            .unwrap_err();
        match err {
            ClientError::Remote { code, .. } => {
                assert_eq!(code, sliq_exec::wire::CAPACITY_BYTES);
            }
            other => panic!("expected a capacity rejection, got {other}"),
        }
        // An unbudgeted tenant runs the same circuit fine.
        client
            .run_circuit(
                &circuit,
                RunOptions {
                    backend: BackendKind::Dense,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        handle.shutdown();
    }

    #[test]
    fn shot_counts_beyond_the_frame_cap_are_rejected_at_admission() {
        let handle = spawn_server(ServerConfig::default().workers(1));
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut circuit = Circuit::new(2);
        circuit.h(0).cx(0, 1).t(1);
        // 8 bytes of draws per shot: both requests would need terabytes.
        for shots in [1 << 40, u64::MAX] {
            let options = RunOptions {
                shots,
                ..RunOptions::default()
            };
            match client.run_circuit(&circuit, options).unwrap_err() {
                ClientError::Remote { code, .. } => {
                    assert_eq!(code, sliq_exec::wire::CAPACITY_BYTES, "{shots} shots");
                }
                other => panic!("expected a capacity rejection, got {other}"),
            }
        }
        // The connection and the server keep serving.
        let outcome = client
            .run_circuit(
                &circuit,
                RunOptions {
                    shots: 100,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(outcome.histogram.expect("shots requested").shots, 100);
        handle.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_an_explicit_overloaded_response() {
        // One worker, queue depth 1: pipeline enough cheap requests that
        // some must be shed while the worker is busy.
        let handle = spawn_server(
            ServerConfig::default()
                .workers(1)
                .queue_depth(1)
                .per_conn_queue(1)
                .result_cache(false),
        );
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut slow = Circuit::new(14);
        for q in 0..14 {
            slow.h(q);
        }
        for q in 0..13 {
            slow.cx(q, q + 1);
            slow.t(q);
        }
        let mut sent = Vec::new();
        for _ in 0..24 {
            sent.push(
                client
                    .send_run_circuit(&slow, RunOptions::default())
                    .unwrap(),
            );
        }
        let mut ok = 0u32;
        let mut overloaded = 0u32;
        for _ in 0..sent.len() {
            match client.receive().unwrap().1 {
                Response::Run(_) => ok += 1,
                Response::Overloaded { .. } => overloaded += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(ok >= 1, "at least the first request must complete");
        assert!(
            overloaded >= 1,
            "a 1-deep queue under 24 pipelined requests must shed"
        );
        let stats = handle.stats();
        assert_eq!(stats.get("requests_overloaded"), Some(overloaded as u64));
        handle.shutdown();
    }

    #[test]
    fn result_cache_serves_repeated_circuits() {
        let cache = sliq_exec::ResultCache::shared(8 << 20);
        let handle = spawn_server(
            ServerConfig::default()
                .workers(2)
                .with_result_cache(Arc::clone(&cache)),
        );
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut circuit = Circuit::new(10);
        circuit.h(0).t(0);
        for q in 1..10 {
            circuit.cx(q - 1, q);
        }
        let options = RunOptions {
            shots: 200,
            seed: 5,
            ..RunOptions::default()
        };
        let cold = client.run_circuit(&circuit, options.clone()).unwrap();
        let warm = client.run_circuit(&circuit, options).unwrap();
        assert_eq!(
            cold.histogram.unwrap().counts,
            warm.histogram.unwrap().counts
        );
        let stats = cache.stats();
        assert!(stats.hits >= 1, "second submission must hit: {stats:?}");
        handle.shutdown();
    }

    use std::sync::Arc;
}
