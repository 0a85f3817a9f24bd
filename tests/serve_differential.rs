//! The serving front-end's correctness contract: a live TCP server under
//! concurrent clients must return results bit-identical to direct
//! `Session` execution — same gates applied, same total-probability bits,
//! same sampling histograms — and per-tenant byte budgets must fail the
//! over-budget tenant over the wire without disturbing anyone else.

use sliqsim::exec::wire;
use sliqsim::prelude::*;
use sliqsim::serve::{Client, ClientError, RunOptions, Server, ServerConfig};
use sliqsim::workloads::{algorithms, random};

const SHOTS: u64 = 512;
const SEED: u64 = 9;

/// What a direct (in-process) session produces for one circuit.
struct Expected {
    backend: BackendKind,
    gates_applied: u64,
    total_probability_bits: u64,
    counts: Vec<(u64, u64)>,
}

fn direct(circuit: &Circuit) -> Expected {
    // Mirror the server's session configuration exactly, so
    // "bit-identical" is a statement about the serving path.
    let config = SessionConfig::default();
    let mut session = Session::for_circuit(circuit, config).expect("reference session opens");
    let run = session.run(circuit).expect("reference run completes");
    let sample = session
        .sample(SHOTS, SEED)
        .expect("reference sampling works");
    Expected {
        backend: run.backend,
        gates_applied: run.gates_applied as u64,
        total_probability_bits: run.total_probability.to_bits(),
        counts: sample
            .histogram
            .counts()
            .iter()
            .map(|(&outcome, &count)| (outcome, count))
            .collect(),
    }
}

fn population() -> Vec<Circuit> {
    vec![
        random::random_clifford_t(10, 1),
        random::random_clifford_t(11, 2),
        random::random_clifford_t(12, 3),
        algorithms::ghz(12),
        algorithms::bernstein_vazirani_all_ones(12),
        random::random_clifford_t(10, 4),
        random::random_clifford_t(11, 5),
        random::random_clifford_t(12, 6),
    ]
}

#[test]
fn eight_concurrent_connections_match_direct_sessions_bit_for_bit() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default().workers(3))
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();
    let circuits = population();
    let expected: Vec<Expected> = circuits.iter().map(direct).collect();

    std::thread::scope(|scope| {
        for client_index in 0..8 {
            let circuits = &circuits;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                // Each client walks the population from its own offset, so
                // every circuit is in flight on several connections at once.
                for step in 0..circuits.len() {
                    let index = (client_index + step * 3) % circuits.len();
                    let outcome = client
                        .run_circuit(
                            &circuits[index],
                            RunOptions {
                                shots: SHOTS,
                                seed: SEED,
                                ..RunOptions::default()
                            },
                        )
                        .expect("remote run completes");
                    let reference = &expected[index];
                    assert_eq!(outcome.backend, reference.backend, "circuit {index}");
                    assert_eq!(
                        outcome.gates_applied, reference.gates_applied,
                        "circuit {index}"
                    );
                    assert_eq!(
                        outcome.total_probability.to_bits(),
                        reference.total_probability_bits,
                        "circuit {index}: total probability must be bit-identical"
                    );
                    let histogram = outcome.histogram.expect("shots were requested");
                    assert_eq!(histogram.shots, SHOTS, "circuit {index}");
                    assert_eq!(
                        histogram.counts, reference.counts,
                        "circuit {index}: histogram must be bit-identical"
                    );
                }
            });
        }
    });

    let stats = handle.stats();
    assert_eq!(stats.get("requests_ok"), Some(8 * circuits.len() as u64));
    assert_eq!(stats.get("requests_error"), Some(0));
    assert!(stats.get("connections_accepted").unwrap() >= 8);
    handle.shutdown();
}

#[test]
fn over_budget_tenant_fails_on_the_wire_while_others_are_unaffected() {
    // "cramped" gets a budget below the kernel's baseline footprint, so its
    // bit-sliced run trips CapacityExceeded at the first gate boundary.
    let handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig::default()
            .workers(2)
            .tenant_budget("cramped", 64 * 1024),
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr();
    let heavy = random::random_clifford_t(16, 7);
    let expected = direct(&heavy);

    std::thread::scope(|scope| {
        // Four unbudgeted tenants run the heavy circuit concurrently and
        // must see exactly the direct-session result.
        for _ in 0..4 {
            let heavy = &heavy;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let outcome = client
                    .run_circuit(
                        heavy,
                        RunOptions {
                            shots: SHOTS,
                            seed: SEED,
                            ..RunOptions::default()
                        },
                    )
                    .expect("unbudgeted tenants are unaffected");
                assert_eq!(
                    outcome.total_probability.to_bits(),
                    expected.total_probability_bits
                );
                assert_eq!(
                    outcome.histogram.expect("shots requested").counts,
                    expected.counts
                );
            });
        }
        // The cramped tenant, interleaved with them, gets the stable
        // capacity code over the wire.
        let heavy = &heavy;
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("client connects");
            for _ in 0..2 {
                let err = client
                    .run_circuit(
                        heavy,
                        RunOptions {
                            tenant: "cramped".into(),
                            ..RunOptions::default()
                        },
                    )
                    .expect_err("the cramped tenant's budget must trip");
                match err {
                    ClientError::Remote { code, message } => {
                        assert_eq!(code, wire::CAPACITY_BYTES);
                        assert!(
                            message.contains("memory budget"),
                            "message should explain the budget: {message}"
                        );
                    }
                    other => panic!("expected a remote capacity error, got {other}"),
                }
                // The connection (and server) survive the failure.
                client.ping().expect("connection stays usable");
            }
        });
    });

    let stats = handle.stats();
    assert_eq!(stats.get("requests_ok"), Some(4));
    assert_eq!(stats.get("requests_error"), Some(2));
    handle.shutdown();
}
