//! `sliq` — a small command-line front end for the simulators.
//!
//! ```text
//! sliq <circuit.qasm|circuit.real> [--backend auto|bitslice|qmdd|dense|stabilizer]
//!      [--superpose-free-inputs] [--shots N] [--seed S] [--probabilities Q1,Q2,…]
//!      [--reorder] [--connect HOST:PORT] [--tenant NAME]
//! ```
//!
//! The circuit format is inferred from the file extension (`.qasm` for the
//! OpenQASM-2 subset, `.real` for RevLib).  Execution goes through the
//! `sliq_exec::Session` layer: `--backend auto` negotiates the backend from
//! the circuit (stabilizer for Clifford-only, bit-sliced otherwise), and
//! `--shots N` draws all N measurement shots from the one simulated state
//! (batched sampling — the circuit is never re-run per shot).
//!
//! With `--connect HOST:PORT` the circuit is not simulated locally: it is
//! shipped to a running `sliq-serve` instance over the wire protocol and
//! the histogram comes back over the socket, printed in the same format as
//! local runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliqsim::circuit::{qasm, real, Circuit};
use sliqsim::prelude::*;
use std::error::Error;

struct Options {
    path: String,
    backend: String,
    superpose: bool,
    shots: u64,
    seed: u64,
    reorder: bool,
    probability_qubits: Option<Vec<usize>>,
    connect: Option<String>,
    tenant: String,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut options = Options {
        path: String::new(),
        backend: "bitslice".to_string(),
        superpose: false,
        shots: 0,
        seed: 1,
        reorder: false,
        probability_qubits: None,
        connect: None,
        tenant: String::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                options.backend = args.next().ok_or("--backend needs a value")?;
            }
            "--superpose-free-inputs" => options.superpose = true,
            "--reorder" => options.reorder = true,
            "--shots" => {
                options.shots = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--shots needs a number")?;
            }
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--probabilities" => {
                let list = args.next().ok_or("--probabilities needs a list")?;
                options.probability_qubits = Some(
                    list.split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.trim().parse().map_err(|_| format!("bad qubit `{s}`")))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--connect" => {
                options.connect = Some(args.next().ok_or("--connect needs HOST:PORT")?);
            }
            "--tenant" => {
                options.tenant = args.next().ok_or("--tenant needs a name")?;
            }
            "--help" | "-h" => {
                return Err("usage: sliq <circuit.qasm|circuit.real> [--backend auto|bitslice|qmdd|dense|stabilizer] [--superpose-free-inputs] [--shots N] [--seed S] [--probabilities Q1,Q2,…] [--reorder] [--connect HOST:PORT] [--tenant NAME]".to_string());
            }
            other if options.path.is_empty() && !other.starts_with('-') => {
                options.path = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.path.is_empty() {
        return Err("missing circuit file (try --help)".to_string());
    }
    Ok(options)
}

fn load_circuit(options: &Options) -> Result<Circuit, Box<dyn Error>> {
    let text = std::fs::read_to_string(&options.path)?;
    if options.path.ends_with(".real") {
        let parsed = real::parse(&text)?;
        if options.superpose {
            let mut circuit = Circuit::new(parsed.circuit.num_qubits());
            for q in parsed.metadata.free_inputs() {
                circuit.h(q);
            }
            circuit.append(&parsed.circuit);
            Ok(circuit)
        } else {
            Ok(parsed.circuit)
        }
    } else {
        Ok(qasm::parse(&text)?)
    }
}

/// Ships the circuit to a running `sliq-serve` instance and prints the
/// result in the same shape as a local run.
fn run_remote(options: &Options, circuit: &Circuit, addr: &str) -> Result<(), Box<dyn Error>> {
    use sliqsim::serve::{Client, RetryPolicy, RunOptions};

    let mut client = Client::connect(addr)?;
    // An `Overloaded` answer is backpressure, not failure: retry with
    // seeded, jittered backoff and only surface the overload once the
    // attempt budget is spent.
    let outcome = client.run_circuit_with_retry(
        circuit,
        &RunOptions {
            backend: backend_kind(&options.backend)?,
            shots: options.shots,
            seed: options.seed,
            tenant: options.tenant.clone(),
        },
        &RetryPolicy {
            seed: options.seed,
            ..RetryPolicy::default()
        },
    )?;
    println!(
        "simulated on `{}` at {addr} in {:.3} s",
        outcome.backend.name(),
        outcome.run_micros as f64 / 1e6
    );
    if let Some(nodes) = outcome.live_nodes {
        println!(
            "representation: {} live nodes ({:.2} MiB peak)",
            nodes, outcome.peak_memory_mib
        );
    }
    if let Some(bits) = &outcome.readout {
        println!("readout: {}", format_readout(bits));
    }
    println!("sum of probabilities = {:.12}", outcome.total_probability);
    if let Some(wire) = outcome.histogram {
        let elapsed_secs = wire.sample_micros as f64 / 1e6;
        let shots_per_sec = if elapsed_secs > 0.0 {
            wire.shots as f64 / elapsed_secs
        } else {
            0.0
        };
        let histogram = Histogram::from_counts(circuit.num_qubits(), wire.counts);
        println!(
            "sampled {} shot(s) in {:.3} ms ({shots_per_sec:.0} shots/s), {} distinct outcomes:",
            wire.shots,
            elapsed_secs * 1e3,
            histogram.counts().len()
        );
        print!("{}", histogram.format_top(16));
    }
    Ok(())
}

/// Formats a classical register in QASM print order: `c[n-1]` leftmost,
/// `c[0]` rightmost.
fn format_readout(bits: &[bool]) -> String {
    let register: String = bits
        .iter()
        .rev()
        .map(|&bit| if bit { '1' } else { '0' })
        .collect();
    format!("c = {register} (c[{}..0])", bits.len().saturating_sub(1))
}

fn backend_kind(name: &str) -> Result<BackendKind, String> {
    match name {
        "auto" => Ok(BackendKind::Auto),
        "bitslice" | "ours" => Ok(BackendKind::BitSlice),
        "qmdd" | "ddsim" => Ok(BackendKind::Qmdd),
        "dense" | "array" => Ok(BackendKind::Dense),
        "stabilizer" | "chp" => Ok(BackendKind::Stabilizer),
        other => Err(format!("unknown backend `{other}`")),
    }
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Err(error) = run(&options) {
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}

fn run(options: &Options) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(options)?;
    circuit.validate()?;
    println!(
        "loaded `{}`: {} qubits, {} gates (depth {})",
        options.path,
        circuit.num_qubits(),
        circuit.len(),
        circuit.depth()
    );
    if let Some(addr) = &options.connect {
        return run_remote(options, &circuit, addr);
    }
    let config = SessionConfig::with_backend(backend_kind(&options.backend)?)
        .auto_reorder(options.reorder)
        // The one --seed drives both batched sampling and the mid-circuit
        // measurement stream, matching what a server does with the wire
        // seed: (circuit, seed) fully determines a dynamic run.
        .measurement_seed(options.seed);
    let mut session = Session::for_circuit(&circuit, config)?;
    let result = session.run(&circuit)?;
    println!(
        "simulated on `{}` in {:.3} s",
        session.backend_name(),
        result.elapsed.as_secs_f64()
    );
    if let Some(nodes) = result.stats.live_nodes {
        println!(
            "representation: {} live nodes ({:.2} MiB peak)",
            nodes, result.stats.memory_mib
        );
    }

    if let Some(bits) = &result.readout {
        println!("readout: {}", format_readout(bits));
    }

    let qubits: Vec<usize> = options
        .probability_qubits
        .clone()
        .unwrap_or_else(|| (0..circuit.num_qubits().min(8)).collect());
    for q in qubits {
        println!("Pr[q{q} = 1] = {:.10}", session.probability_of_one(q));
    }
    println!("sum of probabilities = {:.12}", session.total_probability());

    if options.shots > 0 && circuit.num_qubits() <= 64 {
        // Batched sampling: every shot comes from the one simulated state
        // (conditional-probability descent), not from re-running the
        // circuit; identical seeds give identical histograms.
        let sample = session.sample(options.shots, options.seed)?;
        println!(
            "sampled {} shot(s) in {:.3} ms ({:.0} shots/s), {} distinct outcomes:",
            sample.shots,
            sample.elapsed.as_secs_f64() * 1e3,
            sample.shots_per_sec(),
            sample.histogram.counts().len()
        );
        print!("{}", sample.histogram.format_top(16));
    } else if options.shots > 0 {
        // Registers wider than an outcome word: draw shots one at a time by
        // collapsing a checkpoint of the simulated state and rolling back —
        // still no circuit re-simulation per shot.
        let mut rng = StdRng::seed_from_u64(options.seed);
        println!("sampling {} shot(s):", options.shots);
        let checkpoint = session.snapshot();
        for shot in 0..options.shots {
            let outcome: String = (0..circuit.num_qubits())
                .map(|q| {
                    if session.measure_with(q, rng.gen_range(0.0..1.0)) {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            println!("  shot {shot}: {outcome}");
            session.restore(&checkpoint)?;
        }
        session.discard(checkpoint)?;
    }
    Ok(())
}
