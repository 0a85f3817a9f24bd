//! Micro-benchmarks of individual gate applications (the cost model behind
//! Table II): permutation gates vs symbolic-adder gates on the bit-sliced
//! backend, compared with the QMDD and dense baselines on the same state.
//!
//! Every backend applies a gate on one thread: the bit-sliced kernel has a
//! single owner, so these are single-thread timings on any machine.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use sliq_circuit::{Gate, Simulator};
use sliq_core::BitSliceSimulator;
use sliq_dense::DenseSimulator;
use sliq_qmdd::QmddSimulator;
use sliq_workloads::random;

const QUBITS: usize = 14;

fn prepared_circuit() -> sliq_circuit::Circuit {
    // A moderately entangled, non-trivial state to apply single gates to.
    random::random_clifford_t(QUBITS, 7)
}

fn bench_single_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_ops");
    group.sample_size(20);
    let prep = prepared_circuit();
    let gates: Vec<(&str, Gate)> = vec![
        ("x", Gate::X(3)),
        ("h", Gate::H(3)),
        ("t", Gate::T(3)),
        ("s", Gate::S(3)),
        ("y", Gate::Y(3)),
        (
            "cx",
            Gate::Cnot {
                control: 2,
                target: 9,
            },
        ),
        (
            "cz",
            Gate::Cz {
                control: 2,
                target: 9,
            },
        ),
        (
            "ccx",
            Gate::Toffoli {
                controls: vec![1, 5],
                target: 10,
            },
        ),
        // The controlled flip's other shapes: a control below its target
        // (the flip multiplexes under the target), and SWAP/Fredkin, which
        // compose three controlled flips.
        (
            "cx_below",
            Gate::Cnot {
                control: 9,
                target: 2,
            },
        ),
        (
            "cccx_below",
            Gate::Toffoli {
                controls: vec![1, 5, 12],
                target: 10,
            },
        ),
        (
            "swap",
            Gate::Fredkin {
                controls: vec![],
                target1: 4,
                target2: 11,
            },
        ),
        (
            "cswap",
            Gate::Fredkin {
                controls: vec![7],
                target1: 4,
                target2: 11,
            },
        ),
    ];

    // SLIQ_AUTO_REORDER=1 (the CI bench-smoke job sets it) runs the whole
    // preparation and every timed gate with automatic sifting armed, so the
    // reorder path is exercised end-to-end on every push.
    let mut bitslice =
        BitSliceSimulator::new(QUBITS).with_auto_reorder(sliq_bench::auto_reorder_env());
    bitslice.run(&prep).unwrap();
    let mut qmdd = QmddSimulator::new(QUBITS);
    qmdd.run(&prep).unwrap();
    let mut dense = DenseSimulator::new(QUBITS);
    dense.run(&prep).unwrap();

    for (name, gate) in &gates {
        // The clone that resets the state between iterations is setup, not
        // gate cost: keep it out of the timings with iter_batched.  The
        // setup also runs a GC, which clears the operation caches (in every
        // kernel) — so the timed region measures the cost of *applying* the
        // gate, not of re-reading memoised results left over from the
        // preparation circuit.
        group.bench_with_input(BenchmarkId::new("bitslice", name), gate, |b, gate| {
            b.iter_batched(
                || {
                    let mut sim = bitslice.clone();
                    sim.state_mut().collect_garbage();
                    sim
                },
                |mut sim| {
                    sim.apply_gate(gate).unwrap();
                    sim.width()
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("dense", name), gate, |b, gate| {
            b.iter_batched(
                || dense.clone(),
                |mut sim| {
                    sim.apply_gate(gate).unwrap();
                    sim.num_qubits()
                },
                BatchSize::SmallInput,
            );
        });
    }
    // The QMDD manager is not cheaply clonable; re-run the preparation inside
    // the iteration only for a single representative gate to keep the bench
    // honest but affordable.
    group.bench_function("qmdd/h_after_prep", |b| {
        b.iter(|| {
            let mut sim = QmddSimulator::new(QUBITS);
            sim.run(&prep).unwrap();
            sim.apply_gate(&Gate::H(3)).unwrap();
            sim.node_count()
        });
    });
    let _ = qmdd;
    group.finish();

    // Surface the kernel's cache behaviour next to the timings, so perf PRs
    // can tell whether a regression is a hit-rate problem or a per-op one.
    println!("\nBDD kernel cache statistics for the preparation circuit:");
    print!(
        "{}",
        sliq_bench::kernel_stats_report(&bitslice.state().manager().stats())
    );
}

criterion_group!(benches, bench_single_gates);
criterion_main!(benches);
