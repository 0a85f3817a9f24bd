//! Differential tests for the unit of parallelism: independent sessions
//! running side by side.  Every session owns its BDD manager (`Send` but
//! not `Sync`), so running several of them on separate threads at once must
//! be **unobservable** — each one produces slice functions with identical
//! `eval`/`sat_count`/`amplitude` results, identical probabilities and
//! histograms, identical kernel work counters, and a kernel that passes the
//! exhaustive `Manager::check_integrity`, exactly as a session running
//! alone does.
//!
//! All comparisons are *exact* (integer/`NodeId` equality, or `f64`s whose
//! every input is an exact SAT count): any interference between sessions,
//! or any scheduling-dependent kernel behaviour, shows up as a hard
//! failure, not a tolerance miss.

use sliqsim::bdd::{KernelMode, ManagerStats};
use sliqsim::bignum::UBig;
use sliqsim::circuit::Simulator;
use sliqsim::prelude::*;
use sliqsim::workloads::{algorithms, random};
use std::sync::{Arc, Barrier};

/// How many sessions run side by side in the concurrent leg of each test
/// (the reference always runs alone first).
const SIDE_BY_SIDE: usize = 4;

/// Runs `work` once alone, then `SIDE_BY_SIDE` times concurrently on
/// separate threads (released together by a barrier, so the runs overlap),
/// and asserts that every concurrent result equals the lone one.  Returns
/// the lone result.
fn assert_side_by_side_invariant<T: Send + PartialEq + std::fmt::Debug>(
    what: &str,
    work: impl Fn() -> T + Sync,
) -> T {
    let alone = work();
    let start = Barrier::new(SIDE_BY_SIDE);
    let concurrent: Vec<T> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SIDE_BY_SIDE)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    work()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("session thread"))
            .collect()
    });
    for (i, result) in concurrent.iter().enumerate() {
        assert_eq!(result, &alone, "{what}: session {i} of {SIDE_BY_SIDE}");
    }
    alone
}

/// The kernel's work counters: every `ManagerStats` field except the
/// reordering wall-clock time.
fn work_counters(stats: ManagerStats) -> ManagerStats {
    ManagerStats {
        reorder_micros: 0,
        ..stats
    }
}

fn run_bitslice(circuit: &Circuit, reorder: bool) -> BitSliceSimulator {
    let mut sim = BitSliceSimulator::new(circuit.num_qubits()).with_auto_reorder(reorder);
    sim.run(circuit).expect("supported gates");
    sim
}

/// A deterministic sample of basis states (all of them for small registers).
fn probe_states(n: usize) -> Vec<Vec<bool>> {
    if n <= 10 {
        (0..(1usize << n))
            .map(|i| (0..n).map(|q| i >> q & 1 == 1).collect())
            .collect()
    } else {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        (0..256)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (0..n).map(|q| state >> (q % 58) & 1 == 1).collect()
            })
            .collect()
    }
}

/// Everything a session run exposes about its state, compared exactly.
#[derive(Debug, PartialEq)]
struct Observed {
    width: usize,
    k: i64,
    sat_counts: Vec<UBig>,
    evals: Vec<Vec<bool>>,
    amplitudes: Vec<Algebraic>,
    probabilities: Vec<f64>,
    total_probability: f64,
    exactly_normalized: bool,
    work: ManagerStats,
}

fn observe(circuit: &Circuit, reorder: bool) -> Observed {
    let n = circuit.num_qubits();
    let mut sim = run_bitslice(circuit, reorder);
    let mgr = sim.state().manager();
    mgr.check_integrity().expect("integrity");
    let roots = sim.state().all_roots();
    let states = probe_states(n);
    let sat_counts = roots.iter().map(|&slice| mgr.sat_count(slice, n)).collect();
    let evals = states
        .iter()
        .map(|bits| roots.iter().map(|&slice| mgr.eval(slice, bits)).collect())
        .collect();
    let work = work_counters(mgr.stats());
    Observed {
        width: sim.width(),
        k: sim.k(),
        sat_counts,
        evals,
        amplitudes: states.iter().map(|bits| sim.amplitude(bits)).collect(),
        probabilities: (0..n).map(|q| sim.probability_of_one(q)).collect(),
        total_probability: sim.total_probability(),
        exactly_normalized: sim.is_exactly_normalized(),
        work,
    }
}

/// The full differential comparison of one circuit: alone vs side by side.
fn assert_thread_count_invariance(circuit: &Circuit, reorder: bool) {
    let observed = assert_side_by_side_invariant("state", || observe(circuit, reorder));
    assert!(observed.exactly_normalized);
}

#[test]
fn one_thread_sessions_select_the_serial_kernel() {
    // Every session runs the single-owner kernel; the compatibility fields
    // the repository benchmark reads report it that way.
    let circuit = random::random_clifford_t(8, 2);
    assert_side_by_side_invariant("kernel mode", || {
        let stats = run_bitslice(&circuit, false).state().manager().stats();
        assert_eq!(stats.kernel_mode, KernelMode::Serial);
        assert_eq!(
            (
                stats.unique_cas_retries,
                stats.unique_dup_races,
                stats.cache_write_skips
            ),
            (0, 0, 0)
        );
        work_counters(stats)
    });
}

#[test]
fn parallel_sifting_matches_serial_sifting_across_thread_counts() {
    // Explicit reorder runs after the same circuit must make identical
    // sifting decisions whether the session sifts alone or next to others:
    // same swap count, same final live size, same final variable order,
    // and an intact kernel.
    for &(qubits, seed) in &[(12usize, 3u64), (14, 8)] {
        let circuit = random::random_clifford_t(qubits, seed);
        let (swaps, _, order) = assert_side_by_side_invariant("sifting", || {
            let mut sim = run_bitslice(&circuit, false);
            let stats = sim.reorder();
            sim.state()
                .manager()
                .check_integrity()
                .expect("integrity after reorder");
            let order: Vec<usize> = (0..qubits)
                .map(|level| sim.state().manager().var_at_level(level))
                .collect();
            (stats.swaps, stats.size_after, order)
        });
        assert!(swaps > 0, "{qubits} qubits: sifting swapped nothing");
        assert_eq!(order.len(), qubits);
    }
}

#[test]
fn parallel_apply_is_identical_to_serial_on_random_clifford_t() {
    for &(qubits, seed) in &[(6usize, 11u64), (10, 5), (14, 1)] {
        let circuit = random::random_clifford_t(qubits, seed);
        assert_thread_count_invariance(&circuit, false);
    }
}

#[test]
fn parallel_apply_is_identical_to_serial_on_the_full_gate_set() {
    let circuit = random::random_circuit(
        &random::RandomCircuitConfig {
            num_qubits: 8,
            num_gates: 120,
            initial_hadamard_layer: true,
            gate_set: random::RandomGateSet::Full,
        },
        2026,
    );
    assert_thread_count_invariance(&circuit, false);
}

#[test]
fn parallel_apply_is_identical_under_auto_reorder() {
    // Reordering and GC run between gates; they must be as deterministic as
    // the gates themselves.
    let circuit = random::random_clifford_t(12, 3);
    assert_thread_count_invariance(&circuit, true);
}

#[test]
fn ghz_and_bv_are_thread_count_invariant() {
    for circuit in [
        algorithms::ghz(16),
        algorithms::bernstein_vazirani_all_ones(12),
    ] {
        assert_thread_count_invariance(&circuit, false);
    }
}

#[test]
fn sessions_report_identical_kernel_work_counters() {
    // Two sessions running the same circuit do the same kernel work: the
    // same nodes created, the same per-cache hits, misses and evictions,
    // the same GC runs, reorder swaps and byte peaks — under a fixed order
    // and under auto-reorder.  A cache-hit replay relies on this to stay
    // within the budget its publisher ran under (`Session::materialize`).
    // The comparison covers sampling's kernel work too.  The sampler
    // starts from the term list that the run's total built, so it makes no
    // AND lookup.  Under a sifted order its cofactors look up the cofactor
    // cache and build nodes.  At a fixed order the descent conditions each
    // qubit once it reaches the top, where a cofactor is a child pointer,
    // so sampling makes no cache lookup and creates no node at all.
    // The instance must allocate past the 65 536-node GC threshold at the
    // fixed order: this one creates about 120 000 nodes and collects once.
    let circuit = random::random_clifford_t(20, 1);
    for reorder in [false, true] {
        let work = assert_side_by_side_invariant("session kernel work", || {
            let config = SessionConfig::with_backend(BackendKind::BitSlice).auto_reorder(reorder);
            let mut session = Session::for_circuit(&circuit, config).expect("session");
            let run = session.run(&circuit).expect("run");
            session.sample(1024, 5).expect("sample");
            let after_run = work_counters(run.stats.bdd.expect("bit-sliced stats"));
            let after_sample = work_counters(session.stats().bdd.expect("bit-sliced stats"));
            (after_run, after_sample)
        });
        let (after_run, after_sample) = work;
        assert!(after_run.gc_runs > 0, "the circuit must exercise GC");
        assert_eq!(
            after_run.reorder_swaps > 0,
            reorder,
            "swaps happen exactly when auto-reorder is on"
        );
        let lookups = |stats: &ManagerStats| {
            let total = stats.total_cache();
            total.hits + total.misses
        };
        if reorder {
            assert!(lookups(&after_sample) > lookups(&after_run));
            assert!(after_sample.created_nodes > after_run.created_nodes);
        } else {
            assert_eq!(lookups(&after_sample), lookups(&after_run));
            assert_eq!(after_sample.created_nodes, after_run.created_nodes);
        }
        assert!(after_run.total_cache().hits > 0 && after_run.peak_bytes > 0);
    }
}

#[test]
fn sample_histograms_are_bit_identical_across_thread_counts() {
    // Clifford+T forces the bit-sliced backend under Auto; sessions sampling
    // side by side must draw the same histogram as a session alone.
    let circuit = random::random_clifford_t(10, 9);
    let sample = |seed: u64| -> Arc<Histogram> {
        let config = SessionConfig::with_backend(BackendKind::BitSlice);
        let mut session = Session::for_circuit(&circuit, config).expect("session");
        session.run(&circuit).expect("run");
        let sample = session.sample(4096, seed).expect("sample");
        assert_eq!(sample.histogram.shots(), 4096);
        sample.histogram
    };
    let reference = assert_side_by_side_invariant("histogram", || sample(42));
    // Distinct seeds still differ (the determinism is per seed, not a
    // degenerate constant histogram).
    assert_ne!(sample(43), reference);
}

#[test]
fn sampling_determinism_holds_after_measurement_collapse() {
    // The descent must also be deterministic on a state with a non-trivial
    // normalisation factor (post-measurement `s != 1`).
    let circuit = random::random_clifford_t(8, 4);
    assert_side_by_side_invariant("post-collapse histogram", || {
        let config = SessionConfig::with_backend(BackendKind::BitSlice);
        let mut session = Session::for_circuit(&circuit, config).expect("session");
        session.run(&circuit).expect("run");
        session.measure_with(0, 0.3);
        session.sample(1024, 7).expect("sample").histogram
    });
}
