//! Reproduction of the paper's evaluation tables (Section IV).
//!
//! Each `table*_rows` function generates the corresponding benchmark family,
//! runs it on the relevant backends under per-case time/node limits — every
//! case alone, through [`run_case`] — and returns structured rows; the
//! `format_*` functions render them in the same layout as the paper.
//! Absolute numbers depend on the machine and on the (scaled-down) default
//! sizes, but the qualitative shape — which backend fails where, and who is
//! faster on which family — is what the reproduction is after.

use crate::report::{Bound, Check, Report};
use crate::runner::{
    bench_smoke_env, run_case, with_timeout, Backend, CaseLimits, CaseResult, RowSummary,
};
use sliq_circuit::Circuit;
use sliq_circuit::Simulator;
use sliq_core::BitSliceSimulator;
use sliq_exec::Session;
use sliq_qmdd::QmddSimulator;
use sliq_workloads::{algorithms, random, revlib_like, supremacy};

/// How large a sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes suitable for CI / a laptop minute.
    Quick,
    /// Larger sizes closer to the paper's regime (minutes of runtime).
    Full,
}

/// One row of the Table III reproduction (random Clifford+T circuits).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Number of qubits.
    pub qubits: usize,
    /// Number of random gates (3 × qubits).
    pub gates: usize,
    /// DDSIM-stand-in summary.
    pub qmdd: RowSummary,
    /// Bit-sliced backend summary.
    pub bitslice: RowSummary,
}

/// Runs every circuit of a row on `backend`, one case at a time.
fn summarize(backend: Backend, circuits: &[Circuit], limits: CaseLimits) -> RowSummary {
    let cases: Vec<CaseResult> = circuits
        .iter()
        .map(|circuit| run_case(backend, circuit, limits))
        .collect();
    RowSummary::from_cases(&cases)
}

/// Generates and runs the Table III sweep.
pub fn table3_rows(scale: Scale, limits: CaseLimits) -> Vec<Table3Row> {
    let (sizes, seeds): (Vec<usize>, u64) = match scale {
        Scale::Quick => (vec![16, 20, 24, 28], 3),
        Scale::Full => (vec![24, 32, 40, 56, 80], 5),
    };
    sizes
        .into_iter()
        .map(|qubits| {
            let circuits: Vec<Circuit> = (0..seeds)
                .map(|seed| random::random_clifford_t(qubits, seed))
                .collect();
            Table3Row {
                qubits,
                gates: 3 * qubits,
                qmdd: summarize(Backend::Qmdd, &circuits, limits),
                bitslice: summarize(Backend::BitSlice, &circuits, limits),
            }
        })
        .collect()
}

/// Formats Table III like the paper (time + TO/MO/err columns per backend).
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE III: results on random circuits\n");
    out.push_str(&format!(
        "{:>8} {:>8} | {:>10} {:>10} | {:>10} {:>10}\n",
        "#Qubits", "#Gates", "QMDD(s)", "TO/MO/err", "Ours(s)", "TO/MO/err"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>8} | {:>10} {:>10} | {:>10} {:>10}\n",
            row.qubits,
            row.gates,
            row.qmdd.time_cell(),
            row.qmdd.failure_cell(),
            row.bitslice.time_cell(),
            row.bitslice.failure_cell()
        ));
    }
    out
}

/// One row of the Table IV reproduction (RevLib-like reversible circuits,
/// original and with the superposition modification).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: String,
    /// Number of qubits.
    pub qubits: usize,
    /// Gate count of the original circuit.
    pub gates_original: usize,
    /// Original circuit results.
    pub original: (CaseResult, CaseResult),
    /// Gate count of the modified circuit.
    pub gates_modified: usize,
    /// Modified circuit results.
    pub modified: (CaseResult, CaseResult),
}

/// Generates and runs the Table IV sweep.
pub fn table4_rows(scale: Scale, limits: CaseLimits) -> Vec<Table4Row> {
    let suite = match scale {
        Scale::Quick => vec![
            revlib_like::ripple_carry_adder(6),
            revlib_like::equality_comparator(8),
            revlib_like::hidden_weighted_bit_like(8),
            revlib_like::random_control_logic(20, 90, 11),
        ],
        Scale::Full => revlib_like::table4_suite(),
    };
    suite
        .into_iter()
        .map(|bench| {
            let original = &bench.circuit;
            let modified = bench.with_superposition_inputs();
            Table4Row {
                name: bench.name.clone(),
                qubits: original.num_qubits(),
                gates_original: original.len(),
                original: (
                    run_case(Backend::Qmdd, original, limits),
                    run_case(Backend::BitSlice, original, limits),
                ),
                gates_modified: modified.len(),
                modified: (
                    run_case(Backend::Qmdd, &modified, limits),
                    run_case(Backend::BitSlice, &modified, limits),
                ),
            }
        })
        .collect()
}

/// Formats Table IV like the paper.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE IV: results on RevLib-like circuits\n");
    out.push_str(&format!(
        "{:<16} {:>7} | {:>7} {:>9} {:>9} | {:>7} {:>9} {:>9}\n",
        "Benchmark", "#Qubits", "#Gates", "QMDD(s)", "Ours(s)", "#Gates", "QMDD(s)", "Ours(s)"
    ));
    out.push_str(&format!(
        "{:<16} {:>7} | {:>27} | {:>27}\n",
        "", "", "original", "modified (H on free inputs)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>7} | {:>7} {:>9} {:>9} | {:>7} {:>9} {:>9}\n",
            row.name,
            row.qubits,
            row.gates_original,
            row.original.0.time_cell(),
            row.original.1.time_cell(),
            row.gates_modified,
            row.modified.0.time_cell(),
            row.modified.1.time_cell()
        ));
    }
    out
}

/// One row of the Table V reproduction (entanglement and BV circuits).
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Number of qubits.
    pub qubits: usize,
    /// Entanglement circuit gate count.
    pub ent_gates: usize,
    /// Entanglement results: QMDD, Ours, CHP.
    pub entanglement: (CaseResult, CaseResult, CaseResult),
    /// BV circuit gate count.
    pub bv_gates: usize,
    /// BV results: QMDD, Ours.
    pub bv: (CaseResult, CaseResult),
}

/// Generates and runs the Table V sweep.
pub fn table5_rows(scale: Scale, limits: CaseLimits) -> Vec<Table5Row> {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![32, 64, 128, 256],
        Scale::Full => vec![80, 100, 500, 1000, 2000],
    };
    sizes
        .into_iter()
        .map(|qubits| {
            let ent = algorithms::entanglement(qubits);
            let bv = algorithms::bernstein_vazirani_all_ones(qubits);
            Table5Row {
                qubits,
                ent_gates: ent.len(),
                entanglement: (
                    run_case(Backend::Qmdd, &ent, limits),
                    run_case(Backend::BitSlice, &ent, limits),
                    run_case(Backend::Stabilizer, &ent, limits),
                ),
                bv_gates: bv.len(),
                bv: (
                    run_case(Backend::Qmdd, &bv, limits),
                    run_case(Backend::BitSlice, &bv, limits),
                ),
            }
        })
        .collect()
}

/// Formats Table V like the paper (with the CHP column the paper discusses in
/// the text).
pub fn format_table5(rows: &[Table5Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE V: results on quantum algorithm circuits\n");
    out.push_str(&format!(
        "{:>8} | {:>7} {:>9} {:>9} {:>9} | {:>7} {:>9} {:>9}\n",
        "#Qubits", "#Gates", "QMDD(s)", "Ours(s)", "CHP(s)", "#Gates", "QMDD(s)", "Ours(s)"
    ));
    out.push_str(&format!(
        "{:>8} | {:>37} | {:>27}\n",
        "", "Entanglement", "Bernstein-Vazirani"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} | {:>7} {:>9} {:>9} {:>9} | {:>7} {:>9} {:>9}\n",
            row.qubits,
            row.ent_gates,
            row.entanglement.0.time_cell(),
            row.entanglement.1.time_cell(),
            row.entanglement.2.time_cell(),
            row.bv_gates,
            row.bv.0.time_cell(),
            row.bv.1.time_cell()
        ));
    }
    out
}

/// One row of the Table VI reproduction (GRCS supremacy circuits).
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Number of qubits (rows × cols).
    pub qubits: usize,
    /// Mean gate count over the seeds.
    pub gates: usize,
    /// QMDD summary plus mean memory estimate.
    pub qmdd: RowSummary,
    /// Bit-sliced summary plus mean memory estimate.
    pub bitslice: RowSummary,
}

/// Generates and runs the Table VI sweep.
pub fn table6_rows(scale: Scale, limits: CaseLimits) -> Vec<Table6Row> {
    let (lattices, seeds, depth): (Vec<supremacy::Lattice>, u64, usize) = match scale {
        Scale::Quick => (
            vec![
                supremacy::Lattice::new(3, 3),
                supremacy::Lattice::new(3, 4),
                supremacy::Lattice::new(4, 4),
                supremacy::Lattice::new(4, 5),
            ],
            2,
            5,
        ),
        Scale::Full => (
            supremacy::table6_lattices().into_iter().take(8).collect(),
            3,
            5,
        ),
    };
    lattices
        .into_iter()
        .map(|lattice| {
            let circuits: Vec<Circuit> = (0..seeds)
                .map(|seed| supremacy::supremacy_circuit(lattice, depth, seed))
                .collect();
            let gates = circuits.iter().map(Circuit::len).sum::<usize>() / circuits.len().max(1);
            Table6Row {
                qubits: lattice.num_qubits(),
                gates,
                qmdd: summarize(Backend::Qmdd, &circuits, limits),
                bitslice: summarize(Backend::BitSlice, &circuits, limits),
            }
        })
        .collect()
}

/// Formats Table VI like the paper (runtime, memory and TO/MO columns).
pub fn format_table6(rows: &[Table6Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE VI: results on Google supremacy-style circuits (depth 5)\n");
    out.push_str(&format!(
        "{:>8} {:>7} | {:>9} {:>10} {:>7} | {:>9} {:>10} {:>7}\n",
        "#Qubits", "#Gates", "QMDD(s)", "Mem(MB)", "TO/MO", "Ours(s)", "Mem(MB)", "TO/MO"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>7} | {:>9} {:>10.2} {:>7} | {:>9} {:>10.2} {:>7}\n",
            row.qubits,
            row.gates,
            row.qmdd.time_cell(),
            row.qmdd.mean_memory_mib,
            format!("{}/{}", row.qmdd.timed_out, row.qmdd.memory_out),
            row.bitslice.time_cell(),
            row.bitslice.mean_memory_mib,
            format!("{}/{}", row.bitslice.timed_out, row.bitslice.memory_out),
        ));
    }
    out
}

/// One row of the accuracy experiment (E6): amplitude and total-probability
/// drift of the floating-point QMDD backend versus the exact backend on deep
/// random circuits (the mechanism behind the paper's "error" cases).
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Number of qubits.
    pub qubits: usize,
    /// Number of gates.
    pub gates: usize,
    /// |Σp − 1| for the QMDD backend at its default tolerance (1e-12).
    pub qmdd_sum_error: f64,
    /// Largest amplitude deviation of the default-tolerance QMDD backend
    /// from the exact amplitudes.
    pub qmdd_amp_error: f64,
    /// Largest amplitude deviation at a coarse (1e-4) complex-table
    /// tolerance, the regime where edge-weight merging visibly corrupts the
    /// state.
    pub qmdd_coarse_amp_error: f64,
    /// Whether the bit-sliced state is exactly normalised (integer identity).
    pub bitslice_exact: bool,
    /// |Σp − 1| for the bit-sliced backend after the final f64 conversion.
    pub bitslice_error: f64,
}

/// Runs the accuracy ablation: deep random circuits over the full gate set on
/// a qubit count small enough to enumerate every amplitude.
pub fn accuracy_rows(scale: Scale) -> Vec<AccuracyRow> {
    let depths = match scale {
        Scale::Quick => vec![100usize, 400, 1600],
        Scale::Full => vec![400usize, 1600, 6400],
    };
    let qubits = 8usize;
    depths
        .into_iter()
        .map(|gates| {
            let circuit = random::random_circuit(
                &random::RandomCircuitConfig {
                    num_qubits: qubits,
                    num_gates: gates,
                    initial_hadamard_layer: true,
                    gate_set: random::RandomGateSet::Full,
                },
                2021,
            );
            let mut exact = BitSliceSimulator::new(qubits);
            exact.run(&circuit).expect("supported gates");
            let mut qmdd = QmddSimulator::new(qubits);
            qmdd.run(&circuit).expect("supported gates");
            let mut qmdd_coarse = QmddSimulator::with_tolerance(qubits, 1e-4);
            qmdd_coarse.run(&circuit).expect("supported gates");
            let mut qmdd_amp_error = 0.0f64;
            let mut coarse_amp_error = 0.0f64;
            for i in 0..(1usize << qubits) {
                let bits: Vec<bool> = (0..qubits).map(|q| i >> q & 1 == 1).collect();
                let reference = exact.amplitude_complex(&bits);
                qmdd_amp_error = qmdd_amp_error.max((qmdd.amplitude(&bits) - reference).norm());
                coarse_amp_error =
                    coarse_amp_error.max((qmdd_coarse.amplitude(&bits) - reference).norm());
            }
            AccuracyRow {
                qubits,
                gates: circuit.len(),
                qmdd_sum_error: (qmdd.total_probability() - 1.0).abs(),
                qmdd_amp_error,
                qmdd_coarse_amp_error: coarse_amp_error,
                bitslice_exact: exact.is_exactly_normalized(),
                bitslice_error: (exact.total_probability() - 1.0).abs(),
            }
        })
        .collect()
}

/// Formats the accuracy experiment.
pub fn format_accuracy(rows: &[AccuracyRow]) -> String {
    let mut out = String::new();
    out.push_str("ACCURACY: floating-point drift vs the exact backend on deep random circuits\n");
    out.push_str(&format!(
        "{:>8} {:>8} | {:>12} {:>12} {:>14} | {:>10} {:>12}\n",
        "#Qubits",
        "#Gates",
        "QMDD |Σp-1|",
        "QMDD max|Δα|",
        "QMDD(1e-4)|Δα|",
        "Ours exact",
        "Ours |Σp-1|"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>8} | {:>12.3e} {:>12.3e} {:>14.3e} | {:>10} {:>12.3e}\n",
            row.qubits,
            row.gates,
            row.qmdd_sum_error,
            row.qmdd_amp_error,
            row.qmdd_coarse_amp_error,
            row.bitslice_exact,
            row.bitslice_error
        ));
    }
    out
}

/// One row of the bit-width ablation (E7): how the integer width `r`, the
/// scaling exponent `k` and the BDD size evolve with circuit depth.
#[derive(Debug, Clone)]
pub struct BitWidthRow {
    /// Number of Hadamard/T layers applied.
    pub layers: usize,
    /// Total gates applied.
    pub gates: usize,
    /// Final integer bit width `r`.
    pub width: usize,
    /// Final exponent `k`.
    pub k: i64,
    /// Live BDD nodes of the state.
    pub nodes: usize,
}

/// Runs the bit-width growth ablation on an H/T-ladder circuit.
pub fn bitwidth_rows(scale: Scale) -> Vec<BitWidthRow> {
    let max_layers = match scale {
        Scale::Quick => 32usize,
        Scale::Full => 128,
    };
    let qubits = 6;
    let mut rows = Vec::new();
    let mut sim = BitSliceSimulator::new(qubits);
    let mut circuit_len = 0usize;
    let mut layer = 0usize;
    while layer < max_layers {
        let mut chunk = Circuit::new(qubits);
        for q in 0..qubits {
            chunk.h(q);
            chunk.t(q);
            chunk.cx(q, (q + 1) % qubits);
        }
        sim.run(&chunk).expect("supported gates");
        circuit_len += chunk.len();
        layer += 1;
        if layer.is_power_of_two() || layer == max_layers {
            rows.push(BitWidthRow {
                layers: layer,
                gates: circuit_len,
                width: sim.width(),
                k: sim.k(),
                nodes: sim.node_count(),
            });
        }
    }
    rows
}

/// Formats the bit-width ablation.
pub fn format_bitwidth(rows: &[BitWidthRow]) -> String {
    let mut out = String::new();
    out.push_str("ABLATION: dynamic integer width r, exponent k and BDD size vs depth\n");
    out.push_str(&format!(
        "{:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "layers", "#gates", "r", "k", "BDD nodes"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>8} {:>8} {:>8} {:>10}\n",
            row.layers, row.gates, row.width, row.k, row.nodes
        ));
    }
    out
}

/// One backend's cell of the sampling-throughput sweep.
#[derive(Debug, Clone)]
pub struct SampleCell {
    /// The backend that sampled.
    pub backend: Backend,
    /// Why the backend was skipped or failed, when it was.
    pub note: Option<String>,
    /// Wall-clock seconds of the single circuit simulation.
    pub run_secs: f64,
    /// Wall-clock seconds of the batched sampling call.
    pub sample_secs: f64,
    /// Batched sampling throughput.
    pub shots_per_sec: f64,
    /// Speedup of batched sampling over naive per-shot re-simulation
    /// (`shots × run_secs / sample_secs`): how many times faster the batch
    /// is than running the circuit once per shot.
    pub speedup_vs_resim: f64,
}

/// One row (circuit) of the sampling-throughput sweep.
#[derive(Debug, Clone)]
pub struct SampleRow {
    /// Workload name.
    pub name: String,
    /// Number of qubits.
    pub qubits: usize,
    /// Shots drawn per backend.
    pub shots: u64,
    /// One cell per registry backend.
    pub cells: Vec<SampleCell>,
}

/// Runs the batched-sampling sweep: each workload is simulated **once** per
/// backend, then `shots` measurement shots are drawn via `Session::sample`;
/// the speedup column compares against re-simulating the circuit per shot.
pub fn sample_rows(scale: Scale, limits: CaseLimits) -> Vec<SampleRow> {
    let shots: u64 = if bench_smoke_env() {
        512
    } else {
        match scale {
            Scale::Quick => 4096,
            Scale::Full => 16384,
        }
    };
    sample_rows_with_shots(scale, limits, shots)
}

/// [`sample_rows`] with an explicit shot count (used by quick smoke tests).
pub fn sample_rows_with_shots(scale: Scale, limits: CaseLimits, shots: u64) -> Vec<SampleRow> {
    let workloads: Vec<(String, Circuit)> = match scale {
        Scale::Quick => vec![
            ("ghz(16)".into(), algorithms::ghz(16)),
            (
                "bv_ones(14)".into(),
                algorithms::bernstein_vazirani_all_ones(14),
            ),
            (
                "random_clifford_t(14)".into(),
                random::random_clifford_t(14, 1),
            ),
        ],
        Scale::Full => vec![
            ("ghz(24)".into(), algorithms::ghz(24)),
            (
                "bv_ones(18)".into(),
                algorithms::bernstein_vazirani_all_ones(18),
            ),
            (
                "random_clifford_t(16)".into(),
                random::random_clifford_t(16, 1),
            ),
            (
                "random_clifford_t(18)".into(),
                random::random_clifford_t(18, 1),
            ),
        ],
    };
    workloads
        .into_iter()
        .map(|(name, circuit)| {
            let cells = Backend::ALL
                .iter()
                .map(|&backend| sample_cell(backend, &circuit, shots, limits))
                .collect();
            SampleRow {
                name,
                qubits: circuit.num_qubits(),
                shots,
                cells,
            }
        })
        .collect()
}

fn skipped_cell(backend: Backend, note: String) -> SampleCell {
    SampleCell {
        backend,
        note: Some(note),
        run_secs: f64::NAN,
        sample_secs: f64::NAN,
        shots_per_sec: f64::NAN,
        speedup_vs_resim: f64::NAN,
    }
}

/// One backend cell under the sweep's wall-clock limit (through
/// `with_timeout`, like [`run_case`]), so a pathological case reports
/// `TO` instead of hanging the binary.
fn sample_cell(backend: Backend, circuit: &Circuit, shots: u64, limits: CaseLimits) -> SampleCell {
    if let Err(e) = backend.check_circuit(circuit) {
        return skipped_cell(backend, format!("n/a ({e})"));
    }
    let circuit = circuit.clone();
    with_timeout(limits.timeout, move || {
        sample_cell_inner(backend, &circuit, shots, limits)
    })
    .unwrap_or_else(|| skipped_cell(backend, "TO".to_string()))
}

fn sample_cell_inner(
    backend: Backend,
    circuit: &Circuit,
    shots: u64,
    limits: CaseLimits,
) -> SampleCell {
    let skipped = |note: String| skipped_cell(backend, note);
    let mut session = match Session::for_circuit(circuit, limits.session_config(backend)) {
        Ok(session) => session,
        Err(e) => return skipped(e.to_string()),
    };
    let run = match session.run(circuit) {
        Ok(run) => run,
        Err(e) => return skipped(e.to_string()),
    };
    let sample = match session.sample(shots, 2021) {
        Ok(sample) => sample,
        Err(e) => return skipped(e.to_string()),
    };
    let run_secs = run.elapsed.as_secs_f64();
    let sample_secs = sample.elapsed.as_secs_f64().max(1e-9);
    SampleCell {
        backend,
        note: None,
        run_secs,
        sample_secs,
        shots_per_sec: shots as f64 / sample_secs,
        speedup_vs_resim: shots as f64 * run_secs / sample_secs,
    }
}

/// Formats the sampling sweep: shots/sec per backend plus the speedup over
/// per-shot re-simulation.
pub fn format_sample(rows: &[SampleRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "SAMPLING: batched multi-shot throughput per backend (one simulation, many shots)\n",
    );
    out.push_str(&format!(
        "{:<22} {:>7} {:>7} | {:<10} {:>9} {:>10} {:>12} {:>12}\n",
        "Workload", "#Qubits", "#Shots", "Backend", "run(s)", "sample(s)", "shots/s", "vs resim"
    ));
    for row in rows {
        for cell in &row.cells {
            let label = cell.backend.label();
            match &cell.note {
                Some(note) => out.push_str(&format!(
                    "{:<22} {:>7} {:>7} | {:<10} {note}\n",
                    row.name, row.qubits, row.shots, label
                )),
                None => out.push_str(&format!(
                    "{:<22} {:>7} {:>7} | {:<10} {:>9.4} {:>10.4} {:>12.0} {:>11.0}x\n",
                    row.name,
                    row.qubits,
                    row.shots,
                    label,
                    cell.run_secs,
                    cell.sample_secs,
                    cell.shots_per_sec,
                    cell.speedup_vs_resim
                )),
            }
        }
    }
    out
}

// ---------------------------------------------------------------------- //
// Memory sweep
// ---------------------------------------------------------------------- //

/// One workload of the memory sweep: the compact kernel's exact footprint
/// next to what the pre-compaction layout would have spent on the same node
/// population.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Workload name.
    pub name: String,
    /// Number of qubits.
    pub qubits: usize,
    /// Gate count.
    pub gates: usize,
    /// The runner's status cell ("MO", "TO", seconds…).
    pub status: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Live (allocated) nodes at the end of the run.
    pub allocated_nodes: usize,
    /// Exact bytes per allocated node over arena cells + var sidecars +
    /// unique subtables (op caches excluded: their size is a policy knob,
    /// not a function of the node population).
    pub bytes_per_node: f64,
    /// What the pre-compaction layout — 12-byte node cells and 8-byte
    /// unique-table slots — would spend per node on the same population.
    pub legacy_bytes_per_node: f64,
    /// `1 − compact/legacy` as a percentage.
    pub reduction_pct: f64,
    /// Peak tracked bytes over the run (arena + subtables + op caches).
    pub peak_bytes: usize,
    /// Peak allocated nodes over the run.
    pub peak_nodes: usize,
    /// Arena chunks handed back by generational sweeps.
    pub chunks_reclaimed: u64,
}

/// Derives the memory columns from one bit-sliced case result.
fn memory_row(name: String, circuit: &Circuit, limits: CaseLimits) -> MemoryRow {
    let result = run_case(Backend::BitSlice, circuit, limits);
    let mut row = MemoryRow {
        name,
        qubits: circuit.num_qubits(),
        gates: circuit.len(),
        status: result.time_cell(),
        seconds: result.seconds,
        allocated_nodes: 0,
        bytes_per_node: f64::NAN,
        legacy_bytes_per_node: f64::NAN,
        reduction_pct: f64::NAN,
        peak_bytes: 0,
        peak_nodes: 0,
        chunks_reclaimed: 0,
    };
    if let Some(stats) = result.bdd_stats {
        row.allocated_nodes = stats.allocated_nodes;
        row.bytes_per_node = stats.bytes_per_node();
        // The pre-compaction layout stored a 12-byte cell per arena slot
        // (same chunk occupancy, `var` inline so no sidecar) and an 8-byte
        // (id, tag) pair per unique-table slot where the compact layout
        // stores a 4-byte id.
        let arena_cells = stats.arena_cell_bytes / 8;
        let legacy_bytes = 12 * arena_cells + 2 * stats.subtable_bytes;
        if stats.allocated_nodes > 0 {
            row.legacy_bytes_per_node = legacy_bytes as f64 / stats.allocated_nodes as f64;
            row.reduction_pct = 100.0 * (1.0 - row.bytes_per_node / row.legacy_bytes_per_node);
        }
        row.peak_bytes = stats.peak_bytes;
        row.peak_nodes = stats.peak_nodes;
        row.chunks_reclaimed = stats.chunks_reclaimed;
    }
    row
}

/// Generates and runs the memory sweep: the Table III random Clifford+T
/// sizes (every seed its own row) plus the Table IV RevLib-like circuits in
/// their superposition-modified form (the original reversible circuits keep
/// near-trivial BDDs, so the modified ones are the memory-relevant half).
pub fn memory_rows(scale: Scale, limits: CaseLimits) -> Vec<MemoryRow> {
    let (sizes, seeds): (Vec<usize>, u64) = if bench_smoke_env() {
        (vec![12, 16], 1)
    } else {
        match scale {
            Scale::Quick => (vec![16, 20, 24, 28], 3),
            Scale::Full => (vec![24, 32, 40, 56], 3),
        }
    };
    let mut rows = Vec::new();
    for qubits in sizes {
        for seed in 0..seeds {
            rows.push(memory_row(
                format!("random_clifford_t({qubits},s{seed})"),
                &random::random_clifford_t(qubits, seed),
                limits,
            ));
        }
    }
    let revlib = if bench_smoke_env() {
        vec![revlib_like::ripple_carry_adder(6)]
    } else {
        vec![
            revlib_like::ripple_carry_adder(6),
            revlib_like::equality_comparator(8),
            revlib_like::hidden_weighted_bit_like(8),
            revlib_like::random_control_logic(20, 90, 11),
        ]
    };
    for bench in revlib {
        let modified = bench.with_superposition_inputs();
        rows.push(memory_row(format!("{}+H", bench.name), &modified, limits));
    }
    rows
}

/// Geometric mean of `bytes_per_node` over completed rows (the CI
/// regression gate's scalar); `None` when no row completed.
pub fn memory_geomean_bytes_per_node(rows: &[MemoryRow]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for row in rows {
        if row.bytes_per_node.is_finite() && row.bytes_per_node > 0.0 {
            log_sum += row.bytes_per_node.ln();
            n += 1;
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// The memory gate (`tables -- memory --baseline <path>`): the geomean
/// bytes/node may not regress more than 10 % against the committed
/// snapshot.  The layout's savings carry the 28-qubit+ frontier.
pub const MEMORY_GATE: &[Check] = &[Check("geomean_bytes_per_node", Bound::AtMostBaseline(1.10))];

/// The memory sweep as written to `BENCH_memory.json`.
pub fn memory_report(rows: &[MemoryRow]) -> Report {
    Report {
        fields: vec![(
            "geomean_bytes_per_node",
            memory_geomean_bytes_per_node(rows).into(),
        )],
        rows: rows
            .iter()
            .map(|row| {
                vec![
                    ("name", row.name.as_str().into()),
                    ("qubits", row.qubits.into()),
                    ("gates", row.gates.into()),
                    ("status", row.status.as_str().into()),
                    ("seconds", row.seconds.into()),
                    ("allocated_nodes", row.allocated_nodes.into()),
                    ("bytes_per_node", row.bytes_per_node.into()),
                    ("legacy_bytes_per_node", row.legacy_bytes_per_node.into()),
                    ("reduction_pct", row.reduction_pct.into()),
                    ("peak_bytes", row.peak_bytes.into()),
                    ("peak_nodes", row.peak_nodes.into()),
                    ("chunks_reclaimed", row.chunks_reclaimed.into()),
                ]
            })
            .collect(),
    }
}

/// Formats the memory sweep.
pub fn format_memory(rows: &[MemoryRow]) -> String {
    let mut out = String::new();
    out.push_str("MEMORY: bytes/node and peak footprint of the compact kernel layout\n");
    out.push_str(&format!(
        "{:<26} {:>7} {:>6} {:>8} | {:>9} {:>9} {:>9} {:>6} | {:>12} {:>9}\n",
        "Workload",
        "#Qubits",
        "#Gates",
        "time",
        "nodes",
        "B/node",
        "legacy",
        "cut%",
        "peak bytes",
        "reclaimed"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:>7} {:>6} {:>8} | {:>9} {:>9.1} {:>9.1} {:>5.1}% | {:>12} {:>9}\n",
            row.name,
            row.qubits,
            row.gates,
            row.status,
            row.allocated_nodes,
            row.bytes_per_node,
            row.legacy_bytes_per_node,
            row.reduction_pct,
            row.peak_bytes,
            row.chunks_reclaimed
        ));
    }
    if let Some(geomean) = memory_geomean_bytes_per_node(rows) {
        out.push_str(&format!(
            "  geomean bytes/node {geomean:.2} over {} completed workloads\n",
            rows.iter().filter(|r| r.bytes_per_node.is_finite()).count()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CaseStatus;
    use std::time::Duration;

    fn tiny_limits() -> CaseLimits {
        CaseLimits {
            timeout: Duration::from_secs(15),
            max_nodes: 500_000,
            ..CaseLimits::default()
        }
    }

    #[test]
    fn table3_quick_produces_all_rows() {
        let limits = CaseLimits {
            timeout: Duration::from_secs(10),
            max_nodes: 200_000,
            ..CaseLimits::default()
        };
        let rows = table3_rows(Scale::Quick, limits);
        assert_eq!(rows.len(), 4);
        let text = format_table3(&rows);
        assert!(text.contains("TABLE III"));
        assert!(text.contains("16"));
        // The bit-sliced backend must complete the smallest size.
        assert!(rows[0].bitslice.completed > 0);
    }

    #[test]
    fn table5_shape_matches_the_paper() {
        let rows = table5_rows(Scale::Quick, tiny_limits());
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.ent_gates, row.qubits);
            assert_eq!(row.bv_gates, 3 * (row.qubits - 1) + 2);
            // Entanglement completes on the exact backend and on CHP.
            assert_eq!(row.entanglement.1.status, CaseStatus::Completed);
            assert_eq!(row.entanglement.2.status, CaseStatus::Completed);
            // BV completes on the exact backend.
            assert_eq!(row.bv.1.status, CaseStatus::Completed);
        }
        let text = format_table5(&rows);
        assert!(text.contains("Bernstein-Vazirani"));
    }

    #[test]
    fn accuracy_rows_show_exactness_gap() {
        let rows = accuracy_rows(Scale::Quick);
        for row in &rows {
            assert!(row.bitslice_exact, "exact backend must stay normalised");
            assert!(row.bitslice_error < 1e-9);
            // Coarsening the complex-table tolerance can only make the
            // amplitude drift worse, never better.
            assert!(row.qmdd_coarse_amp_error >= row.qmdd_amp_error * 0.5);
        }
        // The drift of the coarse backend grows with depth and is visible.
        assert!(rows.last().unwrap().qmdd_coarse_amp_error > 1e-9);
        let text = format_accuracy(&rows);
        assert!(text.contains("ACCURACY"));
    }

    #[test]
    fn sample_sweep_reports_throughput_and_capability_skips() {
        let rows = sample_rows_with_shots(Scale::Quick, tiny_limits(), 128);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.cells.len(), Backend::ALL.len());
            for cell in &row.cells {
                // GHZ and Bernstein–Vazirani are Clifford-only; only the
                // Clifford+T random circuit is out of CHP's reach.
                let clifford_skip = cell.backend == Backend::Stabilizer
                    && row.name.starts_with("random_clifford_t");
                if clifford_skip {
                    assert!(cell.note.is_some(), "{}: CHP must be skipped", row.name);
                } else {
                    assert!(
                        cell.note.is_none(),
                        "{} on {}: {:?}",
                        row.name,
                        cell.backend,
                        cell.note
                    );
                    assert!(cell.shots_per_sec > 0.0);
                }
            }
        }
        let text = format_sample(&rows);
        assert!(text.contains("SAMPLING"));
        assert!(text.contains("vs resim"));
        assert!(text.contains("n/a"));
    }

    #[test]
    fn memory_row_reports_compact_layout_savings() {
        let circuit = random::random_clifford_t(14, 1);
        let row = memory_row("random_clifford_t(14,s1)".into(), &circuit, tiny_limits());
        assert_eq!(row.status, format!("{:.2}", row.seconds));
        assert!(row.allocated_nodes > 0);
        assert!(row.bytes_per_node > 0.0);
        assert!(row.legacy_bytes_per_node > row.bytes_per_node);
        // The acceptance bar proper (≥25% on random_clifford_t(24)) lives in
        // the gated perf test; the layout algebra guarantees ≥33% whenever
        // no var sidecar is resident, so even this small case clears 25%.
        assert!(
            row.reduction_pct >= 25.0,
            "compact layout must cut ≥25% bytes/node, got {:.1}%",
            row.reduction_pct
        );
        assert!(row.peak_bytes > 0);
        let rows = vec![row];
        let geomean = memory_geomean_bytes_per_node(&rows).expect("one completed row");
        assert!(geomean > 0.0);
        let text = format_memory(&rows);
        assert!(text.contains("MEMORY"));
        assert!(text.contains("geomean"));
    }

    #[test]
    fn bitwidth_ablation_reports_monotone_layers() {
        let rows = bitwidth_rows(Scale::Quick);
        assert!(!rows.is_empty());
        for pair in rows.windows(2) {
            assert!(pair[0].layers < pair[1].layers);
        }
        let text = format_bitwidth(&rows);
        assert!(text.contains("ABLATION"));
    }
}
