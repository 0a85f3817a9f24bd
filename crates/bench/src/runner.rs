//! Per-case execution with wall-clock timeouts and resource limits,
//! emulating the paper's experimental protocol (7200 s time-out and 2 GB
//! memory-out per case, scaled down to interactive sizes).
//!
//! All backend construction and execution goes through the
//! [`sliq_exec::Session`] API; this module only adds the wall-clock timeout
//! (`with_timeout`, the harness's one timeout helper) and the paper-style
//! `TO/MO/err` aggregation on top.  Cases run one at a time, so a row's
//! time is the case's own.

use sliq_circuit::Circuit;
use sliq_exec::{ExecError, Session, SessionConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The simulator backends the harness can drive — the executor layer's
/// backend registry (`Auto` resolves per circuit).
pub use sliq_exec::BackendKind as Backend;

/// Outcome status of one benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseStatus {
    /// Completed; wall-clock seconds.
    Completed,
    /// Exceeded the wall-clock limit.
    TimedOut,
    /// Exceeded the node/memory limit (the paper's "MO").
    MemoryOut,
    /// The backend rejected the circuit (e.g. non-Clifford gate on CHP) or
    /// reported a numerical error.
    Error(String),
}

/// The result of running one circuit on one backend.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Which backend ran.
    pub backend: Backend,
    /// Completion status.
    pub status: CaseStatus,
    /// Wall-clock seconds (time until completion, limit hit or error).
    pub seconds: f64,
    /// Approximate peak memory of the state representation in MiB
    /// (node-count based for the symbolic backends, vector size for dense).
    pub memory_mib: f64,
    /// Deviation of the total probability from 1 (the paper flags a case as
    /// "error" when the probabilities no longer sum to one).
    pub probability_error: f64,
    /// BDD kernel counters (only populated by the bit-sliced backend):
    /// per-operation-cache hits/misses/evictions, GC runs and node totals.
    pub bdd_stats: Option<sliq_bdd::ManagerStats>,
}

impl CaseResult {
    /// Formats the runtime column like the paper ("MO", "TO", "error", or
    /// seconds).
    pub fn time_cell(&self) -> String {
        match &self.status {
            CaseStatus::Completed => format!("{:.2}", self.seconds),
            CaseStatus::TimedOut => "TO".to_string(),
            CaseStatus::MemoryOut => "MO".to_string(),
            CaseStatus::Error(_) => "error".to_string(),
        }
    }
}

/// Limits applied to a single case.
#[derive(Debug, Clone, Copy)]
pub struct CaseLimits {
    /// Wall-clock limit per case.
    pub timeout: Duration,
    /// Node limit for the symbolic backends (emulates the 2 GB memory-out).
    pub max_nodes: usize,
    /// Byte budget for the backend state (`None` = unlimited): the
    /// bit-sliced kernel accounts arena + subtables + op caches against it
    /// at run time, and the dense backend's projected footprint is checked
    /// at admission.  An exceeded budget reports the row as "MO" like the
    /// node limit does.
    pub max_bytes: Option<usize>,
    /// Enables automatic variable reordering on the bit-sliced backend
    /// (sifting when the live BDD outgrows the kernel's trigger).  Also
    /// forced on by the `SLIQ_AUTO_REORDER` environment variable, which the
    /// CI bench-smoke job uses to exercise the reorder path.
    pub auto_reorder: bool,
}

impl Default for CaseLimits {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(20),
            max_nodes: 2_000_000,
            max_bytes: None,
            auto_reorder: false,
        }
    }
}

/// `true` when the `SLIQ_AUTO_REORDER` environment variable asks for
/// reordering regardless of the per-case configuration.
pub fn auto_reorder_env() -> bool {
    std::env::var_os("SLIQ_AUTO_REORDER").is_some_and(|v| !v.is_empty() && v != "0")
}

/// `true` when the `SLIQ_BENCH_SMOKE` environment variable asks for a
/// single-iteration smoke run (shared convention with the criterion shim).
pub fn bench_smoke_env() -> bool {
    std::env::var_os("SLIQ_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

impl CaseLimits {
    /// The [`SessionConfig`] equivalent of these limits for `backend`.
    pub fn session_config(&self, backend: Backend) -> SessionConfig {
        let config = SessionConfig::with_backend(backend)
            .max_nodes(self.max_nodes)
            .auto_reorder(self.auto_reorder || auto_reorder_env());
        match self.max_bytes {
            Some(max_bytes) => config.max_bytes(max_bytes),
            None => config,
        }
    }
}

type BackendOutcome = (CaseStatus, f64, f64, Option<sliq_bdd::ManagerStats>);

fn run_backend(backend: Backend, circuit: &Circuit, limits: CaseLimits) -> BackendOutcome {
    let config = limits.session_config(backend);
    let mut session = match Session::new(circuit.num_qubits(), config) {
        // A hard qubit-capacity miss is the moral equivalent of the paper's
        // memory-out (the dense vector would not fit).
        Err(ExecError::CapacityExceeded { .. }) => {
            return (CaseStatus::MemoryOut, f64::INFINITY, f64::NAN, None)
        }
        Err(e) => return (CaseStatus::Error(e.to_string()), 0.0, f64::NAN, None),
        Ok(session) => session,
    };
    match session.run(circuit) {
        Ok(result) => (
            CaseStatus::Completed,
            result.stats.memory_mib,
            result.probability_error(),
            result.stats.bdd,
        ),
        Err(err) => {
            // Both limit flavours are the paper's "MO": the session survived
            // the overshoot (graceful degradation), so its stats are real.
            let stats = session.stats();
            let status = match err {
                ExecError::Resource { .. } | ExecError::CapacityExceeded { .. } => {
                    CaseStatus::MemoryOut
                }
                other => CaseStatus::Error(other.to_string()),
            };
            (status, stats.memory_mib, f64::NAN, stats.bdd)
        }
    }
}

/// Runs `work` on a fresh thread and waits at most `timeout` for its
/// result; `None` when the limit passes first.  A thread that times out is
/// detached, not stopped, and keeps its core until its work ends.
pub(crate) fn with_timeout<T: Send + 'static>(
    timeout: Duration,
    work: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // The receiver may have given up already; ignore the send error.
        let _ = tx.send(work());
    });
    rx.recv_timeout(timeout).ok()
}

/// Runs `circuit` on `backend` under the given limits, enforcing the
/// wall-clock timeout on a thread of its own (`with_timeout`).
pub fn run_case(backend: Backend, circuit: &Circuit, limits: CaseLimits) -> CaseResult {
    let circuit = circuit.clone();
    let start = Instant::now();
    match with_timeout(limits.timeout, move || {
        run_backend(backend, &circuit, limits)
    }) {
        Some((status, memory_mib, probability_error, bdd_stats)) => CaseResult {
            backend,
            status,
            seconds: start.elapsed().as_secs_f64(),
            memory_mib,
            probability_error,
            bdd_stats,
        },
        None => CaseResult {
            backend,
            status: CaseStatus::TimedOut,
            seconds: limits.timeout.as_secs_f64(),
            memory_mib: f64::NAN,
            probability_error: f64::NAN,
            bdd_stats: None,
        },
    }
}

/// Renders the BDD kernel counters of a bit-sliced case as a small table:
/// one line per operation cache plus node/GC totals, so perf work has a
/// hit-rate baseline to compare against.
pub fn kernel_stats_report(stats: &sliq_bdd::ManagerStats) -> String {
    let mut out = String::new();
    let mut line = |name: &str, c: &sliq_bdd::CacheStats| {
        out.push_str(&format!(
            "  {name:<9} hits {:>10}  misses {:>10}  evictions {:>9}  hit-rate {:>5.1}%\n",
            c.hits,
            c.misses,
            c.evictions,
            100.0 * c.hit_rate()
        ));
    };
    for (name, cache) in stats.caches() {
        line(name, cache);
    }
    line("TOTAL", &stats.total_cache());
    out.push_str(&format!(
        "  nodes created {}  peak {}  unique-resizes {}  gc-runs {}\n",
        stats.created_nodes, stats.peak_nodes, stats.unique_resizes, stats.gc_runs
    ));
    out.push_str(&format!(
        "  bytes/node {:.1}  current bytes {}  peak bytes {}  chunks reclaimed {}\n",
        stats.bytes_per_node(),
        stats.current_bytes,
        stats.peak_bytes,
        stats.chunks_reclaimed
    ));
    out.push_str(&format!(
        "  O(1) negations {}  complement canonical flips {}  cache-cap 2^{} (raised {}x)\n",
        stats.not_ops, stats.complement_flips, stats.cache_cap_log2, stats.cache_cap_raises
    ));
    if stats.reorders > 0 {
        out.push_str(&format!(
            "  reorders {}  swaps {}  last size {} -> {}  total reorder time {:.1} ms\n",
            stats.reorders,
            stats.reorder_swaps,
            stats.reorder_last_before,
            stats.reorder_last_after,
            stats.reorder_micros as f64 / 1000.0
        ));
    }
    out
}

/// Aggregates results of several cases (e.g. the 10 random circuits per row
/// of Table III): average runtime over completed cases plus failure counts.
#[derive(Debug, Clone, Default)]
pub struct RowSummary {
    /// Number of completed cases.
    pub completed: usize,
    /// Number of timed-out cases.
    pub timed_out: usize,
    /// Number of memory-out cases.
    pub memory_out: usize,
    /// Number of error cases.
    pub errors: usize,
    /// Mean runtime over completed cases.
    pub mean_seconds: f64,
    /// Mean memory over all cases with a finite estimate.
    pub mean_memory_mib: f64,
}

impl RowSummary {
    /// Builds a summary from individual case results.
    pub fn from_cases(cases: &[CaseResult]) -> Self {
        let mut summary = RowSummary::default();
        let mut total_time = 0.0;
        let mut total_mem = 0.0;
        let mut mem_samples = 0usize;
        for case in cases {
            match &case.status {
                CaseStatus::Completed => {
                    summary.completed += 1;
                    total_time += case.seconds;
                }
                CaseStatus::TimedOut => summary.timed_out += 1,
                CaseStatus::MemoryOut => summary.memory_out += 1,
                CaseStatus::Error(_) => summary.errors += 1,
            }
            if case.memory_mib.is_finite() {
                total_mem += case.memory_mib;
                mem_samples += 1;
            }
        }
        if summary.completed > 0 {
            summary.mean_seconds = total_time / summary.completed as f64;
        }
        if mem_samples > 0 {
            summary.mean_memory_mib = total_mem / mem_samples as f64;
        }
        summary
    }

    /// The paper's runtime cell: mean seconds over successes, or "failed".
    pub fn time_cell(&self) -> String {
        if self.completed == 0 {
            "failed".to_string()
        } else {
            format!("{:.2}", self.mean_seconds)
        }
    }

    /// The paper's `TO/MO/err.` cell.
    pub fn failure_cell(&self) -> String {
        format!("{}/{}/{}", self.timed_out, self.memory_out, self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_circuit::Simulator;
    use sliq_core::BitSliceSimulator;
    use sliq_workloads::algorithms;

    #[test]
    fn completed_case_reports_time_and_memory() {
        let circuit = algorithms::ghz(12);
        let result = run_case(Backend::BitSlice, &circuit, CaseLimits::default());
        assert_eq!(result.status, CaseStatus::Completed);
        assert!(result.seconds < 20.0);
        assert!(result.memory_mib >= 0.0);
        assert!(result.probability_error < 1e-9);
    }

    #[test]
    fn bitslice_case_reports_kernel_cache_stats() {
        // A Clifford+T circuit re-uses subfunctions, so the kernel caches
        // must report a nonzero hit rate (GHZ alone is all compulsory
        // misses).
        let circuit = sliq_workloads::random::random_clifford_t(10, 3);
        let result = run_case(Backend::BitSlice, &circuit, CaseLimits::default());
        let stats = result.bdd_stats.expect("bit-sliced backend reports stats");
        let total = stats.total_cache();
        assert!(total.hits + total.misses > 0, "kernel did cached work");
        assert!(stats.cache_hit_rate() > 0.0, "nonzero cache hit rate");
        assert!(!kernel_stats_report(&stats).is_empty());
        // The other backends have no BDD kernel to report on.
        let dense = run_case(Backend::Dense, &circuit, CaseLimits::default());
        assert!(dense.bdd_stats.is_none());
    }

    #[test]
    fn auto_reorder_cuts_peak_nodes_on_random_clifford_t_20() {
        // The reordering acceptance bar: sifting must reduce the peak live
        // node count on the 20-qubit random Clifford+T workload by >= 20%
        // versus the fixed qubit-major order, while producing the identical
        // (exactly normalised) state.
        let circuit = sliq_workloads::random::random_clifford_t(20, 1);
        let mut fixed = BitSliceSimulator::new(20);
        fixed.run(&circuit).unwrap();
        let mut sifted = BitSliceSimulator::new(20).with_auto_reorder(true);
        sifted.run(&circuit).unwrap();
        let peak_fixed = fixed.state().manager().stats().peak_nodes;
        let peak_sifted = sifted.state().manager().stats().peak_nodes;
        assert!(
            sifted.state().manager().stats().reorders > 0,
            "the auto-reorder trigger must fire on this workload"
        );
        assert!(
            peak_sifted * 5 <= peak_fixed * 4,
            "sifting must cut peak nodes by >= 20%: fixed {peak_fixed} vs sifted {peak_sifted}"
        );
        // The state itself is untouched by reordering.
        assert!(sifted.is_exactly_normalized());
        assert!((sifted.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stabilizer_rejects_t_gates_as_an_error() {
        let mut circuit = sliq_circuit::Circuit::new(2);
        circuit.h(0).t(0);
        let result = run_case(Backend::Stabilizer, &circuit, CaseLimits::default());
        assert!(matches!(result.status, CaseStatus::Error(_)));
        assert_eq!(result.time_cell(), "error");
    }

    #[test]
    fn node_limit_produces_memory_out() {
        let circuit = sliq_workloads::random::random_clifford_t(14, 3);
        let limits = CaseLimits {
            timeout: Duration::from_secs(30),
            max_nodes: 64,
            ..CaseLimits::default()
        };
        let result = run_case(Backend::Qmdd, &circuit, limits);
        assert_eq!(result.status, CaseStatus::MemoryOut);
        assert_eq!(result.time_cell(), "MO");
    }

    #[test]
    fn byte_budget_produces_memory_out_not_a_panic() {
        // The bit-sliced kernel's own byte accounting must surface as a
        // reported "MO" row — the CapacityExceeded arm, not a crash — and
        // the session's post-overshoot stats must still be collected.
        let circuit = sliq_workloads::random::random_clifford_t(14, 3);
        let limits = CaseLimits {
            timeout: Duration::from_secs(30),
            max_bytes: Some(16 * 1024),
            ..CaseLimits::default()
        };
        let result = run_case(Backend::BitSlice, &circuit, limits);
        assert_eq!(result.status, CaseStatus::MemoryOut);
        assert_eq!(result.time_cell(), "MO");
        assert!(result.memory_mib > 0.0, "stats survive the overshoot");
        assert!(result.bdd_stats.is_some());
    }

    #[test]
    fn dense_backend_reports_memory_out_beyond_its_limit() {
        let circuit = algorithms::ghz(64);
        let result = run_case(Backend::Dense, &circuit, CaseLimits::default());
        assert_eq!(result.status, CaseStatus::MemoryOut);
    }

    #[test]
    fn row_summary_aggregates_counts() {
        let circuit = algorithms::ghz(10);
        let cases: Vec<CaseResult> = (0..3)
            .map(|_| run_case(Backend::BitSlice, &circuit, CaseLimits::default()))
            .chain(std::iter::once(run_case(
                Backend::Dense,
                &algorithms::ghz(40),
                CaseLimits::default(),
            )))
            .collect();
        let summary = RowSummary::from_cases(&cases);
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.memory_out, 1);
        assert_eq!(summary.failure_cell(), "0/1/0");
        assert!(summary.time_cell() != "failed");
    }
}
