//! `batch_paper`: the `sliq` CLI path run in-process, one job after
//! another, over one or two circuits per table of the paper's evaluation.
//!
//! Each job is QASM text → `qasm::parse` → `Session::for_circuit` → `run` →
//! `probability_of_one` on up to 8 qubits plus `total_probability` → a small
//! sample, exactly as `src/bin/sliq.rs` does it with its default bit-sliced
//! backend.  The kernel and sifting do nearly all of the work here.

use crate::stats::{median, percentile, Digest};
use crate::trace::Tracer;
use crate::{procfs, Metrics, Outcome, RunConfig, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliq_circuit::{qasm, Circuit, Gate};
use sliq_exec::{BackendKind, Session, SessionConfig};
use sliq_workloads::{
    bernstein_vazirani_all_ones, entanglement, random_clifford_t, revlib_like, supremacy_circuit,
    Lattice,
};
use std::time::Instant;

/// The seed whose job digests are recorded in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of every job at [`DEFAULT_SEED`], recorded with
/// `sliqbench --record-reference` and cross-checked against the dense
/// backend for every job of at most 20 qubits.
const REFERENCE: &str = include_str!("../reference.txt");

/// Jobs of at most this many qubits are also run on the dense backend.
const DENSE_CHECK_QUBITS: usize = 20;

/// Qubits whose `Pr[q = 1]` each job reports (the CLI's default list).
const PROBED_QUBITS: usize = 8;

/// Set-ups timed together as one `setup_s` sample: one set-up takes a few
/// milliseconds, too short to time on its own.
const SETUPS_PER_SAMPLE: u32 = 10;

/// `setup_s` samples taken before the first job; one more is taken after
/// every job, so the samples span the run as the jobs do.
const SETUP_SAMPLES: usize = 5;

pub struct Job {
    pub name: &'static str,
    pub qasm: String,
    pub num_qubits: usize,
    pub reorder: bool,
    pub shots: u64,
    pub sample_seed: u64,
}

/// Derives the `k`-th input seed of a run from the run's seed.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut x = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The job list: `(name, circuit, --reorder, shots)`.
///
/// The circuits are fixed instances: the cost of a random Clifford+T
/// circuit varies several-fold from one generator seed to the next, which
/// would swamp any change a run is meant to show.  The run's seed varies
/// the sampling seeds instead.
fn circuits(scale: Scale) -> Vec<(&'static str, Circuit, bool, u64)> {
    match scale {
        Scale::Full => vec![
            ("rc_t24", random_clifford_t(24, 5), false, 2),
            ("rc_t28_reorder", random_clifford_t(28, 7), true, 1),
            ("entanglement1000", entanglement(1000), false, 0),
            ("bv_all_ones500", bernstein_vazirani_all_ones(500), false, 0),
            (
                "supremacy4x4_d5",
                supremacy_circuit(Lattice::new(4, 4), 5, 1),
                false,
                1,
            ),
            (
                "adder16_superposed",
                revlib_like::ripple_carry_adder(16).with_superposition_inputs(),
                false,
                16,
            ),
        ],
        Scale::Tiny => vec![
            ("rc_t10", random_clifford_t(10, 1), false, 64),
            ("rc_t12_reorder", random_clifford_t(12, 1), true, 64),
            ("entanglement70", entanglement(70), false, 2),
            ("bv_all_ones70", bernstein_vazirani_all_ones(70), false, 2),
            (
                "supremacy3x3_d4",
                supremacy_circuit(Lattice::new(3, 3), 4, 1),
                false,
                256,
            ),
            (
                "adder4_superposed",
                revlib_like::ripple_carry_adder(4).with_superposition_inputs(),
                false,
                256,
            ),
        ],
    }
}

/// Builds the job list and applies the QASM round-trip guard: every job's
/// QASM text must parse back to exactly the circuit it was emitted from.
pub fn setup(seed: u64, scale: Scale) -> Result<Vec<Job>, String> {
    circuits(scale)
        .into_iter()
        .enumerate()
        .map(|(i, (name, circuit, reorder, shots))| {
            let text = qasm::emit(&circuit);
            let parsed = qasm::parse(&text).map_err(|e| format!("{name}: emitted QASM: {e}"))?;
            if parsed != circuit {
                return Err(format!("{name}: QASM round trip changed the circuit"));
            }
            Ok(Job {
                name,
                qasm: text,
                num_qubits: circuit.num_qubits(),
                reorder,
                shots,
                sample_seed: sub_seed(seed, 100 + i as u64),
            })
        })
        .collect()
}

/// Times one `setup_s` sample, the mean of a batch of set-ups.
fn setup_sample(config: &RunConfig) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..SETUPS_PER_SAMPLE {
        std::hint::black_box(setup(config.seed, config.scale)?);
    }
    Ok(start.elapsed().as_secs_f64() / f64::from(SETUPS_PER_SAMPLE))
}

/// What one job produced.
pub struct JobRun {
    pub digest: u64,
    /// Parse through sample, the CLI's work.
    pub wall_ns: u64,
    pub exact: bool,
    pub sample_distinct: usize,
    pub bdd: Option<sliq_bdd::ManagerStats>,
}

/// The span name of a gate's layer bucket.
fn gate_span(gate: &Gate) -> &'static str {
    match gate {
        Gate::H(_) => "core.gate.h",
        Gate::X(_) => "core.gate.x",
        Gate::S(_) | Gate::Sdg(_) => "core.gate.s",
        Gate::T(_) | Gate::Tdg(_) => "core.gate.t",
        Gate::Cnot { .. } => "core.gate.cx",
        Gate::Cz { .. } => "core.gate.cz",
        Gate::Toffoli { .. } => "core.gate.ccx",
        Gate::Fredkin { .. } => "core.gate.swap",
        _ => "core.gate.other",
    }
}

pub const GATE_BUCKETS: [&str; 9] = ["h", "x", "s", "t", "cx", "cz", "ccx", "swap", "other"];

/// Session configuration of the CLI: its default bit-sliced backend,
/// `--reorder`, and the one `--seed` that also seeds mid-circuit
/// measurements.  `threads` is `None` (the library default) except in the
/// thread-invariance self-test.
fn cli_config(job: &Job, backend: BackendKind, threads: Option<usize>) -> SessionConfig {
    let mut config = SessionConfig::with_backend(backend)
        .auto_reorder(job.reorder)
        .measurement_seed(job.sample_seed);
    if let Some(threads) = threads {
        config = config.threads(threads);
    }
    config
}

/// The probabilities and sample one job reports, digested bit for bit.
struct Readout {
    digest: Digest,
    probabilities: Vec<f64>,
    histogram: Option<Vec<(u64, u64)>>,
    distinct: usize,
}

fn query_and_sample(
    session: &mut Session,
    job: &Job,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Readout, String> {
    let mut digest = Digest::new();
    digest.bytes(job.name.as_bytes());
    tracer.begin("exec.query", request);
    let probabilities: Vec<f64> = (0..job.num_qubits.min(PROBED_QUBITS))
        .map(|q| session.probability_of_one(q))
        .collect();
    let total = session.total_probability();
    tracer.end();
    for &p in &probabilities {
        digest.f64(p);
    }
    digest.f64(total);
    if (total - 1.0).abs() > 1e-9 {
        return Err(format!("{}: total probability {total}", job.name));
    }
    tracer.begin("exec.sample", request);
    let (histogram, distinct) = if job.num_qubits <= 64 {
        let sample = session
            .sample(job.shots, job.sample_seed)
            .map_err(|e| format!("{}: sample: {e}", job.name))?;
        let counts: Vec<(u64, u64)> = sample
            .histogram
            .counts()
            .iter()
            .map(|(&o, &c)| (o, c))
            .collect();
        let distinct = counts.len();
        (Some(counts), distinct)
    } else {
        // Registers wider than an outcome word: the CLI collapses a
        // checkpoint qubit by qubit and rolls back after every shot.
        let mut rng = StdRng::seed_from_u64(job.sample_seed);
        let checkpoint = session.snapshot();
        let mut shots = Vec::new();
        for _ in 0..job.shots {
            let bits: Vec<bool> = (0..job.num_qubits)
                .map(|q| session.measure_with(q, rng.gen_range(0.0..1.0)))
                .collect();
            session
                .restore(&checkpoint)
                .map_err(|e| format!("{}: restore: {e}", job.name))?;
            shots.push(bits);
        }
        session
            .discard(checkpoint)
            .map_err(|e| format!("{}: discard: {e}", job.name))?;
        for bits in &shots {
            for chunk in bits.chunks(64) {
                digest.u64(
                    chunk
                        .iter()
                        .rev()
                        .fold(0, |acc, &b| acc << 1 | u64::from(b)),
                );
            }
        }
        shots.sort();
        shots.dedup();
        (None, shots.len())
    };
    tracer.end();
    if let Some(counts) = &histogram {
        if counts.iter().map(|&(_, c)| c).sum::<u64>() != job.shots {
            return Err(format!("{}: histogram does not hold every shot", job.name));
        }
        for &(outcome, count) in counts {
            digest.u64(outcome);
            digest.u64(count);
        }
    }
    Ok(Readout {
        digest,
        probabilities,
        histogram,
        distinct,
    })
}

/// Runs one job the way the CLI does.  With tracing on, gates are streamed
/// through `Session::apply_gate` so each gate gets its own span; the run
/// span then also covers the `total_probability` that `Session::run`
/// computes.
pub fn run_job(
    job: &Job,
    threads: Option<usize>,
    tracer: &mut Tracer,
    request: u64,
) -> Result<JobRun, String> {
    let start = Instant::now();
    tracer.begin("job", request);
    tracer.begin("circuit.parse", request);
    let circuit = qasm::parse(&job.qasm).map_err(|e| format!("{}: parse: {e}", job.name))?;
    circuit
        .validate()
        .map_err(|e| format!("{}: validate: {e}", job.name))?;
    tracer.end();
    tracer.begin("exec.session_build", request);
    let mut session =
        Session::for_circuit(&circuit, cli_config(job, BackendKind::BitSlice, threads))
            .map_err(|e| format!("{}: session: {e}", job.name))?;
    tracer.end();
    tracer.begin("exec.run", request);
    if tracer.enabled() {
        for gate in circuit.iter() {
            tracer.begin(gate_span(gate), request);
            session
                .apply_gate(gate)
                .map_err(|e| format!("{}: {gate}: {e}", job.name))?;
            tracer.end();
        }
        session.total_probability();
    } else {
        session
            .run(&circuit)
            .map_err(|e| format!("{}: run: {e}", job.name))?;
    }
    tracer.end();
    let readout = query_and_sample(&mut session, job, tracer, request)?;
    tracer.end();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let bdd = session.stats().bdd;
    tracer.begin("check.exact", request);
    let exact = session
        .bitslice_mut()
        .is_some_and(|sim| sim.is_exactly_normalized());
    tracer.end();
    Ok(JobRun {
        digest: readout.digest.finish(),
        wall_ns,
        exact,
        sample_distinct: readout.distinct,
        bdd,
    })
}

/// Runs a small job on the dense backend and compares its probabilities
/// and histogram with the bit-sliced run's.
fn dense_agrees(job: &Job) -> Result<bool, String> {
    let circuit = qasm::parse(&job.qasm).map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for backend in [BackendKind::BitSlice, BackendKind::Dense] {
        let mut session = Session::for_circuit(&circuit, cli_config(job, backend, None))
            .map_err(|e| e.to_string())?;
        session.run(&circuit).map_err(|e| e.to_string())?;
        let mut off = Tracer::new(false, Instant::now());
        results.push(query_and_sample(&mut session, job, &mut off, 0)?);
    }
    let (exact, dense) = (&results[0], &results[1]);
    let close = exact
        .probabilities
        .iter()
        .zip(&dense.probabilities)
        .all(|(a, b)| (a - b).abs() < 1e-9);
    Ok(close && exact.histogram == dense.histogram)
}

/// The recorded digest of `job` at the default seed, if any.
fn reference_digest(name: &str) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let (job, digest) = line.split_once(' ')?;
        (job == name).then(|| u64::from_str_radix(digest.trim(), 16).ok())?
    })
}

/// Prints the reference file for the default seed, after checking every
/// job of at most 20 qubits against the dense backend.
pub fn record_reference() -> Result<(), String> {
    let jobs = setup(DEFAULT_SEED, Scale::Full)?;
    for job in &jobs {
        if job.num_qubits <= DENSE_CHECK_QUBITS && !dense_agrees(job)? {
            return Err(format!("{}: bit-sliced and dense results differ", job.name));
        }
        let mut off = Tracer::new(false, Instant::now());
        let run = run_job(job, None, &mut off, 0)?;
        if !run.exact {
            return Err(format!("{}: state is not exactly normalised", job.name));
        }
        println!("{} {:016x}", job.name, run.digest);
    }
    Ok(())
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    // Set-up is input generation plus the round-trip guard.  One untimed
    // round warms the allocator; the metric is the median sample.  The
    // host's speed drifts over seconds, so samples are spread over the run
    // (a few here, one after every job) rather than taken at once.
    let jobs = setup(config.seed, config.scale)?;
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        setup_s.push(setup_sample(config)?);
    }

    let epoch = Instant::now();
    let pid = std::process::id();
    let before = procfs::sample(pid).map_err(|e| e.to_string())?;
    let mut off = Tracer::new(false, epoch);
    let mut tracer = Tracer::new(true, epoch);
    let mut pass_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut digests: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut threads_peak = before.threads;
    let mut last_runs: Vec<JobRun>;
    let mut pass = 0u64;
    // Untraced passes give the end-to-end numbers.  A traced run makes one
    // untraced pass for the overhead baseline, then traced passes.
    loop {
        let traced = config.trace && pass > 0;
        let mut pass_ns = 0u64;
        let mut runs = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            attempted += 1;
            let request = pass * 100 + i as u64;
            let result = if traced {
                run_job(job, None, &mut tracer, request)
            } else {
                run_job(job, None, &mut off, request)
            };
            match result {
                Ok(run) => {
                    pass_ns += run.wall_ns;
                    job_ms[i].push(run.wall_ns as f64 / 1e6);
                    let first = *digests[i].get_or_insert(run.digest);
                    let problem = if !run.exact {
                        Some("state is not exactly normalised")
                    } else if first != run.digest {
                        Some("digest changed between passes")
                    } else {
                        None
                    };
                    if let Some(problem) = problem {
                        failed += 1;
                        failures.push(format!("{}: {problem}", job.name));
                    }
                    runs.push(run);
                }
                Err(error) => {
                    failed += 1;
                    job_ms[i].push(f64::INFINITY);
                    failures.push(error);
                }
            }
            if let Ok(now) = procfs::sample(pid) {
                threads_peak = threads_peak.max(now.threads);
            }
            setup_s.push(setup_sample(config)?);
        }
        eprintln!(
            "  pass {pass}: {:.3} s{}",
            pass_ns as f64 / 1e9,
            if traced { " (traced)" } else { "" }
        );
        if traced {
            traced_pass_s.push(pass_ns as f64 / 1e9);
        } else {
            pass_s.push(pass_ns as f64 / 1e9);
        }
        last_runs = runs;
        pass += 1;
        let done = epoch.elapsed().as_secs_f64() >= config.seconds;
        if done && (!config.trace || !traced_pass_s.is_empty()) {
            break;
        }
    }
    let elapsed_s = epoch.elapsed().as_secs_f64();
    let after = procfs::sample(pid).map_err(|e| e.to_string())?;

    // Output checks, outside the timed phase; each failed check counts as
    // one failed job.
    let mut check_failures = Vec::new();
    for (job, digest) in jobs.iter().zip(&digests) {
        let Some(digest) = digest else { continue };
        if config.seed == DEFAULT_SEED && config.scale == Scale::Full {
            match reference_digest(job.name) {
                Some(expected) if expected == *digest => {}
                Some(expected) => check_failures.push(format!(
                    "{}: digest {digest:016x}, reference {expected:016x}",
                    job.name
                )),
                None => check_failures.push(format!("{}: no reference digest", job.name)),
            }
        }
        if job.num_qubits <= DENSE_CHECK_QUBITS && !dense_agrees(job)? {
            check_failures.push(format!("{}: bit-sliced and dense results differ", job.name));
        }
    }
    failed += check_failures.len() as u64;
    failures.extend(check_failures);

    // A job's latency is its median over the passes, so one slow pass
    // does not decide the percentiles of a six-job sample.
    let mut sorted: Vec<f64> = job_ms.iter().map(|ms| median(ms)).collect();
    sorted.sort_by(f64::total_cmp);
    let mut metrics = Metrics::default();
    if !config.trace {
        metrics.push("setup_s", median(&setup_s), "s");
        metrics.push("wall_s", median(&pass_s), "s");
        metrics.push("rps", jobs.len() as f64 / median(&pass_s), "1/s");
        metrics.push("p50_ms", percentile(&sorted, 50.0), "ms");
        metrics.push("p99_ms", percentile(&sorted, 99.0), "ms");
        metrics.push("peak_rss_mib", after.peak_rss_mib, "MiB");
    } else {
        let passes = traced_pass_s.len() as f64;
        let layers = tracer.layers();
        let per_pass_ms =
            |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e6) / passes;
        let per_pass_us =
            |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e3) / passes;
        let covered = per_pass_ms("circuit.parse")
            + per_pass_ms("exec.run")
            + per_pass_ms("exec.query")
            + per_pass_ms("exec.sample");
        let traced_wall_ms = traced_pass_s.iter().sum::<f64>() * 1e3 / passes;
        metrics.push("circuit.parse_ms", per_pass_ms("circuit.parse"), "ms");
        metrics.push(
            "exec.session_build_us",
            per_pass_us("exec.session_build"),
            "us",
        );
        metrics.push("exec.fingerprint_us", 0.0, "us");
        metrics.push("exec.run_ms", per_pass_ms("exec.run"), "ms");
        metrics.push("exec.query_ms", per_pass_ms("exec.query"), "ms");
        metrics.push("exec.sample_ms", per_pass_ms("exec.sample"), "ms");
        metrics.push(
            "exec.sample_distinct",
            last_runs.iter().map(|r| r.sample_distinct as f64).sum(),
            "count",
        );
        metrics.push("exec.cache_hit_ratio", 0.0, "ratio");
        for bucket in GATE_BUCKETS {
            let span = format!("core.gate.{bucket}");
            let ms = layers
                .get(span.as_str())
                .map_or(0.0, |l| l.self_ns as f64 / 1e6)
                / passes;
            metrics.push_owned(format!("core.gate_ms.{bucket}"), ms, "ms");
        }
        push_bdd(
            &mut metrics,
            last_runs.iter().filter_map(|r| r.bdd.as_ref()),
        );
        push_serve_zeros(&mut metrics);
        let cpu_s = after.cpu_s - before.cpu_s;
        metrics.push("proc.cpu_s", cpu_s, "s");
        metrics.push("proc.cpu_util", cpu_s / elapsed_s, "cores");
        metrics.push(
            "proc.ctx_switches_invol",
            after
                .ctx_switches_invol
                .saturating_sub(before.ctx_switches_invol) as f64,
            "count",
        );
        metrics.push("proc.threads_peak", threads_peak as f64, "count");
        metrics.push("trace.covered_pct", 100.0 * covered / traced_wall_ms, "%");
        metrics.push(
            "trace.overhead_pct",
            100.0 * (median(&traced_pass_s) / median(&pass_s) - 1.0),
            "%",
        );
        for (name, layer) in &layers {
            eprintln!(
                "  span {name:<20} n={:<7} self {:>10.3} ms  total {:>10.3} ms",
                layer.count,
                layer.self_ns as f64 / 1e6,
                layer.total_ns as f64 / 1e6
            );
        }
        config.write_trace(&[&tracer])?;
    }
    for (job, run) in jobs.iter().zip(&last_runs) {
        eprintln!(
            "  {:<20} {:>3} qubits  {:>9.1} ms  digest {:016x}",
            job.name,
            job.num_qubits,
            run.wall_ns as f64 / 1e6,
            run.digest
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        failures,
        metrics,
    })
}

/// Kernel counters summed (or maxed, for peaks) over the given sessions.
pub fn push_bdd<'a>(
    metrics: &mut Metrics,
    sessions: impl Iterator<Item = &'a sliq_bdd::ManagerStats>,
) {
    let stats: Vec<&sliq_bdd::ManagerStats> = sessions.collect();
    let sum = |f: &dyn Fn(&sliq_bdd::ManagerStats) -> f64| stats.iter().map(|s| f(s)).sum::<f64>();
    let max =
        |f: &dyn Fn(&sliq_bdd::ManagerStats) -> f64| stats.iter().map(|s| f(s)).fold(0.0, f64::max);
    let (hits, lookups) = stats.iter().fold((0u64, 0u64), |(h, l), s| {
        let total = s.total_cache();
        (h + total.hits, l + total.hits + total.misses)
    });
    metrics.push(
        "bdd.created_nodes",
        sum(&|s| s.created_nodes as f64),
        "count",
    );
    metrics.push("bdd.peak_nodes", max(&|s| s.peak_nodes as f64), "count");
    metrics.push(
        "bdd.peak_mib",
        max(&|s| s.peak_bytes as f64 / 1048576.0),
        "MiB",
    );
    metrics.push("bdd.bytes_per_node", max(&|s| s.bytes_per_node()), "B");
    metrics.push(
        "bdd.op_cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    );
    metrics.push("bdd.gc_runs", sum(&|s| s.gc_runs as f64), "count");
    metrics.push(
        "bdd.unique_resizes",
        sum(&|s| s.unique_resizes as f64),
        "count",
    );
    metrics.push("bdd.reorders", sum(&|s| s.reorders as f64), "count");
    metrics.push(
        "bdd.reorder_swaps",
        sum(&|s| s.reorder_swaps as f64),
        "count",
    );
    metrics.push(
        "bdd.reorder_ms",
        sum(&|s| s.reorder_micros as f64 / 1e3),
        "ms",
    );
    metrics.push(
        "bdd.contention",
        sum(&|s| (s.unique_cas_retries + s.unique_dup_races + s.cache_write_skips) as f64),
        "count",
    );
    // 1 when any session ran the shared (CAS/seqlock) kernel, 0 when all
    // ran the serial one.
    metrics.push(
        "bdd.kernel_mode",
        max(&|s| f64::from(u8::from(s.kernel_mode == sliq_bdd::KernelMode::Shared))),
        "shared",
    );
}

/// The service-layer metrics, which the in-process CLI path does not touch.
fn push_serve_zeros(metrics: &mut Metrics) {
    for (name, unit) in crate::serve::SERVE_LAYER_METRICS {
        metrics.push(name, 0.0, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_digests_do_not_depend_on_the_thread_count() {
        let jobs = setup(5, Scale::Tiny).unwrap();
        for job in jobs.iter().take(2) {
            let mut off = Tracer::new(false, Instant::now());
            let one = run_job(job, Some(1), &mut off, 0).unwrap();
            let two = run_job(job, Some(2), &mut off, 0).unwrap();
            assert_eq!(one.digest, two.digest, "{}", job.name);
            assert!(one.exact && two.exact);
        }
    }

    #[test]
    fn traced_and_untraced_jobs_agree() {
        let jobs = setup(3, Scale::Tiny).unwrap();
        let job = &jobs[1];
        let mut off = Tracer::new(false, Instant::now());
        let mut on = Tracer::new(true, Instant::now());
        let plain = run_job(job, None, &mut off, 0).unwrap();
        let traced = run_job(job, None, &mut on, 0).unwrap();
        assert_eq!(plain.digest, traced.digest);
        assert!(on.layers().contains_key("core.gate.h"));
    }

    #[test]
    fn the_round_trip_guard_rejects_wide_multi_controlled_x() {
        let circuit = revlib_like::equality_comparator(4).with_superposition_inputs();
        let text = qasm::emit(&circuit);
        assert!(qasm::parse(&text).map_or(true, |parsed| parsed != circuit));
    }

    #[test]
    fn tiny_batch_smoke() {
        let config = RunConfig::for_test(Scale::Tiny, false);
        let outcome = run(&config).unwrap();
        assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
        assert!(outcome.metrics.get("wall_s").unwrap() > 0.0);
        let traced = run(&RunConfig::for_test(Scale::Tiny, true)).unwrap();
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
        assert!(traced.metrics.get("exec.run_ms").unwrap() > 0.0);
    }

    #[test]
    fn default_seed_jobs_of_dense_size_agree_with_the_dense_backend() {
        let jobs = setup(DEFAULT_SEED, Scale::Tiny).unwrap();
        for job in jobs.iter().filter(|j| j.num_qubits <= DENSE_CHECK_QUBITS) {
            assert!(dense_agrees(job).unwrap(), "{}", job.name);
        }
    }
}
