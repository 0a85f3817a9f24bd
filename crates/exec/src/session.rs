//! The [`Session`]: one owned backend, streamed gates, checkpoints and
//! batched sampling behind a single façade.
//!
//! A session is opened for a fixed qubit count with a [`SessionConfig`]
//! (backend choice, resource limits, reorder policy), fed gates or whole
//! circuits, and queried for probabilities, samples and structured
//! [`RunResult`]s.  All four workspace backends sit behind the same calls;
//! [`crate::BackendKind::Auto`] picks the backend from the circuit.

use crate::backend::BackendKind;
use crate::cache::{self, CacheKey, ResultCache, ResultCacheStats};
use crate::error::ExecError;
use crate::sample::{self, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliq_circuit::{Circuit, Gate, Simulator};
use sliq_core::{BitSliceLimits, BitSliceSimulator, StateSnapshot};
use sliq_dense::DenseSimulator;
use sliq_math::Complex;
use sliq_qmdd::{QmddLimits, QmddSimulator, QmddSnapshot};
use sliq_stabilizer::{StabilizerSimulator, Tableau};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`Session`].
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Which backend to own ([`BackendKind::Auto`] resolves per circuit in
    /// [`Session::for_circuit`], and to the bit-sliced backend in
    /// [`Session::new`]).
    pub backend: BackendKind,
    /// Live-node limit for the symbolic backends (`None` = unlimited);
    /// exceeding it fails the offending gate with [`ExecError::Resource`].
    pub max_nodes: Option<usize>,
    /// Byte budget for the backend state (`None` = unlimited).  On the
    /// bit-sliced backend the kernel accounts arena + unique subtables + op
    /// caches against it (and bounds its own sifting passes); exceeding it
    /// fails the offending gate with [`ExecError::CapacityExceeded`] while
    /// the session stays queryable and pre-limit snapshots restorable.  On
    /// the dense backend the projected `16·2ⁿ` footprint is checked at
    /// admission.
    pub max_bytes: Option<usize>,
    /// Enables automatic variable reordering on backends that support it.
    pub auto_reorder: bool,
    /// Collect per-qubit ⟨Z⟩ expectations into every [`RunResult`] (costs
    /// one probability query per qubit on symbolic backends).
    pub collect_expectations: bool,
    /// Attaches the process-wide [`ResultCache::global`] to the session:
    /// fresh-state [`Session::run`]/[`Session::sample`] calls are served
    /// from memoised results of *any* earlier session that ran the same
    /// canonical circuit under the same result-affecting configuration (see
    /// [`crate::cache`] for the keying and soundness argument).  Use
    /// [`Session::attach_result_cache`] to attach a private cache instead.
    pub use_result_cache: bool,
    /// Seed for mid-circuit measurement and reset randomness in dynamic
    /// circuits.  Runs are a deterministic function of circuit × seed, which
    /// makes dynamic circuits reproducible, cross-backend
    /// differential-testable, and result-cacheable (the seed is mixed into
    /// the cache key by [`crate::cache::dynamic_fingerprint`]).
    pub measurement_seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            backend: BackendKind::Auto,
            max_nodes: None,
            max_bytes: None,
            auto_reorder: false,
            collect_expectations: false,
            use_result_cache: false,
            measurement_seed: 0,
        }
    }
}

impl SessionConfig {
    /// Starts from defaults with an explicit backend.
    pub fn with_backend(backend: BackendKind) -> Self {
        Self {
            backend,
            ..Self::default()
        }
    }

    /// Sets the live-node limit (builder style).
    pub fn max_nodes(mut self, limit: usize) -> Self {
        self.max_nodes = Some(limit);
        self
    }

    /// Sets the byte budget (builder style); see
    /// [`SessionConfig::max_bytes`].
    pub fn max_bytes(mut self, limit: usize) -> Self {
        self.max_bytes = Some(limit);
        self
    }

    /// Enables automatic variable reordering (builder style).
    pub fn auto_reorder(mut self, enabled: bool) -> Self {
        self.auto_reorder = enabled;
        self
    }

    /// Enables ⟨Z⟩ expectation collection in run results (builder style).
    pub fn expectations(mut self, enabled: bool) -> Self {
        self.collect_expectations = enabled;
        self
    }

    /// Does nothing: every session runs on one thread, and parallelism
    /// comes from running independent sessions side by side.  Kept only
    /// because the repository benchmark (`sliqbench/`) still calls it; the
    /// next change to the benchmark removes it.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Attaches the process-wide result cache (builder style); see
    /// [`SessionConfig::use_result_cache`].
    pub fn result_cache(mut self, enabled: bool) -> Self {
        self.use_result_cache = enabled;
        self
    }

    /// Sets the seed for mid-circuit measurement randomness (builder
    /// style); see [`SessionConfig::measurement_seed`].
    pub fn measurement_seed(mut self, seed: u64) -> Self {
        self.measurement_seed = seed;
        self
    }
}

/// Representation statistics of a session's backend at a point in time.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Live representation nodes (symbolic backends only).
    pub live_nodes: Option<usize>,
    /// Peak allocated nodes over the session (symbolic backends only).
    pub peak_nodes: Option<usize>,
    /// Approximate peak memory of the state representation in MiB.
    pub memory_mib: f64,
    /// Full BDD kernel counters (bit-sliced backend only): cache hit rates,
    /// GC runs, reorder statistics.
    pub bdd: Option<sliq_bdd::ManagerStats>,
    /// Counters of the attached [`ResultCache`], when the session has one.
    /// Inside a cached [`RunResult`] these are the counters at *publish*
    /// time; call [`Session::stats`] for live values.
    pub result_cache: Option<ResultCacheStats>,
}

impl ExecStats {
    /// Reorder runs so far (0 for backends without reordering).
    pub fn reorders(&self) -> usize {
        self.bdd.as_ref().map_or(0, |s| s.reorders)
    }
}

/// The structured result of [`Session::run`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The concrete backend that executed the circuit.
    pub backend: BackendKind,
    /// Gates applied by this run.
    pub gates_applied: usize,
    /// Wall-clock time of this run.
    pub elapsed: Duration,
    /// The sum of all outcome probabilities after the run (1 up to float
    /// conversion for exact backends; drifts on floating-point backends).
    pub total_probability: f64,
    /// Per-qubit ⟨Z⟩ expectations (`1 − 2·Pr[q = 1]`), when
    /// [`SessionConfig::collect_expectations`] is set.
    pub expectations_z: Option<Vec<f64>>,
    /// Final classical-register contents for dynamic circuits (bit `i` is
    /// clbit `i`), `None` for circuits without dynamic operations.  The
    /// readout is a deterministic function of circuit ×
    /// [`SessionConfig::measurement_seed`].
    pub readout: Option<Vec<bool>>,
    /// Representation statistics at the end of the run.
    pub stats: ExecStats,
}

impl RunResult {
    /// Deviation of the total probability from 1 — the paper's "error"
    /// criterion for floating-point backends.
    pub fn probability_error(&self) -> f64 {
        (self.total_probability - 1.0).abs()
    }
}

/// The result of one [`Session::sample`] call.
#[derive(Debug, Clone)]
pub struct SampleResult {
    /// The backend that sampled.
    pub backend: BackendKind,
    /// Number of shots drawn.
    pub shots: u64,
    /// Wall-clock time of the batched sampling.
    pub elapsed: Duration,
    /// Outcome counts, behind [`Arc`] so cache hits (and plain clones)
    /// share the histogram instead of deep-copying its counts.
    pub histogram: Arc<Histogram>,
}

impl SampleResult {
    /// Sampling throughput.
    pub fn shots_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.shots as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

enum Inner {
    BitSlice(Box<BitSliceSimulator>),
    Dense(Box<DenseSimulator>),
    Qmdd(Box<QmddSimulator>),
    Stabilizer(Box<StabilizerSimulator>),
}

enum SnapshotInner {
    BitSlice(StateSnapshot),
    Dense(Vec<Complex>),
    Qmdd(QmddSnapshot),
    Stabilizer(Box<Tableau>),
}

/// A session checkpoint taken by [`Session::snapshot`].
///
/// Snapshots are cheap for every backend (pinned roots for the symbolic
/// backends, a vector/tableau copy otherwise), survive any number of later
/// gates and measurements, and can be restored repeatedly.  Call
/// [`Session::discard`] when done; an undiscarded symbolic snapshot keeps
/// its nodes pinned until the session is dropped.
pub struct Snapshot {
    backend: &'static str,
    /// The [`Session::id`] this snapshot belongs to — symbolic snapshots
    /// hold manager-internal handles that are meaningless anywhere else.
    session_id: u64,
    gates_applied: usize,
    /// The result-cache state flags at capture time, restored alongside the
    /// backend state so a restored session keeps (or regains) its cache
    /// eligibility.
    pristine: bool,
    state_fingerprint: Option<u128>,
    inner: SnapshotInner,
}

/// A simulation session owning one backend.
///
/// ```
/// use sliq_exec::{Session, SessionConfig, BackendKind};
/// use sliq_circuit::Circuit;
///
/// let mut circuit = Circuit::new(2);
/// circuit.h(0).cx(0, 1);
/// // Auto picks the stabilizer backend: the circuit is Clifford-only.
/// let mut session = Session::for_circuit(&circuit, SessionConfig::default())?;
/// assert_eq!(session.kind(), BackendKind::Stabilizer);
/// session.run(&circuit)?;
/// // 1000 measurement shots from the one simulated state.
/// let sample = session.sample(1000, 42)?;
/// assert_eq!(sample.histogram.count_of(0b00) + sample.histogram.count_of(0b11), 1000);
/// # Ok::<(), sliq_exec::ExecError>(())
/// ```
pub struct Session {
    kind: BackendKind,
    /// Process-unique id tying snapshots to the session that took them.
    id: u64,
    inner: Inner,
    config: SessionConfig,
    num_qubits: usize,
    gates_applied: usize,
    /// The attached circuit-level result cache, if any (see [`crate::cache`]
    /// for the keying and soundness argument).
    result_cache: Option<Arc<ResultCache>>,
    /// `true` while the backend state is provably `|0…0⟩` with no gate,
    /// measurement or raw-backend access since construction (or since a
    /// restore to a pristine checkpoint).  [`Session::run`] consults the
    /// result cache only in this state.
    pristine: bool,
    /// When the current state is known to be exactly "one `run(C)` applied
    /// to `|0…0⟩`", the canonical fingerprint of `C` — the key under which
    /// [`Session::sample`] may consult the result cache.  Cleared by any
    /// state mutation outside that shape.
    state_fingerprint: Option<u128>,
    /// A run served from the cache leaves the backend untouched; the
    /// circuit is parked here and replayed lazily by [`Session::materialize`]
    /// on the first state-dependent operation.
    pending_replay: Option<Circuit>,
}

/// Source of process-unique session ids.
static NEXT_SESSION_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Interprets a whole circuit — including the dynamic operations
/// [`Gate::Measure`], [`Gate::Reset`] and [`Gate::Conditional`], which no
/// backend implements natively — against a backend, returning the number of
/// operations executed and the final classical register (`None` for static
/// circuits).  The circuit must be valid ([`Circuit::validate`]):
/// [`Session::run`] checks it before anything reads it, and a cache-hit
/// replay repeats a circuit that a run has checked.
///
/// Dynamic operations consume randomness from a private
/// `StdRng::seed_from_u64(measurement_seed)` stream, one draw per
/// measurement or reset *in program order regardless of outcome*, so the
/// trajectory is a deterministic function of circuit × seed: two backends
/// computing the same probabilities collapse identically under the same
/// seed, and a cache-hit replay with the same seed reproduces the published
/// trajectory exactly.
fn interpret_circuit(
    sim: &mut dyn Simulator,
    circuit: &Circuit,
    measurement_seed: u64,
) -> Result<(usize, Option<Vec<bool>>), ExecError> {
    if !circuit.is_dynamic() {
        let mut gates = 0usize;
        for gate in circuit.iter() {
            sim.apply_gate(gate)?;
            gates += 1;
        }
        return Ok((gates, None));
    }
    let mut creg = vec![false; circuit.num_clbits()];
    let mut rng = StdRng::seed_from_u64(measurement_seed);
    let mut ops = 0usize;
    for gate in circuit.iter() {
        match gate {
            Gate::Measure { qubit, clbit } => {
                let u = rng.gen_range(0.0..1.0);
                creg[*clbit] = sim.measure_with(*qubit, u);
            }
            Gate::Reset { qubit } => {
                let u = rng.gen_range(0.0..1.0);
                if sim.measure_with(*qubit, u) {
                    sim.apply_gate(&Gate::X(*qubit))?;
                }
            }
            Gate::Conditional {
                offset,
                width,
                value,
                gate,
            } => {
                let mut current = 0u64;
                for j in 0..*width {
                    if creg[offset + j] {
                        current |= 1 << j;
                    }
                }
                if current == *value {
                    sim.apply_gate(gate)?;
                }
            }
            unitary => sim.apply_gate(unitary)?,
        }
        ops += 1;
    }
    Ok((ops, Some(creg)))
}

impl Session {
    /// Opens a session over `num_qubits` qubits with an explicit backend.
    /// [`BackendKind::Auto`] falls back to the bit-sliced backend here —
    /// without a circuit there is nothing to negotiate against; use
    /// [`Session::for_circuit`] for capability-based selection.
    pub fn new(num_qubits: usize, config: SessionConfig) -> Result<Self, ExecError> {
        let kind = match config.backend {
            BackendKind::Auto => BackendKind::BitSlice,
            concrete => concrete,
        };
        kind.check_capacity(num_qubits, config.max_bytes)?;
        let inner = match kind {
            BackendKind::BitSlice => Inner::BitSlice(Box::new(
                BitSliceSimulator::new(num_qubits)
                    .with_limits(BitSliceLimits {
                        max_nodes: config.max_nodes,
                        max_bytes: config.max_bytes,
                    })
                    .with_auto_reorder(config.auto_reorder),
            )),
            BackendKind::Qmdd => Inner::Qmdd(Box::new(QmddSimulator::new(num_qubits).with_limits(
                QmddLimits {
                    max_nodes: config.max_nodes,
                },
            ))),
            BackendKind::Dense => Inner::Dense(Box::new(DenseSimulator::new(num_qubits))),
            BackendKind::Stabilizer => {
                Inner::Stabilizer(Box::new(StabilizerSimulator::new(num_qubits)))
            }
            BackendKind::Auto => unreachable!("resolved above"),
        };
        Ok(Self {
            kind,
            id: NEXT_SESSION_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            inner,
            config,
            num_qubits,
            gates_applied: 0,
            result_cache: config
                .use_result_cache
                .then(|| ResultCache::global().clone()),
            pristine: true,
            state_fingerprint: None,
            pending_replay: None,
        })
    }

    /// Attaches a result cache (replacing any earlier attachment, including
    /// the global one selected by [`SessionConfig::use_result_cache`]).
    /// Sharing one cache across sessions — and threads — is the intended
    /// use; see [`crate::cache`].
    pub fn attach_result_cache(&mut self, cache: Arc<ResultCache>) {
        self.result_cache = Some(cache);
    }

    /// The attached result cache, if any.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.result_cache.as_ref()
    }

    /// Replays a cache-hit circuit into the backend, if one is pending.
    /// Called by every state-dependent operation, so callers never observe
    /// the unmaterialised backend.  Gate counters are untouched — the hit
    /// already accounted for them.
    ///
    /// Replay cannot fail: the `max_nodes` and `max_bytes` budgets are part
    /// of the run cache key, so a hit implies the publishing session
    /// completed this exact circuit under the same limits from the same
    /// initial state, and the single-owner kernel repeats the publisher's
    /// work exactly — the same nodes, cache traffic, GC runs and byte peak
    /// (`tests/result_cache.rs`,
    /// `cache_hit_replay_repeats_the_publishers_kernel_work`).  Dynamic
    /// circuits replay through the same seeded interpreter (the measurement
    /// seed is part of the run cache key), so the replayed trajectory is
    /// bit-identical to the published one.
    fn materialize(&mut self) {
        if let Some(circuit) = self.pending_replay.take() {
            let seed = self.config.measurement_seed;
            interpret_circuit(self.sim(), &circuit, seed)
                .expect("cached-run replay exceeded the budget its publisher ran under");
        }
    }

    /// The run-entry cache key for this session's configuration.
    fn run_key(&self, fingerprint: u128) -> CacheKey {
        CacheKey::run(
            fingerprint,
            self.kind,
            self.config.collect_expectations,
            self.config.auto_reorder,
            self.config.max_nodes,
            self.config.max_bytes,
        )
    }

    /// Opens a session negotiated for `circuit`: resolves
    /// [`BackendKind::Auto`] (stabilizer for Clifford-only circuits,
    /// bit-sliced otherwise) and fails fast with the capability verdict if
    /// the requested backend cannot serve the circuit.  Does **not** run the
    /// circuit; call [`Session::run`] next.
    pub fn for_circuit(circuit: &Circuit, config: SessionConfig) -> Result<Self, ExecError> {
        config.backend.check_circuit(circuit)?;
        let resolved = config.backend.resolve(circuit);
        Self::new(
            circuit.num_qubits(),
            SessionConfig {
                backend: resolved,
                ..config
            },
        )
    }

    /// The concrete backend this session owns.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The backend's `Simulator::name`.
    pub fn backend_name(&self) -> &'static str {
        self.kind.name()
    }

    /// The session's qubit count.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total gates applied over the session's lifetime (rolled back by
    /// [`Session::restore`]).
    pub fn gates_applied(&self) -> usize {
        self.gates_applied
    }

    fn sim(&mut self) -> &mut dyn Simulator {
        match &mut self.inner {
            Inner::BitSlice(s) => s.as_mut(),
            Inner::Dense(s) => s.as_mut(),
            Inner::Qmdd(s) => s.as_mut(),
            Inner::Stabilizer(s) => s.as_mut(),
        }
    }

    /// Applies a single gate (streaming interface).  Streaming makes the
    /// state an arbitrary composition, so it permanently disqualifies the
    /// session from result-cache lookups (the cache only describes whole
    /// circuits applied to `|0…0⟩`).
    ///
    /// Dynamic operations are rejected here: they need the classical
    /// register and the seeded measurement stream that only whole-circuit
    /// execution carries.  Run them through [`Session::run`], or collapse
    /// qubits directly with [`Session::measure_with`].  A gate on a qubit
    /// outside the session, or with a repeated operand, fails with
    /// [`ExecError::Circuit`] and leaves the state untouched.
    pub fn apply_gate(&mut self, gate: &Gate) -> Result<(), ExecError> {
        if gate.is_dynamic() {
            return Err(ExecError::Unsupported {
                backend: self.kind.name(),
                what: format!(
                    "streaming the dynamic operation `{gate}` (run it inside a circuit \
                     via Session::run, or use Session::measure_with)"
                ),
            });
        }
        // Backends index their state by the operands and assume them
        // distinct, so a streamed gate is checked like a circuit's.
        gate.check_operands(self.num_qubits, self.gates_applied)?;
        self.materialize();
        self.pristine = false;
        self.state_fingerprint = None;
        self.sim().apply_gate(gate)?;
        self.gates_applied += 1;
        Ok(())
    }

    /// Applies every gate of `circuit` and returns a structured
    /// [`RunResult`] (timing, total probability, representation statistics,
    /// optional per-qubit ⟨Z⟩ expectations).
    ///
    /// Dynamic circuits — those containing [`Gate::Measure`],
    /// [`Gate::Reset`] or [`Gate::Conditional`] — are interpreted by the
    /// session: measurements collapse the state through the backend's
    /// `measure_with`, outcomes land in a classical register returned as
    /// [`RunResult::readout`], and conditioned gates fire on the live
    /// register contents.  The whole trajectory is a deterministic function
    /// of circuit × [`SessionConfig::measurement_seed`].
    ///
    /// With a result cache attached and the session still pristine, the
    /// call first consults the cache under the circuit's canonical
    /// fingerprint: a hit returns the memoised result with **zero backend
    /// simulation** (the circuit is replayed lazily only if a later
    /// operation needs the concrete state); a miss simulates and publishes.
    /// A cached result carries its publisher's `stats` and timing-free
    /// counters verbatim, with `elapsed` rewritten to the lookup time.
    ///
    /// A circuit that fails [`Circuit::validate`] (a qubit outside the
    /// session, a repeated operand, a malformed dynamic operation) fails
    /// with [`ExecError::Circuit`] before anything runs.
    pub fn run(&mut self, circuit: &Circuit) -> Result<RunResult, ExecError> {
        if circuit.num_qubits() != self.num_qubits {
            return Err(ExecError::QubitMismatch {
                session: self.num_qubits,
                circuit: circuit.num_qubits(),
            });
        }
        // Before the cache fingerprints the circuit or a backend indexes its
        // state (or the dynamic interpreter its classical register) by the
        // operands.
        circuit.validate()?;
        // Soundness gate: only a pristine session may consult or publish —
        // a cached entry describes `circuit` applied to `|0…0⟩` and nothing
        // else (see `crate::cache`).  Dynamic circuits are keyed by
        // circuit × measurement seed: different seeds take different
        // measurement trajectories and must never share an entry.
        let consulted = if self.pristine {
            self.result_cache.clone().map(|c| {
                let fingerprint = cache::circuit_fingerprint(circuit);
                let fingerprint = if circuit.is_dynamic() {
                    cache::dynamic_fingerprint(fingerprint, self.config.measurement_seed)
                } else {
                    fingerprint
                };
                (c, fingerprint)
            })
        } else {
            None
        };
        if let Some((cache, fingerprint)) = &consulted {
            let lookup = Instant::now();
            if let Some(entry) = cache.get_run(self.run_key(*fingerprint)) {
                self.pristine = false;
                self.state_fingerprint = Some(*fingerprint);
                self.pending_replay = Some(circuit.clone());
                self.gates_applied += entry.gates_applied;
                let mut result = RunResult::clone(&entry);
                result.elapsed = lookup.elapsed();
                return Ok(result);
            }
        }
        let collect_expectations = self.collect_expectations_enabled();
        self.materialize();
        self.pristine = false;
        self.state_fingerprint = None;
        let start = Instant::now();
        let seed = self.config.measurement_seed;
        let (gates, readout) = interpret_circuit(self.sim(), circuit, seed)?;
        self.gates_applied += gates;
        let total_probability = self.sim().total_probability();
        let expectations_z = if collect_expectations {
            Some(
                (0..self.num_qubits)
                    .map(|q| 1.0 - 2.0 * self.sim().probability_of_one(q))
                    .collect(),
            )
        } else {
            None
        };
        let elapsed = start.elapsed();
        let result = RunResult {
            backend: self.kind,
            gates_applied: gates,
            elapsed,
            total_probability,
            expectations_z,
            readout,
            stats: self.stats(),
        };
        if let Some((cache, fingerprint)) = consulted {
            // The run started pristine and completed: the state is exactly
            // `circuit` from `|0…0⟩`, so the result is publishable and the
            // state fingerprint is known for sample-entry lookups.
            self.state_fingerprint = Some(fingerprint);
            cache.put_run(self.run_key(fingerprint), Arc::new(result.clone()));
        }
        Ok(result)
    }

    fn collect_expectations_enabled(&self) -> bool {
        self.config.collect_expectations
    }

    /// The probability of measuring `|1⟩` on `qubit`.
    pub fn probability_of_one(&mut self, qubit: usize) -> f64 {
        self.materialize();
        self.sim().probability_of_one(qubit)
    }

    /// The probability of observing the full basis state `bits`.
    pub fn probability_of_basis_state(&mut self, bits: &[bool]) -> f64 {
        self.materialize();
        self.sim().probability_of_basis_state(bits)
    }

    /// The ⟨Z⟩ expectation of one qubit.
    pub fn expectation_z(&mut self, qubit: usize) -> f64 {
        self.materialize();
        1.0 - 2.0 * self.sim().probability_of_one(qubit)
    }

    /// The sum of all outcome probabilities.
    pub fn total_probability(&mut self) -> f64 {
        self.materialize();
        self.sim().total_probability()
    }

    /// Measures `qubit` with the supplied uniform random value, collapsing
    /// the session state (and thus ending its result-cache eligibility).
    pub fn measure_with(&mut self, qubit: usize, u: f64) -> bool {
        self.materialize();
        self.pristine = false;
        self.state_fingerprint = None;
        self.sim().measure_with(qubit, u)
    }

    /// Draws `shots` full-register measurement shots from the current state
    /// **without re-simulating the circuit and without collapsing the
    /// state**; see [`crate::sample`] for the per-backend mechanics.  Shots
    /// are reproducible: the same `seed` yields the same histogram, and
    /// backends computing identical probabilities yield identical
    /// histograms under a shared seed.  Fails with [`ExecError::Resource`]
    /// when the `8·shots`-byte buffer of uniform draws cannot be allocated.
    pub fn sample(&mut self, shots: u64, seed: u64) -> Result<SampleResult, ExecError> {
        if self.num_qubits > 64 {
            return Err(ExecError::Unsupported {
                backend: self.kind.name(),
                what: format!(
                    "sampling over {} qubits (outcome words hold 64)",
                    self.num_qubits
                ),
            });
        }
        // Soundness gate: sample entries describe the state "one `run(C)`
        // from `|0…0⟩`"; `state_fingerprint` is `Some` exactly then.
        let consulted = match (&self.result_cache, self.state_fingerprint) {
            (Some(cache), Some(fingerprint)) => Some((cache.clone(), fingerprint)),
            _ => None,
        };
        if let Some((cache, fingerprint)) = &consulted {
            let lookup = Instant::now();
            if let Some(histogram) =
                cache.get_sample(CacheKey::sample(*fingerprint, self.kind, shots, seed))
            {
                return Ok(SampleResult {
                    backend: self.kind,
                    shots,
                    elapsed: lookup.elapsed(),
                    histogram,
                });
            }
        }
        self.materialize();
        let start = Instant::now();
        let draws = sample::uniform_draws(shots, seed).map_err(|_| ExecError::Resource {
            backend: self.kind.name(),
            detail: format!("no memory for the draw buffer of {shots} shots"),
        })?;
        let histogram = Arc::new(match &mut self.inner {
            Inner::BitSlice(s) => sample::sample_bitslice(s, draws),
            Inner::Dense(s) => sample::sample_dense(s, draws),
            Inner::Qmdd(s) => sample::sample_qmdd(s, draws),
            Inner::Stabilizer(s) => sample::sample_stabilizer(s, draws),
        });
        let elapsed = start.elapsed();
        if let Some((cache, fingerprint)) = consulted {
            // Sampling never collapses the state, so the fingerprint is
            // still valid and the histogram is publishable.
            cache.put_sample(
                CacheKey::sample(fingerprint, self.kind, shots, seed),
                histogram.clone(),
            );
        }
        Ok(SampleResult {
            backend: self.kind,
            shots,
            elapsed,
            histogram,
        })
    }

    /// Captures a checkpoint of the session state.
    pub fn snapshot(&mut self) -> Snapshot {
        self.materialize();
        let inner = match &mut self.inner {
            Inner::BitSlice(s) => SnapshotInner::BitSlice(s.snapshot()),
            Inner::Dense(s) => SnapshotInner::Dense(s.snapshot()),
            Inner::Qmdd(s) => SnapshotInner::Qmdd(s.snapshot()),
            Inner::Stabilizer(s) => SnapshotInner::Stabilizer(Box::new(s.snapshot())),
        };
        Snapshot {
            backend: self.kind.name(),
            session_id: self.id,
            gates_applied: self.gates_applied,
            pristine: self.pristine,
            state_fingerprint: self.state_fingerprint,
            inner,
        }
    }

    /// Rolls the session back to `snapshot` (which stays valid for further
    /// restores until [`Session::discard`]).  The snapshot must come from
    /// *this* session: symbolic snapshots hold manager-internal handles, so
    /// restoring one into any other session — even of the same backend kind
    /// — is rejected rather than silently corrupting state.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), ExecError> {
        if snapshot.session_id != self.id {
            return Err(ExecError::ForeignSnapshot {
                backend: self.kind.name(),
            });
        }
        match (&mut self.inner, &snapshot.inner) {
            (Inner::BitSlice(s), SnapshotInner::BitSlice(snap)) => s.restore(snap),
            (Inner::Dense(s), SnapshotInner::Dense(snap)) => s.restore(snap),
            (Inner::Qmdd(s), SnapshotInner::Qmdd(snap)) => s.restore(snap),
            (Inner::Stabilizer(s), SnapshotInner::Stabilizer(snap)) => s.restore(snap),
            _ => {
                return Err(ExecError::SnapshotMismatch {
                    session: self.kind.name(),
                    snapshot: snapshot.backend,
                })
            }
        }
        self.gates_applied = snapshot.gates_applied;
        // The backend now holds the checkpoint state, so any unmaterialised
        // cache-hit replay is obsolete, and the cache flags are exactly
        // those captured with the checkpoint (snapshots materialise first).
        self.pending_replay = None;
        self.pristine = snapshot.pristine;
        self.state_fingerprint = snapshot.state_fingerprint;
        Ok(())
    }

    /// Releases a checkpoint (unpinning symbolic-backend roots).  Fails on
    /// a snapshot from another session — its pins index that session's
    /// manager, so releasing them here would unpin the wrong nodes.
    pub fn discard(&mut self, snapshot: Snapshot) -> Result<(), ExecError> {
        if snapshot.session_id != self.id {
            return Err(ExecError::ForeignSnapshot {
                backend: self.kind.name(),
            });
        }
        match (&mut self.inner, snapshot.inner) {
            (Inner::BitSlice(s), SnapshotInner::BitSlice(snap)) => s.release_snapshot(snap),
            (Inner::Qmdd(s), SnapshotInner::Qmdd(snap)) => s.release(snap),
            // Dense / stabilizer snapshots are plain copies; dropping frees
            // them.  (Kind mismatch with a matching session id cannot occur:
            // the id pins the snapshot to this very session.)
            _ => {}
        }
        Ok(())
    }

    /// Current representation statistics (node counts, memory estimate and
    /// — on the bit-sliced backend — the full BDD kernel counters).
    pub fn stats(&self) -> ExecStats {
        const MIB: f64 = 1024.0 * 1024.0;
        let mut stats = match &self.inner {
            Inner::BitSlice(s) => {
                let kernel = s.state().manager().stats();
                ExecStats {
                    live_nodes: Some(s.node_count()),
                    peak_nodes: Some(kernel.peak_nodes),
                    // The kernel tracks its exact footprint (arena +
                    // subtables + op caches), so no estimate is needed.
                    memory_mib: kernel.peak_bytes as f64 / MIB,
                    bdd: Some(kernel),
                    result_cache: None,
                }
            }
            Inner::Qmdd(s) => {
                let bytes = self
                    .kind
                    .capabilities()
                    .bytes_per_node
                    .expect("qmdd has a node memory model");
                ExecStats {
                    live_nodes: Some(s.node_count()),
                    peak_nodes: Some(s.peak_nodes()),
                    memory_mib: s.peak_nodes() as f64 * bytes / MIB,
                    bdd: None,
                    result_cache: None,
                }
            }
            Inner::Dense(_) => ExecStats {
                live_nodes: None,
                peak_nodes: None,
                memory_mib: (1u64 << self.num_qubits) as f64 * 16.0 / MIB,
                bdd: None,
                result_cache: None,
            },
            Inner::Stabilizer(_) => ExecStats {
                live_nodes: None,
                peak_nodes: None,
                memory_mib: (2 * self.num_qubits * self.num_qubits) as f64 * 2.0 / MIB,
                bdd: None,
                result_cache: None,
            },
        };
        stats.result_cache = self.result_cache.as_ref().map(|c| c.stats());
        stats
    }

    /// Raw-backend access hands out `&mut`: the caller can mutate the state
    /// arbitrarily, so the session permanently loses result-cache
    /// eligibility.
    fn on_raw_access(&mut self) {
        self.materialize();
        self.pristine = false;
        self.state_fingerprint = None;
    }

    /// The underlying bit-sliced simulator, when that is the owned backend
    /// (for backend-specific features: exact amplitudes, manual reordering).
    pub fn bitslice_mut(&mut self) -> Option<&mut BitSliceSimulator> {
        self.on_raw_access();
        match &mut self.inner {
            Inner::BitSlice(s) => Some(s),
            _ => None,
        }
    }

    /// The underlying dense simulator, when that is the owned backend.
    pub fn dense_mut(&mut self) -> Option<&mut DenseSimulator> {
        self.on_raw_access();
        match &mut self.inner {
            Inner::Dense(s) => Some(s),
            _ => None,
        }
    }

    /// The underlying QMDD simulator, when that is the owned backend.
    pub fn qmdd_mut(&mut self) -> Option<&mut QmddSimulator> {
        self.on_raw_access();
        match &mut self.inner {
            Inner::Qmdd(s) => Some(s),
            _ => None,
        }
    }

    /// The underlying stabilizer simulator, when that is the owned backend.
    pub fn stabilizer_mut(&mut self) -> Option<&mut StabilizerSimulator> {
        self.on_raw_access();
        match &mut self.inner {
            Inner::Stabilizer(s) => Some(s),
            _ => None,
        }
    }
}
