//! The canonical-circuit result cache: memoised [`RunResult`]s and sampling
//! histograms behind a stable circuit fingerprint.
//!
//! Under serving-style traffic most requests are the *same few circuits*;
//! the fastest simulation is the one that never runs.  This module provides
//! [`ResultCache`], a byte-budgeted, LRU-evicting store that a
//! [`crate::Session`] consults before simulating:
//!
//! * **run entries** — the full [`RunResult`] of executing a circuit from
//!   the all-zero initial state, shared behind an [`Arc`];
//! * **sample entries** — the [`Histogram`] of a `(shots, seed)` batched
//!   sampling call on that state, shared behind an [`Arc`] so a hit never
//!   deep-copies the outcome counts.
//!
//! # Keying
//!
//! Entries are keyed by a **128-bit fingerprint of the canonical circuit**
//! ([`circuit_fingerprint`]): the circuit is first normalised by the
//! peephole rewriter
//! ([`sliq_circuit::optimize`](fn@sliq_circuit::optimize), iterated to a
//! fixed point, so circuits differing only by redundant gate pairs share an
//! entry), then
//! the qubit count, gate count and every gate — tag plus operand list — are
//! folded through a 128-bit FNV-1a hash.  The fingerprint is combined with
//! every *result-affecting* configuration knob:
//!
//! * the **concrete backend** (after `Auto` resolution) — float backends
//!   drift differently from exact ones, so they never share entries;
//! * for run entries: the ⟨Z⟩-expectation flag (it changes the payload),
//!   the auto-reorder flag and the node limit (they change the *statistics*
//!   and whether the run completes at all — a session with a smaller node
//!   budget must not be served a result it could not have computed, because
//!   a later state query would replay the circuit under its own limits);
//! * for sample entries: the exact shot count and seed (the histogram is a
//!   deterministic function of state × shots × seed);
//! * for **dynamic circuits** (mid-circuit measurement, reset,
//!   feed-forward): the measurement seed, mixed into the fingerprint by
//!   [`dynamic_fingerprint`] — the readout and the post-run state are a
//!   deterministic function of circuit × seed, so two runs of the same
//!   dynamic circuit under different seeds must never share an entry.
//!
//! Statistics embedded in a cached [`RunResult`] are those of the
//! *publishing* run (its node counts, timings); a hit returns them verbatim
//! with only `elapsed` rewritten to the lookup time.  The kernel is
//! deterministic, so a replay repeats the publisher's kernel work exactly
//! (`tests/result_cache.rs`,
//! `cache_hit_replay_repeats_the_publishers_kernel_work`).
//!
//! # Soundness
//!
//! A cached entry describes "circuit `C` applied to `|0…0⟩`".  The session
//! layer therefore only consults the cache when that is provably the state:
//!
//! * `run` consults only while the session is **pristine** — freshly
//!   constructed (or restored to a pristine checkpoint) with no gate,
//!   measurement or raw-backend access in between; the first `run`, hit or
//!   miss, clears the flag.
//! * `sample` consults only while the current state is known to be exactly
//!   "one `run(C)` from pristine" (tracked as the session's state
//!   fingerprint); any streamed gate, measurement, restore or raw-backend
//!   access clears it.
//!
//! Streamed `apply_gate` sessions therefore never hit the cache, and a
//! cached result can never be served for a mutated state.  On a `run` hit
//! the backend state is *not* materialised (that is the whole point); the
//! session records the circuit and replays it lazily on the first
//! state-dependent query, so the hit path of a run-then-sample request does
//! zero simulation while probability queries remain exact.
//!
//! Memory is bounded: every insertion is charged an approximate byte size
//! (struct size + expectation vector for run entries, struct size + outcome
//! count for sample entries, plus fixed key/bookkeeping overhead), and the
//! least-recently-used entries are evicted until the configured budget
//! holds.  Hits, misses, insertions, evictions, entry count and resident
//! bytes are observable through [`ResultCache::stats`] and flow into
//! [`crate::ExecStats`] and the bench harness's `tables -- serve` report.

use crate::backend::BackendKind;
use crate::sample::Histogram;
use crate::session::RunResult;
use sliq_circuit::{optimize, Circuit, Gate};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------- //
// Canonical circuit fingerprint
// ---------------------------------------------------------------------- //

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental 128-bit FNV-1a hasher over an explicit byte encoding.
///
/// Hand-rolled (rather than `std::hash`) so the fingerprint is a *stable*
/// function of the circuit alone — independent of `SipHash` keys, compiler
/// version and platform — which makes cache keys meaningful across
/// processes and in persisted bench snapshots.
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u128::from(byte)).wrapping_mul(FNV_PRIME);
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// Folds one gate into the fingerprint: a tag byte, then the operands.
/// Variable-length operand lists are length-prefixed so `Toffoli{[1,2],3}`
/// can never collide with `Toffoli{[1],2}… ` shifted encodings.
fn write_gate(h: &mut Fnv128, gate: &Gate) {
    match gate {
        Gate::X(q) => {
            h.write_u8(1);
            h.write_usize(*q);
        }
        Gate::Y(q) => {
            h.write_u8(2);
            h.write_usize(*q);
        }
        Gate::Z(q) => {
            h.write_u8(3);
            h.write_usize(*q);
        }
        Gate::H(q) => {
            h.write_u8(4);
            h.write_usize(*q);
        }
        Gate::S(q) => {
            h.write_u8(5);
            h.write_usize(*q);
        }
        Gate::Sdg(q) => {
            h.write_u8(6);
            h.write_usize(*q);
        }
        Gate::T(q) => {
            h.write_u8(7);
            h.write_usize(*q);
        }
        Gate::Tdg(q) => {
            h.write_u8(8);
            h.write_usize(*q);
        }
        Gate::RxPi2(q) => {
            h.write_u8(9);
            h.write_usize(*q);
        }
        Gate::RyPi2(q) => {
            h.write_u8(10);
            h.write_usize(*q);
        }
        Gate::Cnot { control, target } => {
            h.write_u8(11);
            h.write_usize(*control);
            h.write_usize(*target);
        }
        Gate::Cz { control, target } => {
            h.write_u8(12);
            h.write_usize(*control);
            h.write_usize(*target);
        }
        Gate::Toffoli { controls, target } => {
            h.write_u8(13);
            h.write_usize(controls.len());
            for c in controls {
                h.write_usize(*c);
            }
            h.write_usize(*target);
        }
        Gate::Fredkin {
            controls,
            target1,
            target2,
        } => {
            h.write_u8(14);
            h.write_usize(controls.len());
            for c in controls {
                h.write_usize(*c);
            }
            h.write_usize(*target1);
            h.write_usize(*target2);
        }
        Gate::Measure { qubit, clbit } => {
            h.write_u8(15);
            h.write_usize(*qubit);
            h.write_usize(*clbit);
        }
        Gate::Reset { qubit } => {
            h.write_u8(16);
            h.write_usize(*qubit);
        }
        Gate::Conditional {
            offset,
            width,
            value,
            gate,
        } => {
            h.write_u8(17);
            h.write_usize(*offset);
            h.write_usize(*width);
            h.write_u64(*value);
            write_gate(h, gate);
        }
    }
}

/// The stable 128-bit fingerprint of a circuit's **canonical form**.
///
/// The circuit is normalised with
/// [`sliq_circuit::optimize`](fn@sliq_circuit::optimize) (inverse-pair
/// cancellation and phase merging, iterated to a fixed point) before
/// hashing, so circuits that differ only by redundant gate pairs map to the
/// same fingerprint — and thus share result-cache entries:
///
/// ```
/// use sliq_circuit::Circuit;
/// use sliq_exec::cache::circuit_fingerprint;
///
/// let mut plain = Circuit::new(2);
/// plain.h(0).cx(0, 1).t(1);
/// let mut padded = Circuit::new(2);
/// padded.h(0).x(1).x(1).cx(0, 1).t(1);
/// assert_eq!(circuit_fingerprint(&plain), circuit_fingerprint(&padded));
/// ```
pub fn circuit_fingerprint(circuit: &Circuit) -> u128 {
    let (canonical, _) = optimize(circuit);
    let mut h = Fnv128::new();
    h.write_usize(canonical.num_qubits());
    h.write_usize(canonical.num_clbits());
    h.write_usize(canonical.len());
    for gate in canonical.iter() {
        write_gate(&mut h, gate);
    }
    h.0
}

/// Mixes a measurement seed into a dynamic circuit's fingerprint.
///
/// A dynamic circuit's [`RunResult`] (readout, collapse trajectory, final
/// state) is a deterministic function of circuit × measurement seed, so the
/// seed must participate in the cache key — the same way `(shots, seed)`
/// already key sample entries.  Static circuits never call this, keeping
/// their keys (and previously published cache entries) unchanged.
pub fn dynamic_fingerprint(fingerprint: u128, measurement_seed: u64) -> u128 {
    let mut h = Fnv128::new();
    for byte in fingerprint.to_le_bytes() {
        h.write_u8(byte);
    }
    h.write_u64(measurement_seed);
    h.0
}

// ---------------------------------------------------------------------- //
// Cache keys and values
// ---------------------------------------------------------------------- //

/// The result-kind half of a cache key (see the module docs for why each
/// knob participates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyKind {
    /// A whole-circuit [`RunResult`].
    Run {
        /// Whether per-qubit ⟨Z⟩ expectations were collected.
        expectations: bool,
        /// Whether automatic variable reordering was enabled.
        auto_reorder: bool,
        /// The live-node limit the publishing session ran under.
        max_nodes: Option<usize>,
        /// The byte budget the publishing session ran under (a run that
        /// completed under a tight budget proves nothing about an
        /// unlimited one and vice versa — the budget changes which runs
        /// *fail*, so it must key the successes too).
        max_bytes: Option<usize>,
    },
    /// A batched-sampling [`Histogram`].
    Sample {
        /// Exact shot count.
        shots: u64,
        /// Exact RNG seed.
        seed: u64,
    },
}

/// A complete cache key: canonical-circuit fingerprint × concrete backend ×
/// result kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) fingerprint: u128,
    pub(crate) backend: BackendKind,
    pub(crate) kind: KeyKind,
}

impl CacheKey {
    pub(crate) fn run(
        fingerprint: u128,
        backend: BackendKind,
        expectations: bool,
        auto_reorder: bool,
        max_nodes: Option<usize>,
        max_bytes: Option<usize>,
    ) -> Self {
        Self {
            fingerprint,
            backend,
            kind: KeyKind::Run {
                expectations,
                auto_reorder,
                max_nodes,
                max_bytes,
            },
        }
    }

    pub(crate) fn sample(fingerprint: u128, backend: BackendKind, shots: u64, seed: u64) -> Self {
        Self {
            fingerprint,
            backend,
            kind: KeyKind::Sample { shots, seed },
        }
    }
}

/// A stored payload: both variants are `Arc`-shared so hits clone a pointer,
/// never the histogram or expectation data.
#[derive(Clone)]
enum CacheValue {
    Run(Arc<RunResult>),
    Sample(Arc<Histogram>),
}

/// Fixed per-entry overhead charged on top of the payload estimate: the key,
/// the hash-map slot and the recency-index node.
const ENTRY_OVERHEAD_BYTES: usize = 96;

fn value_bytes(value: &CacheValue) -> usize {
    let payload = match value {
        CacheValue::Run(result) => {
            std::mem::size_of::<RunResult>()
                + result
                    .expectations_z
                    .as_ref()
                    .map_or(0, |v| v.len() * std::mem::size_of::<f64>())
                + result.readout.as_ref().map_or(0, |v| v.len())
        }
        CacheValue::Sample(histogram) => histogram.approx_bytes(),
    };
    payload + ENTRY_OVERHEAD_BYTES
}

// ---------------------------------------------------------------------- //
// Counters
// ---------------------------------------------------------------------- //

/// A point-in-time snapshot of a [`ResultCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups that returned a cached result.
    pub hits: u64,
    /// Lookups that found nothing (the caller then simulates and publishes).
    pub misses: u64,
    /// Entries published (including replacements of an existing key).
    pub insertions: u64,
    /// Entries evicted to keep the byte budget.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Approximate resident bytes (payload estimates plus fixed per-entry
    /// overhead).
    pub bytes: usize,
    /// The configured byte budget.
    pub capacity_bytes: usize,
    /// `false` when the cache is disabled (zero byte budget, e.g.
    /// `SLIQ_RESULT_CACHE_MB=0`): lookups and publishes are no-ops and no
    /// counters move.
    pub enabled: bool,
}

impl ResultCacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------- //
// The cache
// ---------------------------------------------------------------------- //

struct Entry {
    value: CacheValue,
    bytes: usize,
    /// The entry's position in the recency index (strictly increasing
    /// logical time; refreshed on every touch).
    tick: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Exact LRU order: logical tick → key, oldest first.  Every touch
    /// re-files the entry under a fresh tick, so `pop_first` is the LRU
    /// victim in O(log n).
    recency: BTreeMap<u64, CacheKey>,
    next_tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Inner {
    fn touch(&mut self, key: CacheKey) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            self.recency.remove(&entry.tick);
            entry.tick = tick;
            self.recency.insert(tick, key);
        }
    }

    fn remove(&mut self, key: &CacheKey) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.recency.remove(&entry.tick);
        self.bytes -= entry.bytes;
        Some(entry)
    }

    /// Evicts least-recently-used entries until the byte budget holds.  The
    /// freshly inserted entry is not exempt: an entry larger than the whole
    /// budget is evicted immediately, keeping the bound unconditional.
    fn evict_to(&mut self, capacity: usize) {
        while self.bytes > capacity {
            let Some((&tick, &key)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&tick);
            if let Some(entry) = self.map.remove(&key) {
                self.bytes -= entry.bytes;
                self.evictions += 1;
            }
        }
    }
}

/// A byte-budgeted, LRU-evicting store of memoised run results and sampling
/// histograms, keyed by canonical-circuit fingerprints (see the module docs
/// for the keying and soundness argument).
///
/// The cache is internally synchronised; share one instance across sessions
/// (and threads) with [`Arc`].  [`ResultCache::global`] is the process-wide
/// instance that [`crate::SessionConfig::use_result_cache`] attaches.
///
/// ```
/// use sliq_circuit::Circuit;
/// use sliq_exec::{ResultCache, Session, SessionConfig};
///
/// let cache = ResultCache::shared(16 * 1024 * 1024);
/// let mut circuit = Circuit::new(3);
/// circuit.h(0).cx(0, 1).cx(1, 2).t(2);
///
/// // Cold: simulates, then publishes.
/// let mut cold = Session::for_circuit(&circuit, SessionConfig::default())?;
/// cold.attach_result_cache(cache.clone());
/// let cold_run = cold.run(&circuit)?;
///
/// // Warm: a fresh session over the same cache serves the run and the
/// // histogram without simulating anything.
/// let mut warm = Session::for_circuit(&circuit, SessionConfig::default())?;
/// warm.attach_result_cache(cache.clone());
/// let warm_run = warm.run(&circuit)?;
/// assert_eq!(warm_run.total_probability, cold_run.total_probability);
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), sliq_exec::ExecError>(())
/// ```
pub struct ResultCache {
    capacity_bytes: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// Creates a cache with the given byte budget.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Creates an [`Arc`]-shared cache with the given byte budget (the form
    /// sessions attach).
    pub fn shared(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity_bytes))
    }

    /// The process-wide cache instance.
    ///
    /// Its byte budget defaults to 256 MiB and can be overridden with the
    /// `SLIQ_RESULT_CACHE_MB` environment variable (read once, at first
    /// use).  `SLIQ_RESULT_CACHE_MB=0` disables the cache outright: every
    /// lookup and publish is a counter-free no-op, so sessions pay no LRU
    /// churn for a cache that can hold nothing.
    pub fn global() -> &'static Arc<ResultCache> {
        static GLOBAL: OnceLock<Arc<ResultCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let mib = std::env::var("SLIQ_RESULT_CACHE_MB")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(256);
            ResultCache::shared(mib * 1024 * 1024)
        })
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// `false` when the byte budget is zero: the cache is disabled, and
    /// [`ResultCache::stats`] reports it as such.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.recency.clear();
        inner.bytes = 0;
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.inner.lock().unwrap();
        ResultCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
            capacity_bytes: self.capacity_bytes,
            enabled: self.enabled(),
        }
    }

    fn get(&self, key: CacheKey) -> Option<CacheValue> {
        // A disabled cache can never hold the entry; skip the lock and do
        // not count a miss — the counters describe a cache that exists.
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock().unwrap();
        match inner.map.get(&key) {
            Some(entry) => {
                let value = entry.value.clone();
                inner.hits += 1;
                inner.touch(key);
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn put(&self, key: CacheKey, value: CacheValue) {
        // With a zero budget every insert would be evicted on the spot;
        // skip the churn entirely.
        if !self.enabled() {
            return;
        }
        let bytes = value_bytes(&value);
        let mut inner = self.inner.lock().unwrap();
        inner.remove(&key);
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.map.insert(key, Entry { value, bytes, tick });
        inner.recency.insert(tick, key);
        inner.bytes += bytes;
        inner.insertions += 1;
        inner.evict_to(self.capacity_bytes);
    }

    pub(crate) fn get_run(&self, key: CacheKey) -> Option<Arc<RunResult>> {
        match self.get(key)? {
            CacheValue::Run(result) => Some(result),
            // A kind mismatch under an identical key cannot happen (the
            // kind is part of the key); treat defensively as a miss.
            CacheValue::Sample(_) => None,
        }
    }

    pub(crate) fn put_run(&self, key: CacheKey, result: Arc<RunResult>) {
        self.put(key, CacheValue::Run(result));
    }

    pub(crate) fn get_sample(&self, key: CacheKey) -> Option<Arc<Histogram>> {
        match self.get(key)? {
            CacheValue::Sample(histogram) => Some(histogram),
            CacheValue::Run(_) => None,
        }
    }

    pub(crate) fn put_sample(&self, key: CacheKey, histogram: Arc<Histogram>) {
        self.put(key, CacheValue::Sample(histogram));
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_arc(num_qubits: usize, outcomes: u64) -> Arc<Histogram> {
        let mut h = Histogram::new(num_qubits);
        for outcome in 0..outcomes {
            h.add_for_test(outcome, 1);
        }
        Arc::new(h)
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_circuits() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).t(1);
        let fp = circuit_fingerprint(&a);
        assert_eq!(fp, circuit_fingerprint(&a), "deterministic");
        // A different gate, a different operand and a different qubit count
        // all change the fingerprint.
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).tdg(1);
        assert_ne!(fp, circuit_fingerprint(&b));
        let mut c = Circuit::new(2);
        c.h(1).cx(0, 1).t(1);
        assert_ne!(fp, circuit_fingerprint(&c));
        let mut d = Circuit::new(3);
        d.h(0).cx(0, 1).t(1);
        assert_ne!(fp, circuit_fingerprint(&d));
        // Empty circuits over different registers differ too.
        assert_ne!(
            circuit_fingerprint(&Circuit::new(2)),
            circuit_fingerprint(&Circuit::new(3))
        );
    }

    #[test]
    fn dynamic_operations_and_clbits_change_the_fingerprint() {
        let mut base = Circuit::new(2);
        base.h(0);
        let fp = circuit_fingerprint(&base);
        // A measurement, its clbit, a reset, a conditional, its condition
        // range/value and the bare classical register size all distinguish.
        let mut measured = Circuit::new(2);
        measured.h(0).measure(0, 0);
        let fp_measured = circuit_fingerprint(&measured);
        assert_ne!(fp, fp_measured);
        let mut other_clbit = Circuit::new(2);
        other_clbit.h(0).measure(0, 1);
        assert_ne!(fp_measured, circuit_fingerprint(&other_clbit));
        let mut reset = Circuit::new(2);
        reset.h(0).reset(0);
        assert_ne!(fp_measured, circuit_fingerprint(&reset));
        let mut cond = Circuit::new(2);
        cond.h(0).measure(0, 0).if_bit(0, Gate::X(1));
        let mut cond_other_value = Circuit::new(2);
        cond_other_value
            .h(0)
            .measure(0, 0)
            .conditional(0, 1, 0, Gate::X(1));
        assert_ne!(
            circuit_fingerprint(&cond),
            circuit_fingerprint(&cond_other_value)
        );
        assert_ne!(
            circuit_fingerprint(&Circuit::with_clbits(2, 1)),
            circuit_fingerprint(&Circuit::with_clbits(2, 2)),
            "clbit count participates"
        );
    }

    #[test]
    fn dynamic_fingerprint_keys_by_seed() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0);
        let fp = circuit_fingerprint(&c);
        assert_eq!(dynamic_fingerprint(fp, 7), dynamic_fingerprint(fp, 7));
        assert_ne!(dynamic_fingerprint(fp, 7), dynamic_fingerprint(fp, 8));
        assert_ne!(dynamic_fingerprint(fp, 7), fp);
    }

    #[test]
    fn equivalent_redundant_circuits_share_a_fingerprint() {
        let mut plain = Circuit::new(2);
        plain.h(0).cx(0, 1).t(1);
        let mut padded = Circuit::new(2);
        // Nested redundancy: the outer H·H pair only cancels after the
        // inner X·X pair is gone — exercises the fixed-point rewriting.
        padded
            .h(0)
            .h(1)
            .x(1)
            .x(1)
            .h(1)
            .cx(0, 1)
            .cx(0, 1)
            .cx(0, 1)
            .t(1);
        assert_eq!(circuit_fingerprint(&plain), circuit_fingerprint(&padded));
    }

    #[test]
    fn variable_length_operand_lists_cannot_alias() {
        // Toffoli{[1,2],3} vs Toffoli{[1],2} followed by X(3): without the
        // length prefix these encode the same operand stream.
        let mut a = Circuit::new(4);
        a.mcx(vec![1, 2], 3);
        let mut b = Circuit::new(4);
        b.mcx(vec![1], 2).x(3);
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&b));
    }

    #[test]
    fn lru_eviction_keeps_the_byte_budget() {
        // Budget fits roughly three of the ~5 KiB entries below.
        let entry_bytes = value_bytes(&CacheValue::Sample(sample_arc(10, 100)));
        let cache = ResultCache::new(3 * entry_bytes + entry_bytes / 2);
        for i in 0..10u64 {
            cache.put_sample(
                CacheKey::sample(i as u128, BackendKind::BitSlice, 100, i),
                sample_arc(10, 100),
            );
            assert!(
                cache.stats().bytes <= cache.capacity_bytes(),
                "budget violated after insertion {i}"
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 7, "{stats:?}");
        assert!(stats.entries <= 3, "{stats:?}");
        // The most recent keys survived; the oldest were evicted.
        assert!(cache
            .get_sample(CacheKey::sample(9, BackendKind::BitSlice, 100, 9))
            .is_some());
        assert!(cache
            .get_sample(CacheKey::sample(0, BackendKind::BitSlice, 100, 0))
            .is_none());
    }

    #[test]
    fn lru_get_refreshes_recency() {
        let entry_bytes = value_bytes(&CacheValue::Sample(sample_arc(4, 8)));
        let cache = ResultCache::new(2 * entry_bytes + entry_bytes / 2);
        let key = |i: u128| CacheKey::sample(i, BackendKind::Dense, 8, 0);
        cache.put_sample(key(1), sample_arc(4, 8));
        cache.put_sample(key(2), sample_arc(4, 8));
        // Touch 1, insert 3 → 2 is now the LRU victim.
        assert!(cache.get_sample(key(1)).is_some());
        cache.put_sample(key(3), sample_arc(4, 8));
        assert!(cache.get_sample(key(1)).is_some(), "touched entry survives");
        assert!(
            cache.get_sample(key(2)).is_none(),
            "untouched entry evicted"
        );
    }

    #[test]
    fn an_entry_larger_than_the_budget_does_not_stick() {
        let cache = ResultCache::new(64);
        cache.put_sample(
            CacheKey::sample(1, BackendKind::Qmdd, 1000, 0),
            sample_arc(16, 1000),
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn zero_budget_disables_the_cache_without_churn() {
        // SLIQ_RESULT_CACHE_MB=0 constructs exactly this: a zero-byte
        // budget.  No insert may land, no eviction may be counted, and
        // lookups must not count misses — the counters report "disabled",
        // not a cache that thrashes.
        let cache = ResultCache::new(0);
        assert!(!cache.enabled());
        let key = CacheKey::sample(11, BackendKind::BitSlice, 16, 3);
        assert!(cache.get_sample(key).is_none());
        cache.put_sample(key, sample_arc(4, 8));
        assert!(cache.get_sample(key).is_none());
        let stats = cache.stats();
        assert!(!stats.enabled);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn counters_and_hit_rate() {
        let cache = ResultCache::new(1 << 20);
        let key = CacheKey::sample(7, BackendKind::Stabilizer, 32, 5);
        assert!(cache.get_sample(key).is_none());
        cache.put_sample(key, sample_arc(3, 4));
        assert!(cache.get_sample(key).is_some());
        assert!(cache.get_sample(key).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 2, "clear keeps the counters");
    }
}
