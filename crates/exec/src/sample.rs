//! Batched multi-shot sampling: many measurement shots from **one**
//! simulation of the circuit.
//!
//! Every backend implements the same semantics — each shot draws one
//! uniform `u ∈ [0, 1)` from a seeded generator and maps it through the
//! inverse CDF of the outcome distribution, where the CDF is ordered by a
//! qubit-0-first conditional descent (outcome 1 before outcome 0 at every
//! qubit).  Shots sharing an outcome prefix share all the work for that
//! prefix, so the cost scales with the number of *distinct* outcome
//! prefixes rather than with `shots × circuit`:
//!
//! * **bit-sliced BDD** — non-collapsing conditional-probability descent:
//!   the state is restricted qubit by qubit with
//!   [`sliq_core::BitSliceState::condition_on`] and rolled back through the
//!   snapshot API; conditional probabilities are exact weighted SAT counts.
//! * **dense** — a single pass over the state vector builds the probability
//!   vector and its per-level subtree sums (a CDF tree); the descent then
//!   only reads precomputed sums.
//! * **QMDD** — snapshot–project–restore on edges: `select` projects the DD
//!   without renormalising, `norm_sqr` reads the joint probability, and the
//!   edge stack doubles as the snapshot set pinned across periodic GC.
//! * **stabilizer** — snapshot–measure–restore on tableau clones;
//!   conditional probabilities are 0, ½ or 1 by the CHP determinism rule.
//!
//! Because all four backends partition the *same* `u` sequence with the
//! same descent, backends that compute bit-identical conditional
//! probabilities (e.g. every exact backend on a dyadic-probability circuit)
//! produce **identical histograms** for a shared seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliq_bdd::Manager;
use sliq_circuit::Simulator as _;
use sliq_core::{BitSliceSimulator, ConditionedView};
use sliq_dense::DenseSimulator;
use sliq_qmdd::{Edge, QmddSimulator};
use sliq_stabilizer::{StabilizerSimulator, Tableau};
use std::collections::BTreeMap;

/// A histogram of measurement outcomes over all qubits.
///
/// Outcomes are packed little-endian: bit `q` of the key is the outcome of
/// qubit `q` (so at most 64 qubits can be sampled into a histogram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    num_qubits: usize,
    shots: u64,
    counts: BTreeMap<u64, u64>,
}

impl Histogram {
    /// An empty histogram over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            shots: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Rebuilds a histogram from outcome/count pairs — the inverse of
    /// iterating [`Histogram::counts`], used to reconstruct histograms
    /// received over a serving front-end's wire protocol.  Local
    /// histograms only ever grow through sampling.
    pub fn from_counts(num_qubits: usize, counts: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut histogram = Self::new(num_qubits);
        for (outcome, count) in counts {
            histogram.add(outcome, count);
        }
        histogram
    }

    fn add(&mut self, outcome: u64, count: u64) {
        if count > 0 {
            *self.counts.entry(outcome).or_insert(0) += count;
            self.shots += count;
        }
    }

    /// Approximate resident size in bytes: the struct itself plus the
    /// B-tree's per-outcome cost (key + value + amortised node overhead).
    /// Used by the result cache's byte accounting.
    pub(crate) fn approx_bytes(&self) -> usize {
        const BYTES_PER_OUTCOME: usize = 48;
        std::mem::size_of::<Self>() + self.counts.len() * BYTES_PER_OUTCOME
    }

    /// Test-only direct insertion (the public surface only grows histograms
    /// through sampling).
    #[cfg(test)]
    pub(crate) fn add_for_test(&mut self, outcome: u64, count: u64) {
        self.add(outcome, count);
    }

    /// The number of qubits per outcome.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total shots recorded.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The observed outcomes and their counts, in ascending outcome order.
    pub fn counts(&self) -> &BTreeMap<u64, u64> {
        &self.counts
    }

    /// The count of one specific outcome.
    pub fn count_of(&self, outcome: u64) -> u64 {
        self.counts.get(&outcome).copied().unwrap_or(0)
    }

    /// The observed relative frequency of one outcome.
    pub fn frequency(&self, outcome: u64) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.count_of(outcome) as f64 / self.shots as f64
        }
    }

    /// The fraction of shots in which `qubit` read 1.
    pub fn marginal_one(&self, qubit: usize) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let ones: u64 = self
            .counts
            .iter()
            .filter(|(outcome, _)| *outcome >> qubit & 1 == 1)
            .map(|(_, count)| count)
            .sum();
        ones as f64 / self.shots as f64
    }

    /// The empirical ⟨Z⟩ expectation of one qubit (`1 − 2·Pr[q = 1]`).
    pub fn expectation_z(&self, qubit: usize) -> f64 {
        1.0 - 2.0 * self.marginal_one(qubit)
    }

    /// The most frequent outcome and its count.
    pub fn most_frequent(&self) -> Option<(u64, u64)> {
        self.counts
            .iter()
            .max_by_key(|(outcome, count)| (*count, std::cmp::Reverse(*outcome)))
            .map(|(&outcome, &count)| (outcome, count))
    }

    /// Pearson's χ² statistic against expected probabilities given by
    /// `prob_of(outcome)`, summed over every outcome with nonzero expected
    /// count (enumerates all `2^n` outcomes, so `n` is capped at 20).
    /// Outcomes observed despite zero expected probability yield infinity.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 20`.
    pub fn chi_square(&self, mut prob_of: impl FnMut(u64) -> f64) -> f64 {
        assert!(
            self.num_qubits <= 20,
            "chi-square enumeration limited to 20 qubits"
        );
        let mut statistic = 0.0;
        for outcome in 0..(1u64 << self.num_qubits) {
            let expected = prob_of(outcome) * self.shots as f64;
            let observed = self.count_of(outcome) as f64;
            if expected > 0.0 {
                let d = observed - expected;
                statistic += d * d / expected;
            } else if observed > 0.0 {
                return f64::INFINITY;
            }
        }
        statistic
    }

    /// The outcome as per-qubit bits (`bits[q]` is the outcome of qubit `q`).
    pub fn outcome_bits(&self, outcome: u64) -> Vec<bool> {
        (0..self.num_qubits)
            .map(|q| outcome >> q & 1 == 1)
            .collect()
    }

    /// Renders the most frequent `max_rows` outcomes as `|q0 q1 …⟩ count
    /// frequency` lines (qubit 0 leftmost, matching `&[bool]` slice order).
    pub fn format_top(&self, max_rows: usize) -> String {
        let mut rows: Vec<(u64, u64)> = self.counts.iter().map(|(&o, &c)| (o, c)).collect();
        rows.sort_by_key(|&(outcome, count)| (std::cmp::Reverse(count), outcome));
        let mut out = String::new();
        for &(outcome, count) in rows.iter().take(max_rows) {
            let bits: String = (0..self.num_qubits)
                .map(|q| if outcome >> q & 1 == 1 { '1' } else { '0' })
                .collect();
            out.push_str(&format!(
                "  |{bits}⟩  {count:>8}  {:.4}\n",
                count as f64 / self.shots.max(1) as f64
            ));
        }
        if rows.len() > max_rows {
            out.push_str(&format!("  … {} more outcomes\n", rows.len() - max_rows));
        }
        out
    }
}

/// The uniform draws for `shots` shots under `seed` — one `u ∈ [0, 1)` per
/// shot, identical for every backend.
fn uniform_draws(shots: u64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shots).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// Keeps a rescaled draw strictly below 1.0 so rounding can never push a
/// shot into a zero-probability branch further down.
const BELOW_ONE: f64 = 1.0 - f64::EPSILON;

/// A backend's view of the conditional outcome distribution: the descent
/// driver asks for `Pr[qubit = 1 | pushed prefix]` and pushes/pops outcome
/// conditions in depth-first order (always qubit 0, 1, 2, … and always the
/// 1-branch before the 0-branch).
trait ConditionalChain {
    /// `Pr[qubit = 1]` conditioned on every pushed `(qubit, value)` pair.
    fn conditional_one(&mut self, qubit: usize) -> f64;
    /// Adds the condition `qubit = value`.  Called at most once per branch,
    /// and only after `conditional_one(qubit)` at the same depth.
    fn push(&mut self, qubit: usize, value: bool);
    /// Removes the most recently pushed condition.
    fn pop(&mut self, qubit: usize);
}

/// Shared inverse-CDF descent: partitions the draws by the conditional
/// probability at each qubit, rescaling them into the chosen branch, so
/// shots with a common outcome prefix traverse that prefix once.
fn descend<C: ConditionalChain>(
    chain: &mut C,
    num_qubits: usize,
    depth: usize,
    prefix: u64,
    us: Vec<f64>,
    histogram: &mut Histogram,
) {
    if us.is_empty() {
        return;
    }
    if depth == num_qubits {
        histogram.add(prefix, us.len() as u64);
        return;
    }
    let raw = chain.conditional_one(depth);
    let p1 = if raw.is_finite() {
        raw.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let p0 = 1.0 - p1;
    let mut ones = Vec::new();
    let mut zeros = Vec::new();
    for u in us {
        if u < p1 {
            ones.push((u / p1).min(BELOW_ONE));
        } else {
            let rescaled = if p0 > 0.0 { (u - p1) / p0 } else { 0.0 };
            zeros.push(rescaled.min(BELOW_ONE));
        }
    }
    if !ones.is_empty() {
        chain.push(depth, true);
        descend(
            chain,
            num_qubits,
            depth + 1,
            prefix | 1 << depth,
            ones,
            histogram,
        );
        chain.pop(depth);
    }
    if !zeros.is_empty() {
        chain.push(depth, false);
        descend(chain, num_qubits, depth + 1, prefix, zeros, histogram);
        chain.pop(depth);
    }
}

fn run_descent<C: ConditionalChain>(
    chain: &mut C,
    num_qubits: usize,
    shots: u64,
    seed: u64,
) -> Histogram {
    let mut histogram = Histogram::new(num_qubits);
    let us = uniform_draws(shots, seed);
    descend(chain, num_qubits, 0, 0, us, &mut histogram);
    histogram
}

// ---------------------------------------------------------------------- //
// Bit-sliced BDD backend
// ---------------------------------------------------------------------- //

/// One node of the bit-sliced descent: an unregistered conditioned view of
/// the state plus the draws that landed in its branch.  Views are
/// conditioned *functionally* (`ConditionedView::condition` returns a new
/// view through the kernel's `&Manager` apply operations); the partition
/// arithmetic is byte-for-byte the one `descend` uses.
struct ViewTask {
    view: ConditionedView,
    depth: usize,
    prefix: u64,
    us: Vec<f64>,
    /// Joint probability of the conditions above this node.
    p_current: f64,
}

/// The depth-first inverse-CDF descent on views: partitions the task's
/// draws between the 1-branch and the 0-branch of its qubit and recurses
/// into each non-empty branch.
fn descend_view(mgr: &Manager, task: ViewTask, num_qubits: usize, histogram: &mut Histogram) {
    if task.us.is_empty() {
        return;
    }
    if task.depth == num_qubits {
        histogram.add(task.prefix, task.us.len() as u64);
        return;
    }
    let joint_one = task.view.joint_probability_of_one(mgr, task.depth);
    let raw = if task.p_current <= 0.0 {
        0.0
    } else {
        joint_one / task.p_current
    };
    let p1 = if raw.is_finite() {
        raw.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let p0 = 1.0 - p1;
    let mut ones = Vec::new();
    let mut zeros = Vec::new();
    for u in task.us {
        if u < p1 {
            ones.push((u / p1).min(BELOW_ONE));
        } else {
            let rescaled = if p0 > 0.0 { (u - p1) / p0 } else { 0.0 };
            zeros.push(rescaled.min(BELOW_ONE));
        }
    }
    // Both children are conditioned before either is descended into.
    let one = (!ones.is_empty()).then(|| ViewTask {
        view: task.view.condition(mgr, task.depth, true),
        depth: task.depth + 1,
        prefix: task.prefix | 1 << task.depth,
        us: ones,
        p_current: joint_one,
    });
    let zero = (!zeros.is_empty()).then(|| ViewTask {
        view: task.view.condition(mgr, task.depth, false),
        depth: task.depth + 1,
        prefix: task.prefix,
        us: zeros,
        p_current: (task.p_current - joint_one).max(0.0),
    });
    for child in [one, zero].into_iter().flatten() {
        descend_view(mgr, child, num_qubits, histogram);
    }
}

/// The uncached bit-sliced sampler.  [`Session::sample`] goes through
/// [`sample_bitslice_cached`] instead; this stays as the reference
/// implementation the differential tests compare the cache against.
///
/// [`Session::sample`]: crate::Session::sample
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn sample_bitslice(sim: &mut BitSliceSimulator, shots: u64, seed: u64) -> Histogram {
    let num_qubits = sim.num_qubits();
    let mut histogram = Histogram::new(num_qubits);
    {
        let state = sim.state();
        let mgr = state.manager();
        let view = ConditionedView::of_state(state);
        let p_total = view.total_probability(mgr);
        let root = ViewTask {
            view,
            depth: 0,
            prefix: 0,
            us: uniform_draws(shots, seed),
            p_current: p_total,
        };
        descend_view(mgr, root, num_qubits, &mut histogram);
    }
    // The descent hash-consed transient conditioned slices that no root
    // registers; reclaim them if the manager considers it worthwhile.
    sim.state_mut().maybe_collect_garbage();
    histogram
}

// ---------------------------------------------------------------------- //
// Bit-sliced sampling cache (persists across `Session::sample` calls)
// ---------------------------------------------------------------------- //

/// Upper bound on cached outcome-trie nodes: enough to memoise the hot
/// prefixes of any realistic shot batch while keeping the pinned-root
/// footprint (4·r slots per node) small.
const SAMPLE_CACHE_MAX_NODES: usize = 1024;

/// One memoised node of the outcome trie: the conditioned view, the
/// absolute probabilities the descent computed there, and the two
/// lazily-materialised children.  Storing `p_current` and `joint_one` as
/// the *absolute* joint probabilities (exactly what [`descend_view`] passes
/// around) makes a cached descent's partition arithmetic byte-for-byte the
/// uncached one's, so caching can never change a histogram.
struct CacheNode {
    view: ConditionedView,
    depth: usize,
    /// Joint probability of the conditions above this node.
    p_current: f64,
    /// `Pr[conditions ∧ qubit_{depth} = 1]`, once a descent computed it.
    joint_one: Option<f64>,
    /// Trie children, indexed by the branch value (`[0-branch, 1-branch]`).
    children: [Option<usize>; 2],
}

/// A memoised outcome trie for repeated [`sample_bitslice_cached`] calls on
/// an **unchanged** state: conditioned views and their SAT-count
/// probabilities — the entirety of a descent's BDD work — are computed once
/// and replayed for every later seed.  The owner must drop the cache (via
/// [`SampleCache::release`], to unpin its views) whenever the state
/// mutates.
pub(crate) struct SampleCache {
    /// Trie nodes; index 0 is the unconditioned root.
    nodes: Vec<CacheNode>,
    /// Root-registry pins keeping every cached view alive across the GC at
    /// the end of each sampling call.
    pins: Vec<sliq_bdd::RootSlot>,
    /// Nodes `0..pinned` have their views pinned already.
    pinned: usize,
}

impl SampleCache {
    /// A cache rooted at the state's current (unconditioned) view.
    fn new(state: &sliq_core::BitSliceState) -> Self {
        let view = ConditionedView::of_state(state);
        let p_total = view.total_probability(state.manager());
        Self {
            nodes: vec![CacheNode {
                view,
                depth: 0,
                p_current: p_total,
                joint_one: None,
                children: [None, None],
            }],
            pins: Vec::new(),
            pinned: 0,
        }
    }

    /// Pins the views of nodes added since the last call.  Must run before
    /// the post-sampling garbage collection: node materialisation happens
    /// under a `&Manager` borrow, so pinning (which needs `&mut`) is
    /// deferred to the end of the call — sound because GC itself needs
    /// `&mut` and therefore cannot run in between.
    fn pin_new(&mut self, state: &mut sliq_core::BitSliceState) {
        while self.pinned < self.nodes.len() {
            let roots: Vec<_> = self.nodes[self.pinned].view.roots().collect();
            for f in roots {
                self.pins.push(state.pin_root(f));
            }
            self.pinned += 1;
        }
    }

    /// Unpins every cached view; call when the state mutates.
    pub(crate) fn release(self, state: &mut sliq_core::BitSliceState) {
        for slot in self.pins {
            state.unpin_root(slot);
        }
    }
}

/// The cached counterpart of [`descend_view`]: walks the memoised trie,
/// filling in probabilities and children on first visit (up to the node
/// budget) and pushing the subtrees that fall off the cached region onto
/// `overflow` for the ordinary descent to finish.
#[allow(clippy::too_many_arguments)]
fn descend_cached(
    mgr: &Manager,
    cache: &mut SampleCache,
    node: usize,
    prefix: u64,
    us: Vec<f64>,
    num_qubits: usize,
    histogram: &mut Histogram,
    overflow: &mut Vec<ViewTask>,
) {
    if us.is_empty() {
        return;
    }
    let depth = cache.nodes[node].depth;
    if depth == num_qubits {
        histogram.add(prefix, us.len() as u64);
        return;
    }
    let p_current = cache.nodes[node].p_current;
    let joint_one = match cache.nodes[node].joint_one {
        Some(cached) => cached,
        None => {
            let computed = cache.nodes[node].view.joint_probability_of_one(mgr, depth);
            cache.nodes[node].joint_one = Some(computed);
            computed
        }
    };
    let raw = if p_current <= 0.0 {
        0.0
    } else {
        joint_one / p_current
    };
    let p1 = if raw.is_finite() {
        raw.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let p0 = 1.0 - p1;
    let mut ones = Vec::new();
    let mut zeros = Vec::new();
    for u in us {
        if u < p1 {
            ones.push((u / p1).min(BELOW_ONE));
        } else {
            let rescaled = if p0 > 0.0 { (u - p1) / p0 } else { 0.0 };
            zeros.push(rescaled.min(BELOW_ONE));
        }
    }
    for (value, branch_us) in [(true, ones), (false, zeros)] {
        if branch_us.is_empty() {
            continue;
        }
        let child_prefix = if value { prefix | 1 << depth } else { prefix };
        // Leaves are counted inline, never cached: their views carry no
        // information the histogram needs.
        if depth + 1 == num_qubits {
            histogram.add(child_prefix, branch_us.len() as u64);
            continue;
        }
        let child_p = if value {
            joint_one
        } else {
            (p_current - joint_one).max(0.0)
        };
        let child_slot = cache.nodes[node].children[value as usize];
        let child = match child_slot {
            Some(existing) => Some(existing),
            None if cache.nodes.len() < SAMPLE_CACHE_MAX_NODES => {
                let view = cache.nodes[node].view.condition(mgr, depth, value);
                let fresh = cache.nodes.len();
                cache.nodes.push(CacheNode {
                    view,
                    depth: depth + 1,
                    p_current: child_p,
                    joint_one: None,
                    children: [None, None],
                });
                cache.nodes[node].children[value as usize] = Some(fresh);
                Some(fresh)
            }
            None => None,
        };
        match child {
            Some(child) => descend_cached(
                mgr,
                cache,
                child,
                child_prefix,
                branch_us,
                num_qubits,
                histogram,
                overflow,
            ),
            None => overflow.push(ViewTask {
                view: cache.nodes[node].view.condition(mgr, depth, value),
                depth: depth + 1,
                prefix: child_prefix,
                us: branch_us,
                p_current: child_p,
            }),
        }
    }
}

/// [`sample_bitslice`] with a persistent outcome-trie cache: the first call
/// on a state pays the full SAT-count descent; later calls on the same
/// (unchanged) state replay the memoised probabilities and views and only
/// do BDD work where a new seed's draws reach prefixes no earlier call
/// visited.  The caller owns the cache slot and must invalidate it (see
/// [`SampleCache::release`]) on any state mutation.
pub(crate) fn sample_bitslice_cached(
    sim: &mut BitSliceSimulator,
    cache_slot: &mut Option<SampleCache>,
    shots: u64,
    seed: u64,
) -> Histogram {
    let num_qubits = sim.num_qubits();
    let mut histogram = Histogram::new(num_qubits);
    {
        let state = sim.state();
        let mgr = state.manager();
        let cache = cache_slot.get_or_insert_with(|| SampleCache::new(state));
        let mut overflow = Vec::new();
        descend_cached(
            mgr,
            cache,
            0,
            0,
            uniform_draws(shots, seed),
            num_qubits,
            &mut histogram,
            &mut overflow,
        );
        for task in overflow {
            descend_view(mgr, task, num_qubits, &mut histogram);
        }
    }
    let state = sim.state_mut();
    if let Some(cache) = cache_slot.as_mut() {
        cache.pin_new(state);
    }
    state.maybe_collect_garbage();
    histogram
}

// ---------------------------------------------------------------------- //
// Dense backend (CDF tree)
// ---------------------------------------------------------------------- //

struct DenseChain {
    /// `sums[d][p]` = Pr[qubits 0..d read the bits of `p`]; `sums[n]` is the
    /// probability vector itself, built in one pass over the state.
    sums: Vec<Vec<f64>>,
    prefix: usize,
}

impl ConditionalChain for DenseChain {
    fn conditional_one(&mut self, qubit: usize) -> f64 {
        let parent = self.sums[qubit][self.prefix];
        if parent <= 0.0 {
            0.0
        } else {
            self.sums[qubit + 1][self.prefix | 1 << qubit] / parent
        }
    }

    fn push(&mut self, qubit: usize, value: bool) {
        if value {
            self.prefix |= 1 << qubit;
        }
    }

    fn pop(&mut self, qubit: usize) {
        self.prefix &= !(1 << qubit);
    }
}

pub(crate) fn sample_dense(sim: &DenseSimulator, shots: u64, seed: u64) -> Histogram {
    let num_qubits = sim.num_qubits();
    let mut sums: Vec<Vec<f64>> = Vec::with_capacity(num_qubits + 1);
    sums.push(sim.probabilities());
    for _ in 0..num_qubits {
        let last = sums.last().expect("seeded with the probability vector");
        let half = last.len() / 2;
        let folded: Vec<f64> = (0..half).map(|p| last[p] + last[p + half]).collect();
        sums.push(folded);
    }
    sums.reverse();
    let mut chain = DenseChain { sums, prefix: 0 };
    run_descent(&mut chain, num_qubits, shots, seed)
}

// ---------------------------------------------------------------------- //
// QMDD backend (snapshot–project–restore on edges)
// ---------------------------------------------------------------------- //

struct QmddChain<'a> {
    sim: &'a mut QmddSimulator,
    stack: Vec<(Edge, f64)>,
    current: Edge,
    p_current: f64,
    p_one_abs: Vec<f64>,
    gc_limit: usize,
}

impl ConditionalChain for QmddChain<'_> {
    fn conditional_one(&mut self, qubit: usize) -> f64 {
        let projected = self.sim.project(self.current, qubit, true);
        let joint = self.sim.edge_norm_sqr(projected);
        self.p_one_abs[qubit] = joint;
        if self.p_current <= 0.0 {
            0.0
        } else {
            joint / self.p_current
        }
    }

    fn push(&mut self, qubit: usize, value: bool) {
        self.stack.push((self.current, self.p_current));
        self.current = self.sim.project(self.current, qubit, value);
        let joint_one = self.p_one_abs[qubit];
        self.p_current = if value {
            joint_one
        } else {
            (self.p_current - joint_one).max(0.0)
        };
        if self.sim.allocated_nodes() > self.gc_limit {
            let mut keep: Vec<Edge> = self.stack.iter().map(|&(e, _)| e).collect();
            keep.push(self.current);
            self.sim.collect_garbage_keeping(&keep);
            self.gc_limit = (self.sim.allocated_nodes() * 2).max(1 << 16);
        }
    }

    fn pop(&mut self, _qubit: usize) {
        let (edge, p) = self.stack.pop().expect("pop matches a push");
        self.current = edge;
        self.p_current = p;
    }
}

pub(crate) fn sample_qmdd(sim: &mut QmddSimulator, shots: u64, seed: u64) -> Histogram {
    let num_qubits = sim.num_qubits();
    let root = sim.root_edge();
    let p_total = sim.edge_norm_sqr(root);
    let gc_limit = (sim.allocated_nodes() * 2).max(1 << 16);
    let mut chain = QmddChain {
        sim,
        stack: Vec::new(),
        current: root,
        p_current: p_total,
        p_one_abs: vec![0.0; num_qubits],
        gc_limit,
    };
    run_descent(&mut chain, num_qubits, shots, seed)
}

// ---------------------------------------------------------------------- //
// Stabilizer backend (snapshot–measure–restore on tableau clones)
// ---------------------------------------------------------------------- //

struct StabilizerChain {
    current: Tableau,
    stack: Vec<Tableau>,
}

impl ConditionalChain for StabilizerChain {
    fn conditional_one(&mut self, qubit: usize) -> f64 {
        match self.current.deterministic_outcome(qubit) {
            Some(true) => 1.0,
            Some(false) => 0.0,
            None => 0.5,
        }
    }

    fn push(&mut self, qubit: usize, value: bool) {
        self.stack.push(self.current.clone());
        self.current.measure(qubit, value);
    }

    fn pop(&mut self, _qubit: usize) {
        self.current = self.stack.pop().expect("pop matches a push");
    }
}

pub(crate) fn sample_stabilizer(sim: &StabilizerSimulator, shots: u64, seed: u64) -> Histogram {
    let num_qubits = sim.tableau().num_qubits();
    let mut chain = StabilizerChain {
        current: sim.tableau().clone(),
        stack: Vec::new(),
    };
    run_descent(&mut chain, num_qubits, shots, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_circuit::{Circuit, Simulator};

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn all_backends_agree_exactly_on_the_bell_state() {
        let circuit = bell();
        let shots = 500;
        let seed = 11;
        let mut bitslice = BitSliceSimulator::new(2);
        bitslice.run(&circuit).unwrap();
        let h_bitslice = sample_bitslice(&mut bitslice, shots, seed);
        let mut dense = DenseSimulator::new(2);
        dense.run(&circuit).unwrap();
        let h_dense = sample_dense(&dense, shots, seed);
        let mut qmdd = QmddSimulator::new(2);
        qmdd.run(&circuit).unwrap();
        let h_qmdd = sample_qmdd(&mut qmdd, shots, seed);
        let mut stab = StabilizerSimulator::new(2);
        stab.run(&circuit).unwrap();
        let h_stab = sample_stabilizer(&stab, shots, seed);
        assert_eq!(h_bitslice, h_dense);
        assert_eq!(h_bitslice, h_qmdd);
        assert_eq!(h_bitslice, h_stab);
        // Only |00⟩ and |11⟩ appear, in roughly equal proportion.
        assert_eq!(h_bitslice.count_of(0b00) + h_bitslice.count_of(0b11), shots);
        assert!(h_bitslice.count_of(0b00) > shots / 4);
        assert!(h_bitslice.count_of(0b11) > shots / 4);
    }

    #[test]
    fn sampling_leaves_the_state_untouched() {
        let circuit = bell();
        let mut bitslice = BitSliceSimulator::new(2);
        bitslice.run(&circuit).unwrap();
        let _ = sample_bitslice(&mut bitslice, 200, 1);
        assert!((bitslice.probability_of_one(0) - 0.5).abs() < 1e-12);
        assert!(bitslice.is_exactly_normalized());
        let mut qmdd = QmddSimulator::new(2);
        qmdd.run(&circuit).unwrap();
        let _ = sample_qmdd(&mut qmdd, 200, 1);
        assert!((qmdd.probability_of_one(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic_states_sample_deterministically() {
        let mut circuit = Circuit::new(3);
        circuit.x(0).x(2);
        let mut sim = BitSliceSimulator::new(3);
        sim.run(&circuit).unwrap();
        let hist = sample_bitslice(&mut sim, 64, 5);
        assert_eq!(hist.count_of(0b101), 64);
        assert_eq!(hist.counts().len(), 1);
        assert_eq!(hist.marginal_one(0), 1.0);
        assert_eq!(hist.marginal_one(1), 0.0);
        assert_eq!(hist.expectation_z(2), -1.0);
    }

    #[test]
    fn histogram_statistics_and_rendering() {
        let mut hist = Histogram::new(2);
        hist.add(0b00, 30);
        hist.add(0b11, 70);
        assert_eq!(hist.shots(), 100);
        assert_eq!(hist.most_frequent(), Some((0b11, 70)));
        assert!((hist.frequency(0b00) - 0.3).abs() < 1e-12);
        // Expected (50, 50), observed (30, 70): χ² = 20²/50 + 20²/50 = 16.
        let chi = hist.chi_square(|o| if o == 0 || o == 3 { 0.5 } else { 0.0 });
        assert!((chi - 16.0).abs() < 1e-9);
        let text = hist.format_top(1);
        assert!(text.contains("|11⟩"));
        assert!(text.contains("1 more"));
        // Impossible outcomes observed ⇒ infinite statistic.
        let chi = hist.chi_square(|o| if o == 0 { 1.0 } else { 0.0 });
        assert!(chi.is_infinite());
    }

    #[test]
    fn cached_sampling_matches_the_uncached_reference() {
        let mut circuit = Circuit::new(4);
        circuit.h(0).cx(0, 1).h(2).t(2).cx(2, 3).h(3);
        let shots = 2000;
        let mut cache = None;
        let mut cached_sim = BitSliceSimulator::new(4);
        cached_sim.run(&circuit).unwrap();
        let mut reference_sim = BitSliceSimulator::new(4);
        reference_sim.run(&circuit).unwrap();
        // Cold cache, warm cache, and a fresh seed that reaches prefixes
        // the first seed never visited — all bit-identical to the uncached
        // sampler.
        for seed in [7, 7, 8, 1234] {
            let cached = sample_bitslice_cached(&mut cached_sim, &mut cache, shots, seed);
            let reference = sample_bitslice(&mut reference_sim, shots, seed);
            assert_eq!(cached, reference, "seed {seed}");
        }
        assert!(cache.is_some(), "the cache must persist across calls");
    }

    #[test]
    fn cache_release_unpins_every_view() {
        let mut circuit = Circuit::new(3);
        circuit.h(0).cx(0, 1).t(1).h(2);
        let mut sim = BitSliceSimulator::new(3);
        sim.run(&circuit).unwrap();
        let mut cache = None;
        let _ = sample_bitslice_cached(&mut sim, &mut cache, 500, 3);
        let cache = cache.expect("sampling builds the cache");
        assert!(!cache.pins.is_empty(), "cached views must be pinned");
        cache.release(sim.state_mut());
        // With the pins gone, a forced GC reclaims the cached conditioned
        // slices but must keep the live state intact.
        sim.state_mut().collect_garbage();
        assert!((sim.probability_of_one(0) - 0.5).abs() < 1e-12);
        assert!(sim.is_exactly_normalized());
    }

    #[test]
    fn shared_seed_draws_are_deterministic() {
        assert_eq!(uniform_draws(16, 9), uniform_draws(16, 9));
        assert_ne!(uniform_draws(16, 9), uniform_draws(16, 10));
        assert!(uniform_draws(1000, 3)
            .iter()
            .all(|u| (0.0..1.0).contains(u)));
    }
}
