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
//! * **bit-sliced BDD** — a stack of [`sliq_core::ConditionedView`]s: the
//!   slice conjunctions of the probability formula are built once per
//!   sample, conditioning a view replaces each of them by its cofactor
//!   (without renormalising), and conditional probabilities are exact
//!   weighted SAT counts of those cofactors, all through one model counter
//!   whose memo lives for the whole descent.  The views are unregistered
//!   transients, so the state is never modified and nothing is pinned.
//! * **dense** — a single pass over the state vector builds the probability
//!   vector and its per-level subtree sums (a CDF tree); the descent then
//!   only reads precomputed sums.
//! * **QMDD** — snapshot–project–restore on edges: `select` projects the DD
//!   without renormalising, `norm_sqr` reads the joint probability, and the
//!   edge stack doubles as the snapshot set pinned across periodic GC.
//! * **stabilizer** — snapshot–measure–restore on tableau clones;
//!   conditional probabilities are 0, ½ or 1 by the CHP determinism rule.
//!
//! One descent drives all four through a private `ConditionalChain` trait
//! (`conditional_one`, `push`, `pop`).  It partitions the draws in place
//! (the 1-branch's draws first) and recurses on the two halves, and it
//! counts the last qubit's branches straight into the histogram, so
//! `ConditionalChain::push` is never called for the last qubit: no backend
//! conditions, projects or clones a leaf.
//! Because all four backends partition the *same* `u` sequence with the
//! same descent, backends that compute bit-identical conditional
//! probabilities (e.g. every exact backend on a dyadic-probability circuit)
//! produce **identical histograms** for a shared seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sliq_bdd::{Manager, ModelCounter};
use sliq_circuit::Simulator as _;
use sliq_core::{BitSliceSimulator, ConditionedView};
use sliq_dense::DenseSimulator;
use sliq_qmdd::{Edge, QmddSimulator};
use sliq_stabilizer::{StabilizerSimulator, Tableau};
use std::collections::{BTreeMap, TryReserveError};

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
/// shot, identical for every backend.  The buffer is reserved up front and
/// fallibly, so a shot count that cannot fit in memory is an error rather
/// than an abort.
pub(crate) fn uniform_draws(shots: u64, seed: u64) -> Result<Vec<f64>, TryReserveError> {
    let mut draws = Vec::new();
    draws.try_reserve_exact(usize::try_from(shots).unwrap_or(usize::MAX))?;
    let mut rng = StdRng::seed_from_u64(seed);
    draws.extend((0..shots).map(|_| rng.gen_range(0.0..1.0)));
    Ok(draws)
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
    /// only after `conditional_one(qubit)` at the same depth, and never for
    /// the last qubit: its branches go straight into the histogram.
    fn push(&mut self, qubit: usize, value: bool);
    /// Removes the most recently pushed condition.
    fn pop(&mut self, qubit: usize);
}

/// Shared inverse-CDF descent: partitions the draws by the conditional
/// probability at each qubit, rescaling them into the chosen branch, so
/// shots with a common outcome prefix traverse that prefix once.  The
/// partition is in place — the 1-branch's draws first — so the order of
/// draws inside a branch is arbitrary; only how many reach each outcome
/// counts.  `us` is never empty and `depth` is below `num_qubits`.
fn descend<C: ConditionalChain>(
    chain: &mut C,
    num_qubits: usize,
    depth: usize,
    prefix: u64,
    us: &mut [f64],
    histogram: &mut Histogram,
) {
    let raw = chain.conditional_one(depth);
    let p1 = if raw.is_finite() {
        raw.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let p0 = 1.0 - p1;
    let mut split = 0;
    for i in 0..us.len() {
        let u = us[i];
        if u < p1 {
            us[i] = (u / p1).min(BELOW_ONE);
            us.swap(split, i);
            split += 1;
        } else {
            let rescaled = if p0 > 0.0 { (u - p1) / p0 } else { 0.0 };
            us[i] = rescaled.min(BELOW_ONE);
        }
    }
    let (ones, zeros) = us.split_at_mut(split);
    for (value, branch) in [(true, ones), (false, zeros)] {
        if branch.is_empty() {
            continue;
        }
        let prefix = prefix | u64::from(value) << depth;
        if depth + 1 == num_qubits {
            histogram.add(prefix, branch.len() as u64);
        } else {
            chain.push(depth, value);
            descend(chain, num_qubits, depth + 1, prefix, branch, histogram);
            chain.pop(depth);
        }
    }
}

fn run_descent<C: ConditionalChain>(
    chain: &mut C,
    num_qubits: usize,
    mut draws: Vec<f64>,
) -> Histogram {
    let mut histogram = Histogram::new(num_qubits);
    if num_qubits == 0 {
        // The empty register has one outcome, and every shot reads it.
        histogram.add(0, draws.len() as u64);
    } else if !draws.is_empty() {
        descend(chain, num_qubits, 0, 0, &mut draws, &mut histogram);
    }
    histogram
}

// ---------------------------------------------------------------------- //
// Bit-sliced BDD backend (a stack of conditioned views)
// ---------------------------------------------------------------------- //

/// A stack of unregistered conditioned views of the state, each with the
/// joint probability of the conditions that produced it.  `push` conditions
/// the top view through the kernel's `&Manager` cofactors and `pop` drops
/// it, so the state is never modified and no root is pinned.  Every
/// reading goes through the one `counter`, so a node shared by the views of
/// a descent is counted once.
struct BitSliceChain<'a> {
    mgr: &'a Manager,
    counter: ModelCounter<'a>,
    stack: Vec<(ConditionedView, f64)>,
    /// `Pr[conditions ∧ qubit = 1]` from `conditional_one`, for the `push`
    /// that follows.
    joint_one: Vec<f64>,
}

impl ConditionalChain for BitSliceChain<'_> {
    fn conditional_one(&mut self, qubit: usize) -> f64 {
        let (view, p_current) = self.stack.last().expect("the root view is never popped");
        let joint = view.joint_probability_of_one(self.mgr, &mut self.counter, qubit);
        self.joint_one[qubit] = joint;
        if *p_current <= 0.0 {
            0.0
        } else {
            joint / p_current
        }
    }

    fn push(&mut self, qubit: usize, value: bool) {
        let (view, p_current) = self.stack.last().expect("the root view is never popped");
        let joint_one = self.joint_one[qubit];
        let p = if value {
            joint_one
        } else {
            (p_current - joint_one).max(0.0)
        };
        let child = view.condition(self.mgr, qubit, value);
        self.stack.push((child, p));
    }

    fn pop(&mut self, _qubit: usize) {
        self.stack.pop();
    }
}

pub(crate) fn sample_bitslice(sim: &mut BitSliceSimulator, draws: Vec<f64>) -> Histogram {
    let num_qubits = sim.num_qubits();
    let histogram = {
        let state = sim.state();
        let mgr = state.manager();
        let mut counter = ModelCounter::new(mgr, num_qubits);
        let view = ConditionedView::of_state(state);
        let p_total = view.total_probability(&mut counter);
        let mut chain = BitSliceChain {
            mgr,
            counter,
            stack: vec![(view, p_total)],
            joint_one: vec![0.0; num_qubits],
        };
        run_descent(&mut chain, num_qubits, draws)
    };
    // The descent hash-consed transient terms and cofactors that no root
    // registers; reclaim them if the manager considers it worthwhile.
    sim.state_mut().maybe_collect_garbage();
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

pub(crate) fn sample_dense(sim: &DenseSimulator, draws: Vec<f64>) -> Histogram {
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
    run_descent(&mut chain, num_qubits, draws)
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

pub(crate) fn sample_qmdd(sim: &mut QmddSimulator, draws: Vec<f64>) -> Histogram {
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
    run_descent(&mut chain, num_qubits, draws)
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

pub(crate) fn sample_stabilizer(sim: &StabilizerSimulator, draws: Vec<f64>) -> Histogram {
    let num_qubits = sim.tableau().num_qubits();
    let mut chain = StabilizerChain {
        current: sim.tableau().clone(),
        stack: Vec::new(),
    };
    run_descent(&mut chain, num_qubits, draws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_circuit::{Circuit, Simulator};

    fn draws(shots: u64, seed: u64) -> Vec<f64> {
        uniform_draws(shots, seed).expect("a small draw buffer fits")
    }

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
        let h_bitslice = sample_bitslice(&mut bitslice, draws(shots, seed));
        let mut dense = DenseSimulator::new(2);
        dense.run(&circuit).unwrap();
        let h_dense = sample_dense(&dense, draws(shots, seed));
        let mut qmdd = QmddSimulator::new(2);
        qmdd.run(&circuit).unwrap();
        let h_qmdd = sample_qmdd(&mut qmdd, draws(shots, seed));
        let mut stab = StabilizerSimulator::new(2);
        stab.run(&circuit).unwrap();
        let h_stab = sample_stabilizer(&stab, draws(shots, seed));
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
        let _ = sample_bitslice(&mut bitslice, draws(200, 1));
        assert!((bitslice.probability_of_one(0) - 0.5).abs() < 1e-12);
        assert!(bitslice.is_exactly_normalized());
        let mut qmdd = QmddSimulator::new(2);
        qmdd.run(&circuit).unwrap();
        let _ = sample_qmdd(&mut qmdd, draws(200, 1));
        assert!((qmdd.probability_of_one(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic_states_sample_deterministically() {
        let mut circuit = Circuit::new(3);
        circuit.x(0).x(2);
        let mut sim = BitSliceSimulator::new(3);
        sim.run(&circuit).unwrap();
        let hist = sample_bitslice(&mut sim, draws(64, 5));
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
    fn shared_seed_draws_are_deterministic() {
        assert_eq!(draws(16, 9), draws(16, 9));
        assert_ne!(draws(16, 9), draws(16, 10));
        assert!(draws(1000, 3).iter().all(|u| (0.0..1.0).contains(u)));
    }
}
