//! The bit-sliced quantum state representation (Section III-B of the paper).
//!
//! A state vector over `n` qubits with algebraic amplitudes
//! `αᵢ = (aᵢ·ω³ + bᵢ·ω² + cᵢ·ω + dᵢ)/√2ᵏ` is stored as
//!
//! * a shared scalar `k`,
//! * four integer vectors `a⃗, b⃗, c⃗, d⃗` of length `2ⁿ`, each of which is
//!   **bit-sliced**: bit `j` of the whole vector is a Boolean function of the
//!   `n` qubit variables, represented as one BDD.
//!
//! The integers use two's complement with a dynamically growing width `r`, so
//! the full state occupies `4·r` BDDs over `n` variables plus one machine
//! integer — never an explicit `2ⁿ`-element array.

use sliq_bdd::{Manager, NodeId, ReorderStats, RootSlot};
use sliq_math::Algebraic;

/// Index of one of the four coefficient vector families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Coefficients of ω³.
    A = 0,
    /// Coefficients of ω².
    B = 1,
    /// Coefficients of ω.
    C = 2,
    /// Constant coefficients.
    D = 3,
}

/// The bit-sliced BDD representation of an `n`-qubit state vector.
#[derive(Debug, Clone)]
pub struct BitSliceState {
    /// The BDD manager; qubit `q` is BDD variable `q`.
    pub(crate) mgr: Manager,
    pub(crate) num_qubits: usize,
    /// Current two's-complement bit width of the integer coefficients.
    pub(crate) r: usize,
    /// Global `1/√2ᵏ` scaling exponent.
    pub(crate) k: i64,
    /// `slices[f][j]` is the BDD of bit `j` (LSB first) of family `f`.
    pub(crate) slices: [Vec<NodeId>; 4],
    /// Registry slots protecting the live slice roots inside the manager
    /// (one block of `4·r` slots, kept in sync by
    /// [`BitSliceState::sync_registered_roots`]).  The registration is what
    /// lets the manager garbage-collect and *reorder* autonomously: the
    /// slice handles survive because the registered nodes keep their ids
    /// and functions across level swaps.
    root_slots: Vec<RootSlot>,
    /// Floating-point normalisation factor accumulated by measurements
    /// (`s` in Eq. 13 of the paper); exactly 1.0 until the first collapse.
    pub(crate) norm_factor: f64,
}

/// The minimum representable bit width (value +1 needs a sign bit).
pub(crate) const MIN_WIDTH: usize = 2;

/// A checkpoint of a [`BitSliceState`] taken by [`BitSliceState::snapshot`].
///
/// The snapshot does not copy any BDD nodes — it records the `4·r` slice
/// roots (plus the scalars `r`, `k` and the measurement factor `s`) and
/// registers them with the manager's root registry, so the captured nodes
/// survive garbage collection and variable reordering for as long as the
/// snapshot is alive.  Restoring is O(r); taking a snapshot is O(r) root
/// registrations.
///
/// Release a snapshot with [`BitSliceState::release_snapshot`] when it is no
/// longer needed; a dropped-but-unreleased snapshot keeps its nodes
/// registered (and therefore live) until the manager itself is dropped.
#[derive(Debug)]
pub struct StateSnapshot {
    r: usize,
    k: i64,
    norm_factor: f64,
    /// One registry slot per slice root, in `all_roots` order (family-major).
    slots: Vec<RootSlot>,
}

impl StateSnapshot {
    /// The coefficient bit width at the time of the snapshot.
    pub fn width(&self) -> usize {
        self.r
    }
}

impl BitSliceState {
    /// Creates the state `|0…0⟩` over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self::with_initial_bits(&vec![false; num_qubits])
    }

    /// Creates the basis state `|b₀…b_{n−1}⟩` (Eq. 6 of the paper): every
    /// slice BDD is constant false except `F_{d,0}`, which is the minterm of
    /// the initial bits.
    pub fn with_initial_bits(bits: &[bool]) -> Self {
        let num_qubits = bits.len();
        let mgr = Manager::new(num_qubits);
        let minterm = mgr.cube(
            &bits
                .iter()
                .enumerate()
                .map(|(q, &b)| (q, b))
                .collect::<Vec<_>>(),
        );
        let zero = NodeId::FALSE;
        let mut slices = [
            vec![zero; MIN_WIDTH],
            vec![zero; MIN_WIDTH],
            vec![zero; MIN_WIDTH],
            vec![zero; MIN_WIDTH],
        ];
        slices[Family::D as usize][0] = minterm;
        let mut state = Self {
            mgr,
            num_qubits,
            r: MIN_WIDTH,
            k: 0,
            slices,
            root_slots: Vec::new(),
            norm_factor: 1.0,
        };
        state.sync_registered_roots();
        state
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The current integer bit width `r`.
    pub fn width(&self) -> usize {
        self.r
    }

    /// The global `1/√2ᵏ` exponent.
    pub fn k(&self) -> i64 {
        self.k
    }

    /// The measurement normalisation factor `s` (1.0 before any collapse).
    pub fn normalization_factor(&self) -> f64 {
        self.norm_factor
    }

    /// The slice BDDs of one family (bit `j` of the coefficient vector is
    /// entry `j`, LSB first).
    pub fn family_slices(&self, family: Family) -> &[NodeId] {
        &self.slices[family as usize]
    }

    /// Read access to the BDD manager (e.g. for node statistics).
    pub fn manager(&self) -> &Manager {
        &self.mgr
    }

    /// Installs resource budgets on the kernel: a live-node ceiling and a
    /// byte ceiling over arena + subtables + op caches.  Both are enforced
    /// inside the kernel's sifting passes (a reorder parks early rather than
    /// blowing the budget) and polled by the simulator at gate boundaries;
    /// `None` lifts the respective limit.
    pub fn set_memory_limits(&mut self, max_nodes: Option<usize>, max_bytes: Option<usize>) {
        self.mgr.set_node_limit(max_nodes);
        self.mgr.set_max_bytes(max_bytes);
    }

    /// All `4·r` slice roots (used as the GC root set and for node counts).
    pub fn all_roots(&self) -> Vec<NodeId> {
        self.slices.iter().flatten().copied().collect()
    }

    /// The number of distinct live BDD nodes reachable from the state.
    pub fn node_count(&self) -> usize {
        self.mgr.node_count_many(&self.all_roots())
    }

    /// `(complemented_high_edges, reachable_nodes)` over the live state
    /// BDDs — the sharing the kernel's complement edges buy (a slice and
    /// its negation are one subgraph; see
    /// [`sliq_bdd::Manager::complement_edge_count`]).
    pub fn complement_edge_count(&self) -> (usize, usize) {
        self.mgr.complement_edge_count(&self.all_roots())
    }

    /// Re-registers the current `4·r` slice roots with the manager's root
    /// registry (growing or shrinking the slot block as the width changed).
    /// Called after every state mutation, so the manager always knows the
    /// live root set — for garbage collection and for reordering.
    pub(crate) fn sync_registered_roots(&mut self) {
        let roots = self.all_roots();
        while self.root_slots.len() < roots.len() {
            let slot = self.mgr.register_root(NodeId::FALSE);
            self.root_slots.push(slot);
        }
        while self.root_slots.len() > roots.len() {
            let slot = self.root_slots.pop().expect("length checked");
            self.mgr.release_root(slot);
        }
        for (&slot, f) in self.root_slots.iter().zip(roots) {
            self.mgr.set_root(slot, f);
        }
    }

    /// Runs a garbage collection if the manager considers it worthwhile.
    /// Trusts the root registry (every mutation path ends with
    /// `sync_registered_roots`), so the no-op case costs one counter
    /// comparison.
    pub fn maybe_collect_garbage(&mut self) {
        if self.mgr.should_collect() {
            self.mgr.collect_garbage_registered();
        }
    }

    /// Forces a garbage collection (rooted at the registered slice roots).
    pub fn collect_garbage(&mut self) -> usize {
        self.sync_registered_roots();
        self.mgr.collect_garbage_registered()
    }

    // ------------------------------------------------------------------ //
    // Snapshots (checkpoints and rollback)
    // ------------------------------------------------------------------ //

    /// Captures the current state as a [`StateSnapshot`].
    ///
    /// The snapshot pins its `4·r` slice roots in the manager's root
    /// registry, so later mutations (collapses, gates, GC, reordering) can
    /// never invalidate it; [`BitSliceState::restore`] rolls the state back
    /// in O(r).
    pub fn snapshot(&mut self) -> StateSnapshot {
        let roots = self.all_roots();
        let slots = roots
            .into_iter()
            .map(|f| self.mgr.register_root(f))
            .collect();
        StateSnapshot {
            r: self.r,
            k: self.k,
            norm_factor: self.norm_factor,
            slots,
        }
    }

    /// Restores the state captured by `snapshot` (which stays valid and can
    /// be restored again).  The restored slice roots may have been relabelled
    /// by reordering in the meantime; the registry slots track that, so the
    /// snapshot is re-read through the registry rather than from the raw ids.
    pub fn restore(&mut self, snapshot: &StateSnapshot) {
        for (family, chunk) in snapshot.slots.chunks(snapshot.r).enumerate() {
            self.slices[family].clear();
            self.slices[family].extend(chunk.iter().map(|&slot| self.mgr.root(slot)));
        }
        self.r = snapshot.r;
        self.k = snapshot.k;
        self.norm_factor = snapshot.norm_factor;
        self.sync_registered_roots();
    }

    /// Releases a snapshot, unpinning its roots from the manager registry.
    pub fn release_snapshot(&mut self, snapshot: StateSnapshot) {
        for slot in snapshot.slots {
            self.mgr.release_root(slot);
        }
    }

    // ------------------------------------------------------------------ //
    // Variable reordering
    // ------------------------------------------------------------------ //

    /// Enables or disables automatic variable reordering: when enabled, the
    /// simulator sifts the qubit order whenever the live BDD grows past the
    /// manager's trigger threshold.  All slice handles stay valid across a
    /// reordering (they are registered roots).
    pub fn set_auto_reorder(&mut self, enabled: bool) {
        self.mgr.set_auto_reorder(enabled);
    }

    /// Sets the allocated-node trigger for automatic reordering.
    pub fn set_reorder_threshold(&mut self, threshold: usize) {
        self.mgr.set_reorder_threshold(threshold);
    }

    /// Enables converging sifting (repeat passes until < 1% gain).
    pub fn set_converging_sifting(&mut self, converge: bool) {
        self.mgr.set_converging_sifting(converge);
    }

    /// Sifts the qubit variable order now, returning the run's statistics.
    pub fn reorder(&mut self) -> ReorderStats {
        self.sync_registered_roots();
        self.mgr.reorder()
    }

    /// Lets the manager reorder if its automatic trigger fires (a no-op
    /// unless [`BitSliceState::set_auto_reorder`] enabled it).  Trusts the
    /// root registry like [`BitSliceState::maybe_collect_garbage`], so the
    /// per-gate fast path is two comparisons.  Returns `true` if a
    /// reordering ran.
    pub fn maybe_reorder(&mut self) -> bool {
        self.mgr.maybe_reorder()
    }

    // ------------------------------------------------------------------ //
    // Width management (the paper's dynamic `r` growth)
    // ------------------------------------------------------------------ //

    /// Sign-extends every coefficient vector by `extra` bits.  Adding two
    /// sign-extended `r+1`-bit numbers can never overflow, which is how the
    /// implementation realises the paper's "allocate extra BDDs on overflow"
    /// without ever producing a wrapped result.
    pub(crate) fn extend(&mut self, extra: usize) {
        for slices in self.slices.iter_mut() {
            let msb = *slices.last().expect("width is at least MIN_WIDTH");
            for _ in 0..extra {
                slices.push(msb);
            }
        }
        self.r += extra;
    }

    /// Drops redundant sign slices: while the two topmost slices of *every*
    /// family are identical BDDs, the top one carries no information.
    /// Additionally factors out common powers of two: when the least
    /// significant slice of every family is constant false, all coefficients
    /// are even and can be divided by 2 while lowering `k` by 2 (since
    /// `2 = √2²`) — the same normalisation the SliQSim tool performs to keep
    /// the bit width proportional to the *significant* precision rather than
    /// to the circuit depth.
    pub(crate) fn shrink(&mut self) {
        while self.r > MIN_WIDTH && self.slices.iter().all(|s| s[self.r - 1] == s[self.r - 2]) {
            for s in self.slices.iter_mut() {
                s.pop();
            }
            self.r -= 1;
        }
        // Factor out common powers of two into k.
        while self.k >= 2 && self.slices.iter().all(|s| s[0].is_false()) {
            let all_zero = self.slices.iter().all(|s| s.iter().all(|f| f.is_false()));
            if all_zero {
                // The zero vector would reduce forever; it only occurs for an
                // unnormalised state, so leave it alone.
                break;
            }
            for s in self.slices.iter_mut() {
                s.remove(0);
                let msb = *s.last().expect("width at least MIN_WIDTH - 1");
                if s.len() < MIN_WIDTH {
                    s.push(msb);
                }
            }
            if self.r > MIN_WIDTH {
                self.r -= 1;
            }
            self.k -= 2;
        }
    }

    // ------------------------------------------------------------------ //
    // Exact amplitude extraction
    // ------------------------------------------------------------------ //

    /// The exact algebraic amplitude of the basis state `bits`, ignoring the
    /// floating-point measurement factor `s` (which is 1 before any
    /// measurement); multiply by [`BitSliceState::normalization_factor`] for
    /// the post-measurement value.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_qubits()` or if the coefficient width
    /// exceeds 63 bits (far beyond anything a circuit of practical depth
    /// produces, since each Hadamard adds at most one bit).
    pub fn amplitude(&mut self, bits: &[bool]) -> Algebraic {
        assert_eq!(bits.len(), self.num_qubits, "wrong number of qubit values");
        assert!(
            self.r <= 63,
            "amplitude extraction supports widths up to 63 bits"
        );
        let literals: Vec<(usize, bool)> = bits.iter().enumerate().map(|(q, &b)| (q, b)).collect();
        let mut coeffs = [0i64; 4];
        for (fi, family) in self.slices.iter().enumerate() {
            let mut value: i64 = 0;
            for (j, &slice) in family.iter().enumerate() {
                let bit = {
                    let restricted = self.mgr.cofactor_cube(slice, &literals);
                    debug_assert!(restricted.is_terminal());
                    restricted.is_true()
                };
                if bit {
                    if j == self.r - 1 {
                        value -= 1i64 << j; // sign bit
                    } else {
                        value += 1i64 << j;
                    }
                }
            }
            coeffs[fi] = value;
        }
        Algebraic::new(
            coeffs[Family::A as usize],
            coeffs[Family::B as usize],
            coeffs[Family::C as usize],
            coeffs[Family::D as usize],
            self.k as i32,
        )
    }

    /// The amplitude of the basis state `bits` as a floating-point complex
    /// number.  Unlike [`BitSliceState::amplitude`] this supports arbitrary
    /// coefficient widths (the conversion to `f64` is the only lossy step),
    /// which matters for very deep circuits whose exact integer coefficients
    /// exceed 63 bits.
    pub fn amplitude_complex(&mut self, bits: &[bool]) -> sliq_math::Complex {
        assert_eq!(bits.len(), self.num_qubits, "wrong number of qubit values");
        let literals: Vec<(usize, bool)> = bits.iter().enumerate().map(|(q, &b)| (q, b)).collect();
        let mut coeffs = [0.0f64; 4];
        for (fi, family) in self.slices.iter().enumerate() {
            let mut value = 0.0f64;
            for (j, &slice) in family.iter().enumerate() {
                let restricted = self.mgr.cofactor_cube(slice, &literals);
                debug_assert!(restricted.is_terminal());
                if restricted.is_true() {
                    let weight = 2f64.powi(j as i32);
                    if j == self.r - 1 {
                        value -= weight;
                    } else {
                        value += weight;
                    }
                }
            }
            coeffs[fi] = value;
        }
        let (a, b, c, d) = (coeffs[0], coeffs[1], coeffs[2], coeffs[3]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let scale = 2f64.powf(-(self.k as f64) / 2.0) * self.norm_factor;
        sliq_math::Complex::new(((c - a) * s + d) * scale, ((a + c) * s + b) * scale)
    }

    /// The full state vector as exact algebraic amplitudes (index `i` has
    /// qubit `q` equal to bit `q` of `i`).  Only sensible for small `n`;
    /// intended for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits() > 20`.
    pub fn to_algebraic_vector(&mut self) -> Vec<Algebraic> {
        assert!(
            self.num_qubits <= 20,
            "explicit expansion limited to 20 qubits"
        );
        let n = self.num_qubits;
        (0..(1usize << n))
            .map(|i| {
                let bits: Vec<bool> = (0..n).map(|q| i >> q & 1 == 1).collect();
                self.amplitude(&bits)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_has_unit_amplitude_on_the_basis_state() {
        let mut state = BitSliceState::with_initial_bits(&[true, false, true]);
        assert_eq!(state.amplitude(&[true, false, true]), Algebraic::one());
        assert_eq!(state.amplitude(&[false, false, true]), Algebraic::zero());
        assert_eq!(state.k(), 0);
        assert_eq!(state.width(), MIN_WIDTH);
        assert_eq!(state.normalization_factor(), 1.0);
    }

    #[test]
    fn all_zero_state() {
        let mut state = BitSliceState::new(4);
        assert_eq!(state.amplitude(&[false; 4]), Algebraic::one());
        let vector = {
            let mut small = BitSliceState::new(2);
            small.to_algebraic_vector()
        };
        assert_eq!(vector[0], Algebraic::one());
        assert!(vector[1..].iter().all(Algebraic::is_zero));
    }

    #[test]
    fn extend_and_shrink_are_inverses_on_a_fresh_state() {
        let mut state = BitSliceState::new(2);
        let before = state.amplitude(&[false, false]);
        state.extend(3);
        assert_eq!(state.width(), MIN_WIDTH + 3);
        // Sign extension must not change any amplitude.
        assert_eq!(state.amplitude(&[false, false]), before);
        state.shrink();
        assert_eq!(state.width(), MIN_WIDTH);
        assert_eq!(state.amplitude(&[false, false]), before);
    }

    #[test]
    fn node_count_and_gc() {
        let mut state = BitSliceState::new(6);
        let count = state.node_count();
        assert!(count >= 1, "the initial minterm needs at least one node");
        let freed = state.collect_garbage();
        assert_eq!(state.node_count(), count, "GC must not drop live slices");
        let _ = freed;
    }

    #[test]
    fn family_accessors() {
        let state = BitSliceState::new(3);
        assert_eq!(state.family_slices(Family::D).len(), state.width());
        assert!(state.family_slices(Family::A)[0].is_false());
        assert_eq!(state.all_roots().len(), 4 * state.width());
    }
}
