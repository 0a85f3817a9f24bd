//! The [`Simulator`] facade over the bit-sliced BDD state.

use crate::gates;
use crate::state::BitSliceState;
use sliq_circuit::{Gate, SimulationError, Simulator};
use sliq_math::Algebraic;

/// Resource limits for the bit-sliced backend (used by the benchmark harness
/// to emulate the paper's per-case memory-out condition).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitSliceLimits {
    /// Maximum number of live BDD nodes; `None` means unlimited.
    pub max_nodes: Option<usize>,
    /// Maximum bytes across the kernel's arena, unique subtables and op
    /// caches; `None` means unlimited.  Exceeding it surfaces as
    /// [`SimulationError::CapacityExceeded`] at the next gate boundary (and
    /// bounds the kernel's own sifting passes), leaving the state queryable
    /// and pre-limit snapshots restorable.
    pub max_bytes: Option<usize>,
}

/// The bit-sliced BDD quantum circuit simulator — the paper's contribution.
///
/// The full state vector is represented by `4·r` BDDs over the qubit
/// variables plus one integer `k` (Section III-B); gates are applied by the
/// pre-characterised Boolean formulas of Table II, so the simulation is exact
/// for the whole supported gate set, and measurement probabilities are
/// computed from exact weighted SAT counts with only a final rounding to
/// `f64`.
///
/// ```
/// use sliq_circuit::{Circuit, Simulator};
/// use sliq_core::BitSliceSimulator;
/// let mut circuit = Circuit::new(2);
/// circuit.h(0).cx(0, 1);
/// let mut sim = BitSliceSimulator::new(2);
/// sim.run(&circuit)?;
/// assert!((sim.probability_of_one(1) - 0.5).abs() < 1e-12);
/// assert!(sim.is_exactly_normalized());
/// # Ok::<(), sliq_circuit::SimulationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitSliceSimulator {
    state: BitSliceState,
    limits: BitSliceLimits,
    gates_applied: usize,
}

impl BitSliceSimulator {
    /// Creates the simulator in the all-zeros state.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            state: BitSliceState::new(num_qubits),
            limits: BitSliceLimits::default(),
            gates_applied: 0,
        }
    }

    /// Creates the simulator in an arbitrary basis state.
    pub fn with_initial_bits(bits: &[bool]) -> Self {
        Self {
            state: BitSliceState::with_initial_bits(bits),
            limits: BitSliceLimits::default(),
            gates_applied: 0,
        }
    }

    /// Sets resource limits (builder style).  The limits are pushed into the
    /// kernel so its own exclusive phases (sifting, cache growth) respect
    /// them too, not just the per-gate checks here.
    pub fn with_limits(mut self, limits: BitSliceLimits) -> Self {
        self.limits = limits;
        self.state
            .set_memory_limits(limits.max_nodes, limits.max_bytes);
        self
    }

    /// Enables automatic variable reordering (builder style): the qubit
    /// order is sifted whenever the live BDD outgrows the kernel's trigger
    /// threshold, shrinking the state representation on workloads where the
    /// qubit-major order is bad (e.g. 20+-qubit random Clifford+T
    /// circuits).  All amplitudes and probabilities are unaffected — only
    /// the internal BDD shape changes.
    pub fn with_auto_reorder(mut self, enabled: bool) -> Self {
        self.state.set_auto_reorder(enabled);
        self
    }

    /// Sifts the qubit variable order now, returning the run's statistics.
    pub fn reorder(&mut self) -> sliq_bdd::ReorderStats {
        self.state.reorder()
    }

    /// Access to the underlying bit-sliced state.
    pub fn state(&self) -> &BitSliceState {
        &self.state
    }

    /// Mutable access to the underlying bit-sliced state.
    pub fn state_mut(&mut self) -> &mut BitSliceState {
        &mut self.state
    }

    /// The exact algebraic amplitude of a basis state (exact up to the
    /// floating-point measurement factor, which is 1 before any measurement).
    pub fn amplitude(&mut self, bits: &[bool]) -> Algebraic {
        self.state.amplitude(bits)
    }

    /// The amplitude of a basis state as a floating-point complex number;
    /// supports arbitrary coefficient widths (deep circuits), unlike the
    /// exact [`BitSliceSimulator::amplitude`] accessor.
    pub fn amplitude_complex(&mut self, bits: &[bool]) -> sliq_math::Complex {
        self.state.amplitude_complex(bits)
    }

    /// The current integer bit width `r` of the coefficient slices.
    pub fn width(&self) -> usize {
        self.state.width()
    }

    /// The global `1/√2ᵏ` exponent.
    pub fn k(&self) -> i64 {
        self.state.k()
    }

    /// The number of live BDD nodes representing the state.
    pub fn node_count(&self) -> usize {
        self.state.node_count()
    }

    /// The number of gates applied so far.
    pub fn gates_applied(&self) -> usize {
        self.gates_applied
    }

    /// Exactness check: `true` iff the squared amplitudes sum to exactly
    /// `2ᵏ` (integer identity, no tolerance).
    pub fn is_exactly_normalized(&mut self) -> bool {
        self.state.is_exactly_normalized()
    }

    /// Captures a checkpoint of the current state (O(r) — no BDD nodes are
    /// copied, the slice roots are pinned in the manager's root registry).
    pub fn snapshot(&mut self) -> crate::StateSnapshot {
        self.state.snapshot()
    }

    /// Rolls the state back to `snapshot` (which stays valid for further
    /// restores until released).
    pub fn restore(&mut self, snapshot: &crate::StateSnapshot) {
        self.state.restore(snapshot);
    }

    /// Releases a checkpoint, unpinning its roots.
    pub fn release_snapshot(&mut self, snapshot: crate::StateSnapshot) {
        self.state.release_snapshot(snapshot);
    }

    fn check_limits(&self) -> Result<(), SimulationError> {
        if let Some(max) = self.limits.max_nodes {
            let live = self.state.manager().allocated_nodes();
            if live > max {
                return Err(SimulationError::ResourceLimit {
                    backend: "bitslice",
                    detail: format!("live BDD nodes {live} exceed the configured limit {max}"),
                });
            }
        }
        if let Some(max) = self.limits.max_bytes {
            let used = self.state.manager().current_bytes();
            if used > max {
                return Err(SimulationError::CapacityExceeded {
                    backend: "bitslice",
                    used_bytes: used,
                    limit_bytes: max,
                });
            }
        }
        Ok(())
    }
}

impl Simulator for BitSliceSimulator {
    fn name(&self) -> &'static str {
        "bitslice"
    }

    fn num_qubits(&self) -> usize {
        self.state.num_qubits()
    }

    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimulationError> {
        if gate.is_dynamic() {
            // Measurement/reset/feed-forward are interpreted by the session
            // layer via `measure_with`; they never enter the update table.
            return Err(SimulationError::UnsupportedGate {
                backend: "bitslice",
                gate: gate.to_string(),
            });
        }
        gates::apply(&mut self.state, gate);
        self.gates_applied += 1;
        // Between-gate safe point: no apply recursion is in flight, so the
        // kernel may sift the variable order if its trigger fired.
        self.state.maybe_reorder();
        self.state.maybe_collect_garbage();
        self.check_limits()
    }

    fn probability_of_one(&mut self, qubit: usize) -> f64 {
        self.state.probability_of(qubit, true)
    }

    fn probability_of_basis_state(&mut self, bits: &[bool]) -> f64 {
        self.state.probability_of_basis(bits)
    }

    fn measure_with(&mut self, qubit: usize, u: f64) -> bool {
        self.state.measure_with(qubit, u)
    }

    fn total_probability(&mut self) -> f64 {
        self.state.total_probability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sliq_circuit::Circuit;

    #[test]
    fn runs_a_full_circuit_through_the_trait() {
        let mut circuit = Circuit::new(3);
        circuit.h(0).cx(0, 1).t(1).h(2).cz(1, 2).x(0);
        let mut sim = BitSliceSimulator::new(3);
        sim.run(&circuit).unwrap();
        assert_eq!(sim.gates_applied(), 6);
        assert!((sim.total_probability() - 1.0).abs() < 1e-12);
        assert!(sim.is_exactly_normalized());
        assert!(sim.node_count() > 0);
    }

    #[test]
    fn node_limit_aborts_simulation() {
        let mut circuit = Circuit::new(10);
        for q in 0..10 {
            circuit.h(q);
        }
        for q in 0..9 {
            circuit.cx(q, q + 1);
            circuit.t(q);
            circuit.h(q);
        }
        let mut sim = BitSliceSimulator::new(10).with_limits(BitSliceLimits {
            max_nodes: Some(8),
            ..Default::default()
        });
        assert!(matches!(
            sim.run(&circuit),
            Err(SimulationError::ResourceLimit { .. })
        ));
    }

    #[test]
    fn byte_budget_surfaces_as_capacity_exceeded_and_state_stays_queryable() {
        let mut circuit = Circuit::new(12);
        for q in 0..12 {
            circuit.h(q);
        }
        for q in 0..11 {
            circuit.cx(q, q + 1);
            circuit.t(q);
            circuit.h(q);
        }
        // A 4 KiB budget is below even the empty kernel's footprint, so the
        // first gate boundary must trip it.
        let mut sim = BitSliceSimulator::new(12).with_limits(BitSliceLimits {
            max_nodes: None,
            max_bytes: Some(4 * 1024),
        });
        let err = sim.run(&circuit).unwrap_err();
        match err {
            SimulationError::CapacityExceeded {
                backend,
                used_bytes,
                limit_bytes,
            } => {
                assert_eq!(backend, "bitslice");
                assert!(used_bytes > limit_bytes);
                assert_eq!(limit_bytes, 4 * 1024);
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
        // Graceful degradation: the partially-advanced state is still
        // queryable after the budget fired.
        let p = sim.probability_of_one(0);
        assert!((0.0..=1.0).contains(&p));
        assert!(sim.node_count() > 0);
    }

    #[test]
    fn bernstein_vazirani_recovers_the_secret_exactly() {
        // BV with secret 1011 over 4 data qubits + 1 ancilla.
        let n = 4;
        let secret = [true, true, false, true];
        let mut circuit = Circuit::new(n + 1);
        circuit.x(n).h(n);
        for q in 0..n {
            circuit.h(q);
        }
        for (q, &bit) in secret.iter().enumerate() {
            if bit {
                circuit.cx(q, n);
            }
        }
        for q in 0..n {
            circuit.h(q);
        }
        let mut sim = BitSliceSimulator::new(n + 1);
        sim.run(&circuit).unwrap();
        for (q, &bit) in secret.iter().enumerate() {
            assert!((sim.probability_of_one(q) - if bit { 1.0 } else { 0.0 }).abs() < 1e-12);
        }
    }
}
