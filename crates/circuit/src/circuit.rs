//! The circuit intermediate representation and its builder API.

use crate::error::CircuitError;
use crate::gate::Gate;
use std::collections::BTreeMap;
use std::fmt;

/// A quantum circuit: a number of qubits and an ordered list of gates.
///
/// The builder methods return `&mut Self` so circuits can be written fluently:
///
/// ```
/// use sliq_circuit::Circuit;
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// assert_eq!(bell.len(), 2);
/// assert!(bell.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits (and no classical
    /// bits — see [`Circuit::with_clbits`]).
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            num_clbits: 0,
            gates: Vec::new(),
        }
    }

    /// Creates an empty circuit over `num_qubits` qubits and `num_clbits`
    /// classical bits (the measurement/feed-forward register).
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Self {
            num_qubits,
            num_clbits,
            gates: Vec::new(),
        }
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Grows the classical register to at least `num_clbits` bits.
    pub fn ensure_clbits(&mut self, num_clbits: usize) -> &mut Self {
        self.num_clbits = self.num_clbits.max(num_clbits);
        self
    }

    /// The number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Appends a gate.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.gates.push(gate);
        self
    }

    /// Appends all gates of `other` (which must act on at most as many
    /// qubits as `self`).  The classical register grows to cover both.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        debug_assert!(other.num_qubits <= self.num_qubits);
        self.num_clbits = self.num_clbits.max(other.num_clbits);
        self.gates.extend_from_slice(&other.gates);
        self
    }

    // ------------------------------------------------------------------ //
    // Fluent builders, one per supported gate.
    // ------------------------------------------------------------------ //

    /// Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Phase gate S.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S(q))
    }

    /// Inverse phase gate S†.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg(q))
    }

    /// T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T(q))
    }

    /// Inverse T gate T†.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Tdg(q))
    }

    /// X-axis π/2 rotation.
    pub fn rx_pi2(&mut self, q: usize) -> &mut Self {
        self.push(Gate::RxPi2(q))
    }

    /// Y-axis π/2 rotation.
    pub fn ry_pi2(&mut self, q: usize) -> &mut Self {
        self.push(Gate::RyPi2(q))
    }

    /// Controlled-NOT.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cnot { control, target })
    }

    /// Controlled-Z.
    pub fn cz(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cz { control, target })
    }

    /// Toffoli (doubly-controlled X).
    pub fn ccx(&mut self, c0: usize, c1: usize, target: usize) -> &mut Self {
        self.push(Gate::Toffoli {
            controls: vec![c0, c1],
            target,
        })
    }

    /// Multi-controlled X with an arbitrary number of controls.
    pub fn mcx(&mut self, controls: Vec<usize>, target: usize) -> &mut Self {
        self.push(Gate::Toffoli { controls, target })
    }

    /// Fredkin (controlled SWAP).
    pub fn cswap(&mut self, control: usize, target1: usize, target2: usize) -> &mut Self {
        self.push(Gate::Fredkin {
            controls: vec![control],
            target1,
            target2,
        })
    }

    /// Multi-controlled SWAP with an arbitrary number of controls.
    pub fn mcswap(&mut self, controls: Vec<usize>, target1: usize, target2: usize) -> &mut Self {
        self.push(Gate::Fredkin {
            controls,
            target1,
            target2,
        })
    }

    /// Unconditional SWAP (a Fredkin gate with no controls).
    pub fn swap(&mut self, target1: usize, target2: usize) -> &mut Self {
        self.push(Gate::Fredkin {
            controls: Vec::new(),
            target1,
            target2,
        })
    }

    /// Mid-circuit measurement of `qubit` into classical bit `clbit`
    /// (growing the classical register if needed).
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> &mut Self {
        self.ensure_clbits(clbit + 1);
        self.push(Gate::Measure { qubit, clbit })
    }

    /// Reset of `qubit` to |0⟩.
    pub fn reset(&mut self, qubit: usize) -> &mut Self {
        self.push(Gate::Reset { qubit })
    }

    /// Classical feed-forward: apply `gate` iff clbits
    /// `offset..offset + width` equal `value` (growing the classical
    /// register if needed).
    pub fn conditional(
        &mut self,
        offset: usize,
        width: usize,
        value: u64,
        gate: Gate,
    ) -> &mut Self {
        self.ensure_clbits(offset + width);
        self.push(Gate::Conditional {
            offset,
            width,
            value,
            gate: Box::new(gate),
        })
    }

    /// Shorthand for a single-bit condition: apply `gate` iff `clbit` is 1.
    pub fn if_bit(&mut self, clbit: usize, gate: Gate) -> &mut Self {
        self.conditional(clbit, 1, 1, gate)
    }

    // ------------------------------------------------------------------ //
    // Analysis
    // ------------------------------------------------------------------ //

    /// Checks that every gate addresses existing, distinct qubits, that
    /// dynamic operations stay inside the classical register, and that
    /// conditionals are well-formed.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] encountered, if any.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for (i, gate) in self.gates.iter().enumerate() {
            gate.check_operands(self.num_qubits, i)?;
            if let Gate::Conditional {
                width,
                value,
                gate: inner,
                ..
            } = gate
            {
                if *width == 0 || *width > 64 {
                    return Err(CircuitError::InvalidConditional {
                        gate_index: i,
                        detail: format!("condition width {width} is outside 1..=64"),
                    });
                }
                if *width < 64 && value >> width != 0 {
                    return Err(CircuitError::InvalidConditional {
                        gate_index: i,
                        detail: format!("value {value} does not fit in {width} bits"),
                    });
                }
                if inner.is_dynamic() {
                    return Err(CircuitError::InvalidConditional {
                        gate_index: i,
                        detail: format!("conditioned body `{inner}` is itself dynamic"),
                    });
                }
            }
            if let Some((offset, width)) = gate.clbit_range() {
                let end = offset.saturating_add(width);
                if end > self.num_clbits {
                    return Err(CircuitError::ClbitOutOfRange {
                        clbit: end.saturating_sub(1),
                        num_clbits: self.num_clbits,
                        gate_index: i,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of gates per gate name.
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for g in &self.gates {
            *counts.entry(g.name()).or_insert(0) += 1;
        }
        counts
    }

    /// The number of T/T† gates (a common cost metric).
    pub fn t_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::T(_) | Gate::Tdg(_)))
            .count()
    }

    /// Returns `true` if every gate is a Clifford gate (simulatable by the
    /// stabilizer baseline).
    pub fn is_clifford(&self) -> bool {
        self.gates.iter().all(Gate::is_clifford)
    }

    /// Returns `true` if the circuit contains any dynamic operation
    /// (measurement, reset, or a classically-conditioned gate).
    pub fn is_dynamic(&self) -> bool {
        self.gates.iter().any(Gate::is_dynamic)
    }

    /// Circuit depth: the length of the longest chain of gates that share
    /// qubits (gates on disjoint qubits count as parallel).
    pub fn depth(&self) -> usize {
        let mut level_of_qubit = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for gate in &self.gates {
            let level = gate
                .qubits()
                .iter()
                .map(|&q| level_of_qubit[q])
                .max()
                .unwrap_or(0)
                + 1;
            for q in gate.qubits() {
                level_of_qubit[q] = level;
            }
            depth = depth.max(level);
        }
        depth
    }

    /// The inverse circuit (gates reversed and individually inverted).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotInvertible`] if the circuit contains
    /// `Rx(π/2)` or `Ry(π/2)`, whose inverses fall outside the gate set.
    pub fn inverse(&self) -> Result<Circuit, CircuitError> {
        let mut inv = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        for gate in self.gates.iter().rev() {
            match gate.inverse() {
                Some(g) => {
                    inv.push(g);
                }
                None => {
                    return Err(CircuitError::NotInvertible {
                        gate: gate.to_string(),
                    })
                }
            }
        }
        Ok(inv)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit on {} qubits, {} gates:",
            self.num_qubits,
            self.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        self.gates.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        c
    }

    #[test]
    fn builder_and_accessors() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).ccx(0, 1, 2).swap(1, 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.num_qubits(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.gates()[0], Gate::H(0));
        assert_eq!(c.iter().count(), 4);
    }

    #[test]
    fn validation_catches_bad_indices_and_duplicates() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 5);
        assert!(matches!(
            c.validate(),
            Err(CircuitError::QubitOutOfRange { qubit: 5, .. })
        ));
        let mut d = Circuit::new(2);
        d.cx(1, 1);
        assert!(matches!(
            d.validate(),
            Err(CircuitError::DuplicateOperands { .. })
        ));
        assert!(ghz(5).validate().is_ok());
    }

    #[test]
    fn gate_counts_and_t_count() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).t(1).tdg(0).cx(0, 1);
        let counts = c.gate_counts();
        assert_eq!(counts["t"], 2);
        assert_eq!(counts["tdg"], 1);
        assert_eq!(counts["cx"], 1);
        assert_eq!(c.t_count(), 3);
    }

    #[test]
    fn clifford_detection() {
        assert!(ghz(4).is_clifford());
        let mut c = ghz(4);
        c.t(2);
        assert!(!c.is_clifford());
    }

    #[test]
    fn depth_counts_parallel_gates_once() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3); // all parallel
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3); // still parallel with each other
        assert_eq!(c.depth(), 2);
        c.cx(1, 2); // serialises
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn inverse_reverses_and_daggers() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).t(1).cx(0, 1);
        let inv = c.inverse().expect("invertible");
        assert_eq!(
            inv.gates(),
            &[
                Gate::Cnot {
                    control: 0,
                    target: 1
                },
                Gate::Tdg(1),
                Gate::Sdg(0),
                Gate::H(0),
            ]
        );
        let mut with_rx = Circuit::new(1);
        with_rx.rx_pi2(0);
        assert!(with_rx.inverse().is_err());
    }

    #[test]
    fn append_and_extend() {
        let mut c = ghz(3);
        let mut d = Circuit::new(3);
        d.t(2);
        c.append(&d);
        assert_eq!(c.len(), 4);
        c.extend(vec![Gate::X(0), Gate::Z(1)]);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn display_lists_gates() {
        let text = ghz(2).to_string();
        assert!(text.contains("h q[0]"));
        assert!(text.contains("cx q[0], q[1]"));
    }

    #[test]
    fn dynamic_builders_grow_the_classical_register() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 1).if_bit(1, Gate::X(1)).reset(0);
        assert_eq!(c.num_clbits(), 2);
        assert!(c.is_dynamic());
        assert!(c.validate().is_ok());
        assert!(!ghz(2).is_dynamic());
        let mut d = Circuit::new(3);
        d.append(&c);
        assert_eq!(d.num_clbits(), 2);
    }

    #[test]
    fn validation_catches_bad_clbits_and_conditionals() {
        let mut c = Circuit::with_clbits(2, 1);
        c.push(Gate::Measure { qubit: 0, clbit: 4 });
        assert!(matches!(
            c.validate(),
            Err(CircuitError::ClbitOutOfRange { clbit: 4, .. })
        ));

        let mut zero_width = Circuit::with_clbits(1, 1);
        zero_width.push(Gate::Conditional {
            offset: 0,
            width: 0,
            value: 0,
            gate: Box::new(Gate::X(0)),
        });
        assert!(matches!(
            zero_width.validate(),
            Err(CircuitError::InvalidConditional { .. })
        ));

        let mut oversized_value = Circuit::with_clbits(1, 2);
        oversized_value.push(Gate::Conditional {
            offset: 0,
            width: 2,
            value: 5,
            gate: Box::new(Gate::X(0)),
        });
        assert!(matches!(
            oversized_value.validate(),
            Err(CircuitError::InvalidConditional { .. })
        ));

        let mut nested = Circuit::with_clbits(1, 1);
        nested.push(Gate::Conditional {
            offset: 0,
            width: 1,
            value: 1,
            gate: Box::new(Gate::Reset { qubit: 0 }),
        });
        assert!(matches!(
            nested.validate(),
            Err(CircuitError::InvalidConditional { .. })
        ));

        // Conditional bodies still get qubit-range checking.
        let mut bad_qubit = Circuit::with_clbits(1, 1);
        bad_qubit.if_bit(0, Gate::X(7));
        assert!(matches!(
            bad_qubit.validate(),
            Err(CircuitError::QubitOutOfRange { qubit: 7, .. })
        ));
    }
}
